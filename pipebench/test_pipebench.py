"""Tests of the benchmark itself: output checks, span bookkeeping, seeding
and the metric lists.

Run from the repository root:  python3 -m pytest -q pipebench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from dclimba import gridio, training  # noqa: E402


# ---------------------------------------------------------------------------
# planted bad outputs count as failed operations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def correct16_state(tmp_path_factory):
    return workloads.Correct16().setup(5, tmp_path_factory.mktemp("c16"))


def _plant(kind, values):
    out = values.copy()
    valid = np.argwhere(np.isfinite(out))
    t, i, j = valid[len(valid) // 2]
    if kind == "nan":
        out[t, i, j] = np.nan
    elif kind == "negative":
        out[t, i, j] = -0.5
    return out


@pytest.mark.parametrize("kind,failed", [("none", 0), ("nan", 1), ("negative", 1)])
def test_planted_bad_correction_is_a_failed_operation(kind, failed, correct16_state,
                                                      monkeypatch):
    w = workloads.Correct16()
    st = dict(correct16_state, graph=None, out=None)
    gcm = st["gcm"]
    t0, t1 = w.WINDOW
    clean = np.where(np.isfinite(gcm.values[t0:t1]), 1.0, np.nan).astype(np.float32)
    # GridField itself refuses negative values, so the planted field is bare
    planted = SimpleNamespace(values=_plant(kind, clean))
    monkeypatch.setattr(gridio, "select_neighbors", lambda *a: st["ckpt"].graph)
    monkeypatch.setattr(training, "correct_field", lambda *a, **k: planted)

    rec = workloads.Recorder()
    w.round(st, rec)
    assert (rec.attempted, rec.failed) == (2, failed)


def test_raising_operation_is_a_failed_operation(correct16_state, monkeypatch):
    st = dict(correct16_state, graph=None, out=None)
    monkeypatch.setattr(gridio, "select_neighbors", lambda *a: st["ckpt"].graph)

    def boom(*a, **k):
        raise FloatingPointError("planted")

    monkeypatch.setattr(training, "correct_field", boom)
    rec = workloads.Recorder()
    workloads.Correct16().round(st, rec)
    assert (rec.attempted, rec.failed) == (2, 1)


@pytest.mark.parametrize("kind", ["nan", "negative"])
def test_planted_bad_baseline_output_fails_its_check(kind):
    inp = np.random.default_rng(0).gamma(0.8, 5.0, size=(30, 4, 4)).astype(np.float32)
    inp[3, 1, 1] = np.nan
    good = np.where(np.isfinite(inp), inp * 0.9, np.nan).astype(np.float32)
    assert workloads.baseline_ok(inp, good)
    assert not workloads.baseline_ok(inp, _plant(kind, good))


def test_report_without_fd_mae_fails_its_check():
    assert workloads.report_ok({"composite_mean_abs_pct_bias": 3.2, "fd": {"mae": 0.1}})
    assert not workloads.report_ok({"composite_mean_abs_pct_bias": 3.2, "fd": {"mae": None}})
    assert not workloads.report_ok({"composite_mean_abs_pct_bias": None, "fd": {"mae": 0.1}})


# ---------------------------------------------------------------------------
# traced self times add up to the step
# ---------------------------------------------------------------------------

class _TwoSteps(workloads.Train8):
    STEPS = 2
    TRAIN = dataclasses.replace(workloads.Train8.TRAIN, epochs=2)


def test_traced_self_times_add_up_to_each_step(tmp_path):
    w = _TwoSteps()
    st = w.setup(4, tmp_path)
    tracer = tracing.Tracer()
    rec = workloads.Recorder(tracer)
    with tracing.installed(tracer):
        w.round(st, rec)
    assert (rec.attempted, rec.failed) == (w.PREP_REPEATS + w.STEPS, 0)

    S = tracing
    steps = [s for s in tracer.spans if s[S.NAME] == "op"]
    assert len(steps) == w.STEPS == len(rec.samples["op"])
    for step, sample in zip(steps, rec.samples["op"]):
        inside = [s for s in tracer.spans
                  if s[S.START] >= step[S.START] and s[S.END] <= step[S.END]]
        self_sum = sum(s[S.END] - s[S.START] - s[S.CHILD_S] for s in inside)
        duration = step[S.END] - step[S.START]
        assert self_sum == pytest.approx(duration, rel=1e-9)
        assert sample == pytest.approx(duration, abs=1e-3)
        names = {s[S.NAME] for s in inside}
        assert {"encoders.spatial_attend.fwd", "encoders.spatial_attend.bwd",
                "kernels.conv1d_backward_weight", "losses.quantile_loss.bwd",
                "autodiff.backward", "training.adam_step"} <= names


def test_uninstalling_restores_every_function():
    from dclimba import _kernels, cli, encoders

    before = (cli.read_grd, _kernels.conv1d_forward, encoders.temporal_encode,
              vars(encoders.FeaturePack)["batch"])
    with tracing.installed(tracing.Tracer()):
        assert cli.read_grd is not before[0]
    after = (cli.read_grd, _kernels.conv1d_forward, encoders.temporal_encode,
             vars(encoders.FeaturePack)["batch"])
    assert all(a is b for a, b in zip(before, after))


def test_conv_work_counts_from_shapes():
    B, cin, cout, K, T = 3, 4, 5, 3, 7
    xpad, w, gy = np.zeros((B, cin, T + K - 1)), np.zeros((cout, cin, K)), np.zeros((B, cout, T))
    flop = 2 * B * cin * cout * K * T
    assert tracing.conv_work("forward", xpad, w)[0] == flop
    assert tracing.conv_work("backward_input", gy, w)[0] == flop
    assert tracing.conv_work("backward_weight", gy, xpad)[0] == flop


# ---------------------------------------------------------------------------
# seeding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_world(name):
    w = workloads.WORKLOADS[name]
    a, b = w.world_config(1), w.world_config(2)
    assert (a.seed, b.seed) == (1, 2)
    assert dataclasses.replace(a, seed=0) == dataclasses.replace(b, seed=0)


def test_seed_fixes_the_generated_inputs(tmp_path):
    w = workloads.Correct16()
    one, again, two = (w.setup(s, tmp_path) for s in (1, 1, 2))
    assert np.array_equal(one["gcm"].values, again["gcm"].values, equal_nan=True)
    assert not np.array_equal(np.isnan(one["gcm"].values), np.isnan(two["gcm"].values))
    assert one["ckpt"].train_config == two["ckpt"].train_config
    assert one["ckpt"].encoder_config == two["ckpt"].encoder_config


# ---------------------------------------------------------------------------
# metric lists and the entry point
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_layer_table():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = json.loads((HERE / "layers.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(m["name"], m["unit"]) for m in table["per_layer"]]
    assert [m["name"] for m in bench["end_to_end"]] == \
        [k for k in table["end_to_end"] if k != "scaling"]
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "pipebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "pipebench/run.py", "--workload", "train8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
