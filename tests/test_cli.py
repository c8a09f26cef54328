import itertools
import json
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dclimba import cli
from dclimba.gridio import GridField, read_grd, write_grd
from dclimba.training import load_checkpoint


def run_cli(*argv):
    return cli.run(list(argv))


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    code = run_cli("synth", "--out", str(d), "--grid", "4x4", "--years", "3",
                   "--seed", "21", "--bias-a", "1.3", "--bias-p", "1.1",
                   "--drizzle-prob", "0.3")
    assert code == 0
    return d


@pytest.fixture(scope="module")
def trained(world_dir, tmp_path_factory):
    d = tmp_path_factory.mktemp("train")
    ckpt = d / "model.dckp"
    code = run_cli("train", "--ref", str(world_dir / "ref.grd"),
                   "--gcm", str(world_dir / "gcm.grd"),
                   "--attrs", str(world_dir / "attrs"),
                   "--out", str(ckpt), "--epochs", "2",
                   "--train-window", "0:730", "--val-window", "730:1095",
                   "--seed", "5", "--loss-log", str(d / "loss.csv"))
    assert code == 0
    return ckpt


class TestSynth:
    def test_outputs_exist(self, world_dir):
        for name in ("ref.grd", "gcm.grd"):
            assert (world_dir / name).exists()
        for attr in ("elevation", "slope", "aspect", "landcover"):
            assert (world_dir / "attrs" / f"{attr}.grd").exists()

    def test_byte_identical_reruns(self, world_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("synth", "--out", str(again), "--grid", "4x4", "--years",
                       "3", "--seed", "21", "--bias-a", "1.3", "--bias-p", "1.1",
                       "--drizzle-prob", "0.3") == 0
        for name in ("ref.grd", "gcm.grd"):
            assert (again / name).read_bytes() == (world_dir / name).read_bytes()


class TestPipeline:
    def test_train_correct_evaluate_report(self, world_dir, trained, tmp_path):
        corrected = tmp_path / "corrected.grd"
        assert run_cli("correct", "--ckpt", str(trained),
                       "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"),
                       "--out", str(corrected), "--window", "730:1095") == 0
        fld = read_grd(corrected)
        assert np.isfinite(fld.values).all()
        assert (fld.values >= 0).all()

        report = tmp_path / "report.json"
        assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"),
                       "--window", "730:1095", "--base-window", "0:730",
                       "--out", str(report)) == 0
        text = report.read_text()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True,
                                  allow_nan=False)
        rep = json.loads(text)
        assert set(rep["indices"]) == {"r10mm", "r20mm", "rx1day", "rx5day",
                                       "sdii", "cdd", "cwd", "r95ptot", "r99ptot"}
        assert rep["composite_mean_abs_pct_bias"] is not None
        assert len(rep["quantile_curves"]) > 0

        txt = tmp_path / "report.txt"
        assert run_cli("report", "--in", str(report), "--format", "text",
                       "--out", str(txt)) == 0
        assert "composite score" in txt.read_text()
        csvp = tmp_path / "report.csv"
        assert run_cli("report", "--in", str(report), "--format", "csv",
                       "--out", str(csvp)) == 0
        assert csvp.read_text().startswith("table,key,value")

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_loss_log_is_the_loss_history(self, world_dir, trained, tmp_path, epochs):
        # a header, then one row per epoch: its index and the shortest
        # round-trip digits of the checkpoint's epoch means
        ckpt, log = trained, trained.parent / "loss.csv"
        if epochs == 0:
            ckpt, log = tmp_path / "model.dckp", tmp_path / "loss.csv"
            assert run_cli("train", "--ref", str(world_dir / "ref.grd"),
                           "--gcm", str(world_dir / "gcm.grd"),
                           "--attrs", str(world_dir / "attrs"),
                           "--out", str(ckpt), "--epochs", "0",
                           "--train-window", "0:730", "--val-window", "730:1095",
                           "--loss-log", str(log)) == 0
        history = load_checkpoint(ckpt).loss_history
        assert history.shape == (epochs, 5)
        rows = [",".join([str(e)] + [repr(float(v)) for v in history[e, 1:]])
                for e in range(epochs)]
        want = "epoch,Q,R,S,L\n" + "\n".join(rows) + ("\n" if rows else "")
        assert log.read_bytes() == want.encode()

    def test_correct_is_deterministic(self, world_dir, trained, tmp_path):
        outs = []
        for name in ("a.grd", "b.grd"):
            p = tmp_path / name
            assert run_cli("correct", "--ckpt", str(trained),
                           "--gcm", str(world_dir / "gcm.grd"),
                           "--attrs", str(world_dir / "attrs"),
                           "--out", str(p), "--window", "730:900") == 0
            outs.append(p.read_bytes())
        assert outs[0] == outs[1]

    def test_baseline_command(self, world_dir, tmp_path):
        out = tmp_path / "qm.grd"
        assert run_cli("baseline", "--method", "qm", "--ref",
                       str(world_dir / "ref.grd"), "--gcm-hist",
                       str(world_dir / "gcm.grd"), "--gcm-apply",
                       str(world_dir / "gcm.grd"), "--fit-window", "0:730",
                       "--out", str(out)) == 0
        fld = read_grd(out)
        assert (fld.values[np.isfinite(fld.values)] >= 0).all()

    @pytest.mark.parametrize("fit", [None, "0:730"])
    def test_baseline_reads_one_file_named_twice_once(self, world_dir, tmp_path,
                                                      monkeypatch, fit):
        # --gcm-hist and --gcm-apply naming one file: one read, and the bytes
        # of a run on two copies of it
        import shutil
        copy = tmp_path / "copy.grd"
        shutil.copyfile(world_dir / "gcm.grd", copy)
        reads = []
        monkeypatch.setattr(cli, "read_grd", lambda p: reads.append(p) or read_grd(p))
        outs = []
        for apply_path in (world_dir / "gcm.grd", copy):
            reads.clear()
            out = tmp_path / f"{apply_path.stem}.grd"
            argv = ["baseline", "--method", "qdm", "--ref", str(world_dir / "ref.grd"),
                    "--gcm-hist", str(world_dir / "gcm.grd"), "--gcm-apply", str(apply_path),
                    "--out", str(out)] + ([] if fit is None else ["--fit-window", fit])
            assert run_cli(*argv) == 0
            outs.append((len(reads), out.read_bytes()))
        assert [n for n, _ in outs] == [2, 3]
        assert outs[0][1] == outs[1][1]

    def test_evaluate_reads_each_file_once(self, world_dir, tmp_path, monkeypatch):
        # --sim and --deb-future naming one file, as the benchmark's evaluate
        # does: each file read once, and the bytes of a run on two copies
        import shutil
        copy = tmp_path / "copy.grd"
        shutil.copyfile(world_dir / "gcm.grd", copy)
        reads = []
        monkeypatch.setattr(cli, "read_grd", lambda p: reads.append(p) or read_grd(p))
        outs = []
        for deb_future in (world_dir / "gcm.grd", copy):
            reads.clear()
            out = tmp_path / f"{deb_future.stem}.json"
            assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                           "--sim", str(world_dir / "gcm.grd"), "--window", "730:1095",
                           "--base-window", "0:730", "--fd", "--trend",
                           "--raw-hist", str(world_dir / "ref.grd"),
                           "--raw-future", str(world_dir / "gcm.grd"),
                           "--deb-hist", str(world_dir / "ref.grd"),
                           "--deb-future", str(deb_future), "--out", str(out)) == 0
            outs.append((len(reads), out.read_bytes()))
        assert [n for n, _ in outs] == [2, 3]
        assert outs[0][1] == outs[1][1]

    def test_run_tunes_the_allocator(self, monkeypatch):
        # so each command runs under the same malloc thresholds, whatever
        # ran before it in the process
        from dclimba import _kernels
        calls = []
        monkeypatch.setattr(_kernels, "tune_allocator", lambda: calls.append(True))
        assert run_cli("report") == 1
        assert calls == [True]

    def test_baseline_pooled(self, world_dir, tmp_path):
        out = tmp_path / "qm_pooled.grd"
        assert run_cli("baseline", "--method", "qm", "--pooled",
                       "--ref", str(world_dir / "ref.grd"),
                       "--gcm-hist", str(world_dir / "gcm.grd"),
                       "--gcm-apply", str(world_dir / "gcm.grd"),
                       "--fit-window", "0:730", "--out", str(out)) == 0
        fld = read_grd(out)
        assert np.isfinite(fld.values).all() and (fld.values >= 0).all()

    def test_evaluate_fd_and_trend(self, world_dir, tmp_path):
        report = tmp_path / "full.json"
        code = run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"),
                       "--window", "0:730", "--fd", "--trend",
                       "--raw-hist", str(world_dir / "gcm.grd"),
                       "--raw-future", str(world_dir / "gcm.grd"),
                       "--deb-hist", str(world_dir / "ref.grd"),
                       "--deb-future", str(world_dir / "ref.grd"),
                       "--out", str(report))
        assert code == 0
        rep = json.loads(report.read_text())
        assert "fd" in rep and len(rep["fd"]["levels"]) == 99
        stats = {row["statistic"] for row in rep["trend_bias"]}
        assert stats == {"mean", "q95", "wet_days", "very_wet_days"}

    def test_trend_cell_without_finite_day_data_error(self, world_dir, tmp_path):
        gcm = read_grd(world_dir / "gcm.grd")
        gcm.values[:, 1, 2] = np.nan
        raw_hist = tmp_path / "raw_hist.grd"
        write_grd(gcm, raw_hist)
        report = tmp_path / "r.json"
        assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"),
                       "--window", "0:730", "--trend",
                       "--raw-hist", str(raw_hist),
                       "--raw-future", str(world_dir / "gcm.grd"),
                       "--deb-hist", str(world_dir / "ref.grd"),
                       "--deb-future", str(world_dir / "ref.grd"),
                       "--out", str(report)) == 2
        assert not report.exists()

    def test_trend_without_files_usage_error(self, world_dir, tmp_path):
        assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"),
                       "--window", "0:730", "--trend",
                       "--out", str(tmp_path / "r.json")) == 1

    def test_infinite_sim_days_count_as_missing(self, world_dir, tmp_path):
        sim = read_grd(world_dir / "gcm.grd")
        texts = {}
        for name, fill in (("inf", (np.inf, -np.inf)), ("nan", (np.nan, np.nan))):
            vals = sim.values.copy()
            vals[740, 1, 1], vals[741, 2, 3] = fill
            path = tmp_path / f"{name}.grd"
            write_grd(GridField(sim.start_date, sim.lats, sim.lons, vals), path)
            out = tmp_path / f"{name}.json"
            assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                           "--sim", str(path), "--window", "730:1095",
                           "--base-window", "0:730", "--out", str(out)) == 0
            texts[name] = out.read_text()
        assert texts["inf"] == texts["nan"]

    def test_report_writer_error_leaves_no_file(self, world_dir, tmp_path, monkeypatch):
        from dclimba import metrics

        biased = metrics.index_percentage_bias
        monkeypatch.setattr(metrics, "index_percentage_bias",
                            lambda *a: (biased(*a)[0], float("inf")))
        report = tmp_path / "r.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                    "--sim", str(world_dir / "gcm.grd"), "--out", str(report))
        assert not report.exists()


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, 1e-310, 1e16, 1e-7, 1e22, 0.1]))
_STRINGS = st.one_of(st.text(max_size=6),
                     st.sampled_from(['a"b\\c', "tab\tnul\x00", "\u00e9\u2603\U0001f600", "%s%%"]))
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS,
                     _FLOATS.map(np.float64), _STRINGS)
# lists of dicts that share their keys, the shape of the report's trend rows
_TABLES = st.lists(st.fixed_dictionaries({"cell": st.integers(), "t_raw": _FLOATS,
                                          "%key": st.one_of(st.none(), _FLOATS, _STRINGS)}),
                   min_size=1, max_size=4)


def _nested(children):
    return st.one_of(st.lists(children, max_size=5), st.lists(children, max_size=3).map(tuple),
                     st.dictionaries(_STRINGS, children, max_size=5),
                     st.dictionaries(st.integers(), children, max_size=3),
                     st.dictionaries(_FLOATS, children, max_size=3),
                     st.lists(st.dictionaries(st.sampled_from("ab"), children), min_size=1,
                              max_size=3))


class TestJsonText:
    """The report writer gives json.dumps(obj, indent=1, sort_keys=True,
    allow_nan=False) byte for byte, and raises where json raises."""

    @settings(max_examples=300)
    @given(st.recursive(st.one_of(_SCALARS, _TABLES), _nested, max_leaves=40))
    def test_matches_json_dumps(self, obj):
        assert cli._json_text(obj) == _dumps(obj)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")],
                             ids=["nan", "inf", "-inf", "np-nan"])
    @pytest.mark.parametrize("wrap", [
        lambda v: v, lambda v: [1.0, v], lambda v: {"a": [v]},
        lambda v: [{"a": 1, "b": v}, {"a": 2, "b": 0.5}], lambda v: [[1.0], [v, None]],
        lambda v: {v: 1}], ids=["scalar", "list", "dict", "table", "nested", "key"])
    def test_non_finite_floats_raise_like_json(self, bad, wrap):
        with pytest.raises(ValueError):
            _dumps(wrap(bad))
        with pytest.raises(ValueError):
            cli._json_text(wrap(bad))

    @pytest.mark.parametrize("obj", [{"a": object()}, [np.int64(3)], [{"a": {1, 2}}],
                                     {(1, 2): 0}], ids=["object", "np-int64", "set", "tuple-key"])
    def test_other_types_raise_like_json(self, obj):
        with pytest.raises(TypeError):
            _dumps(obj)
        with pytest.raises(TypeError):
            cli._json_text(obj)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nan_to_none_matches_per_value_loop(dtype):
    a = np.array([[1.5, np.nan, -0.0, 0.1], [np.inf, -np.inf, 1e-7, 3e38],
                  [1e-45, 2.0, -7.25, 1e16]], dtype=dtype)
    for arr in (a, a.T, a[1]):
        want = [float(v) if np.isfinite(v) else None for v in np.asarray(arr).ravel()]
        got = cli._nan_to_none(arr)
        assert list(map(repr, got)) == list(map(repr, want))
        assert all(type(v) is float or v is None for v in got)


@pytest.fixture(scope="module")
def world32(tmp_path_factory):
    """32x32, one year: the smallest square grid with a defined fractal
    dimension."""
    d = tmp_path_factory.mktemp("world32")
    assert run_cli("synth", "--out", str(d), "--grid", "32x32", "--years", "1",
                   "--seed", "2") == 0
    return d


def test_benchmark_spans_run_in_evaluate(world32, tmp_path, monkeypatch):
    # the benchmark's tracer times these two names inside evaluate --fd
    # --trend; each must be the code that runs, once per fractal-dimension
    # curve and once per trend table
    from dclimba import _kernels, metrics

    calls = []
    for owner, name in ((_kernels, "box_partial_count"), (metrics, "trend_bias")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    ref, gcm = str(world32 / "ref.grd"), str(world32 / "gcm.grd")
    assert run_cli("evaluate", "--ref", ref, "--sim", gcm, "--fd", "--trend",
                   "--raw-hist", gcm, "--raw-future", gcm, "--deb-hist", ref,
                   "--deb-future", ref, "--out", str(tmp_path / "r.json")) == 0
    assert calls.count("box_partial_count") == 2
    assert calls.count("trend_bias") == 1


def _days(fld, t0, t1):
    return GridField(fld.start_date + t0, fld.lats, fld.lons, fld.values[t0:t1])


class TestGappyData:
    def test_chain_carries_missing_days(self, tmp_path, capsys):
        d = tmp_path / "world"
        assert run_cli("synth", "--out", str(d), "--grid", "4x4", "--years", "3",
                       "--seed", "4") == 0
        gcm = read_grd(d / "gcm.grd")
        vals = gcm.values.copy()
        vals[np.random.default_rng(4).random(vals.shape) < 0.02] = np.nan
        vals[900, 2, 1] = np.nan
        gcm = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        ref = read_grd(d / "ref.grd")
        files = {"gcm": gcm, "gcm_hist": _days(gcm, 0, 730),
                 "gcm_future": _days(gcm, 730, 1095), "ref_future": _days(ref, 730, 1095)}
        for name, fld in files.items():
            write_grd(fld, d / f"{name}.grd")
        p = {name: str(d / f"{name}.grd") for name in (*files, "ref")}

        assert run_cli("train", "--ref", p["ref"], "--gcm", p["gcm"],
                       "--attrs", str(d / "attrs"), "--out", str(d / "m.dckp"),
                       "--epochs", "1", "--train-window", "0:730",
                       "--val-window", "730:1095", "--seed", "1") == 0
        assert run_cli("correct", "--ckpt", str(d / "m.dckp"), "--gcm", p["gcm"],
                       "--attrs", str(d / "attrs"), "--window", "730:1095",
                       "--out", str(d / "corrected.grd")) == 0
        future_gaps = np.isnan(files["gcm_future"].values)
        assert np.array_equal(np.isnan(read_grd(d / "corrected.grd").values), future_gaps)
        for method in ("qm", "ecdfm", "qdm"):
            for period in ("hist", "future"):
                out = d / f"{method}_{period}.grd"
                assert run_cli("baseline", "--method", method, "--ref", p["ref"],
                               "--gcm-hist", p["gcm"], "--gcm-apply", p[f"gcm_{period}"],
                               "--fit-window", "0:730", "--out", str(out)) == 0
                got = read_grd(out).values
                assert np.array_equal(np.isnan(got), np.isnan(files[f"gcm_{period}"].values))
                assert (got[np.isfinite(got)] >= 0).all()

        capsys.readouterr()
        report = d / "report.json"
        assert run_cli("evaluate", "--ref", p["ref_future"], "--sim", str(d / "corrected.grd"),
                       "--fd", "--trend", "--raw-hist", p["gcm_hist"],
                       "--raw-future", p["gcm_future"], "--deb-hist", str(d / "qdm_hist.grd"),
                       "--deb-future", str(d / "qdm_future.grd"), "--out", str(report)) == 0
        gap_days = int(future_gaps.any(axis=(1, 2)).sum())
        assert 0 < gap_days < 365
        assert f"fd: dropped {gap_days} of 365 days" in capsys.readouterr().out
        rep = json.loads(report.read_text())
        assert np.isfinite(rep["composite_mean_abs_pct_bias"])
        for row in rep["trend_bias"]:
            assert np.isfinite(row["t_raw"]) and np.isfinite(row["t_debiased"])

    def test_fd_leaves_out_days_with_a_gap(self, world32, tmp_path, capsys):
        from dclimba import metrics

        d = tmp_path
        ref, sim = read_grd(world32 / "ref.grd"), read_grd(world32 / "gcm.grd")
        vals = sim.values.copy()
        vals[[3, 40, 41], 5, 7] = np.nan
        write_grd(GridField(sim.start_date, sim.lats, sim.lons, vals), d / "sim.grd")
        refv = ref.values.copy()
        refv[40, 0, 0] = refv[100, 31, 31] = np.nan
        write_grd(GridField(ref.start_date, ref.lats, ref.lons, refv), d / "ref.grd")
        capsys.readouterr()
        report = d / "r.json"
        assert run_cli("evaluate", "--ref", str(d / "ref.grd"), "--sim", str(d / "sim.grd"),
                       "--fd", "--out", str(report)) == 0
        assert "fd: dropped 4 of 365 days" in capsys.readouterr().out
        keep = np.setdiff1d(np.arange(365), [3, 40, 41, 100])
        want = metrics.fd_mae(metrics.fd_curve(vals[keep].astype(np.float64)),
                              metrics.fd_curve(refv[keep].astype(np.float64)))
        assert np.isfinite(want)
        assert json.loads(report.read_text())["fd"]["mae"] == want

        vals[:, 0, 0] = np.nan
        write_grd(GridField(sim.start_date, sim.lats, sim.lons, vals), d / "sim.grd")
        assert run_cli("evaluate", "--ref", str(d / "ref.grd"), "--sim", str(d / "sim.grd"),
                       "--fd", "--out", str(d / "none.json")) == 2
        assert not (d / "none.json").exists()


class TestExitCodes:
    def test_overlapping_windows_usage_error(self, world_dir, tmp_path):
        code = run_cli("train", "--ref", str(world_dir / "ref.grd"),
                       "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"),
                       "--out", str(tmp_path / "x.dckp"), "--epochs", "1",
                       "--train-window", "0:730", "--val-window", "500:1000")
        assert code == 1

    def test_unknown_flag_usage_error(self):
        assert run_cli("synth", "--out", "/tmp/x", "--frobnicate") == 1

    def test_bad_window_usage_error(self, world_dir, tmp_path):
        assert run_cli("train", "--ref", str(world_dir / "ref.grd"),
                       "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"),
                       "--out", str(tmp_path / "x.dckp"),
                       "--train-window", "10", "--val-window", "0:10") == 1

    @pytest.mark.parametrize("command", ["correct", "evaluate", "train"])
    def test_negative_window_start_usage_error(self, world_dir, trained, tmp_path, command):
        files = {"ref": str(world_dir / "ref.grd"), "gcm": str(world_dir / "gcm.grd"),
                 "attrs": str(world_dir / "attrs")}
        argv = {
            "correct": ["--ckpt", str(trained), "--gcm", files["gcm"],
                        "--attrs", files["attrs"], "--window=-5:10"],
            "evaluate": ["--ref", files["ref"], "--sim", files["gcm"], "--window=-5:10"],
            "train": ["--ref", files["ref"], "--gcm", files["gcm"], "--attrs", files["attrs"],
                      "--epochs", "1", "--train-window=-5:700", "--val-window", "730:1095"],
        }[command]
        out = tmp_path / "out"
        assert run_cli(command, *argv, "--out", str(out)) == 1
        assert not out.exists()

    def test_train_window_past_the_field_stops_before_training(self, world_dir, tmp_path,
                                                               monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(cli.training, "train", never)
        out = tmp_path / "x.dckp"
        assert run_cli("train", "--ref", str(world_dir / "ref.grd"),
                       "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"), "--out", str(out),
                       "--train-window", "0:99999", "--val-window", "99999:100000") == 2
        assert "correlation window 0:99999 outside the field" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["smaller-sim", "shifted-sim", "shifted-gcm-hist"])
    def test_mismatched_grids_data_error(self, world_dir, tmp_path, case):
        # a smaller grid, or the same shape on latitudes shifted by 20 degrees
        ref, gcm = world_dir / "ref.grd", world_dir / "gcm.grd"
        if case == "smaller-sim":
            assert run_cli("synth", "--out", str(tmp_path / "small"), "--grid", "2x2",
                           "--years", "1", "--seed", "0") == 0
            other = tmp_path / "small" / "ref.grd"
        else:
            fld = read_grd(gcm)
            other = tmp_path / "shifted.grd"
            write_grd(GridField(fld.start_date, fld.lats + 20.0, fld.lons, fld.values), other)
        if case == "shifted-gcm-hist":
            argv = ["baseline", "--method", "qm", "--ref", str(ref),
                    "--gcm-hist", str(other), "--gcm-apply", str(gcm)]
        else:
            argv = ["evaluate", "--ref", str(ref), "--sim", str(other)]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists()

    def test_base_window_outside_reference_data_error(self, world_dir, tmp_path):
        assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"),
                       "--window", "0:730", "--base-window", "5000:6000",
                       "--out", str(tmp_path / "r.json")) == 2

    def test_baseline_missing_apply_file_data_error(self, world_dir, tmp_path, capsys):
        out = tmp_path / "qm.grd"
        assert run_cli("baseline", "--method", "qm", "--ref", str(world_dir / "ref.grd"),
                       "--gcm-hist", str(world_dir / "gcm.grd"),
                       "--gcm-apply", str(tmp_path / "none.grd"), "--out", str(out)) == 2
        assert "none.grd" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [16 + 83, -7, 2.5], ids=["n+83", "-7", "fraction"])
    def test_bad_neighbour_index_in_checkpoint_data_error(self, world_dir, trained,
                                                           tmp_path, capsys, value):
        # one entry of the stored graph edited: past the 16 cells, below the
        # -1 marker, or not an integer. The first would index past the field,
        # the second silently read another cell
        import struct
        raw = bytearray(trained.read_bytes())
        name = b"graph_indices"
        at = raw.index(struct.pack("<I", len(name)) + name) + 4 + len(name)
        assert struct.unpack_from("<IQQ", raw, at) == (2, 16, 16)
        struct.pack_into("<d", raw, at + 20 + 8 * 5, value)   # cell 0, slot 5
        bad = tmp_path / "bad.dckp"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "c.grd"
        assert run_cli("correct", "--ckpt", str(bad), "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "[-1, 16)" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["mean-inf", "std-nan", "std-zero", "eight-cells",
                                      "three-attributes", "q999-inf"])
    def test_bad_normalization_statistics_in_checkpoint_data_error(
            self, world_dir, trained, tmp_path, capsys, case):
        # a trained checkpoint's statistics edited: an infinite mean turned
        # cell 0's days into NaN, a NaN std gave wrong values without a
        # warning, and 8 per-cell entries on 16 cells raised an IndexError
        import dataclasses
        from dclimba.training import save_checkpoint
        ckpt = load_checkpoint(trained)
        stats = ckpt.stats
        mean, std = stats.precip_mean, stats.precip_std
        edits = {
            "mean-inf": {"precip_mean": np.concatenate([[np.inf], mean[1:]])},
            "std-nan": {"precip_std": np.concatenate([[np.nan], std[1:]])},
            "std-zero": {"precip_std": np.concatenate([[0.0], std[1:]])},
            "eight-cells": {"precip_mean": mean[:8], "precip_std": std[:8]},
            "three-attributes": {"attr_mean": stats.attr_mean[:3],
                                 "attr_std": stats.attr_std[:3]},
            "q999-inf": {"precip_q999": np.inf},
        }[case]
        bad = tmp_path / "bad.dckp"
        save_checkpoint(dataclasses.replace(ckpt, stats=dataclasses.replace(stats, **edits)),
                        bad)
        out = tmp_path / "c.grd"
        assert run_cli("correct", "--ckpt", str(bad), "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "data error" in err and "normalization statistics" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_evaluate_missing_trend_file_data_error(self, world_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run_cli("evaluate", "--ref", str(world_dir / "ref.grd"),
                       "--sim", str(world_dir / "gcm.grd"), "--trend",
                       "--raw-hist", str(world_dir / "gcm.grd"),
                       "--raw-future", str(world_dir / "gcm.grd"),
                       "--deb-hist", str(world_dir / "ref.grd"),
                       "--deb-future", str(tmp_path / "none.grd"), "--out", str(out)) == 2
        assert "none.grd" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fit", ["0:5000", "700:1200", "-1000:1090"])
    def test_fit_window_outside_data_error(self, world_dir, tmp_path, fit):
        out = tmp_path / "qm.grd"
        assert run_cli("baseline", "--method", "qm",
                       "--ref", str(world_dir / "ref.grd"),
                       "--gcm-hist", str(world_dir / "gcm.grd"),
                       "--gcm-apply", str(world_dir / "gcm.grd"),
                       f"--fit-window={fit}", "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("small", ["--raw-hist", "--deb-future"])
    def test_trend_grid_mismatch_data_error(self, world_dir, tmp_path, small):
        other = tmp_path / "small"
        assert run_cli("synth", "--out", str(other), "--grid", "2x2",
                       "--years", "3", "--seed", "0") == 0
        files = {flag: str(world_dir / "gcm.grd") for flag in
                 ("--raw-hist", "--raw-future", "--deb-hist", "--deb-future")}
        files[small] = str(other / "gcm.grd")
        argv = ["evaluate", "--ref", str(world_dir / "ref.grd"),
                "--sim", str(world_dir / "gcm.grd"), "--window", "0:730",
                "--trend", "--out", str(tmp_path / "r.json")]
        for flag, path in files.items():
            argv += [flag, path]
        assert run_cli(*argv) == 2

    @pytest.mark.parametrize("keep", [30, 2000, -8])
    def test_truncated_checkpoint_data_error(self, world_dir, trained, tmp_path, keep):
        # cut inside the JSON config blob, inside the arrays, and at the end
        short = tmp_path / "short.dckp"
        short.write_bytes(trained.read_bytes()[:keep])
        code = run_cli("correct", "--ckpt", str(short),
                       "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"),
                       "--out", str(tmp_path / "c.grd"), "--window", "730:1095")
        assert code == 2
        assert not (tmp_path / "c.grd").exists()

    def test_missing_file_data_error(self, tmp_path):
        assert run_cli("correct", "--ckpt", str(tmp_path / "none.dckp"),
                       "--gcm", str(tmp_path / "none.grd"),
                       "--attrs", str(tmp_path), "--out",
                       str(tmp_path / "o.grd")) == 2

    @pytest.mark.parametrize("mismatch", ["field", "attrs", "one-attr"])
    def test_grid_coordinates_mismatch_data_error(self, world_dir, trained, tmp_path,
                                                  mismatch):
        # same cell counts, other coordinates: a 4x6 checkpoint on a 6x4
        # field, attributes on latitudes shifted from the field's, or one
        # attribute file shifted from the others
        from dclimba.gridio import read_attribute_grd, write_attribute_grd
        ckpt, gcm, attrs = trained, world_dir / "gcm.grd", tmp_path / "attrs"
        if mismatch == "field":
            for grid in ("4x6", "6x4"):
                assert run_cli("synth", "--out", str(tmp_path / grid), "--grid", grid,
                               "--years", "3", "--seed", "1") == 0
            ckpt = tmp_path / "4x6.dckp"
            w = tmp_path / "4x6"
            assert run_cli("train", "--ref", str(w / "ref.grd"), "--gcm", str(w / "gcm.grd"),
                           "--attrs", str(w / "attrs"), "--out", str(ckpt), "--epochs", "0",
                           "--train-window", "0:730", "--val-window", "730:1095") == 0
            gcm, attrs = tmp_path / "6x4" / "gcm.grd", tmp_path / "6x4" / "attrs"
        else:
            attrs.mkdir()
            for f in (world_dir / "attrs").iterdir():
                arr, lats, lons = read_attribute_grd(f)
                shift = {"attrs": 0.5, "one-attr": 20.0 * (f.name == "elevation.grd")}
                write_attribute_grd(arr, lats + shift[mismatch], lons, attrs / f.name)
        out = tmp_path / "c.grd"
        assert run_cli("correct", "--ckpt", str(ckpt), "--gcm", str(gcm),
                       "--attrs", str(attrs), "--out", str(out)) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("train", "--epochs", "-1"), ("train", "--seqlen", "0"),
                                      ("train", "--seqlen", "-5"),
                                      ("train", "--train-window", "0:5000"),
                                      ("train", "--lr", "nan"), ("train", "--lr", "inf"),
                                      ("train", "--lr", "-0.5"),
                                      ("synth", "--years", "-1"), ("synth", "--grid", "0x4"),
                                      ("evaluate", "--curve-levels", "0"),
                                      ("evaluate", "--curve-levels", "-3"),
                                      ("evaluate", "--curve-levels", "100000000")],
                             ids=["epochs-1", "seqlen0", "seqlen-5", "train-window-past-data",
                                  "lr-nan", "lr-inf", "lr-negative",
                                  "years-1", "grid0x4", "curve-levels0", "curve-levels-3",
                                  "curve-levels-1e8"])
    def test_out_of_range_number_data_error(self, world_dir, tmp_path, argv):
        command, *flag = argv
        out = tmp_path / "out"
        common = {"synth": [],
                  "train": ["--ref", str(world_dir / "ref.grd"),
                            "--gcm", str(world_dir / "gcm.grd"),
                            "--attrs", str(world_dir / "attrs"),
                            "--train-window", "0:730", "--val-window", "5000:6000"],
                  "evaluate": ["--ref", str(world_dir / "ref.grd"),
                               "--sim", str(world_dir / "gcm.grd")]}[command]
        assert run_cli(command, *common, *flag, "--out", str(out)) == 2
        assert not out.exists()

    @pytest.fixture(scope="class")
    def small_world(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("small")
        assert run_cli("synth", "--out", str(d), "--grid", "3x3", "--years", "2",
                       "--seed", "1") == 0
        return d

    def small_train(self, world, out, *flags):
        return run_cli("train", "--ref", str(world / "ref.grd"), "--gcm", str(world / "gcm.grd"),
                       "--attrs", str(world / "attrs"), "--out", str(out),
                       "--neighbors", "4", "--batch", "3",
                       "--train-window", "0:365", "--val-window", "365:730", *flags)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_training_loss_exits_3(self, small_world, tmp_path, capsys):
        out = tmp_path / "m.dckp"
        assert self.small_train(small_world, out, "--lr", "1e30", "--epochs", "3") == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite loss at epoch 0 step 1" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_diverging_run_prints_no_numpy_warning(self, small_world, tmp_path, capsys):
        # the overflow shows as the NumericalError on the loss, exit 3
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = self.small_train(small_world, tmp_path / "m.dckp", "--lr", "1e30",
                                    "--epochs", "3")
        assert code == 3
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "RuntimeWarning" not in capsys.readouterr().err

    @pytest.mark.parametrize("qstar, recorded", [("0.9", 0.9), ("none", None)])
    def test_qstar_recorded_in_the_checkpoint(self, small_world, tmp_path, qstar, recorded):
        from dclimba.training import load_checkpoint
        out = tmp_path / "m.dckp"
        assert self.small_train(small_world, out, "--qstar", qstar, "--epochs", "0") == 0
        assert load_checkpoint(out).train_config.q_star == recorded

    def test_qstar_off_the_list_usage_error(self, small_world, tmp_path):
        out = tmp_path / "m.dckp"
        assert self.small_train(small_world, out, "--qstar", "0.7", "--epochs", "0") == 1
        assert not out.exists()

    def test_numerical_failure_in_a_correction_thread_exits_3(self, world_dir, trained,
                                                              tmp_path, capsys, monkeypatch):
        from dclimba import _kernels, transform
        from dclimba.errors import NumericalError
        constrain, calls = transform.constrain, itertools.count()

        def failing(raw):
            if next(calls) == 3:
                raise NumericalError("non-finite coefficients")
            return constrain(raw)

        monkeypatch.setattr(transform, "constrain", failing)
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 4)
        before = threading.active_count()
        out = tmp_path / "c.grd"
        assert run_cli("correct", "--ckpt", str(trained), "--gcm", str(world_dir / "gcm.grd"),
                       "--attrs", str(world_dir / "attrs"), "--out", str(out),
                       "--window", "730:1095") == 3
        err = capsys.readouterr().err
        assert "numerical failure: non-finite coefficients" in err and "Traceback" not in err
        assert not out.exists()
        assert threading.active_count() == before

    @pytest.mark.parametrize("content", ["{not json", '{"indices": {"r10mm": {}}}', "[1]"],
                             ids=["not-json", "no-mean-abs-pct-bias", "not-an-object"])
    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_malformed_report_data_error(self, tmp_path, content, fmt):
        bad = tmp_path / "report.json"
        bad.write_text(content)
        out = tmp_path / "report.txt"
        assert run_cli("report", "--in", str(bad), "--format", fmt, "--out", str(out)) == 2
        assert not out.exists()
