"""The three benchmark workloads and the loop that measures them.

Each workload is a closed loop in one process: a set-up made several times,
then rounds of a preparation stage ("prep") that feeds a main stage ("op"),
repeated until the run's time is used. The world seed is the only input
that varies; every program setting below is a constant.

- train8: the criterion-8 world and training configuration. prep is the
  neighbour selection `dclimba train` runs first (gap-free fast path); op is
  one optimizer step inside `training.train` (forward, backward, Adam).
- correct16: a 16x16, 3-year world with 1 % of model cell-days missing.
  prep is neighbour selection on the gappy field (the O(N^2) pair path);
  op is one `training.correct_field` pass over 256 cells x 365 days
  (forward only, no tape).
- evaluate32: a 32x32, 4-year world read and written as GRD1 files. prep is
  the six `dclimba baseline` commands (QM, ECDFM, QDM on the historical and
  future halves); op is one `dclimba evaluate --fd --trend` command on a
  one-year window. The network never runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import signal
import statistics
import sys
import traceback
from pathlib import Path

import numpy as np

from dclimba import cli, gridio, synth, training
from dclimba.encoders import (BiasCorrector, EncoderConfig, FeaturePack,
                               fit_normalization)
from dclimba.gridio import GridField

from tracer import clock, installed

SETUPS = 5   # set-up repetitions per run; setup_s is their median
K_NEIGHBORS = 16


# ---------------------------------------------------------------------------
# recording samples and outcomes
# ---------------------------------------------------------------------------

class SpeedReference:
    """Samples this core's speed around and during the timed stages.

    On a shared machine a core's speed drifts by tens of percent within a
    minute, and interpreter, small-array numpy, memory-bound and BLAS work
    slow down together. A fixed mix of the four is timed once just before each stage and then
    every INTERVAL_S from a timer signal; the time spent in the samples is
    subtracted from the stage, and the stage is scaled by NOMINAL_S over the
    median sample, so the drift divides out."""

    INTERVAL_S = 0.25
    NOMINAL_S = 0.009   # the mix's duration at the speed results are scaled to

    def __init__(self):
        rng = np.random.default_rng(0)
        # preallocated, so the mix's time does not depend on the allocator state
        self._a = rng.random((8192, 64))     # the shape of the attention projections
        self._w = rng.random((64, 64))
        self._c = np.empty((8192, 64))
        self._x = rng.random(1_000_000)      # 8 MB, twice the per-core L2 cache here
        self._y = np.empty_like(self._x)
        self._s = rng.random(730)            # one cell's series, as in the per-cell loops
        self.durations = []
        self.stolen_s = 0.0
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:          # the timer fired during mark()'s sample
            return
        self._busy = True
        t0 = clock()
        acc = 0
        for j in range(20_000):
            acc += j
        for _ in range(40):
            self._s.std()
        np.multiply(self._x, 1.5, out=self._y)
        np.sqrt(self._y, out=self._y)
        self._y.sum()
        np.matmul(self._a, self._w, out=self._c)
        t1 = clock()
        self.durations.append(t1 - t0)
        self.stolen_s += clock() - t0
        self._busy = False

    @contextlib.contextmanager
    def running(self):
        old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def mark(self) -> tuple[int, float]:
        """Sample now; the stage starting next is scaled from this sample on."""
        self._sample()
        return len(self.durations) - 1, self.stolen_s

    def scale(self, first: int) -> float:
        return self.NOMINAL_S / statistics.median(self.durations[first:])


class Recorder:
    """Timing samples per stage and operation outcomes. With a tracer, each
    timed stage is also a root span and labels the spans under it. With a
    running speed reference, each sample is also scaled to the reference
    speed."""

    def __init__(self, tracer=None, reference=None):
        self.tracer = tracer
        self.reference = reference
        self.samples = {"setup": [], "prep": [], "op": []}
        self.scaled = {"setup": [], "prep": [], "op": []}
        self.attempted = 0
        self.failed = 0
        self._open = []

    def begin(self, stage: str) -> None:
        if self.tracer is not None:
            self._open.append(self.tracer.phase)
            self.tracer.phase = stage
            self.tracer.begin(stage)
        mark = self.reference.mark() if self.reference is not None else None
        self._open.append((stage, clock(), mark))

    def end(self) -> None:
        stage, t0, mark = self._open.pop()
        dt = clock() - t0
        if mark is not None:
            dt -= self.reference.stolen_s - mark[1]
            self.scaled[stage].append(dt * self.reference.scale(mark[0]))
        self.samples[stage].append(dt)
        if self.tracer is not None:
            self.tracer.end()
            self.tracer.phase = self._open.pop()

    @contextlib.contextmanager
    def timed(self, stage: str):
        self.begin(stage)
        try:
            yield
        finally:
            self.end()

    @contextlib.contextmanager
    def phase(self, stage: str):
        """Label untimed work (spans between optimizer steps) with a stage."""
        if self.tracer is None:
            yield
            return
        outer, self.tracer.phase = self.tracer.phase, stage
        try:
            yield
        finally:
            self.tracer.phase = outer

    def outcome(self, ok: bool, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n


def attempt(fn):
    """(True, result) or, when fn raises, (False, None) with the traceback
    on stderr: a raising operation counts as failed, it does not end the run."""
    try:
        return True, fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return False, None


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def corrected_ok(inp: np.ndarray, out: np.ndarray) -> bool:
    """NaN exactly where the input day is missing; finite and >= 0 elsewhere."""
    missing = ~np.isfinite(inp)
    if out.shape != inp.shape or not np.array_equal(np.isnan(out), missing):
        return False
    valid = out[~missing]
    return bool(np.all(np.isfinite(valid)) and np.all(valid >= 0.0))


def baseline_ok(inp: np.ndarray, out: np.ndarray) -> bool:
    """Finite and >= 0 wherever the input is valid."""
    if out.shape != inp.shape:
        return False
    valid = out[np.isfinite(inp)]
    return bool(np.all(np.isfinite(valid)) and np.all(valid >= 0.0))


def report_ok(report: dict) -> bool:
    """A defined composite score and a defined fractal-dimension MAE."""
    comp = report.get("composite_mean_abs_pct_bias")
    mae = report.get("fd", {}).get("mae")
    return comp is not None and np.isfinite(comp) and mae is not None and np.isfinite(mae)


def check_graph(st: dict, g: gridio.NeighborGraph, n_cells: int) -> bool:
    """Every cell has neighbours inside the grid, and the graph is the one
    the first round selected, bit for bit."""
    if st["graph"] is None:
        st["graph"] = g
    used = g.indices[g.mask]
    return bool(g.indices.shape == (n_cells, K_NEIGHBORS) and g.mask[:, 0].all()
                and np.all((used >= 0) & (used < n_cells))
                and all(np.array_equal(getattr(g, f), getattr(st["graph"], f))
                        for f in ("indices", "features", "mask")))


def checkpoint_roundtrip_ok(ckpt: training.Checkpoint, path: Path) -> bool:
    """save -> load gives back every array bit for bit."""
    training.save_checkpoint(ckpt, path)
    back = training.load_checkpoint(path)
    pairs = [(ckpt.weights[k], back.weights.get(k)) for k in ckpt.weights]
    pairs += [(v, back.stats.as_arrays()[k]) for k, v in ckpt.stats.as_arrays().items()]
    pairs += [(ckpt.loss_history, back.loss_history),
              (ckpt.graph.indices, back.graph.indices),
              (ckpt.graph.features, back.graph.features),
              (ckpt.graph.mask, back.graph.mask)]
    return (set(back.weights) == set(ckpt.weights)
            and all(b is not None and a.shape == b.shape
                    and np.array_equal(a.view(np.uint8), np.asarray(b, a.dtype).view(np.uint8))
                    for a, b in pairs))


def _window(fld: GridField, t0: int, t1: int) -> GridField:
    return GridField(fld.start_date + t0, fld.lats, fld.lons, fld.values[t0:t1])


class Workload:
    name = ""
    why = ""
    # stage -> (name the figure goes by, cell-days per sample or None for seconds)
    named = {}

    def extra(self, st: dict) -> dict:
        """Figures beyond the timings, by name."""
        return {}


# ---------------------------------------------------------------------------
# train8
# ---------------------------------------------------------------------------

class Train8(Workload):
    name = "train8"
    why = ("the run users wait for: forward plus backward through the tape "
           "dominates; baselines and metrics never run")
    TRAIN_WINDOW, VAL_WINDOW = (0, 2190), (2190, 2920)
    STEPS = 8            # optimizer steps per training.train call
    PREP_REPEATS = 8     # neighbour selection takes ~20 ms: several samples a round
    TRAIN = training.TrainConfig(train_window=TRAIN_WINDOW, val_window=VAL_WINDOW,
                                 epochs=STEPS, steps_per_epoch=1, seq_len=365,
                                 lr=1e-4, batch_size=5, seed=3)
    ENCODER = EncoderConfig(neighbors=K_NEIGHBORS)
    named = {"op": ("train_step_s", None)}

    @staticmethod
    def world_config(seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(height=8, width=8, years=10, seed=seed,
                                 bias_a=1.3, bias_p=1.1, drizzle_prob=0.3)

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = self.world_config(seed)
        ref, attrs = synth.gen_reference(cfg)
        gcm = synth.apply_known_bias(ref, cfg)
        return {"ref": ref, "gcm": gcm, "attrs": attrs, "workdir": workdir,
                "graph": None, "history": None}

    def round(self, st: dict, rec: Recorder) -> None:
        gcm = st["gcm"]
        for _ in range(self.PREP_REPEATS):
            with rec.timed("prep"):
                ok, graph = attempt(lambda: gridio.select_neighbors(
                    gcm, K_NEIGHBORS, self.TRAIN_WINDOW))
            ok = ok and check_graph(st, graph, gcm.n_cells)
            rec.outcome(ok)
            if not ok:
                rec.outcome(False, self.STEPS)
                return

        with rec.phase("op"), step_probe(rec):
            ok, ckpt = attempt(lambda: training.train(
                st["ref"], gcm, st["attrs"], graph, self.TRAIN, self.ENCODER))
        if not ok:
            rec.outcome(False, self.STEPS)
            return
        loss = ckpt.loss_history[:, 4]
        if st["history"] is None:
            st["history"] = loss
        reproduced = (np.array_equal(loss, st["history"])
                      and checkpoint_roundtrip_ok(ckpt, st["workdir"] / "train8.dckp"))
        for step_loss in loss:
            rec.outcome(reproduced and bool(np.isfinite(step_loss)))

    def extra(self, st: dict) -> dict:
        return {"train_loss": {"value": float(np.mean(st["history"])),
                               "unit": "L"}} if st["history"] is not None else {}


@contextlib.contextmanager
def step_probe(rec: Recorder):
    """Time each optimizer step inside training.train: from the batch
    gather that starts it to the Adam update that ends it."""
    batch = vars(FeaturePack)["batch"]
    adam = training.adam_step

    def timed_batch(self, *args, **kwargs):
        rec.begin("op")
        return batch(self, *args, **kwargs)

    def timed_adam(*args, **kwargs):
        try:
            return adam(*args, **kwargs)
        finally:
            rec.end()

    FeaturePack.batch = timed_batch
    training.adam_step = timed_adam
    open_before = len(rec._open)
    try:
        yield
    finally:
        FeaturePack.batch = batch
        training.adam_step = adam
        while len(rec._open) > open_before:   # a step that raised
            rec.end()


# ---------------------------------------------------------------------------
# correct16
# ---------------------------------------------------------------------------

class Correct16(Workload):
    name = "correct16"
    why = ("the same encoder layers forward only, no tape, 26 chunks of 10 "
           "cells, from a checkpoint made in set-up; 1 % missing cell-days "
           "send neighbour selection down its O(N^2) pair path and carry NaNs "
           "through correction")
    TRAIN_WINDOW, WINDOW = (0, 730), (730, 1095)
    GAP_FRACTION = 0.01
    TRAIN = training.TrainConfig(train_window=TRAIN_WINDOW, val_window=WINDOW,
                                 epochs=0, seed=3)
    ENCODER = EncoderConfig(neighbors=K_NEIGHBORS)
    named = {"prep": ("neighbors_s", None),
             "op": ("correct_cell_days_per_s", 256 * (WINDOW[1] - WINDOW[0]))}

    @staticmethod
    def world_config(seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(height=16, width=16, years=3, seed=seed)

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = self.world_config(seed)
        ref, attrs = synth.gen_reference(cfg)
        gcm = synth.apply_known_bias(ref, cfg)
        vals = gcm.values.copy()
        gaps = np.random.default_rng([seed, 0x6A95]).random(vals.shape) < self.GAP_FRACTION
        vals[gaps] = np.nan
        gcm = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        graph = gridio.select_neighbors(ref, K_NEIGHBORS, self.TRAIN_WINDOW)
        # initial weights: correction costs the same whatever their values
        stats = fit_normalization(gcm, attrs, self.TRAIN_WINDOW)
        pack = FeaturePack(gcm, attrs, graph, stats, self.ENCODER)
        model = BiasCorrector(self.ENCODER, stats, pack.n_channels, seed=self.TRAIN.seed)
        ckpt = training.Checkpoint(weights=model.weights, stats=stats,
                                   encoder_config=self.ENCODER, train_config=self.TRAIN,
                                   epoch=0, loss_history=np.zeros((1, 5)), graph=graph)
        path = workdir / "correct16.dckp"
        training.save_checkpoint(ckpt, path)
        return {"gcm": gcm, "attrs": attrs, "ckpt": training.load_checkpoint(path),
                "graph": None, "out": None}

    def round(self, st: dict, rec: Recorder) -> None:
        gcm = st["gcm"]
        with rec.timed("prep"):
            ok, graph = attempt(lambda: gridio.select_neighbors(
                gcm, K_NEIGHBORS, self.TRAIN_WINDOW))
        ok = ok and check_graph(st, graph, gcm.n_cells)
        rec.outcome(ok)
        if not ok:
            rec.outcome(False)
            return

        ckpt = dataclasses.replace(st["ckpt"], graph=graph)
        with rec.timed("op"):
            ok, out = attempt(lambda: training.correct_field(
                ckpt, gcm, st["attrs"], window=self.WINDOW))
        if ok:
            t0, t1 = self.WINDOW
            if st["out"] is None:
                st["out"] = out.values
            ok = (corrected_ok(gcm.values[t0:t1], out.values)
                  and np.array_equal(out.values, st["out"], equal_nan=True))
        rec.outcome(ok)


# ---------------------------------------------------------------------------
# evaluate32
# ---------------------------------------------------------------------------

class Evaluate32(Workload):
    name = "evaluate32"
    why = ("per-cell Python loops in metrics and baselines dominate and the "
           "network never runs; 32x32 is the smallest square grid with a "
           "defined fractal dimension")
    HIST, FUTURE = (0, 730), (730, 1460)
    METHODS = ("qm", "ecdfm", "qdm")
    named = {"prep": ("baseline_cell_days_per_s", 2 * len(METHODS) * 1024 * 730),
             "op": ("evaluate_s", None)}

    @staticmethod
    def world_config(seed: int) -> synth.SynthConfig:
        return synth.SynthConfig(height=32, width=32, years=4, seed=seed)

    def setup(self, seed: int, workdir: Path) -> dict:
        cfg = self.world_config(seed)
        ref, _ = synth.gen_reference(cfg)
        gcm = synth.apply_known_bias(ref, cfg)
        files = {"ref": ref, "ref_future": _window(ref, *self.FUTURE),
                 "gcm_hist": _window(gcm, *self.HIST),
                 "gcm_future": _window(gcm, *self.FUTURE)}
        paths = {k: workdir / f"{k}.grd" for k in files}
        for k, fld in files.items():
            gridio.write_grd(fld, paths[k])
        return {"paths": paths, "dir": workdir,
                "inputs": {p: files[f"gcm_{p}"].values for p in ("hist", "future")}}

    def baseline_argv(self, st: dict, method: str, period: str) -> list[str]:
        p = st["paths"]
        return ["baseline", "--method", method, "--ref", str(p["ref"]),
                "--gcm-hist", str(p["gcm_hist"]), "--gcm-apply", str(p[f"gcm_{period}"]),
                "--fit-window", f"{self.HIST[0]}:{self.HIST[1]}",
                "--out", str(st["dir"] / f"{method}_{period}.grd")]

    def evaluate_argv(self, st: dict) -> list[str]:
        p, d = st["paths"], st["dir"]
        return ["evaluate", "--ref", str(p["ref_future"]), "--sim", str(d / "qdm_future.grd"),
                "--window", "0:365", "--base-window", "0:730", "--fd", "--trend",
                "--raw-hist", str(p["gcm_hist"]), "--raw-future", str(p["gcm_future"]),
                "--deb-hist", str(d / "qdm_hist.grd"), "--deb-future", str(d / "qdm_future.grd"),
                "--out", str(d / "report.json")]

    def round(self, st: dict, rec: Recorder) -> None:
        runs = [(m, p) for m in self.METHODS for p in ("hist", "future")]
        codes = []
        with rec.timed("prep"):
            for m, p in runs:
                codes.append(attempt(lambda: _quiet_cli(self.baseline_argv(st, m, p))))
        for (m, p), (ok, code) in zip(runs, codes):
            ok = ok and code == 0 and baseline_ok(
                st["inputs"][p], gridio.read_grd(st["dir"] / f"{m}_{p}.grd").values)
            rec.outcome(ok)

        with rec.timed("op"):
            ok, code = attempt(lambda: _quiet_cli(self.evaluate_argv(st)))
        if ok and code == 0:
            with open(st["dir"] / "report.json") as f:
                ok = report_ok(json.load(f))
        rec.outcome(ok and code == 0)


WORKLOADS = {w.name: w for w in (Train8(), Correct16(), Evaluate32())}


# ---------------------------------------------------------------------------
# the measuring loop
# ---------------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, workdir: Path, tracer=None):
    """Set up SETUPS times, then run rounds until ``seconds`` are used.

    Without a tracer every round is timed plainly. With one, set-ups are
    traced and rounds alternate plain and traced (at least one of each), so
    the tracing overhead is measured in the same process.
    Returns (plain Recorder, traced Recorder or None, workload state)."""
    reference = SpeedReference() if tracer is None else None
    plain = Recorder(reference=reference)
    traced = Recorder(tracer) if tracer is not None else None
    state = None
    with reference.running() if reference else contextlib.nullcontext():
        for _ in range(SETUPS):
            rec = traced or plain
            ctx = installed(tracer) if tracer is not None else contextlib.nullcontext()
            with ctx, rec.timed("setup"):
                state = workload.setup(seed, workdir)

        start = clock()
        round_s = []
        while True:
            use_trace = tracer is not None and len(round_s) % 2 == 1
            rec = traced if use_trace else plain
            ctx = installed(tracer) if use_trace else contextlib.nullcontext()
            t0 = clock()
            with ctx:
                workload.round(state, rec)
            round_s.append(clock() - t0)
            need_traced = tracer is not None and len(round_s) < 2
            if not need_traced and clock() - start + statistics.median(round_s) / 2 >= seconds:
                break
    return plain, traced, state
