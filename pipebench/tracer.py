"""Spans around calls into the dclimba layers, recorded from outside the
package by rebinding its public functions while a trace is installed.

A span has a name, a phase, a start, an end and a parent (the span open
when it began). A span's self time is its duration minus the time its
child spans cover, so the self times of a span's subtree add up to its
duration.

Backward time is attributed to layers: when a wrapped forward function
returns, the tape nodes it recorded (and that no inner wrapped function
claimed) get their backward closures wrapped in a ``<layer>.bwd`` span.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

clock = time.perf_counter

# span fields
NAME, PHASE, START, END, PARENT, CHILD_S = range(6)


class Tracer:
    """Keeps every span in memory. ``phase`` labels the spans opened while
    it is set, so per-layer totals can be divided by that phase's count."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)   # (phase, name) -> summed count
        self.tape = None     # tape of the innermost autodiff.tape_scope
        self.phase = "check"
        self._stack = []

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.phase, clock(), 0.0, parent, 0.0])

    def end(self) -> None:
        t = clock()
        span = self.spans[self._stack.pop()]
        span[END] = t
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += t - span[START]

    def count(self, name: str, value: float) -> None:
        self.counts[(self.phase, name)] += value

    def self_times(self) -> dict:
        """(phase, name) -> [summed self seconds, number of spans]."""
        out = defaultdict(lambda: [0.0, 0])
        for s in self.spans:
            acc = out[(s[PHASE], s[NAME])]
            acc[0] += s[END] - s[START] - s[CHILD_S]
            acc[1] += 1
        return out

    def claim_nodes(self, tape, first: int, name: str) -> None:
        nodes = tape.nodes
        for i in range(first, len(nodes)):
            out, bwd = nodes[i]
            if not getattr(bwd, "pipebench_claimed", False):
                nodes[i] = (out, self._timed_backward(bwd, name))

    def _timed_backward(self, bwd, name: str):
        def run(g):
            self.begin(name)
            try:
                return bwd(g)
            finally:
                self.end()
        run.pipebench_claimed = True
        return run


# ---------------------------------------------------------------------------
# installing wrappers
# ---------------------------------------------------------------------------

def _rebind(fn, replacement, patches: list) -> None:
    """Point every dclimba module attribute bound to ``fn`` at
    ``replacement``; this also covers names imported with ``from``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("dclimba"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                patches.append((mod, attr, value))
                setattr(mod, attr, replacement)


def _span_wrapper(tracer: Tracer, fn, name, counter=None):
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer, *args, **kwargs)
        tracer.begin(name(*args, **kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
    return wrapper


def _layer_wrapper(tracer: Tracer, fn, layer: str):
    fwd, bwd = layer + ".fwd", layer + ".bwd"

    def wrapper(*args, **kwargs):
        tape = tracer.tape
        first = len(tape.nodes) if tape is not None else 0
        tracer.begin(fwd)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end()
            if tape is not None:
                tracer.claim_nodes(tape, first, bwd)
    return wrapper


def conv_work(kind: str, a, b) -> tuple[float, float]:
    """Computed flops (2*B*cin*cout*K*T) and bytes of the float64 operands
    and result of one conv1d kernel call, from the array shapes alone
    (cache traffic is not modelled)."""
    if kind == "forward":            # (xpad (B, cin, T+K-1), w (cout, cin, K))
        B, cin, Tp = a.shape
        cout, _, K = b.shape
        T = Tp - K + 1
        result = B * cout * T + cout          # output plus the bias operand
    elif kind == "backward_input":   # (gy (B, cout, T), w (cout, cin, K))
        B, cout, T = a.shape
        _, cin, K = b.shape
        result = B * cin * (T + K - 1)
    else:                            # backward_weight: (gy, xpad)
        B, cout, T = a.shape
        cin = b.shape[1]
        K = b.shape[2] - T + 1
        result = cout * cin * K
    return 2.0 * B * cin * cout * K * T, 8.0 * (a.size + b.size + result)


def _conv_counter(kind: str):
    name = f"kernels.conv1d_{kind}"

    def count(tracer, a, b, *rest):
        flop, moved = conv_work(kind, a, b)
        tracer.count(name + ".flop", flop)
        tracer.count(name + ".bytes", moved)
    return count


def _tape_counter(tracer, loss, *args, **kwargs):
    if loss.tape is not None:
        tracer.count("autodiff.tape_nodes", len(loss.tape.nodes))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap the dclimba layers for the duration of the block."""
    from dclimba import (_kernels, autodiff, baselines, cli, encoders, gridio,
                         losses, metrics, synth, training, transform)

    patches = []

    def span(owner, attr, name, counter=None):
        fn = getattr(owner, attr)
        _rebind(fn, _span_wrapper(tracer, fn, name, counter), patches)

    def layer(owner, attr, name):
        fn = getattr(owner, attr)
        _rebind(fn, _layer_wrapper(tracer, fn, name), patches)

    def method(cls, attr, name):
        fn = vars(cls)[attr]
        patches.append((cls, attr, fn))
        setattr(cls, attr, _span_wrapper(tracer, fn, name))

    @contextlib.contextmanager
    def tape_scope(_original=autodiff.tape_scope):
        with _original() as tape:
            outer, tracer.tape = tracer.tape, tape
            try:
                yield tape
            finally:
                tracer.tape = outer

    try:
        _rebind(autodiff.tape_scope, tape_scope, patches)
        layer(encoders, "temporal_encode", "encoders.temporal_encode")
        layer(encoders, "spatial_attend", "encoders.spatial_attend")
        layer(encoders, "predict_theta", "encoders.predict_theta")
        layer(transform, "constrain", "transform.constrain")
        layer(transform, "apply", "transform.apply")
        layer(losses, "quantile_loss", "losses.quantile_loss")
        layer(losses, "rainy_day_loss", "losses.rainy_day_loss")
        layer(losses, "spatial_corr_loss", "losses.spatial_corr_loss")
        for kind in ("forward", "backward_input", "backward_weight"):
            span(_kernels, f"conv1d_{kind}", f"kernels.conv1d_{kind}",
                 _conv_counter(kind))
        span(_kernels, "pairwise_haversine", "kernels.pairwise_haversine")
        span(_kernels, "run_length_max", "kernels.run_length_max")
        span(_kernels, "box_partial_count", "kernels.box_partial_count")
        span(autodiff, "backward", "autodiff.backward", _tape_counter)
        span(training, "adam_step", "training.adam_step")
        span(training, "train", "training.train")
        span(training, "correct_field", "training.correct_field")
        span(training, "save_checkpoint", "training.save_checkpoint")
        span(training, "load_checkpoint", "training.load_checkpoint")
        method(encoders.FeaturePack, "__init__", "encoders.FeaturePack.init")
        method(encoders.FeaturePack, "batch", "encoders.FeaturePack.batch")
        span(synth, "gen_reference", "synth.gen_reference")
        span(synth, "apply_known_bias", "synth.apply_known_bias")
        span(gridio, "select_neighbors", "gridio.select_neighbors")
        span(gridio, "read_grd", "gridio.read_grd")
        span(gridio, "write_grd", "gridio.write_grd")
        span(baselines, "correct_field",
             lambda method, *a, **k: f"baselines.correct_field.{method}")
        span(metrics, "etccdi_all_cells", "metrics.etccdi_all_cells")
        span(metrics, "fd_curve", "metrics.fd_curve")
        span(metrics, "trend_bias", "metrics.trend_bias")
        span(metrics, "quantile_curves", "metrics.quantile_curves")
        span(cli, "run", "cli.run")
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)
