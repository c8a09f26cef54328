"""Hot numeric kernels in plain numpy: the temporal convolution and its two
gradients, the longest run of True per row, and great-circle distance; the
process settings they run under: glibc's malloc thresholds and OpenBLAS's
thread count; and the package's one thread helper, `run_shared`: no other
module starts threads.

`box_partial_count` has no caller in the package: fractal dimension counts
boxes in `metrics._partial_box_counts`, and `metrics.box_count` is its
one-mask call. The kernel stays only because the benchmark tracer in
`pipebench/` spans it by name.

The three conv kernels, and `autodiff.softplus`, split large inputs into
pieces over the CPUs through `run_shared`. Every output element still comes
from the same product or ufunc over the same operands, so the bits do not
depend on the number of pieces, and a batch row's forward output still does
not depend on its batch-mates. A call made inside a `run_shared` job runs
inline, so a kernel called from `correct_field`'s or the baselines' threads
starts no pool of its own, and inputs below `SPLIT_MIN` run inline too."""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

# pipebench/run.py records this in its environment block; no compiled path exists
USE_NUMBA = False

_ALLOCATOR_TUNED = False


def tune_allocator() -> bool:
    """Raise glibc's malloc thresholds so the large temporaries of training
    steps and of correction over long windows are reused from the heap
    instead of being unmapped and re-faulted each time. Best effort; a no-op
    off glibc."""
    global _ALLOCATOR_TUNED
    if _ALLOCATOR_TUNED:
        return True
    try:
        import ctypes
        libc = ctypes.CDLL("libc.so.6")
        ok = bool(libc.mallopt(-3, 64 * 1024 * 1024))   # M_MMAP_THRESHOLD
        ok = bool(libc.mallopt(-1, 512 * 1024 * 1024)) and ok  # M_TRIM_THRESHOLD
        _ALLOCATOR_TUNED = ok
        return ok
    except Exception:
        return False


@functools.cache
def _openblas_thread_calls():
    """(get, set) num_threads calls of the OpenBLAS numpy loaded, under the
    names numpy's bundled build or a system build exports; None when no
    such library is found."""
    try:
        import ctypes
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
                get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
                if get is not None and put is not None:
                    put.argtypes = [ctypes.c_int]
                    return get, put
    except Exception:
        pass
    return None


@contextmanager
def one_blas_thread():
    """OpenBLAS on one thread for the duration of the block, then back to
    its count before, for callers that run products on threads of their
    own. On two cores, correct_field's two threads ran 40 % slower than one
    thread when each product took two BLAS threads, and twice as fast with
    one. The count can change bits: with OpenBLAS 0.3.31 the conv kernels'
    stacked forward product and weight-gradient product of a training batch
    differ in the last bits between one thread and two. Best effort: a
    no-op when no OpenBLAS with these calls is loaded."""
    calls = _openblas_thread_calls()
    before = calls[0]() if calls is not None else 1
    if before > 1:
        calls[1](1)
    try:
        yield
    finally:
        if before > 1:
            calls[1](before)


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call off Linux
        return os.cpu_count() or 1


_in_job = threading.local()


def run_shared(n_jobs: int, work, threads: int) -> None:
    """work(0), ..., work(n_jobs - 1) on up to `threads` threads, the calling
    thread among them. Each thread takes the next index until none is left
    or a call has raised; once every thread has stopped, the first exception
    is raised again. The pool lives only for this call, so no thread
    outlives it; BLAS runs on one thread meanwhile, and the helpers run in a
    copy of the caller's context, so numpy's error state holds for them too.
    A call made from inside a job runs its jobs inline: the outer call has
    already chosen how many threads run."""
    nested = getattr(_in_job, "active", False)
    threads = 1 if nested else min(threads, n_jobs)
    if threads <= 1:
        _in_job.active = True
        try:
            for i in range(n_jobs):
                work(i)
        finally:
            _in_job.active = nested
        return
    lock = threading.Lock()
    pending = iter(range(n_jobs))
    failed = threading.Event()

    def share():
        _in_job.active = True
        try:
            while not failed.is_set():
                with lock:
                    i = next(pending, None)
                if i is None:
                    return
                work(i)
        except BaseException:
            failed.set()
            raise
        finally:
            _in_job.active = False

    with one_blas_thread(), ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, share)
                   for _ in range(threads - 1)]
        share()
    for helper in helpers:
        helper.result()


# float64 elements a piece of a split kernel reads and writes at least
# (1 MB): below it, starting a thread costs more than the piece saves
SPLIT_MIN = 1 << 17


def split_rows(rows: int, elements: int, unit: int = 1) -> list[int]:
    """Bounds [0, ..., rows] cutting the first axis of a kernel that reads
    and writes `elements` elements into pieces: one per CPU, at most one per
    whole `unit` of rows and per SPLIT_MIN elements, and one inside a
    run_shared job. Every cut is at a multiple of `unit` rows; rows past the
    last whole unit join the last piece."""
    units = rows // unit
    pieces = (1 if getattr(_in_job, "active", False)
              else max(1, min(cpu_count(), units, elements // SPLIT_MIN)))
    per = -(-units // pieces) * unit
    return list(range(0, units * unit, per)) + [rows] if units else [0, rows]


def run_pieces(bounds: list[int], piece) -> None:
    """piece(lo, hi) for each pair of consecutive bounds, on run_shared, with
    BLAS on one thread even for a single piece: OpenBLAS's own threads change
    the bits of a large product, so a split and an unsplit call agree only
    if neither uses them."""
    with one_blas_thread():
        if len(bounds) == 2:
            piece(*bounds)
        else:
            run_shared(len(bounds) - 1, lambda i: piece(bounds[i], bounds[i + 1]), cpu_count())


# ---------------------------------------------------------------------------
# conv1d: (batch, channels, length) with zero padding that preserves length.
# Inputs arrive already padded by K//2 on both ends of the time axis.
# ---------------------------------------------------------------------------

def pad_time(x: np.ndarray, pad: int) -> np.ndarray:
    """(B, cin, T) with `pad` zeros on both ends of the time axis, copied in
    pieces of batch rows."""
    B, cin, T = x.shape
    xpad = np.empty((B, cin, T + 2 * pad))

    def piece(lo, hi):
        xpad[lo:hi, :, :pad] = 0.0
        xpad[lo:hi, :, T + pad:] = 0.0
        xpad[lo:hi, :, pad:T + pad] = x[lo:hi]

    run_pieces(split_rows(B, 2 * xpad.size), piece)
    return xpad


def _im2col(xpad: np.ndarray, K: int) -> np.ndarray:
    """(B, cin, Tp) as columns (cin*K, B*T), copied in pieces of input
    channels over the CPUs."""
    B, cin, Tp = xpad.shape
    T = Tp - (K - 1)
    sb, sc, st = xpad.strides
    view = np.lib.stride_tricks.as_strided(
        xpad, shape=(cin, K, B, T), strides=(sc, st, sb, st), writeable=False)
    cols = np.empty((cin, K, B, T))
    run_pieces(split_rows(cin, 2 * cols.size),
               lambda lo, hi: np.copyto(cols[lo:hi], view[lo:hi]))
    return cols.reshape(cin * K, B * T)


# A product split into row blocks gives each row the bits it has in the
# whole product only when every block starts at a multiple of this many rows
# and each block stays past BLAS's small-matrix path. Measured with OpenBLAS
# 0.3.31 (SkylakeX kernels) over 500 shapes: cuts at multiples of 12 rows
# kept every bit, cuts at multiples of 8 or 16 did not.
GEMM_ROW_BLOCK = 12
# OpenBLAS runs products of at most 100**3 multiply-adds through its
# small-matrix kernels, whose bits differ from the blocked path's
_SMALL_GEMM = 100 ** 3


def _gemm_row_bounds(rows: int, n: int, k: int, unit: int) -> list[int]:
    """split_rows for a (rows, k) @ (k, n) product cut into row blocks of a
    multiple of `unit` and GEMM_ROW_BLOCK rows, each past the small path."""
    bounds = split_rows(rows, rows * k + k * n + rows * n, math.lcm(unit, GEMM_ROW_BLOCK))
    smallest = min(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    return bounds if smallest * n * k > _SMALL_GEMM else [0, rows]


def conv1d_forward(xpad: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward conv as a sum over the K taps of (cout, cin) @ (cin, T)
    products on shifted views of xpad, one product per batch row.

    The batch axis stays a stack axis of each matmul on purpose. Folding
    batch x time into the columns of a single gemm is faster to write, but
    BLAS then gives identical columns results that differ in the last bits
    by column position (OpenBLAS: up to 2.8e-14), so a node's embedding, and
    a cell's correction, would depend on its batch-mates. A stacked matmul
    runs the same-shaped product for every row whatever the batch size, so
    the batch rows can also be split into pieces over the CPUs with the same
    bits. Summing over taps needs no im2col copy of the input."""
    B, cin, Tp = xpad.shape
    cout, _, K = w.shape
    T = Tp - (K - 1)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))   # (K, cout, cin)
    out, term = np.empty((B, cout, T)), np.empty((B, cout, T))
    run_pieces(split_rows(B, xpad.size + out.size), lambda lo, hi: _conv_forward_rows(
        xpad[lo:hi], taps, b, term[lo:hi], out[lo:hi]))
    return out


def _conv_forward_rows(xpad, taps, b, term, out) -> None:
    T = out.shape[-1]
    np.matmul(taps[0], xpad[:, :, :T], out=out)
    for k in range(1, len(taps)):
        out += np.matmul(taps[k], xpad[:, :, k:k + T], out=term)
    out += b[:, None]


def conv1d_backward_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient from one (cin*K, cout) @ (cout, B*T) product, the
    column gradient, scattered onto the padded input with K strided adds.
    The product's rows split into pieces of whole input channels, and each
    piece scatters its own channels."""
    B, cout, T = gy.shape
    _, cin, K = w.shape
    gy2 = np.empty((cout, B, T))
    run_pieces(split_rows(cout, 2 * gy.size),
               lambda lo, hi: np.copyto(gy2[lo:hi], gy[:, lo:hi].transpose(1, 0, 2)))
    gy2 = gy2.reshape(cout, B * T)
    wt = w.reshape(cout, cin * K).T
    gcols = np.empty((cin * K, B * T))
    gxpad = np.zeros((B, cin, T + K - 1))

    def piece(lo, hi):
        np.matmul(wt[lo:hi], gy2, out=gcols[lo:hi])
        _scatter_taps(gcols[lo:hi].reshape(-1, K, B, T), gxpad[:, lo // K:hi // K])

    run_pieces(_gemm_row_bounds(cin * K, B * T, cout, K), piece)
    return gxpad


def _scatter_taps(gcols, gxpad) -> None:
    T = gcols.shape[-1]
    for k in range(gcols.shape[1]):
        gxpad[:, :, k:k + T] += gcols[:, k].transpose(1, 0, 2)


def conv1d_backward_weight(gy: np.ndarray, xpad: np.ndarray) -> np.ndarray:
    """Weight gradient from one (cout, B*T) @ (B*T, cin*K) product on an
    im2col copy of the input; the product's rows split into pieces of
    output channels."""
    B, cout, T = gy.shape
    _, cin, Tp = xpad.shape
    K = Tp - T + 1
    cols = _im2col(xpad, K)
    gy2, gw = np.empty((cout, B, T)), np.empty((cout, cin * K))

    def piece(lo, hi):
        np.copyto(gy2[lo:hi], gy[:, lo:hi].transpose(1, 0, 2))
        np.matmul(gy2[lo:hi].reshape(hi - lo, B * T), cols.T, out=gw[lo:hi])

    run_pieces(_gemm_row_bounds(cout, cin * K, B * T, 1), piece)
    return gw.reshape(cout, cin, K)


# ---------------------------------------------------------------------------
# Longest run of True per row (consecutive dry/wet day indices).
# ---------------------------------------------------------------------------

def run_length_max(flags: np.ndarray) -> np.ndarray:
    f = flags.astype(np.int64)
    n_rows, n = f.shape
    out = np.zeros(n_rows, dtype=np.int64)
    cur = np.zeros(n_rows, dtype=np.int64)
    for t in range(n):
        cur = (cur + f[:, t]) * f[:, t]
        np.maximum(out, cur, out=out)
    return out


# ---------------------------------------------------------------------------
# Box counting: number of l x l boxes (origin-anchored, ragged edges kept)
# containing both a zero and a one. No package caller; see the module
# docstring.
# ---------------------------------------------------------------------------

def box_partial_count(mask: np.ndarray, box: int) -> int:
    H, W = mask.shape
    rows = np.arange(0, H, box)
    cols = np.arange(0, W, box)
    m = mask.astype(np.int64)
    sums = np.add.reduceat(np.add.reduceat(m, rows, axis=0), cols, axis=1)
    hh = np.minimum(rows + box, H) - rows
    ww = np.minimum(cols + box, W) - cols
    sizes = hh[:, None] * ww[None, :]
    return int(np.count_nonzero((sums > 0) & (sums < sizes)))


# ---------------------------------------------------------------------------
# Great-circle distances (km), haversine on a 6371 km sphere.
# ---------------------------------------------------------------------------

EARTH_RADIUS_KM = 6371.0


def pairwise_haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Distance in km from points 1 to points 2 given in degrees; broadcasts
    its inputs, so [:, None] and [None, :] views give all pairs."""
    p1, l1, p2, l2 = (np.radians(np.asarray(a, dtype=np.float64))
                      for a in (lat1, lon1, lat2, lon2))
    a = np.sin((p2 - p1) / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(a)))
