"""Hot numeric kernels in plain numpy: the temporal convolution and its two
gradients, the day-blocked copy of (cells, days) rows out of a field, the
longest run of True per row, the box counts of thresholded fields behind
the fractal dimension, and great-circle distance; the process settings they
run under: glibc's malloc thresholds and OpenBLAS's thread count; and the
package's one thread helper, `run_shared`: no other module starts threads.

The three conv kernels, and `autodiff.softplus`, split large inputs into
pieces over the CPUs through `run_shared`. Pieces cut only a stack axis
(the batch rows of the conv kernels' stacked products) or elementwise work,
never the inside of a product: every product has the same shape, and every
output element the same operands and the same order of sums, whatever the
number of pieces. So the bits do not depend on the CPU count or on the BLAS
kernel, and a batch row's forward output does not depend on its
batch-mates. A call made inside a `run_shared` job runs inline, so a kernel
called from `correct_field`'s or the baselines' threads starts no pool of
its own, and inputs below `SPLIT_MIN` run inline too."""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

# pipebench/run.py records this in its environment block; no compiled path exists
USE_NUMBA = False


@functools.cache
def tune_allocator() -> bool:
    """Raise glibc's malloc thresholds so the large temporaries of training
    steps and of correction over long windows are reused from the heap
    instead of being unmapped and re-faulted each time. Best effort; a no-op
    off glibc. Runs once per process: a failed attempt is not retried."""
    try:
        import ctypes
        libc = ctypes.CDLL("libc.so.6")
        ok = bool(libc.mallopt(-3, 64 * 1024 * 1024))   # M_MMAP_THRESHOLD
        return bool(libc.mallopt(-1, 512 * 1024 * 1024)) and ok  # M_TRIM_THRESHOLD
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
    one. The count can change bits: with OpenBLAS 0.3.31 large products
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
    outlives it; BLAS runs on one thread meanwhile, also when the jobs run
    inline, and the helpers run in a copy of the caller's context, so
    numpy's error state holds for them too. A call made from inside a job
    runs its jobs inline: the outer call has already chosen how many
    threads run."""
    nested = getattr(_in_job, "active", False)
    threads = 1 if nested else min(threads, n_jobs)
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
            _in_job.active = nested

    with one_blas_thread():
        if threads <= 1:
            share()
            return
        with ThreadPoolExecutor(threads - 1) as pool:
            helpers = [pool.submit(contextvars.copy_context().run, share)
                       for _ in range(threads - 1)]
            share()
    for helper in helpers:
        helper.result()


# float64 elements a piece of a split kernel reads and writes at least
# (1 MB): below it, starting a thread costs more than the piece saves
SPLIT_MIN = 1 << 17


def split_rows(rows: int, elements: int) -> list[int]:
    """Bounds [0, ..., rows] cutting the first axis of a kernel that reads
    and writes `elements` elements into pieces: one per CPU, at most one per
    row and per SPLIT_MIN elements, and one inside a run_shared job."""
    pieces = (1 if getattr(_in_job, "active", False)
              else max(1, min(cpu_count(), rows, elements // SPLIT_MIN)))
    return list(range(0, rows, -(-rows // pieces))) + [rows] if rows else [0, 0]


def run_pieces(bounds: list[int], piece) -> None:
    """piece(lo, hi) for each pair of consecutive bounds, on run_shared."""
    run_shared(len(bounds) - 1, lambda i: piece(bounds[i], bounds[i + 1]), cpu_count())


# ---------------------------------------------------------------------------
# conv1d: (batch, channels, length) with zero padding that preserves length.
# Inputs arrive already padded by K//2 on both ends of the time axis. Every
# product is stacked over the batch rows, and pieces cut only those rows.
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
    return _tap_sum(xpad, np.ascontiguousarray(w.transpose(2, 0, 1)), b)


def conv1d_backward_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient (B, cin, T): the forward tap-sum over gy padded by
    K//2, with the kernel's input and output channels swapped and its taps
    reversed; pieces of batch rows, as in the forward."""
    K = w.shape[2]
    taps = np.ascontiguousarray(w[:, :, ::-1].transpose(2, 1, 0))   # (K, cin, cout)
    return _tap_sum(pad_time(gy, K // 2), taps)


def _tap_sum(xpad, taps, b=None) -> np.ndarray:
    """(B, rows, T): the sum over k of the stacked products
    taps[k] @ xpad[:, :, k:k + T], in tap order, plus b when given."""
    B, _, Tp = xpad.shape
    K, rows, _ = taps.shape
    T = Tp - (K - 1)
    out, term = np.empty((B, rows, T)), np.empty((B, rows, T))

    def piece(lo, hi):
        np.matmul(taps[0], xpad[lo:hi, :, :T], out=out[lo:hi])
        for k in range(1, K):
            out[lo:hi] += np.matmul(taps[k], xpad[lo:hi, :, k:k + T], out=term[lo:hi])
        if b is not None:
            out[lo:hi] += b[:, None]

    run_pieces(split_rows(B, xpad.size + out.size), piece)
    return out


# float64 elements of weight-gradient partials held at once (16 MB): a
# training batch of 170 rows at 64 channels and 3 taps fits in one block
PARTIALS_MAX = 1 << 21


def conv1d_backward_weight(gy: np.ndarray, xpad: np.ndarray) -> np.ndarray:
    """Weight gradient (cout, cin, K): for each tap k, the stacked products
    gy[b] @ xpad[b, :, k:k + T].T of the batch rows, in pieces of batch
    rows, summed over the batch axis in row order.

    The (rows, K, cout, cin) partials are formed and summed in blocks of at
    most PARTIALS_MAX floats. After the first block, a block's row 0 carries
    the running sum, and numpy sums axis 0 row by row, so the result has the
    bits of one sum over all B rows, whatever the block size."""
    B, cout, T = gy.shape
    _, cin, Tp = xpad.shape
    K = Tp - T + 1
    parts = np.empty((max(2, min(B, PARTIALS_MAX // (K * cout * cin))), K, cout, cin))
    total, lo = None, 0
    while total is None or lo < B:
        carry = 0 if total is None else 1
        hi = min(B, lo + len(parts) - carry)
        block = parts[:carry + hi - lo]
        if carry:
            block[0] = total
        _weight_partials(gy[lo:hi], xpad[lo:hi], block[carry:])
        total, lo = block.sum(axis=0), hi
    return np.ascontiguousarray(total.transpose(1, 2, 0))


def _weight_partials(gy, xpad, out) -> None:
    """out[b, k] = gy[b] @ xpad[b, :, k:k + T].T for every batch row b and
    tap k, in pieces of batch rows."""
    T = gy.shape[2]

    def piece(lo, hi):
        for k in range(out.shape[1]):
            np.matmul(gy[lo:hi], xpad[lo:hi, :, k:k + T].transpose(0, 2, 1), out=out[lo:hi, k])

    run_pieces(split_rows(len(gy), gy.size + xpad.size + out.size), piece)


# ---------------------------------------------------------------------------
# (cells, days) rows of a (days, cells) field. A 32x32 float32 field's day
# stride is 4 KB, and a copy of its transposed view that reads every day of
# a cell at once thrashes the cache. On a 2-core Skylake-X VM, 730 x 1,024
# to float64 took 3.5 ms as np.ascontiguousarray and 1.1 ms in blocks of 64
# days, 8.0 against 2.3 ms at 1,460 days, and about the same at 365 days.
# The other direction, rows written back into a (days, cells) field, reads
# the rows in order: sixteen 64-row write-backs at 730 days took 0.63 ms
# plain and 0.86 ms in blocks.
# ---------------------------------------------------------------------------

DAY_BLOCK = 64


def cell_rows(rows: np.ndarray, dtype) -> np.ndarray:
    """(cells, days) rows, such as the view `gridio.cell_days` gives, as
    C-contiguous rows of dtype: np.ascontiguousarray(rows, dtype=dtype),
    bit for bit, copied DAY_BLOCK days at a time."""
    out = np.empty(rows.shape, dtype)
    for lo in range(0, rows.shape[-1], DAY_BLOCK):
        out[:, lo:lo + DAY_BLOCK] = rows[:, lo:lo + DAY_BLOCK]
    return out


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
# Box counting for the fractal dimension: boxes are origin anchored, ragged
# edges kept.
# ---------------------------------------------------------------------------

def _block_extremes(a: np.ndarray, k: int, op, fill: float) -> np.ndarray:
    """op (np.minimum or np.maximum) over the origin-anchored k x k blocks of
    every snapshot of a (T, h, w); ragged edges are padded with fill, the
    identity of op."""
    T, h, w = a.shape
    hk, wk = -(-h // k) * k, -(-w // k) * k
    if (hk, wk) != (h, w):
        padded = np.full((T, hk, wk), fill)
        padded[:, :h, :w] = a
        a = padded
    rows = op(a[:, 0::k], a[:, 1::k])
    for i in range(2, k):
        op(rows, a[:, i::k], out=rows)
    out = op(rows[:, :, 0::k], rows[:, :, 1::k])
    for j in range(2, k):
        op(out, rows[:, :, j::k], out=out)
    return out


def box_partial_count(fields: np.ndarray, thr: np.ndarray, box_sizes) -> np.ndarray:
    """counts[t, j, s]: boxes of side box_sizes[s] in snapshot t of fields
    (T, H, W) holding values both below and at or above thr[t, j], that is
    both a zero and a one of the mask fields[t] >= thr[t, j]. A box holds a
    one iff its max >= thr and a zero iff its min < thr, so the count is
    #{box min < thr} - #{box max < thr}.

    Box extremes are built level by level: sizes are taken in ascending
    order, and each reduces the minima and maxima of the largest smaller
    size that divides it (the field itself when none does). A box of side b
    is exactly the union of the (b/a)^2 boxes of side a inside it, ragged
    edges included, and min and max are exact, so the counts do not depend
    on the path."""
    T = fields.shape[0]
    counts = np.empty(thr.shape + (len(box_sizes),), dtype=np.int64)
    extremes = {1: (fields, fields)}
    for b in sorted(set(map(int, box_sizes))):
        a = max(s for s in extremes if b % s == 0)
        lo, hi = extremes[a]
        extremes[b] = (_block_extremes(lo, b // a, np.minimum, np.inf),
                       _block_extremes(hi, b // a, np.maximum, -np.inf))
    for s, b in enumerate(box_sizes):
        lo, hi = extremes[int(b)]
        lo = np.sort(lo.reshape(T, -1), axis=1)
        hi = np.sort(hi.reshape(T, -1), axis=1)
        for t in range(T):
            counts[t, :, s] = (np.searchsorted(lo[t], thr[t])
                               - np.searchsorted(hi[t], thr[t]))
    return counts


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
