"""Hot numeric kernels in plain numpy: the temporal convolution and its two
gradients, the longest run of True per row, box counting for fractal
dimension, and great-circle distance; the process settings they run under:
glibc's malloc thresholds and OpenBLAS's thread count; and the package's one
thread helper, `run_shared`: no other module starts threads."""

from __future__ import annotations

import functools
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
    one. BLAS splits a product by output blocks, so the thread count changes
    no bit. Best effort: a no-op when no OpenBLAS with these calls is
    loaded."""
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


def run_shared(n_jobs: int, work, threads: int) -> None:
    """work(0), ..., work(n_jobs - 1) on up to `threads` threads, the calling
    thread among them. Each thread takes the next index until none is left
    or a call has raised; once every thread has stopped, the first exception
    is raised again. The pool lives only for this call, so no thread
    outlives it, and BLAS runs on one thread meanwhile."""
    threads = min(threads, n_jobs)
    if threads <= 1:
        for i in range(n_jobs):
            work(i)
        return
    lock = threading.Lock()
    pending = iter(range(n_jobs))
    failed = threading.Event()

    def share():
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

    with one_blas_thread(), ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(share) for _ in range(threads - 1)]
        share()
    for helper in helpers:
        helper.result()


# ---------------------------------------------------------------------------
# conv1d: (batch, channels, length) with zero padding that preserves length.
# Inputs arrive already padded by K//2 on both ends of the time axis.
# ---------------------------------------------------------------------------

def _im2col(xpad: np.ndarray, K: int) -> np.ndarray:
    """View (B, cin, Tp) as columns (cin*K, B*T), copied contiguous."""
    B, cin, Tp = xpad.shape
    T = Tp - (K - 1)
    sb, sc, st = xpad.strides
    view = np.lib.stride_tricks.as_strided(
        xpad, shape=(cin, K, B, T), strides=(sc, st, sb, st), writeable=False)
    return view.reshape(cin * K, B * T)


def conv1d_forward(xpad: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Forward conv as a sum over the K taps of (cout, cin) @ (cin, T)
    products on shifted views of xpad, one product per batch row.

    The batch axis stays a stack axis of each matmul on purpose. Folding
    batch x time into the columns of a single gemm is faster to write, but
    BLAS then gives identical columns results that differ in the last bits
    by column position (OpenBLAS: up to 2.8e-14), so a node's embedding, and
    a cell's correction, would depend on its batch-mates. A stacked matmul
    runs the same-shaped product for every row whatever the batch size.
    Summing over taps needs no im2col copy of the input."""
    B, cin, Tp = xpad.shape
    cout, _, K = w.shape
    T = Tp - (K - 1)
    taps = np.ascontiguousarray(w.transpose(2, 0, 1))   # (K, cout, cin)
    out = np.matmul(taps[0], xpad[:, :, :T])            # (B, cout, T)
    term = np.empty_like(out)
    for k in range(1, K):
        out += np.matmul(taps[k], xpad[:, :, k:k + T], out=term)
    out += b[:, None]
    return out


def conv1d_backward_input(gy: np.ndarray, w: np.ndarray) -> np.ndarray:
    B, cout, T = gy.shape
    _, cin, K = w.shape
    gy2 = np.ascontiguousarray(gy.transpose(1, 0, 2)).reshape(cout, B * T)
    gcols = (w.reshape(cout, cin * K).T @ gy2).reshape(cin, K, B, T)
    gxpad = np.zeros((B, cin, T + K - 1))
    for k in range(K):
        gxpad[:, :, k:k + T] += gcols[:, k].transpose(1, 0, 2)
    return gxpad


def conv1d_backward_weight(gy: np.ndarray, xpad: np.ndarray) -> np.ndarray:
    B, cout, T = gy.shape
    _, cin, Tp = xpad.shape
    K = Tp - T + 1
    cols = _im2col(xpad, K)
    gy2 = np.ascontiguousarray(gy.transpose(1, 0, 2)).reshape(cout, B * T)
    return (gy2 @ cols.T).reshape(cout, cin, K)


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
# containing both a zero and a one.
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
