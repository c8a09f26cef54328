"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` is an append-only record of operations; ``backward`` walks it once
in strict reverse order, accumulates cotangents additively and releases each
node as it goes, so a tape is never replayed.

Broadcasting is restricted to scalar-vs-tensor; anything else must be
expanded explicitly (``broadcast_to``). Subgradient conventions are fixed:
abs'(0) = 0, clamp_min' at the boundary = 0, sorting ties keep original
order (stable argsort).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from . import _kernels

__all__ = [
    "Tensor", "Tape", "tape_scope", "backward", "grad_check",
    "add", "sub", "mul", "div", "matmul", "conv1d", "linear",
    "add_expand", "softplus", "sigmoid", "exp", "log", "sqrt", "power",
    "abs_", "clamp_min", "sum_", "mean_", "concat", "reshape", "transpose",
    "broadcast_to", "take", "getitem", "sort_with_permutation", "softmax",
]


_EMPTY = np.empty(0)


class Tape:
    """Append-only operation record; construction order is topological."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []  # list of (output Tensor, backward closure)


_tl = threading.local()


def _ambient_tape() -> Tape:
    tape = getattr(_tl, "tape", None)
    if tape is None:
        tape = Tape()
        _tl.tape = tape
    return tape


@contextmanager
def tape_scope():
    """Run a forward/backward pass on a fresh tape, restoring the old one."""
    prev = getattr(_tl, "tape", None)
    _tl.tape = None
    try:
        yield _ambient_tape()
    finally:
        _tl.tape = prev


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self.tape = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, inputs, bwd) -> Tensor:
    out = Tensor(data)
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape = _ambient_tape()
        tape.nodes.append((out, bwd))
        out.tape = tape
    return out


def _check_elementwise(a: Tensor, b: Tensor):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}; "
                         "only scalar-tensor broadcasting is supported")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape) if np.prod(shape, dtype=int) == 1 else g.reshape(shape)


def _sum_expanded(g: np.ndarray, shape) -> np.ndarray:
    """g summed back to shape over the axes along which shape was expanded
    (broadcast) to g's shape."""
    src = (1,) * (g.ndim - len(shape)) + tuple(shape)
    axes = tuple(i for i, (s, t) in enumerate(zip(src, g.shape)) if s == 1 and t != 1)
    return (g.sum(axis=axes, keepdims=True) if axes else g).reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)
    data = a.data + b.data

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, _reduce_to(g, a.data.shape)))
        if b.requires_grad:
            parts.append((b, _reduce_to(g, b.data.shape)))
        return parts

    return _record(data, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)
    data = a.data - b.data

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, _reduce_to(g, a.data.shape)))
        if b.requires_grad:
            parts.append((b, _reduce_to(-g, b.data.shape)))
        return parts

    return _record(data, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)
    data = a.data * b.data

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, _reduce_to(g * b.data, a.data.shape)))
        if b.requires_grad:
            parts.append((b, _reduce_to(g * a.data, b.data.shape)))
        return parts

    return _record(data, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_elementwise(a, b)
    data = a.data / b.data

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, _reduce_to(g / b.data, a.data.shape)))
        if b.requires_grad:
            parts.append((b, _reduce_to(-g * a.data / (b.data * b.data), b.data.shape)))
        return parts

    return _record(data, (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product: either ``b`` is 2-D (a weight) or the operands carry
    identical leading batch dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    da, db = a.data, b.data
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul requires at least 2-D operands")
    if db.ndim > 2 and (da.ndim != db.ndim or da.shape[:-2] != db.shape[:-2]):
        raise ValueError(f"matmul batch dims must match: {da.shape} vs {db.shape}")
    data = da @ db

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, g @ np.swapaxes(db, -1, -2)))
        if b.requires_grad:
            if db.ndim == 2:
                ga = da.reshape(-1, da.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                parts.append((b, ga))
            else:
                parts.append((b, np.swapaxes(da, -1, -2) @ g))
        return parts

    return _record(data, (a, b), bwd)


def conv1d(x, w, b) -> Tensor:
    """1-D convolution over (batch, channels, length) with zero padding that
    preserves length; kernel size must be odd."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    _, cin, _ = x.data.shape
    _, cin_w, K = w.data.shape
    if cin_w != cin:
        raise ValueError(f"conv1d channel mismatch: input {cin}, kernel {cin_w}")
    if K % 2 != 1:
        raise ValueError("conv1d kernel size must be odd")
    xpad = _kernels.pad_time(x.data, K // 2)
    data = _kernels.conv1d_forward(xpad, w.data, b.data)

    def bwd(g):
        g = np.ascontiguousarray(g)
        parts = []
        if x.requires_grad:
            parts.append((x, _kernels.conv1d_backward_input(g, w.data)))
        if w.requires_grad:
            parts.append((w, _kernels.conv1d_backward_weight(g, xpad)))
        if b.requires_grad:
            parts.append((b, g.sum(axis=(0, 2))))
        return parts

    return _record(data, (x, w, b), bwd)


def linear(x, w, b) -> Tensor:
    """Fused affine map x @ w + b for x (rows, in) or a stack (G, rows, in),
    weight (in, out) and bias (out,).

    Pass rows that belong to different nodes or cells as a stack rather than
    flattened into one (G*rows, in) matrix: a stacked matmul runs the same
    (rows, in) @ (in, out) product for every item, while BLAS gives a row of
    one large product bits that depend on the total row count, so an item's
    output would depend on what else shares the call."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.data.ndim not in (2, 3) or w.data.ndim != 2 or b.data.ndim != 1:
        raise ValueError("linear expects x (rows, in) or (G, rows, in), "
                         "w (in, out), b (out,)")
    data = x.data @ w.data
    data += b.data

    def bwd(g):
        parts = []
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            parts.append((x, (g2 @ w.data.T).reshape(x.data.shape)))
        if w.requires_grad:
            parts.append((w, x.data.reshape(-1, x.data.shape[-1]).T @ g2))
        if b.requires_grad:
            parts.append((b, g2.sum(axis=0)))
        return parts

    return _record(data, (x, w, b), bwd)


def add_expand(a, b) -> Tensor:
    """a + b where b's shape broadcasts onto a's (an explicit, fused
    expansion: the backward pass sums b's gradient over the expanded axes)."""
    a, b = _as_tensor(a), _as_tensor(b)
    da, db = a.data, b.data
    if np.broadcast_shapes(da.shape, db.shape) != da.shape:
        raise ValueError(f"{db.shape} does not broadcast onto {da.shape}")
    data = da + db

    def bwd(g):
        parts = []
        if a.requires_grad:
            parts.append((a, g))
        if b.requires_grad:
            parts.append((b, _sum_expanded(g, db.shape)))
        return parts

    return _record(data, (a, b), bwd)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x) -> Tensor:
    """log(1 + exp(x)), elementwise. A large C-contiguous input is computed,
    value and derivative alike, in pieces of its first axis over the CPUs
    (`_kernels.split_rows`); each element gets the same ufuncs on the same
    operands either way. Every array is allocated before the pieces start,
    so helper threads allocate nothing."""
    x = _as_tensor(x)
    d = x.data
    if d.ndim == 0:
        # scalar arithmetic, as np.maximum(d, 0.0) + np.log1p(e) does on 0-d
        # input: adding in place into a 0-d array gives NaN the other sign
        e = np.exp(-np.abs(d))
        data = np.maximum(d, 0.0) + np.log1p(e)
        bounds = [0, 1]
        d, e = d.reshape(1), e.reshape(1)
    else:
        e, data = np.empty_like(d), np.empty_like(d)   # e: exp(-|d|)
        # log1p goes into a buffer of its own while e is kept for the
        # derivative, else in place: one array fewer
        log = np.empty_like(d) if x.requires_grad else e
        bounds = (_kernels.split_rows(len(d), d.size) if d.flags.c_contiguous
                  else [0, len(d)])
        _kernels.run_pieces(bounds, lambda lo, hi: _softplus_rows(
            d[lo:hi], e[lo:hi], log[lo:hi], data[lo:hi]))

    def bwd(g):
        sig, buf, ge = np.empty_like(d), np.empty_like(d), np.empty(d.shape, bool)
        g = g.reshape(d.shape)
        _kernels.run_pieces(bounds, lambda lo, hi: _sigmoid_rows(
            d[lo:hi], e[lo:hi], g[lo:hi], ge[lo:hi], buf[lo:hi], sig[lo:hi]))
        return ((x, sig.reshape(x.data.shape)),)

    return _record(data, (x,), bwd)


def _softplus_rows(d, e, log, out) -> None:
    np.abs(d, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.maximum(d, 0.0, out=out)
    out += np.log1p(e, out=log)


def _sigmoid_rows(d, e, g, ge, buf, out) -> None:
    """g * sigmoid(d): g / (1 + e) for d >= 0, g * e / (1 + e) below."""
    np.copyto(out, e)
    np.copyto(out, 1.0, where=np.greater_equal(d, 0, out=ge))
    out /= np.add(e, 1.0, out=buf)
    out *= g


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_np(x.data)

    def bwd(g):
        return ((x, g * y * (1.0 - y)),)

    return _record(y, (x,), bwd)


def exp(x) -> Tensor:
    x = _as_tensor(x)
    y = np.exp(x.data)

    def bwd(g):
        return ((x, g * y),)

    return _record(y, (x,), bwd)


def log(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data <= 0):
        raise ValueError("log of non-positive input")
    d = x.data

    def bwd(g):
        return ((x, g / d),)

    return _record(np.log(d), (x,), bwd)


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data < 0):
        raise ValueError("sqrt of negative input")
    y = np.sqrt(x.data)

    def bwd(g):
        return ((x, g * 0.5 / y),)

    return _record(y, (x,), bwd)


def power(x, p: float) -> Tensor:
    x = _as_tensor(x)
    p = float(p)
    d = x.data
    y = d ** p

    def bwd(g):
        return ((x, g * p * d ** (p - 1.0)),)

    return _record(y, (x,), bwd)


def abs_(x) -> Tensor:
    """Absolute value with subgradient 0 at the origin."""
    x = _as_tensor(x)
    d = x.data

    def bwd(g):
        return ((x, g * np.sign(d)),)

    return _record(np.abs(d), (x,), bwd)


def clamp_min(x, lo: float) -> Tensor:
    """max(x, lo); the gradient at the boundary is 0."""
    x = _as_tensor(x)
    lo = float(lo)
    d = x.data

    def bwd(g):
        return ((x, g * (d > lo)),)

    return _record(np.maximum(d, lo), (x,), bwd)


# ---------------------------------------------------------------------------
# reductions and structure
# ---------------------------------------------------------------------------

def sum_(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    data = d.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is None:
            return ((x, np.broadcast_to(g, d.shape).copy()),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((x, np.broadcast_to(gg, d.shape).copy()),)

    return _record(data, (x,), bwd)


def mean_(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    data = d.mean(axis=axis, keepdims=keepdims)
    count = d.size if axis is None else np.prod(
        [d.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))], dtype=int)

    def bwd(g):
        if axis is None:
            return ((x, np.broadcast_to(g / count, d.shape).copy()),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return ((x, np.broadcast_to(gg / count, d.shape).copy()),)

    return _record(data, (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        parts = []
        for t, o0, o1 in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(o0, o1)
                parts.append((t, g[tuple(sl)]))
        return parts

    return _record(data, tuple(tensors), bwd)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    data = d.reshape(shape)

    def bwd(g):
        return ((x, g.reshape(d.shape)),)

    return _record(data, (x,), bwd)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    data = x.data.transpose(axes)

    def bwd(g):
        return ((x, g.transpose(inv)),)

    return _record(data, (x,), bwd)


def broadcast_to(x, shape) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    shape = tuple(shape)
    data = np.broadcast_to(d, shape).copy()

    def bwd(g):
        return ((x, _sum_expanded(g, d.shape)),)

    return _record(data, (x,), bwd)


def take(x, indices, axis: int = -1) -> Tensor:
    """Gather along one axis with a 1-D index array; backward scatter-adds."""
    x = _as_tensor(x)
    indices = np.asarray(indices, dtype=np.intp)
    d = x.data
    data = np.take(d, indices, axis=axis)

    def bwd(g):
        z = np.zeros_like(d)
        zm = np.moveaxis(z, axis, 0)
        # row adds in index order sum a repeated index in np.add.at's order,
        # bit for bit; several times faster than it on the encoder's wide
        # node rows, slower on narrow rows, faster over a training step
        for i, row in zip(indices.tolist(), np.moveaxis(g, axis, 0)):
            zm[i] += row
        return ((x, z),)

    return _record(data, (x,), bwd)


def getitem(x, idx) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    data = d[idx]
    if np.isscalar(data) or data.ndim == 0:
        data = np.asarray(data)

    def bwd(g):
        z = np.zeros_like(d)
        z[idx] += g
        return ((x, z),)

    return _record(data, (x,), bwd)


def sort_with_permutation(x, axis: int = -1):
    """Sort ascending along ``axis``; ties keep original order. Returns the
    sorted Tensor and the integer permutation. The gradient routes the
    cotangent back through the permutation."""
    x = _as_tensor(x)
    d = x.data
    perm = np.argsort(d, axis=axis, kind="stable")
    data = np.take_along_axis(d, perm, axis=axis)

    def bwd(g):
        z = np.empty_like(d)
        np.put_along_axis(z, perm, g, axis=axis)
        return ((x, z),)

    return _record(data, (x,), bwd), perm


def softmax(x, axis: int = -1) -> Tensor:
    x = _as_tensor(x)
    d = x.data
    m = d.max(axis=axis, keepdims=True)
    e = np.exp(d - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((x, (g - dot) * y),)

    return _record(y, (x,), bwd)


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor):
    """Propagate d(loss)/d(leaf) to every requires_grad leaf reachable from
    ``loss``. Returns a dict mapping leaf Tensors to their gradients; the
    same values are added into ``.grad``.

    The tape releases each node as soon as it has been processed, which
    keeps the peak working set small during training. Afterwards the tape is
    empty and the outputs that carried a gradient hold empty ``.data``, so
    read intermediate values before this call; a tape is never replayed."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if loss.tape is None:
        return {}
    grads = {id(loss): np.ones_like(loss.data)}
    refs = {id(loss): loss}
    nodes = loss.tape.nodes
    for i in range(len(nodes) - 1, -1, -1):
        out, bwd = nodes[i]
        nodes[i] = None
        g = grads.pop(id(out), None)
        refs.pop(id(out), None)
        if g is None:
            continue
        for t, part in bwd(g):
            tid = id(t)
            cur = grads.get(tid)
            grads[tid] = part if cur is None else cur + part
            refs[tid] = t
        out.data = _EMPTY
        del out, bwd, g
    nodes.clear()
    leaf_grads = {}
    for tid, g in grads.items():
        t = refs[tid]
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g
            leaf_grads[t] = g
    return leaf_grads


def grad_check(f, x, h: float = 1e-6) -> float:
    """Compare reverse-mode gradients of scalar-valued ``f`` at ``x`` against
    central finite differences. Returns the max relative error with
    denominator max(|analytic|, |numeric|, 1e-12)."""
    x = np.asarray(x, dtype=np.float64)
    with tape_scope():
        leaf = Tensor(x, requires_grad=True)
        out = f(leaf)
        backward(out)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)

    numeric = np.zeros_like(x)
    flat = numeric.ravel()
    for i in range(x.size):
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        fp = float(f(Tensor(xp)).data)
        fm = float(f(Tensor(xm)).data)
        flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))
