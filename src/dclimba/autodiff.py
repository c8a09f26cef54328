"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

A ``Tape`` is an append-only record of operations; ``backward`` walks it once
in strict reverse order and releases each node as it goes, so a tape is never
replayed. A node is the output's gradient holder and a closure that keeps
its inputs' holders and only the arrays its formula reads (a shape where it
reads no more), so the forward frees each value it drops, and every value
stays readable after ``backward``.

Every primitive has one shape: it computes its value with numpy and hands
``_record`` one (input, vjp) pair per input, where the vjp (vector-Jacobian
product) maps the output's cotangent to that input's share of the gradient.
``_record`` alone decides which inputs get one: those with a holder.

``add``, ``sub``, ``mul`` and ``div`` broadcast as numpy does, and each
operand's gradient is summed back over the axes along which it was
broadcast. ``getitem`` (``t[idx]``) takes basic indices only: ints, slices,
None, Ellipsis and tuples of these; ``take`` gathers by an index array.
Subgradient conventions are fixed: abs'(0) = 0, sorting ties keep original
order (stable argsort).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from operator import itemgetter

import numpy as np

from . import _kernels

__all__ = [
    "Tensor", "Tape", "tape_scope", "backward", "grad_check",
    "add", "sub", "mul", "div", "matmul", "conv1d", "linear",
    "softplus", "sigmoid", "sqrt", "abs_", "sum_", "mean_", "concat",
    "reshape", "transpose", "take", "getitem", "sort", "softmax",
]


class Tape:
    """Append-only operation record; construction order is topological."""

    __slots__ = ("nodes",)

    def __init__(self):
        self.nodes = []  # list of (output's _Grad, backward closure)


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


class _Grad:
    """The gradient slot of a value that requires one."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad = None


class Tensor:
    """A value and, if it requires a gradient, its holder: a _Grad of its own
    for a leaf too, so that no Tensor refers to itself."""

    __slots__ = ("data", "holder", "tape")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.holder = _Grad() if requires_grad else None
        self.tape = None

    @property
    def requires_grad(self) -> bool:
        return self.holder is not None

    @property
    def grad(self):
        return None if self.holder is None else self.holder.grad

    @grad.setter
    def grad(self, g):
        self.holder.grad = g

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __getitem__(self, idx):
        return getitem(self, idx)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _record(data: np.ndarray, *grads) -> Tensor:
    """A primitive's output: its value ``data`` and one (input, vjp) pair per
    input, where ``vjp(g)`` maps the output's cotangent g to that input's
    share of the gradient. The pairs whose input requires no gradient are
    dropped here; if any is left, the output's holder goes on the tape with
    a closure that returns [(input's holder, vjp(g))] for the kept pairs."""
    out = Tensor(data)
    kept = [(t.holder, vjp) for t, vjp in grads if t.holder is not None]
    if kept:
        out.holder, out.tape = _Grad(), _ambient_tape()
        out.tape.nodes.append((out.holder, lambda g: [(h, vjp(g)) for h, vjp in kept]))
    return out


def _sum_expanded(g: np.ndarray, shape) -> np.ndarray:
    """g summed back to shape over the axes along which shape was expanded
    (broadcast) to g's shape."""
    src = (1,) * (g.ndim - len(shape)) + tuple(shape)
    axes = tuple(i for i, (s, t) in enumerate(zip(src, g.shape)) if s == 1 and t != 1)
    return (g.sum(axis=axes, keepdims=True) if axes else g).reshape(shape)


def _rows(a: np.ndarray) -> np.ndarray:
    """a as a matrix of its last axis."""
    return a.reshape(-1, a.shape[-1])


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _record(a.data + b.data, (a, lambda g: _sum_expanded(g, sa)),
                   (b, lambda g: _sum_expanded(g, sb)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    sa, sb = a.shape, b.shape
    return _record(a.data - b.data, (a, lambda g: _sum_expanded(g, sa)),
                   (b, lambda g: _sum_expanded(-g, sb)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    da, db, sa, sb = a.data, b.data, a.shape, b.shape
    return _record(da * db, (a, lambda g: _sum_expanded(g * db, sa)),
                   (b, lambda g: _sum_expanded(g * da, sb)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    da, db, sa, sb = a.data, b.data, a.shape, b.shape
    return _record(da / db, (a, lambda g: _sum_expanded(g / db, sa)),
                   (b, lambda g: _sum_expanded(-g * da / (db * db), sb)))


def matmul(a, b) -> Tensor:
    """Matrix product: either ``b`` is 2-D (a weight) or the operands carry
    identical leading batch dimensions."""
    a, b = _as_tensor(a), _as_tensor(b)
    da, db = a.data, b.data
    if da.ndim < 2 or db.ndim < 2:
        raise ValueError("matmul requires at least 2-D operands")
    if db.ndim > 2 and (da.ndim != db.ndim or da.shape[:-2] != db.shape[:-2]):
        raise ValueError(f"matmul batch dims must match: {da.shape} vs {db.shape}")
    return _record(da @ db, (a, lambda g: g @ np.swapaxes(db, -1, -2)),
                   (b, (lambda g: _rows(da).T @ _rows(g)) if db.ndim == 2
                    else (lambda g: np.swapaxes(da, -1, -2) @ g)))


def conv1d(x, w, b) -> Tensor:
    """1-D convolution over (batch, channels, length) with zero padding that
    preserves length; kernel size must be odd."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    dw = w.data
    _, cin, _ = x.data.shape
    _, cin_w, K = dw.shape
    if cin_w != cin:
        raise ValueError(f"conv1d channel mismatch: input {cin}, kernel {cin_w}")
    if K % 2 != 1:
        raise ValueError("conv1d kernel size must be odd")
    xpad = _kernels.pad_time(x.data, K // 2)
    return _record(
        _kernels.conv1d_forward(xpad, dw, b.data),
        (x, lambda g: _kernels.conv1d_backward_input(g, dw)),
        (w, lambda g: _kernels.conv1d_backward_weight(np.ascontiguousarray(g), xpad)),
        (b, lambda g: g.sum(axis=(0, 2))))


def linear(x, w, b) -> Tensor:
    """Fused affine map x @ w + b for x (rows, in) or a stack (G, rows, in),
    weight (in, out) and bias (out,).

    Pass rows that belong to different nodes or cells as a stack rather than
    flattened into one (G*rows, in) matrix: a stacked matmul runs the same
    (rows, in) @ (in, out) product for every item, while BLAS gives a row of
    one large product bits that depend on the total row count, so an item's
    output would depend on what else shares the call."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    dx, dw = x.data, w.data
    if dx.ndim not in (2, 3) or dw.ndim != 2 or b.data.ndim != 1:
        raise ValueError("linear expects x (rows, in) or (G, rows, in), "
                         "w (in, out), b (out,)")
    data = dx @ dw
    data += b.data
    # the rows w's vjp reads; _rows copies a strided x, so the tape keeps
    # those rows, not the whole array that x is a view of
    sx, xr = dx.shape, (_rows(dx) if w.requires_grad else None)
    return _record(data, (x, lambda g: (_rows(g) @ dw.T).reshape(sx)),
                   (w, lambda g: xr.T @ _rows(g)),
                   (b, lambda g: _rows(g).sum(axis=0)))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(x) -> Tensor:
    """log(1 + exp(x)), elementwise; for an input with a holder, the forward
    also computes the slope sigmoid(x), the one array the vjp reads. A large
    C-contiguous input is computed in pieces of its first axis over the CPUs
    (`_kernels.split_rows`), each element with the same ufuncs either way;
    the exp(-|x|) buffer and the outputs are allocated before they start."""
    x = _as_tensor(x)
    d = np.atleast_1d(x.data)   # a 0-d input as one row
    e, data = np.empty_like(d), np.empty_like(d)
    slope = np.empty_like(d) if x.requires_grad else None
    bounds = (_kernels.split_rows(len(d), d.size) if d.flags.c_contiguous
              else [0, len(d)])
    _kernels.run_pieces(bounds, lambda lo, hi: _softplus_rows(
        d[lo:hi], e[lo:hi], data[lo:hi], None if slope is None else slope[lo:hi]))
    return _record(data.reshape(x.shape), (x, lambda g: slope.reshape(g.shape) * g))


def _softplus_rows(d, e, out, slope) -> None:
    """softplus(d) into out, through e = exp(-|d|); with a slope buffer, also
    sigmoid(d) into it: 1 / (1 + e) for d >= 0, e / (1 + e) below."""
    np.abs(d, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    if slope is not None:
        np.add(e, 1.0, out=slope)
        np.divide(1.0, slope, out=slope, where=np.greater_equal(d, 0))
        np.divide(e, slope, out=slope, where=np.less(d, 0))
    np.maximum(d, 0.0, out=out)
    out += np.log1p(e, out=e)


def sigmoid(x) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid_np(x.data)
    return _record(y, (x, lambda g: g * y * (1.0 - y)))


def sqrt(x) -> Tensor:
    x = _as_tensor(x)
    if np.any(x.data < 0):
        raise ValueError("sqrt of negative input")
    y = np.sqrt(x.data)
    return _record(y, (x, lambda g: g * 0.5 / y))


def abs_(x) -> Tensor:
    """Absolute value with subgradient 0 at the origin."""
    x = _as_tensor(x)
    d = x.data
    return _record(np.abs(d), (x, lambda g: g * np.sign(d)))


# ---------------------------------------------------------------------------
# reductions and structure
# ---------------------------------------------------------------------------

def _unreduce(g: np.ndarray, shape, axis, keepdims) -> np.ndarray:
    """The cotangent g of a reduction over axis, copied out to the reduced
    input's shape."""
    gg = g if axis is None or keepdims else np.expand_dims(g, axis)
    return np.broadcast_to(gg, shape).copy()


def sum_(x, axis=None, keepdims=False) -> Tensor:
    x = _as_tensor(x)
    shape = x.shape
    return _record(x.data.sum(axis=axis, keepdims=keepdims),
                   (x, lambda g: _unreduce(g, shape, axis, keepdims)))


def mean_(x, axis=None) -> Tensor:
    """Mean over all elements, or over one axis."""
    x = _as_tensor(x)
    shape = x.shape
    count = x.data.size if axis is None else shape[axis]
    return _record(x.data.mean(axis=axis),
                   (x, lambda g: _unreduce(g / count, shape, axis, False)))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
    grads = []
    for t, o0, o1 in zip(tensors, offsets[:-1], offsets[1:]):
        sl = [slice(None)] * data.ndim
        sl[axis] = slice(o0, o1)
        grads.append((t, itemgetter(tuple(sl))))
    return _record(data, *grads)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    src = x.shape
    return _record(x.data.reshape(shape), (x, lambda g: g.reshape(src)))


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _record(x.data.transpose(axes), (x, lambda g: g.transpose(inv)))


def take(x, indices, axis: int = -1) -> Tensor:
    """Gather along one axis with a 1-D index array; backward scatter-adds."""
    x = _as_tensor(x)
    indices = np.asarray(indices, dtype=np.intp)
    shape = x.shape

    def vjp(g):
        z = np.zeros(shape)
        zm = np.moveaxis(z, axis, 0)
        # row adds in index order sum a repeated index in np.add.at's order,
        # bit for bit; several times faster than it on the encoder's wide
        # node rows, slower on narrow rows, faster over a training step
        for i, row in zip(indices.tolist(), np.moveaxis(g, axis, 0)):
            zm[i] += row
        return z

    return _record(np.take(x.data, indices, axis=axis), (x, vjp))


_BASIC_INDEX = (int, np.integer, slice, type(None), type(Ellipsis))


def getitem(x, idx) -> Tensor:
    """x[idx] for a basic index: an int, slice, None, Ellipsis or a tuple of
    these. Such an index reaches each element at most once, which the vjp's
    ``z[idx] += g`` relies on: an index array with a repeat would keep one
    of its cotangents, not their sum."""
    for p in (idx if isinstance(idx, tuple) else (idx,)):
        if isinstance(p, bool) or not isinstance(p, _BASIC_INDEX):
            raise ValueError(f"getitem takes basic indices only, not {idx!r}; "
                             "gather by an index array with ad.take")
    x = _as_tensor(x)
    shape = x.shape

    def vjp(g):
        z = np.zeros(shape)
        z[idx] += g
        return z

    return _record(x.data[idx], (x, vjp))


def sort(x) -> Tensor:
    """Sort ascending along the last axis; ties keep original order. The
    gradient routes the cotangent back through the sorting permutation."""
    x = _as_tensor(x)
    d = x.data
    perm = np.argsort(d, axis=-1, kind="stable")

    def vjp(g):
        z = np.empty(perm.shape)
        np.put_along_axis(z, perm, g, axis=-1)
        return z

    return _record(np.take_along_axis(d, perm, axis=-1), (x, vjp))


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    d = x.data
    m = d.max(axis=-1, keepdims=True)
    e = np.exp(d - m)
    y = e / e.sum(axis=-1, keepdims=True)
    return _record(y, (x, lambda g: (g - (g * y).sum(axis=-1, keepdims=True)) * y))


# ---------------------------------------------------------------------------
# backward pass and gradient checking
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(leaf) into the ``.grad`` of every requires_grad
    leaf reachable from ``loss``.

    ``loss.grad`` starts at one. Popping the nodes from the end of the tape,
    each node hands its holder's ``grad`` to its vjps, clears it, and adds
    each part into its input's holder in turn. A leaf that already held a
    gradient g0 thus ends with (g0 + p1) + p2, not g0 + (p1 + p2).

    The tape releases each node, and the arrays its closure kept, once it has
    been processed, so it ends empty. No Tensor's value changes: the values
    the caller holds stay readable."""
    if loss.data.size != 1:
        raise ValueError("backward requires a scalar loss")
    if loss.tape is None:
        return
    loss.grad = np.ones_like(loss.data)
    nodes = loss.tape.nodes
    while nodes:
        holder, bwd = nodes.pop()
        g, holder.grad = holder.grad, None
        if g is None:
            continue
        for h, part in bwd(g):
            h.grad = part if h.grad is None else h.grad + part


# grad_check steps element i by FD_STEP * max(1, |x_i|). A central
# difference errs by about h**2 |f'''| from truncation and eps |f| / h from
# rounding, least near h = eps**(1/3), about 6e-6 for float64. A fixed 1e-6
# step let the rounding term dominate on the composite loss.
FD_STEP = 6e-6


def grad_check(f, x) -> float:
    """Compare reverse-mode gradients of scalar-valued ``f`` at ``x`` against
    central finite differences. Element i steps by h = FD_STEP * max(1,
    |x_i|), relative to the element's size, and the difference divides by the
    representable distance x_i + h - (x_i - h), not by 2h. Returns the max
    relative error with denominator max(|analytic|, |numeric|, 1e-12)."""
    x = np.asarray(x, dtype=np.float64)
    with tape_scope():
        leaf = Tensor(x, requires_grad=True)
        out = f(leaf)
        backward(out)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(x)

    numeric = np.zeros_like(x)
    flat = numeric.ravel()
    for i in range(x.size):
        h = FD_STEP * max(1.0, abs(x.flat[i]))
        xp = x.copy()
        xp.flat[i] += h
        xm = x.copy()
        xm.flat[i] -= h
        fp = float(f(Tensor(xp)).data)
        fm = float(f(Tensor(xm)).data)
        flat[i] = (fp - fm) / (xp.flat[i] - xm.flat[i])

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - numeric) / denom))
