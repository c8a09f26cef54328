"""Classical quantile-based corrections: quantile mapping (QM), empirical-CDF
matching with an additive or multiplicative distance (ECDFM), and quantile
delta mapping (QDM), fitted per cell by default.

All forms share the same order-statistic conventions as the rest of the
package. Multiplicative denominators are floored at a trace threshold so
near-zero precipitation cannot blow up ratios; values beyond the fitted range
extrapolate with the constant ratio at the nearest extreme quantile.

The corrections run on rows, one per cell. Each fitted row is sorted once,
in its own dtype, then widened to float64. Each applied row is ranked by one
sort: a row whose values float32 holds exactly sorts uint64 words, each a
value's order-preserving float32 bits above its index, and that one sort
gives the ascending values and their days; a float64 row that float32
cannot hold is ranked by an argsort. QM ranks x within the model-historical
row by `np.interp`. ECDFM and QDM rank x within its own row, as Cannon,
Sobie & Murdock (2015) define QDM: a value's position is read off the
sorted row, linspace(0, 1, m) at the end of its tie run, the bits np.interp
would give. The quantile interpolations run on the ascending keys, and the
result is scattered back to day order once. A correction maps tied inputs
to equal outputs, so the order among ties never changes a value.

`correct_cells` is the one entry, on (cells, days) rows; one series is a
one-row call. It runs fixed blocks of rows on a thread per CPU the process
may use, with no setting, through the package's one thread helper
(`_kernels.run_shared`).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import InvariantError
from .gridio import GridField, cell_days, check_same_grid

TRACE_MM = 0.05
METHODS = ("qm", "ecdfm", "qdm")
MODES = ("multiplicative", "additive")
# rows per block of correct_cells: a block's float64 rows and temporaries
# (0.4 MB each over two years) stay in a core's cache, and a 32x32 field
# gives 16 blocks to share among the CPUs. On that field 64 and 128 rows ran
# fastest; one block of all 1,024 rows ran no faster than one thread
BLOCK_CELLS = 64


class _Steps(dict):
    """np.linspace(0, 1, n) for each length n, built once per correction."""

    def __missing__(self, n):
        self[n] = grid = np.linspace(0.0, 1.0, n)
        return grid


def _cdf_position(sorted_vals: np.ndarray, x: np.ndarray, steps: _Steps) -> np.ndarray:
    """Empirical CDF position in [0, 1] by linear interpolation through the
    order statistics; clipped outside the fitted range (0 for one value)."""
    return np.interp(x, sorted_vals, steps[sorted_vals.size])


def _quantile_at(sorted_vals: np.ndarray, tau: np.ndarray, steps: _Steps) -> np.ndarray:
    return np.interp(tau, steps[sorted_vals.size], sorted_vals)


def _each_row(fn, fit: tuple, keys: tuple, steps: _Steps) -> np.ndarray:
    """fn(fitted row, ascending key row) on each row's finite entries; one
    fitted row serves every key row. Entries past a row's count are 0."""
    srt, n = fit
    vals, m = keys
    n, m = n.tolist(), m.tolist()
    shared = len(n) == 1
    out = np.zeros(vals.shape)
    for i, mi in enumerate(m):
        if mi:
            j = 0 if shared else i
            out[i, :mi] = fn(srt[j, :n[j]], vals[i, :mi], steps)
    return out


def _ends(fit: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The first and last finite value of each fitted row, as columns."""
    srt, n = fit
    return srt[:, :1], np.take_along_axis(srt, n[:, None] - 1, axis=-1)


def _self_position(xs: tuple) -> np.ndarray:
    """_cdf_position of each ascending row within itself, without np.interp:
    a value's position is linspace(0, 1, m)[j] at the last index j of its
    tie run, the bits np.interp returns through its x == xp[j] branch. The
    positions are computed at the run ends and repeated over each run."""
    vals, m = xs
    rows, days = vals.shape
    end = np.empty(vals.shape, dtype=bool)
    np.not_equal(vals[:, :-1], vals[:, 1:], out=end[:, :-1])
    end[:, -1:] = True
    starts = np.arange(rows) * days
    last = starts + m - 1
    end.ravel()[last[m > 0]] = True     # the padding after a row is no tie
    ends = np.flatnonzero(end)
    per_row = np.count_nonzero(end, axis=-1)
    # linspace's own arithmetic: index times 1 / (m - 1), and 1.0 at m - 1;
    # linspace(0, 1, 1) is [0.0]
    tau = (ends - np.repeat(starts, per_row)) * np.repeat(1.0 / np.maximum(m - 1, 1), per_row)
    tau[np.searchsorted(ends, last[m > 1])] = 1.0
    return np.repeat(tau, np.diff(ends, prepend=-1)).reshape(vals.shape)


def _correct_sorted(method: str, mh: tuple, ob: tuple, xs: tuple,
                    mode: str) -> np.ndarray:
    """Corrected values of the ascending apply rows xs, in the same order.
    mh and ob are sorted rows with their counts; QM ranks x within mh, ECDFM
    and QDM within xs itself. Entries past a row's count are undefined."""
    x = xs[0]
    steps = _Steps()
    tau = _each_row(_cdf_position, mh, xs, steps) if method == "qm" else _self_position(xs)
    obs_q = _each_row(_quantile_at, ob, (tau, xs[1]), steps)
    if method == "qm":
        (mh_lo, mh_hi), (ob_lo, ob_hi) = _ends(mh), _ends(ob)
        hi = x > mh_hi
        out = np.where(hi, x * (ob_hi / np.maximum(mh_hi, TRACE_MM)), obs_q)
        lo = x < mh_lo
        return np.where(lo, x * (ob_lo / np.maximum(mh_lo, TRACE_MM)), out)
    hist_q = _each_row(_quantile_at, mh, (tau, xs[1]), steps)
    if method == "ecdfm":
        if mode == "multiplicative":
            out = x * (obs_q / np.maximum(hist_q, TRACE_MM))
        else:
            out = x + (obs_q - hist_q)
    else:
        out = obs_q * (x / np.maximum(hist_q, TRACE_MM))
        out[x < TRACE_MM] = 0.0
    # a correction is a quantile map and must be order preserving, but
    # empirical-CDF ratio corrections wiggle at sampling-noise scale: the
    # running maximum over ascending x flattens those wiggles and is the
    # identity on already monotone outputs
    return np.maximum.accumulate(out, axis=-1)


_SIGN = np.uint32(1 << 31)
_MISSING = np.uint32(0xFFFFFFFF)    # above the key of +inf


def _rank_packed(x32: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's values in ascending order, as float64, and the flat index
    of each in x32, from one sort of uint64 words: a float32 value's
    order-preserving bits (a non-negative value with its sign bit set, a
    negative one with every bit flipped) above its flat index. Missing days
    sort last, as NaN. The flat index takes the low 32 bits, so a block
    holds fewer than 2**32 values."""
    u = x32.view(np.uint32)
    flip = np.negative(u >> 31) | _SIGN
    key = np.where(np.isfinite(x32), u ^ flip, _MISSING).astype(np.uint64)
    key <<= 32
    key |= np.arange(key.size, dtype=np.uint64).reshape(key.shape)
    key.sort(axis=-1)
    hi = (key >> 32).astype(np.uint32)
    hi ^= (hi >> 31) - np.uint32(1) | _SIGN
    return hi.view(np.float32).astype(np.float64), key.view(np.int64) & 0xFFFFFFFF


def _rank_argsort(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_rank_packed for float64 rows that float32 cannot hold, by argsort."""
    keys = np.where(np.isfinite(x), x, np.inf)
    order = np.argsort(keys, axis=-1)
    return (np.take_along_axis(keys, order, axis=-1),
            order + np.arange(len(x))[:, None] * x.shape[-1])


def _correct_rows(method: str, mh: tuple, ob: tuple, x: np.ndarray,
                  mode: str) -> np.ndarray:
    """Correct each row of x (rows, days), float32 or float64, with the
    sorted fit rows mh and ob (one row, or one per row of x). Non-finite
    days of x come out NaN. The rows are ranked by one packed sort when
    every value is float32-exact, else by a float64 argsort; both give the
    same ascending values, and tied inputs map to equal outputs."""
    m = np.isfinite(x).sum(axis=-1)
    if x.dtype != np.float32:
        with np.errstate(over="ignore"):    # a value past float32's range
            x32 = x.astype(np.float32)
        x = x32 if np.array_equal(x32, x, equal_nan=True) else x
    xs, flat = _rank_packed(x) if x.dtype == np.float32 else _rank_argsort(x)
    pad = np.arange(x.shape[-1]) >= m[:, None]
    xs[pad] = 0.0
    out_sorted = _correct_sorted(method, mh, ob, (xs, m), mode)
    out_sorted[pad] = np.nan
    out = np.empty_like(out_sorted)
    out.ravel()[flat] = out_sorted
    return out


def _fit_rows_checked(rows: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each fit row's finite values in ascending order followed by +inf, as
    float64, and the number of finite values in each row, which must not be
    0. Rows are sorted in their own dtype: a float32 sort is faster, and
    widening a sorted float32 row gives the sorted float64 row."""
    ok = np.isfinite(rows)
    srt = np.where(ok, rows, np.inf)
    srt += 0.0      # -0.0 + 0.0 is +0.0: no zero's sign depends on the sort
    srt.sort(axis=-1)
    n = ok.sum(axis=-1)
    if not n.all():
        raise InvariantError(f"{name} must be non-empty")
    return srt.astype(np.float64, copy=False), n


def correct_cells(method: str, hist, ref, x, mode: str = "multiplicative",
                  pooled: bool = False, out: np.ndarray | None = None) -> np.ndarray | None:
    """`correct_field` on (cells, days) rows: fit each cell's hist and ref
    rows (pooled: one fit row of all cell-days serves every cell) and correct
    its row of x, in float64 and before the clamp at zero.

    The cells go in blocks of BLOCK_CELLS rows on a thread per available
    CPU. A block copies its rows out of hist, ref and x (float32 stays
    float32, anything else becomes float64), sorts and checks its fit rows
    and corrects its rows of x; a pooled fit row is sorted once before. With
    out, a (days, cells) float32 array, each block writes its rows there,
    clamped at zero, and None is returned. Every value is computed row by
    row, so nothing depends on the blocks or the threads. An unknown method
    or ECDFM mode is rejected before any row is sorted."""
    if method not in METHODS:
        raise InvariantError(f"unknown baseline method {method!r}")
    if method == "ecdfm" and mode not in MODES:
        raise InvariantError(f"unknown ECDFM mode {mode!r}")
    hist, ref, x = (np.asarray(a) for a in (hist, ref, x))
    shared = pooled and (_fit_rows_checked(np.reshape(hist, (1, -1)), "model_hist"),
                         _fit_rows_checked(np.reshape(ref, (1, -1)), "obs"))
    result = np.empty(x.shape) if out is None else None

    def block(i):
        sl = slice(i * BLOCK_CELLS, (i + 1) * BLOCK_CELLS)

        def rows_of(a):     # float32 stays float32, anything else becomes float64
            return _kernels.cell_rows(a[sl], np.float32 if a.dtype == np.float32 else np.float64)

        mh, ob = shared or (_fit_rows_checked(rows_of(hist), "model_hist"),
                            _fit_rows_checked(rows_of(ref), "obs"))
        rows = _correct_rows(method, mh, ob, rows_of(x), mode)
        if out is None:
            result[sl] = rows
        else:
            np.maximum(rows, 0.0, out=rows, where=np.isfinite(rows))
            out[:, sl] = rows.T

    _kernels.run_shared(-(-len(x) // BLOCK_CELLS), block, _kernels.cpu_count())
    return result


def correct_field(method: str, ref: GridField, gcm_hist: GridField,
                  gcm_apply: GridField, mode: str = "multiplicative",
                  pooled: bool = False) -> GridField:
    """Apply one baseline to every cell at once, each cell's series a row
    (see `correct_cells`). Missing days stay missing; outputs are clamped
    at zero."""
    check_same_grid("historical model field", gcm_hist, ref)
    check_same_grid("model field to correct", gcm_apply, ref)
    out = np.empty((gcm_apply.values.shape[0], ref.n_cells), dtype=np.float32)
    correct_cells(method, *(cell_days(f, "baseline") for f in (gcm_hist, ref, gcm_apply)),
                  mode=mode, pooled=pooled, out=out)
    return GridField(start_date=gcm_apply.start_date, lats=ref.lats, lons=ref.lons,
                     values=out.reshape(gcm_apply.values.shape))
