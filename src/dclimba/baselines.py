"""Classical quantile-based corrections: quantile mapping (QM), empirical-CDF
matching with an additive or multiplicative distance (ECDFM), and quantile
delta mapping (QDM), fitted per cell by default.

All forms share the same order-statistic conventions as the rest of the
package. Multiplicative denominators are floored at a trace threshold so
near-zero precipitation cannot blow up ratios; values beyond the fitted range
extrapolate with the constant ratio at the nearest extreme quantile.

The corrections run on rows, one per cell. Each fitted row is sorted once,
each applied row is ranked by one argsort, every interpolation runs on those
ascending keys, and the result is scattered back to day order once. QM
ranks x within the model-historical row; ECDFM and QDM rank x within its own
row, as Cannon, Sobie & Murdock (2015) define QDM. A correction maps tied
inputs to equal outputs, so the order among ties never changes a value.

`correct_cells` is the one entry, on (cells, days) rows; one series is a
one-row call. It runs fixed blocks of rows on a thread per CPU the process
may use, with no setting, through the package's one thread helper
(`_kernels.run_shared`).
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import InvariantError
from .gridio import GridField, check_same_grid

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


def _correct_sorted(method: str, mh: tuple, ob: tuple, xs: tuple,
                    mode: str) -> np.ndarray:
    """Corrected values of the ascending apply rows xs, in the same order.
    mh and ob are sorted rows with their counts; QM ranks x within mh, ECDFM
    and QDM within xs itself. Entries past a row's count are undefined."""
    x = xs[0]
    steps = _Steps()
    tau = _each_row(_cdf_position, mh if method == "qm" else xs, xs, steps)
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


def _correct_rows(method: str, mh: tuple, ob: tuple, x: np.ndarray,
                  mode: str) -> np.ndarray:
    """Correct each row of x (rows, days) with the sorted fit rows mh and ob
    (one row, or one per row of x). Non-finite days of x come out NaN."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    ok = np.isfinite(x)
    keys = np.where(ok, x, np.inf)
    order = np.argsort(keys, axis=-1)
    xs = np.take_along_axis(keys, order, axis=-1)
    m = ok.sum(axis=-1)
    pad = np.arange(x.shape[-1]) >= m[:, None]
    xs[pad] = 0.0
    out_sorted = _correct_sorted(method, mh, ob, (xs, m), mode)
    out_sorted[pad] = np.nan
    out = np.empty_like(out_sorted)
    np.put_along_axis(out, order, out_sorted, axis=-1)
    return out


def _cell_rows(fld: GridField) -> np.ndarray:
    """The field as (cells, days) rows."""
    return fld.values.reshape(fld.values.shape[0], -1).T


def _fit_rows_checked(rows, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each fit row's finite values in ascending order followed by +inf, and
    the number of finite values in each row, which must not be 0."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    ok = np.isfinite(rows)
    srt = np.where(ok, rows, np.inf)
    srt.sort(axis=-1)
    n = ok.sum(axis=-1)
    if not n.all():
        raise InvariantError(f"{name} must be non-empty")
    return srt, n


def correct_cells(method: str, hist, ref, x, mode: str = "multiplicative",
                  pooled: bool = False, out: np.ndarray | None = None) -> np.ndarray | None:
    """`correct_field` on (cells, days) rows: fit each cell's hist and ref
    rows (pooled: one fit row of all cell-days serves every cell) and correct
    its row of x, in float64 and before the clamp at zero.

    The cells go in blocks of BLOCK_CELLS rows on a thread per available
    CPU. A block converts its rows to float64, sorts and checks its fit rows
    and corrects its rows of x; a pooled fit row is sorted once before. With
    out, a (days, cells) float32 array, each block writes its rows there,
    clamped at zero, and None is returned. Every value is computed row by
    row, so nothing depends on the blocks or the threads. An unknown method
    or ECDFM mode is rejected before any row is sorted."""
    if method not in METHODS:
        raise InvariantError(f"unknown baseline method {method!r}")
    if method == "ecdfm" and mode not in MODES:
        raise InvariantError(f"unknown ECDFM mode {mode!r}")
    shared = pooled and (_fit_rows_checked(np.reshape(hist, (1, -1)), "model_hist"),
                         _fit_rows_checked(np.reshape(ref, (1, -1)), "obs"))
    result = np.empty(np.shape(x)) if out is None else None

    def block(i):
        sl = slice(i * BLOCK_CELLS, (i + 1) * BLOCK_CELLS)
        mh, ob = shared or (_fit_rows_checked(hist[sl], "model_hist"),
                            _fit_rows_checked(ref[sl], "obs"))
        rows = _correct_rows(method, mh, ob, x[sl], mode)
        if out is None:
            result[sl] = rows
        else:
            np.maximum(rows, 0.0, where=np.isfinite(rows), out=rows)
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
    correct_cells(method, _cell_rows(gcm_hist), _cell_rows(ref), _cell_rows(gcm_apply),
                  mode=mode, pooled=pooled, out=out)
    return GridField(start_date=gcm_apply.start_date, lats=ref.lats, lons=ref.lons,
                     values=out.reshape(gcm_apply.values.shape))
