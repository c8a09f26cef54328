"""Evaluation suite: climate-extremes indices, percentage-bias maps,
box-counting fractal dimension of thresholded fields, and trend bias.

Each metric has one entry. The indices, their wet-day thresholds and trend
bias take (cells, days) rows, as `gridio.cell_days` gives them, in any
float dtype; one series is a one-row call. They copy the rows to
contiguous float64 with `_kernels.cell_rows`. `etccdi_index` also gives
one series' per-year and per-month values. Fractal dimension takes
(snapshots, H, W) fields and counts boxes with `_kernels.box_partial_count`.

A fixed 365-day calendar is used (month lengths 31,28,31,...); series are
chunked into consecutive 365-day years from their first day and any trailing
partial year is dropped. Counts use >= for wet thresholds except the
percentile-total indices, whose days must strictly exceed the reference
wet-day percentile. NaN and infinite days are missing days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvariantError
from .gridio import TAU_WET

DAYS_PER_YEAR = 365
MONTH_LENGTHS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
MONTH_STARTS = tuple(np.cumsum((0,) + MONTH_LENGTHS[:-1]))
INDEX_NAMES = ("r10mm", "r20mm", "rx1day", "rx5day", "sdii",
               "cdd", "cwd", "r95ptot", "r99ptot")
PCT_BIAS_GUARD = 1e-9  # percentage bias is NaN where |ref| is below this


def row_quantiles(rows: np.ndarray, valid: np.ndarray, qs) -> np.ndarray:
    """Quantiles qs of each row's valid entries, (rows, len(qs)); NaN for a
    row with no valid entry. Each value is bit-identical to
    np.quantile(row[valid], q), numpy's method="linear" (Hyndman & Fan 1996,
    type 7): rows are sorted with invalid entries last, and the order
    statistics around (n - 1) * q are interpolated with numpy's own lerp.
    The one exception is the sign of a zero where 0.0 and -0.0 tie: which
    of them lands at an index depends on the sorting algorithm."""
    rows = np.asarray(rows, dtype=np.float64)
    qs = np.asarray(qs, dtype=np.float64)
    if rows.shape[-1] == 0:
        return np.full((rows.shape[0], qs.size), np.nan)
    srt = np.where(valid, rows, np.inf)
    srt.sort(axis=-1)
    n = valid.sum(axis=-1)[:, None]
    pos = (n - 1) * qs
    top = pos >= n - 1
    lo = np.floor(pos).astype(np.intp)      # -1 only in rows with n == 0
    a = np.take_along_axis(srt, lo, axis=-1)
    b = np.take_along_axis(srt, np.minimum(lo + 1, n - 1), axis=-1)
    # past the last order statistic numpy takes it at both ends, with its
    # weight measured from index -1
    t = np.where(top, pos + 1, pos - lo)
    with np.errstate(invalid="ignore"):     # inf - inf in rows with no valid entry
        diff = b - a
        out = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    out[n[:, 0] == 0] = np.nan
    return out


@dataclass(frozen=True)
class EtccdiEntry:
    index: str
    freq: str               # "annual" or "monthly"
    values: np.ndarray      # one entry per year or per month
    period_mean: float


_MONTHLY_INDICES = ("rx1day", "rx5day", "sdii")
_PTOT_QUANTILES = {"r95ptot": 0.95, "r99ptot": 0.99}


def wet_day_thresholds(rows: np.ndarray) -> dict[float, np.ndarray]:
    """The reference-period wet-day percentiles of each row (cells, days)
    that the percentile-total indices take, {0.95: (cells,), 0.99: (cells,)};
    NaN for a row without a wet day."""
    days = _kernels.cell_rows(rows, np.float64)
    qs = tuple(_PTOT_QUANTILES.values())
    vals = row_quantiles(days, np.isfinite(days) & (days >= TAU_WET), qs)
    return {q: vals[:, k] for k, q in enumerate(qs)}


def _years(rows: np.ndarray) -> np.ndarray:
    """The whole years of rows (cells, days), copied once into a
    C-contiguous (cells, years, 365) float64 stack; a trailing partial year
    is dropped. Infinite days become NaN, so they are missing days like NaN
    ones."""
    n_years = rows.shape[-1] // DAYS_PER_YEAR
    if n_years < 1:
        raise InvariantError("index computation requires at least one whole year")
    yr = _kernels.cell_rows(rows[:, :n_years * DAYS_PER_YEAR], np.float64)
    yr[np.isinf(yr)] = np.nan
    return yr.reshape(len(rows), n_years, DAYS_PER_YEAR)


def _monthly(yr: np.ndarray):
    for s, ln in zip(MONTH_STARTS, MONTH_LENGTHS):
        yield yr[..., s:s + ln]


def _index_values(yr: np.ndarray, index: str, thr) -> np.ndarray:
    """One index for every cell of yr (cells, years, 365): (cells, years) for
    annual indices, (cells, 12 * years) month-major for monthly ones. thr
    holds each cell's wet-day percentile for r95ptot and r99ptot."""
    if index == "r10mm":
        return (yr >= 10.0).sum(axis=-1).astype(np.float64)
    if index == "r20mm":
        return (yr >= 20.0).sum(axis=-1).astype(np.float64)
    if index == "rx1day":
        return np.concatenate([m.max(axis=-1) for m in _monthly(yr)], axis=-1)
    if index == "rx5day":
        cols = []
        for m in _monthly(yr):
            c = np.cumsum(np.concatenate([np.zeros(m.shape[:-1] + (1,)), m], axis=-1),
                          axis=-1)
            cols.append((c[..., 5:] - c[..., :-5]).max(axis=-1))
        return np.concatenate(cols, axis=-1)
    if index == "sdii":
        cols = []
        for m in _monthly(yr):
            wet = m >= TAU_WET
            n_wet = wet.sum(axis=-1)
            tot = np.where(wet, m, 0.0).sum(axis=-1)
            cols.append(np.where(n_wet > 0, tot / np.maximum(n_wet, 1), np.nan))
        return np.concatenate(cols, axis=-1)
    if index in ("cdd", "cwd"):
        flags = yr < TAU_WET if index == "cdd" else yr >= TAU_WET
        runs = _kernels.run_length_max(flags.reshape(-1, DAYS_PER_YEAR))
        return runs.reshape(yr.shape[:2]).astype(np.float64)
    if index in _PTOT_QUANTILES:
        return np.where(yr > thr[:, None, None], yr, 0.0).sum(axis=-1)
    raise InvariantError(f"unknown index {index!r}")


def _period_means(vals: np.ndarray) -> np.ndarray:
    """Mean of each row over its non-NaN entries; NaN for rows with no
    finite entry."""
    out = np.full(vals.shape[0], np.nan)
    ok = np.isfinite(vals).any(axis=-1)
    with np.errstate(invalid="ignore"):
        out[ok] = np.nanmean(vals[ok], axis=-1)
    return out


def etccdi_index(series: np.ndarray, index: str,
                 thresholds: dict[float, np.ndarray] | None = None) -> EtccdiEntry:
    """One index for one cell's daily series, per year or per month, and its
    period mean. Percentile-total indices need the series' thresholds, as
    wet_day_thresholds gives them for its one row of base days."""
    yr = _years(np.asarray(series)[None])
    thr = None
    if index in _PTOT_QUANTILES:
        if thresholds is None:
            raise InvariantError(f"{index} requires reference-period wet-day quantiles")
        thr = np.reshape(thresholds[_PTOT_QUANTILES[index]], 1).astype(np.float64)
    vals = _index_values(yr, index, thr)
    freq = "monthly" if index in _MONTHLY_INDICES else "annual"
    return EtccdiEntry(index=index, freq=freq, values=vals[0],
                       period_mean=float(_period_means(vals)[0]))


def etccdi_all_cells(rows: np.ndarray,
                     thresholds: dict[float, np.ndarray]) -> dict[str, np.ndarray]:
    """Period-mean value of every index for every row (cells, days).
    thresholds holds each cell's base-period wet-day percentiles (see
    wet_day_thresholds)."""
    if any(np.shape(v) != (len(rows),) for v in thresholds.values()):
        raise InvariantError("thresholds and rows hold different cells")
    yr = _years(rows)
    thr = {name: thresholds[q] for name, q in _PTOT_QUANTILES.items()}
    return {name: _period_means(_index_values(yr, name, thr.get(name)))
            for name in INDEX_NAMES}


def mean_percentage_bias(model: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """100 * (model - ref) / ref elementwise; NaN where |ref| < PCT_BIAS_GUARD."""
    model = np.asarray(model, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    out = np.full(np.broadcast(model, ref).shape, np.nan)
    ok = np.abs(ref) >= PCT_BIAS_GUARD
    out[ok] = 100.0 * (model - ref)[ok] / ref[ok]
    return out


def index_percentage_bias(sim_idx: dict, ref_idx: dict, cells=slice(None)):
    """Per index, the percentage bias of the given cells and its mean
    absolute value over those where it is defined (None where it is defined
    nowhere); and the composite score, the mean of the defined per-index
    means (None when there is none)."""
    per_index = {}
    for name in INDEX_NAMES:
        pb = mean_percentage_bias(sim_idx[name][cells], ref_idx[name][cells])
        per_index[name] = (pb, float(np.nanmean(np.abs(pb)))
                           if np.any(np.isfinite(pb)) else None)
    defined = [m for _, m in per_index.values() if m is not None]
    return per_index, float(np.mean(defined)) if defined else None


# ---------------------------------------------------------------------------
# fractal dimension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FdCurve:
    levels: np.ndarray      # quantile thresholds h
    fd: np.ndarray          # fractal dimension per level (NaN = undefined)
    box_sizes: np.ndarray
    n_defined: np.ndarray   # snapshots contributing per level


def fd_fit(counts: np.ndarray, box_sizes) -> np.ndarray:
    """The fractal dimension of every row of box counts (..., sizes): the
    least-squares slope of log N versus log(1/box) over the sizes with
    positive counts; NaN where fewer than three sizes have them. Rows are
    fitted in groups sharing the same positive sizes, each group with one
    arithmetic along the last axis."""
    counts = np.asarray(counts)
    sizes = np.asarray(box_sizes, dtype=np.float64)
    pos = counts > 0
    pattern = pos @ (1 << np.arange(sizes.size))
    out = np.full(counts.shape[:-1], np.nan)
    for p in np.unique(pattern[pos.sum(axis=-1) >= 3]):
        rows = pattern == p
        use = (p >> np.arange(sizes.size)) & 1 == 1
        x = np.log(1.0 / sizes[use])
        y = np.log(counts[rows][:, use].astype(np.float64))
        xc = x - x.mean()
        out[rows] = (xc * (y - y.mean(axis=-1, keepdims=True))).sum(axis=-1) / \
            (xc * xc).sum()
    return out


def default_box_sizes(H: int, W: int) -> np.ndarray:
    top = min(H, W) // 4
    sizes = []
    b = 2
    while b <= top:
        sizes.append(b)
        b *= 2
    return np.asarray(sizes, dtype=np.int64)


def fd_curve(fields: np.ndarray, levels=None, box_sizes=None) -> FdCurve:
    """Fractal dimension per quantile level: computed per daily snapshot and
    averaged over snapshots where defined. With fewer than three box sizes
    (the default on grids whose short side is under 32 cells) it is
    undefined on every snapshot: the snapshots are checked, not measured."""
    fields = np.asarray(fields)
    if fields.ndim == 2:
        fields = fields[None]
    if not np.all(np.isfinite(fields)):
        raise InvariantError("fractal dimension requires finite fields")
    if levels is None:
        levels = np.arange(1, 100, dtype=np.float64) / 100.0
    levels = np.asarray(levels, dtype=np.float64)
    if not np.all((levels >= 0.0) & (levels <= 1.0)):
        raise InvariantError("quantile levels must lie in [0, 1]")
    T, H, W = fields.shape
    if box_sizes is None:
        box_sizes = default_box_sizes(H, W)
    box_sizes = np.asarray(box_sizes, dtype=np.int64)
    if np.any(box_sizes < 2):
        raise InvariantError("box side must be at least 2")
    if box_sizes.size < 3:
        return FdCurve(levels=levels, fd=np.full(levels.size, np.nan),
                       box_sizes=box_sizes,
                       n_defined=np.zeros(levels.size, dtype=np.int64))
    fields = fields.astype(np.float64, copy=False)
    thr = row_quantiles(fields.reshape(T, H * W), np.ones((T, H * W), dtype=bool), levels)
    per = fd_fit(_kernels.box_partial_count(fields, thr, box_sizes), box_sizes)
    defined = np.isfinite(per)
    with np.errstate(invalid="ignore"):
        fd = np.where(defined.any(axis=0), np.nansum(per, axis=0) /
                      np.maximum(defined.sum(axis=0), 1), np.nan)
    return FdCurve(levels=levels, fd=fd, box_sizes=box_sizes,
                   n_defined=defined.sum(axis=0))


def fd_mae(curve: FdCurve, ref_curve: FdCurve) -> float:
    """Mean absolute deviation between two curves over levels where both are
    defined."""
    if curve.levels.shape != ref_curve.levels.shape or \
            not np.allclose(curve.levels, ref_curve.levels):
        raise InvariantError("curves must share the same quantile levels")
    both = np.isfinite(curve.fd) & np.isfinite(ref_curve.fd)
    if not both.any():
        return float("nan")
    return float(np.mean(np.abs(curve.fd[both] - ref_curve.fd[both])))


# ---------------------------------------------------------------------------
# trend bias
# ---------------------------------------------------------------------------

TREND_STATISTICS = ("mean", "q95", "wet_days", "very_wet_days")
TREND_GUARD = 1e-6   # tb_percent is NaN where |t_raw| is below this
TREND_BLOCK = 256    # cells whose float64 days are held at once


def _trend_statistics(days: np.ndarray) -> dict[str, np.ndarray]:
    """Every trend statistic of every row of days (cells, days) over its
    finite days. All rows take their mean together, which sums each as the
    1-D mean does; a row with gaps then takes the mean of its finite days
    alone, since a padded nanmean would sum in another order."""
    valid = np.isfinite(days)
    n = valid.sum(axis=-1)
    if np.any(n == 0):
        raise InvariantError("trend statistics need a finite day in every cell")
    with np.errstate(invalid="ignore"):     # inf - inf in a row with gaps
        mean = days.mean(axis=-1)
    for i in np.flatnonzero(n < days.shape[-1]):
        mean[i] = days[i][valid[i]].mean()
    years = n / DAYS_PER_YEAR
    return {"mean": mean,
            "q95": row_quantiles(days, valid, (0.95,))[:, 0],
            "wet_days": (valid & (days > TAU_WET)).sum(axis=-1) / years,  # strictly above
            "very_wet_days": (valid & (days > 10.0)).sum(axis=-1) / years}


def trend_bias(raw_hist: np.ndarray, raw_future: np.ndarray, deb_hist: np.ndarray,
               deb_future: np.ndarray) -> dict[str, tuple[np.ndarray, ...]]:
    """Percentage change of each cell's future-minus-historical statistic
    induced by the bias correction, from rows (cells, days) of the raw and
    debiased historical and future series, each in its caller's dtype:
    {statistic: (t_raw, t_debiased, tb_percent)}, each (cells,), tb_percent
    NaN where |t_raw| is below TREND_GUARD. Statistics are taken TREND_BLOCK
    rows of one array at a time, so the float64 copies stay small beside
    the rows."""
    rows = (raw_hist, raw_future, deb_hist, deb_future)
    n = len(raw_hist)
    if any(len(r) != n for r in rows):
        raise InvariantError("trend rows hold different cells")
    stats = [{name: np.empty(n) for name in TREND_STATISTICS} for _ in rows]
    for lo in range(0, n, TREND_BLOCK):
        cells = slice(lo, lo + TREND_BLOCK)
        for r, st in zip(rows, stats):
            for name, v in _trend_statistics(_kernels.cell_rows(r[cells], np.float64)).items():
                st[name][cells] = v
    rh, rf, dh, dfu = stats
    out = {}
    for name in TREND_STATISTICS:
        t_raw = rf[name] - rh[name]
        t_deb = dfu[name] - dh[name]
        with np.errstate(divide="ignore", invalid="ignore"):
            tb = np.where(np.abs(t_raw) < TREND_GUARD, np.nan,
                          100.0 * (t_deb - t_raw) / t_raw)
        out[name] = (t_raw, t_deb, tb)
    return out


# ---------------------------------------------------------------------------
# quantile comparison curves
# ---------------------------------------------------------------------------

def quantile_curves(series_by_name: dict[str, np.ndarray],
                    n_levels: int = 99) -> list[tuple[str, float, float, float]]:
    """Rows of (name, q, q**5 plotting coordinate, value) per series; the
    fifth-power coordinate expands the upper tail."""
    q = np.arange(1, n_levels + 1, dtype=np.float64) / (n_levels + 1)
    rows = []
    for name, series in series_by_name.items():
        s = np.asarray(series, dtype=np.float64)
        s = s[np.isfinite(s)]
        if s.size == 0:
            raise InvariantError("quantile of an empty sample")
        vals = np.quantile(s, q)
        rows.extend((name, float(qi), float(qi ** 5), float(v))
                    for qi, v in zip(q, vals))
    return rows
