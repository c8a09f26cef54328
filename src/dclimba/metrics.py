"""Evaluation suite: climate-extremes indices, percentage-bias maps,
box-counting fractal dimension of thresholded fields, and trend bias.

A fixed 365-day calendar is used (month lengths 31,28,31,...); series are
chunked into consecutive 365-day years from their first day and any trailing
partial year is dropped. Counts use >= for wet thresholds except the
percentile-total indices, whose days must strictly exceed the reference
wet-day percentile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import InvariantError
from .gridio import GridField, TAU_WET

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


def _cell_days(fld: GridField, t0: int, t1: int,
               cells: slice = slice(None)) -> np.ndarray:
    """Days t0:t1 of every cell (or of a slice of cells) as C-contiguous
    float64 rows (cells, days)."""
    v = fld.values[t0:t1]
    return np.ascontiguousarray(v.reshape(v.shape[0], -1)[:, cells].T, dtype=np.float64)


def _wet_day_rows(days: np.ndarray, qs) -> dict[float, np.ndarray]:
    wet = np.isfinite(days) & (days >= TAU_WET)
    vals = row_quantiles(days, wet, qs)
    return {q: vals[:, k] for k, q in enumerate(qs)}


def wet_day_quantiles(base_series: np.ndarray, qs=(0.95, 0.99)) -> dict[float, float]:
    """Reference-period wet-day percentiles used by the percentile-total
    indices; NaN without a wet day."""
    rows = _wet_day_rows(np.asarray(base_series, dtype=np.float64)[None], qs)
    return {q: float(v[0]) for q, v in rows.items()}


def wet_day_thresholds(base_fld: GridField,
                       base_window: tuple[int, int]) -> dict[float, np.ndarray]:
    """wet_day_quantiles of every cell of the base field over the base
    window, {q: (cells,)}: the thresholds etccdi_all_cells takes."""
    return _wet_day_rows(_cell_days(base_fld, *base_window),
                         tuple(_PTOT_QUANTILES.values()))


def _years(days: np.ndarray) -> np.ndarray:
    """Rows (cells, days) as C-contiguous (cells, years, 365) float64; a
    trailing partial year is dropped."""
    d = np.asarray(days, dtype=np.float64)
    n_years = d.shape[-1] // DAYS_PER_YEAR
    if n_years < 1:
        raise InvariantError("index computation requires at least one whole year")
    return np.ascontiguousarray(d[:, :n_years * DAYS_PER_YEAR]).reshape(
        d.shape[0], n_years, DAYS_PER_YEAR)


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
                 base_wet_quantiles: dict[float, float] | None = None) -> EtccdiEntry:
    """One index for one cell's daily series. Percentile-total indices need
    base_wet_quantiles (see wet_day_quantiles)."""
    yr = _years(np.asarray(series, dtype=np.float64)[None])
    thr = None
    if index in _PTOT_QUANTILES:
        if base_wet_quantiles is None:
            raise InvariantError(f"{index} requires reference-period wet-day quantiles")
        thr = np.array([base_wet_quantiles[_PTOT_QUANTILES[index]]], dtype=np.float64)
    vals = _index_values(yr, index, thr)
    freq = "monthly" if index in _MONTHLY_INDICES else "annual"
    return EtccdiEntry(index=index, freq=freq, values=vals[0],
                       period_mean=float(_period_means(vals)[0]))


def etccdi_all_cells(fld: GridField, window: tuple[int, int],
                     thresholds: dict[float, np.ndarray]) -> dict[str, np.ndarray]:
    """Period-mean value of every index for every cell. thresholds holds each
    cell's base-period wet-day percentiles (see wet_day_thresholds)."""
    if any(np.shape(v) != (fld.n_cells,) for v in thresholds.values()):
        raise InvariantError("thresholds and field grids do not match")
    yr = _years(_cell_days(fld, *window))
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


def box_count(mask: np.ndarray, box: int) -> int:
    """Number of box x box cells (origin anchored, ragged edges included)
    containing both a zero and a one: fd_curve's counting for one 0/1 mask
    at threshold 0.5."""
    if box < 2:
        raise InvariantError("box side must be at least 2")
    fields = np.asarray(mask, dtype=np.float64)[None]
    return int(_partial_box_counts(fields, np.array([[0.5]]), [int(box)])[0, 0, 0])


def _fd_slopes(counts: np.ndarray, box_sizes) -> np.ndarray:
    """fd_fit of every row of counts (..., sizes): the least-squares slope of
    log N versus log(1/box) over the sizes with positive counts; NaN where
    fewer than three sizes have them. Rows are fitted in groups sharing the
    same positive sizes, each with fd_fit's arithmetic along the last axis."""
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


def fd_fit(counts) -> float:
    """Least-squares slope of log N versus log(1/box) over (box, N) pairs;
    NaN when fewer than three sizes have positive counts."""
    pts = np.asarray(list(counts), dtype=np.float64).reshape(-1, 2)
    return float(_fd_slopes(pts[None, :, 1], pts[:, 0])[0])


def default_box_sizes(H: int, W: int) -> np.ndarray:
    top = min(H, W) // 4
    sizes = []
    b = 2
    while b <= top:
        sizes.append(b)
        b *= 2
    return np.asarray(sizes, dtype=np.int64)


def _partial_box_counts(fields: np.ndarray, thr: np.ndarray, box_sizes) -> np.ndarray:
    """counts[t, j, s]: boxes of side box_sizes[s] (origin anchored, ragged
    edges kept) in snapshot t holding values both below and at or above
    thr[t, j], i.e. box_count(fields[t] >= thr[t, j], box_sizes[s]). A box
    holds a one iff its max >= thr and a zero iff its min < thr, so the count
    is #{box min < thr} - #{box max < thr}."""
    T, H, W = fields.shape
    counts = np.empty(thr.shape + (len(box_sizes),), dtype=np.int64)
    for s, b in enumerate(box_sizes):
        rows, cols = np.arange(0, H, b), np.arange(0, W, b)
        lo = np.minimum.reduceat(np.minimum.reduceat(fields, rows, axis=1), cols, axis=2)
        hi = np.maximum.reduceat(np.maximum.reduceat(fields, rows, axis=1), cols, axis=2)
        lo = np.sort(lo.reshape(T, rows.size * cols.size), axis=1)
        hi = np.sort(hi.reshape(T, rows.size * cols.size), axis=1)
        for t in range(T):
            counts[t, :, s] = (np.searchsorted(lo[t], thr[t])
                               - np.searchsorted(hi[t], thr[t]))
    return counts


def fd_curve(fields: np.ndarray, levels=None, box_sizes=None) -> FdCurve:
    """Fractal dimension per quantile level: computed per daily snapshot and
    averaged over snapshots where defined. With fewer than three box sizes
    (the default on grids whose short side is under 32 cells) it is
    undefined on every snapshot."""
    fields = np.asarray(fields, dtype=np.float64)
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
    thr = row_quantiles(fields.reshape(T, H * W), np.ones((T, H * W), dtype=bool), levels)
    per = _fd_slopes(_partial_box_counts(fields, thr, box_sizes), box_sizes)
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


@dataclass(frozen=True)
class TrendBiasEntry:
    statistic: str
    t_raw: float
    t_debiased: float
    tb_percent: float  # NaN when |t_raw| is below the guard


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


def _trend_bias_rows(stats) -> dict[str, tuple[np.ndarray, ...]]:
    """{statistic: (t_raw, t_debiased, tb_percent)} from the _trend_statistics
    of raw_hist, raw_future, deb_hist and deb_future, row by row."""
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


def trend_bias(raw_hist, raw_future, deb_hist, deb_future,
               statistic: str) -> TrendBiasEntry:
    """Percentage change of the future-minus-historical statistic induced by
    the bias correction, for one cell's series."""
    if statistic not in TREND_STATISTICS:
        raise InvariantError(f"unknown trend statistic {statistic!r}")
    stats = [_trend_statistics(np.asarray(s, dtype=np.float64)[None])
             for s in (raw_hist, raw_future, deb_hist, deb_future)]
    t_raw, t_deb, tb = (float(v[0]) for v in _trend_bias_rows(stats)[statistic])
    return TrendBiasEntry(statistic, t_raw, t_deb, tb)


def trend_bias_all_cells(raw_hist: GridField, raw_future: GridField,
                         deb_hist: GridField, deb_future: GridField
                         ) -> dict[str, tuple[np.ndarray, ...]]:
    """trend_bias of every cell and statistic over the whole of each field:
    {statistic: (t_raw, t_debiased, tb_percent)}, each (cells,). Statistics
    are taken TREND_BLOCK cells of one field at a time, so the float64 copies
    stay small beside the fields."""
    flds = (raw_hist, raw_future, deb_hist, deb_future)
    if len({f.values.shape[1:] for f in flds}) != 1:
        raise InvariantError("trend field grids do not match")
    n = raw_hist.n_cells
    stats = [{name: np.empty(n) for name in TREND_STATISTICS} for _ in flds]
    for lo in range(0, n, TREND_BLOCK):
        cells = slice(lo, lo + TREND_BLOCK)
        for f, st in zip(flds, stats):
            for name, v in _trend_statistics(_cell_days(f, 0, f.values.shape[0], cells)).items():
                st[name][cells] = v
    return _trend_bias_rows(stats)


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
