import numpy as np
import pytest
from hypothesis import given, strategies as st

from dclimba import metrics
from dclimba.errors import InvariantError
from dclimba.gridio import GridField
from dclimba.metrics import (FdCurve, box_count, etccdi_index, fd_curve, fd_fit,
                             fd_mae, mean_percentage_bias, quantile_curves,
                             trend_bias, wet_day_quantiles)

MONTHS = metrics.MONTH_LENGTHS


def year_series(head, fill=0.0):
    s = np.full(365, fill, dtype=np.float64)
    s[:len(head)] = head
    return s


# ---------------------------------------------------------------------------
# independent single-pass oracles
# ---------------------------------------------------------------------------

def oracle_counts(year, threshold):
    return sum(1 for v in year if v >= threshold)


def oracle_longest_run(year, predicate):
    best = cur = 0
    for v in year:
        if predicate(v):
            cur += 1
            best = max(best, cur)
        else:
            cur = 0
    return best


def oracle_monthly(year):
    out = []
    start = 0
    for ln in MONTHS:
        out.append(list(year[start:start + ln]))
        start += ln
    return out


def oracle_rx1(year):
    return [max(m) for m in oracle_monthly(year)]


def oracle_rx5(year):
    vals = []
    for m in oracle_monthly(year):
        vals.append(max(sum(m[i:i + 5]) for i in range(len(m) - 4)))
    return vals


def oracle_sdii(year, tau=1.0):
    out = []
    for m in oracle_monthly(year):
        wet = [v for v in m if v >= tau]
        out.append(sum(wet) / len(wet) if wet else np.nan)
    return out


def oracle_ptot(year, thr):
    return sum(v for v in year if v > thr)


# ---------------------------------------------------------------------------
# index examples
# ---------------------------------------------------------------------------

class TestIndexExamples:
    def test_r10_head_example(self):
        s = year_series([5, 12, 0, 15, 9])
        assert etccdi_index(s, "r10mm").values[0] == 2

    def test_cdd_head_and_oracle(self):
        s = year_series([0, 0, 0, 5, 0, 0], fill=5.0)
        got = etccdi_index(s, "cdd").values[0]
        assert got == oracle_longest_run(s, lambda v: v < 1.0) == 3

    def test_sdii_month_example(self):
        s = year_series([5, 12, 0, 15, 9, 0.5])
        entry = etccdi_index(s, "sdii")
        assert entry.freq == "monthly"
        assert abs(entry.values[0] - 41.0 / 4.0) < 1e-12

    def test_rx5day_example(self):
        s = year_series([1, 2, 3, 4, 5, 6])
        assert etccdi_index(s, "rx5day").values[0] == 20.0

    def test_r95ptot_example(self):
        base = np.arange(1.0, 21.0)
        thr = wet_day_quantiles(base)[0.95]
        assert abs(thr - 19.05) < 1e-12
        s = year_series([25.0, 10.0, 19.5])
        got = etccdi_index(s, "r95ptot", {0.95: thr, 0.99: np.nan}).values[0]
        assert abs(got - 44.5) < 1e-12

    def test_short_series_rejected(self):
        with pytest.raises(InvariantError):
            etccdi_index(np.zeros(100), "r10mm")

    def test_unknown_index(self):
        with pytest.raises(InvariantError):
            etccdi_index(np.zeros(365), "r42mm")

    def test_percentile_indices_need_thresholds(self):
        with pytest.raises(InvariantError):
            etccdi_index(np.zeros(365), "r95ptot")


class TestIndexOracleEquivalence:
    def test_random_years(self):
        rng = np.random.default_rng(0)
        for case in range(60):
            wet = rng.random(365) < rng.uniform(0.1, 0.7)
            year = np.where(wet, rng.gamma(0.7, rng.uniform(2, 12), 365), 0.0)
            base = np.where(rng.random(730) < 0.4, rng.gamma(0.7, 8.0, 730), 0.0)
            thr = wet_day_quantiles(base)
            assert etccdi_index(year, "r10mm").values[0] == oracle_counts(year, 10)
            assert etccdi_index(year, "r20mm").values[0] == oracle_counts(year, 20)
            assert etccdi_index(year, "cdd").values[0] == \
                oracle_longest_run(year, lambda v: v < 1.0)
            assert etccdi_index(year, "cwd").values[0] == \
                oracle_longest_run(year, lambda v: v >= 1.0)
            np.testing.assert_allclose(etccdi_index(year, "rx1day").values[:12],
                                       oracle_rx1(year), atol=1e-12)
            np.testing.assert_allclose(etccdi_index(year, "rx5day").values[:12],
                                       oracle_rx5(year), atol=1e-12)
            np.testing.assert_allclose(etccdi_index(year, "sdii").values[:12],
                                       oracle_sdii(year), atol=1e-12)
            for name, q in (("r95ptot", 0.95), ("r99ptot", 0.99)):
                got = etccdi_index(year, name, thr).values[0]
                assert abs(got - oracle_ptot(year, thr[q])) < 1e-12

    def test_ordering_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            year = np.where(rng.random(365) < 0.5, rng.gamma(0.6, 15.0, 365), 0.0)
            thr = wet_day_quantiles(year)
            r10 = etccdi_index(year, "r10mm").values[0]
            r20 = etccdi_index(year, "r20mm").values[0]
            assert r20 <= r10
            p95 = etccdi_index(year, "r95ptot", thr).values[0]
            p99 = etccdi_index(year, "r99ptot", thr).values[0]
            assert p99 <= p95
            cdd = etccdi_index(year, "cdd").values[0]
            cwd = etccdi_index(year, "cwd").values[0]
            assert cdd + cwd <= 365


class TestAllCellsEquivalence:
    """etccdi_all_cells over the cell axis equals a per-cell etccdi_index loop
    bit for bit, and each period mean equals the 1-D nanmean of the index
    values."""

    def field(self):
        rng = np.random.default_rng(9)
        T, H, W = 800, 3, 4     # two whole years and a dropped partial one
        wet = rng.random((T, H, W)) < 0.4
        v = np.where(wet, rng.gamma(0.7, 9.0, (T, H, W)), 0.0)
        v[rng.random((T, H, W)) < 0.05] = np.nan    # scattered missing days
        v[31:59, 0, 0] = np.nan                     # an all-NaN February
        v[:, 1, 2] = np.nan                         # a cell with no data at all
        v[:365, 2, 3] = 0.0                         # no wet base-window days
        return GridField(0, np.array([10.0, 11.0, 12.0]),
                         np.array([20.0, 21.0, 22.0, 23.0]), v)

    def test_matches_per_cell_loop(self):
        fld = self.field()
        window, base_window = (0, 800), (0, 365)
        got = metrics.etccdi_all_cells(fld, window,
                                       metrics.wet_day_thresholds(fld, base_window))
        assert np.isnan(wet_day_quantiles(fld.series(11)[:365])[0.95])
        for i in range(fld.n_cells):
            base = wet_day_quantiles(fld.series(i)[slice(*base_window)])
            for name in metrics.INDEX_NAMES:
                entry = etccdi_index(fld.series(i)[slice(*window)], name, base)
                vals = entry.values
                want = (float(np.nanmean(vals)) if np.any(np.isfinite(vals))
                        else np.nan)
                np.testing.assert_array_equal(entry.period_mean, want)
                np.testing.assert_array_equal(got[name][i], want,
                                              err_msg=f"{name} cell {i}")
        assert np.isnan(got["rx1day"][6]) and got["r10mm"][6] == 0.0
        assert got["r95ptot"][11] == 0.0

    def test_thresholds_match_per_cell_oracle(self):
        fld = self.field()
        got = metrics.wet_day_thresholds(fld, (0, 365))
        assert set(got) == {0.95, 0.99}
        for i in range(fld.n_cells):
            s = fld.series(i)[:365]
            wet = s[np.isfinite(s) & (s >= metrics.TAU_WET)]
            for q in (0.95, 0.99):
                want = np.quantile(wet, q) if wet.size else np.nan
                np.testing.assert_array_equal(got[q][i], want, err_msg=f"q {q} cell {i}")
        assert np.isnan(got[0.95][6]) and np.isnan(got[0.99][11])

    def test_grid_mismatch_rejected(self):
        fld = self.field()
        other = GridField(0, fld.lats[:2], fld.lons, fld.values[:, :2])
        with pytest.raises(InvariantError):
            metrics.etccdi_all_cells(fld, (0, 365), metrics.wet_day_thresholds(other, (0, 365)))


class TestPercentageBias:
    def test_plus_twenty(self):
        assert mean_percentage_bias(np.array(12.0), np.array(10.0)) == 20.0

    def test_zero_bias(self):
        assert mean_percentage_bias(np.array(10.0), np.array(10.0)) == 0.0

    def test_zero_reference_is_missing(self):
        out = mean_percentage_bias(np.array([1.0]), np.array([0.0]))
        assert np.isnan(out[0])

    def test_index_summary_skips_undefined_indices(self):
        # r10mm is undefined in every cell (zero reference), so it has no
        # mean and stays out of the composite; cells select the region
        ref = {name: np.array([10.0, 20.0, 40.0]) for name in metrics.INDEX_NAMES}
        sim = {name: np.array([11.0, 18.0, 0.0]) for name in metrics.INDEX_NAMES}
        ref["r10mm"] = np.zeros(3)
        per_index, composite = metrics.index_percentage_bias(sim, ref, np.array([0, 1]))
        assert per_index["r10mm"][1] is None and np.isnan(per_index["r10mm"][0]).all()
        np.testing.assert_array_equal(per_index["sdii"][0], [10.0, -10.0])
        assert per_index["sdii"][1] == 10.0 and composite == 10.0
        assert metrics.index_percentage_bias(sim, ref)[1] == 40.0
        none = {name: np.zeros(3) for name in metrics.INDEX_NAMES}
        assert metrics.index_percentage_bias(sim, none)[1] is None


# ---------------------------------------------------------------------------
# fractal dimension
# ---------------------------------------------------------------------------

def anti_diagonal_mask(n=64):
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return (r + c < n).astype(np.uint8)


def box_count_oracle(mask, box):
    H, W = mask.shape
    count = 0
    for r0 in range(0, H, box):
        for c0 in range(0, W, box):
            blk = mask[r0:r0 + box, c0:c0 + box]
            if 0 < blk.sum() < blk.size:
                count += 1
    return count


class TestBoxCount:
    def test_anti_diagonal_exact(self):
        mask = anti_diagonal_mask(64)
        for box in (4, 8, 16):
            assert box_count(mask, box) == 64 // box

    def test_all_ones_zero(self):
        assert box_count(np.ones((32, 32), dtype=np.uint8), 4) == 0

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            mask = (rng.random((37, 23)) < 0.4).astype(np.uint8)
            for box in (2, 3, 5, 8):
                assert box_count(mask, box) == box_count_oracle(mask, box)

    def test_transposition_invariance(self):
        rng = np.random.default_rng(3)
        mask = (rng.random((32, 32)) < 0.5).astype(np.uint8)
        for box in (2, 4, 8):
            assert box_count(mask, box) == box_count(mask.T, box)

    def test_box_too_small(self):
        with pytest.raises(InvariantError):
            box_count(np.zeros((4, 4), dtype=np.uint8), 1)


class TestFdFit:
    def test_exact_power_law(self):
        assert abs(fd_fit([(4, 16), (8, 8), (16, 4)]) - 1.0) < 1e-12

    def test_constant_counts(self):
        assert fd_fit([(4, 7), (8, 7), (16, 7)]) == 0.0

    def test_undefined_below_three_sizes(self):
        assert np.isnan(fd_fit([(4, 16), (8, 8), (16, 0)]))

    def test_anti_diagonal_dimension_one(self):
        mask = anti_diagonal_mask(64)
        fd = fd_fit([(b, box_count(mask, b)) for b in (4, 8, 16)])
        assert abs(fd - 1.0) < 1e-9


def fd_fit_reference(counts):
    """The per-snapshot fit: slope over the sizes with positive counts."""
    pts = [(b, n) for b, n in counts if n > 0]
    if len(pts) < 3:
        return float("nan")
    x = np.log(1.0 / np.asarray([b for b, _ in pts], dtype=np.float64))
    y = np.log(np.asarray([n for _, n in pts], dtype=np.float64))
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


class TestFdCurveEquivalence:
    """fd_curve equals the per-snapshot, per-level definition, bit for bit,
    on a ragged grid with heavy ties: each snapshot is thresholded at its
    np.quantile, and its box counts match the brute-force oracle."""
    SIZES = (2, 3, 5, 8)

    def fields(self):
        rng = np.random.default_rng(10)
        f = np.round(rng.gamma(0.5, 4.0, (9, 37, 23)))   # many zeros and ties
        f[3] = 2.0                                       # a constant snapshot
        f[4] = np.where(rng.random((37, 23)) < 0.02, 5.0, 0.0)
        return f

    def test_counts_match_box_count(self):
        f = self.fields()
        levels = np.arange(1, 100) / 100.0
        thr = np.quantile(f.reshape(len(f), -1), levels, axis=1).T.copy()
        counts = metrics._partial_box_counts(f, thr, self.SIZES)
        for t in range(len(f)):
            for j, h in enumerate(levels):
                mask = f[t] >= np.quantile(f[t], h)
                assert [box_count_oracle(mask, b) for b in self.SIZES] == \
                    counts[t, j].tolist(), (t, h)

    def test_curve_matches_per_snapshot_definition(self):
        f = self.fields()
        levels = np.arange(1, 100) / 100.0
        per = np.full((len(f), levels.size), np.nan)
        for t in range(len(f)):
            for j, h in enumerate(levels):
                mask = f[t] >= np.quantile(f[t], h)
                pairs = [(b, box_count(mask, b)) for b in self.SIZES]
                per[t, j] = fd_fit_reference(pairs)
                np.testing.assert_array_equal(fd_fit(pairs), per[t, j])
        defined = np.isfinite(per)
        want = np.where(defined.any(axis=0), np.nansum(per, axis=0) /
                        np.maximum(defined.sum(axis=0), 1), np.nan)
        curve = fd_curve(f, levels=levels, box_sizes=self.SIZES)
        assert 0 < defined.sum() < defined.size
        np.testing.assert_array_equal(curve.n_defined, defined.sum(axis=0))
        np.testing.assert_array_equal(curve.fd, want)


    def test_thresholds_are_np_quantile_bits(self, monkeypatch):
        f = self.fields()
        levels = np.arange(1, 100) / 100.0
        want = np.quantile(f.reshape(len(f), -1), levels, axis=1).T
        seen, row_quantiles = [], metrics.row_quantiles

        def recording(rows, valid, qs):
            seen.append(row_quantiles(rows, valid, qs))
            return seen[-1]

        monkeypatch.setattr(metrics, "row_quantiles", recording)
        fd_curve(f, levels=levels, box_sizes=self.SIZES)
        assert len(seen) == 1 and seen[0].shape == want.shape
        assert np.array_equal(seen[0].view(np.uint64), want.view(np.uint64))


class TestFdCurve:
    def test_self_mae_zero(self):
        rng = np.random.default_rng(4)
        fields = rng.random((3, 64, 64))
        curve = fd_curve(fields, levels=np.array([0.3, 0.5, 0.7]),
                         box_sizes=[2, 4, 8, 16])
        assert fd_mae(curve, curve) == 0.0

    def test_noise_field_dimension(self):
        rng = np.random.default_rng(5)
        field = rng.random((256, 256))
        curve = fd_curve(field, levels=np.arange(0.1, 0.91, 0.1))
        assert np.all(curve.fd >= 1.7) and np.all(curve.fd <= 2.0)

    def test_undefined_below_three_box_sizes(self):
        fields = np.random.default_rng(6).random((5, 16, 31))
        curve = fd_curve(fields)
        assert curve.box_sizes.tolist() == [2, 4]
        assert np.isnan(curve.fd).all() and curve.fd.size == 99
        np.testing.assert_array_equal(curve.n_defined, np.zeros(99))

    def test_nonfinite_rejected_before_skip(self):
        fields = np.random.default_rng(7).random((5, 8, 8))
        fields[2, 3, 3] = np.nan
        with pytest.raises(InvariantError):
            fd_curve(fields)

    @pytest.mark.parametrize("levels", [[-0.1, 0.5], [0.5, 1.01], [np.nan]])
    def test_level_outside_unit_interval_rejected(self, levels):
        fields = np.random.default_rng(8).random((2, 32, 32))
        with pytest.raises(InvariantError):
            fd_curve(fields, levels=levels)

    def test_level_mismatch_rejected(self):
        c1 = FdCurve(np.array([0.5]), np.array([1.0]), np.array([2]), np.array([1]))
        c2 = FdCurve(np.array([0.6]), np.array([1.0]), np.array([2]), np.array([1]))
        with pytest.raises(InvariantError):
            fd_mae(c1, c2)


# ---------------------------------------------------------------------------
# trend bias
# ---------------------------------------------------------------------------

class TestTrendBias:
    def test_zero_bias(self):
        h = np.full(365, 1.0)
        f = np.full(365, 3.0)   # trend +2 for both raw and debiased
        tb = trend_bias(h, f, h, f, "mean")
        assert tb.tb_percent == 0.0 and tb.t_raw == 2.0

    def test_minus_fifty(self):
        rh = np.full(365, 1.0)
        rf = np.full(365, 3.0)      # raw trend 2
        dh = np.full(365, 1.0)
        df = np.full(365, 2.0)      # debiased trend 1
        assert trend_bias(rh, rf, dh, df, "mean").tb_percent == -50.0

    def test_guard_at_zero_raw_trend(self):
        s = np.full(365, 2.0)
        assert np.isnan(trend_bias(s, s, s, 2 * s, "mean").tb_percent)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        rh, rf, dh, df = (rng.gamma(1, 5, size=730) for _ in range(4))
        for stat in ("mean", "q95"):
            base = trend_bias(rh, rf, dh, df, stat).tb_percent
            for lam in (0.5, 2.0, 11.0):
                scaled = trend_bias(lam * rh, lam * rf, lam * dh, lam * df,
                                    stat).tb_percent
                assert abs(scaled - base) < 1e-9

    def test_wet_day_statistics_strict_thresholds(self):
        s = np.zeros(365)
        s[:3] = [1.0, 1.5, 10.0]   # exactly 1 and exactly 10 do not count
        stats = metrics._trend_statistics(s[None])
        assert stats["wet_days"][0] == 2.0
        assert stats["very_wet_days"][0] == 0.0


def oracle_trend_statistic(series, statistic):
    s = series[np.isfinite(series)]
    years = s.size / 365
    return {"mean": lambda: s.mean(), "q95": lambda: np.quantile(s, 0.95),
            "wet_days": lambda: (s > 1.0).sum() / years,
            "very_wet_days": lambda: (s > 10.0).sum() / years}[statistic]()


class TestTrendBiasAllCells:
    """trend_bias_all_cells equals a plain per-cell numpy computation bit for
    bit, on gap-free cells and on cells with missing days."""

    def fields(self, missing):
        rng = np.random.default_rng(12)
        H, W = 4, 5
        flds = []
        for T in (730, 1095, 730, 1095):
            # magnitudes spread over nine decades, so that float64 sums of
            # these float32 days depend on their order
            v = np.where(rng.random((T, H, W)) < 0.45, rng.gamma(0.7, 9.0, (T, H, W)), 0.0)
            v *= 10.0 ** rng.uniform(-6.0, 3.0, (T, H, W))
            gaps = rng.random((T, H, W)) < missing
            gaps[:, 0, :3] = False              # some cells stay gap-free
            v[gaps] = np.nan
            flds.append(GridField(0, np.arange(H, dtype=np.float64),
                                  np.arange(W, dtype=np.float64), v))
        return flds

    @pytest.mark.parametrize("block", [7, metrics.TREND_BLOCK])   # 20 cells
    @pytest.mark.parametrize("missing", [0.0, 0.01])
    def test_matches_per_cell_oracle(self, missing, block, monkeypatch):
        monkeypatch.setattr(metrics, "TREND_BLOCK", block)
        flds = self.fields(missing)
        got = metrics.trend_bias_all_cells(*flds)
        assert list(got) == list(metrics.TREND_STATISTICS)
        for stat in metrics.TREND_STATISTICS:
            for i in range(flds[0].n_cells):
                rh, rf, dh, dfu = (oracle_trend_statistic(f.series(i), stat) for f in flds)
                t_raw, t_deb = rf - rh, dfu - dh
                tb = np.nan if abs(t_raw) < 1e-6 else 100.0 * (t_deb - t_raw) / t_raw
                for k, want in enumerate((t_raw, t_deb, tb)):
                    np.testing.assert_array_equal(got[stat][k][i], want,
                                                  err_msg=f"{stat} cell {i}")
                one = trend_bias(*(f.series(i) for f in flds), stat)
                np.testing.assert_array_equal([one.t_raw, one.t_debiased, one.tb_percent],
                                              [t_raw, t_deb, tb])

    def test_cell_without_finite_day_rejected(self):
        flds = self.fields(0.0)
        flds[2].values[:, 3, 4] = np.nan
        with pytest.raises(InvariantError):
            metrics.trend_bias_all_cells(*flds)
        with pytest.raises(InvariantError):
            trend_bias(*(f.series(19) for f in flds), "mean")

    def test_grid_mismatch_rejected(self):
        flds = self.fields(0.0)
        small = flds[1]
        flds[1] = GridField(0, small.lats[:2], small.lons, small.values[:, :2])
        with pytest.raises(InvariantError):
            metrics.trend_bias_all_cells(*flds)


class TestRowQuantiles:
    """row_quantiles equals np.quantile of each row's valid entries exactly."""

    QS = (0.0, 0.05, 0.5, 0.95, 0.99, 1.0)

    @given(st.data())
    def test_matches_np_quantile(self, data):
        n_rows = data.draw(st.integers(1, 5))
        width = data.draw(st.integers(1, 40))
        elems = data.draw(st.sampled_from([
            st.sampled_from([0.0, 1.0, 2.5, 7.0]),           # many ties
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)]))
        cell = st.tuples(elems, st.booleans())
        drawn = data.draw(st.lists(st.lists(cell, min_size=width, max_size=width),
                                   min_size=n_rows, max_size=n_rows))
        rows = np.array([[v for v, _ in r] for r in drawn])
        valid = np.array([[ok for _, ok in r] for r in drawn])
        # invalid entries hold NaN or a value that must be ignored
        rows[~valid] = data.draw(st.sampled_from([np.nan, -5.0, 1e9]))
        got = metrics.row_quantiles(rows, valid, self.QS)
        assert got.shape == (n_rows, len(self.QS))
        for i in range(n_rows):
            v = rows[i][valid[i]]
            want = np.quantile(v, self.QS) if v.size else np.full(len(self.QS), np.nan)
            np.testing.assert_array_equal(got[i], want)

    def test_one_two_and_no_valid_entries(self):
        rows = np.array([[np.nan, 3.0, np.nan], [4.0, np.nan, 1.0],
                         [np.nan, np.nan, np.nan]])
        got = metrics.row_quantiles(rows, np.isfinite(rows), self.QS)
        np.testing.assert_array_equal(got[0], 3.0)
        np.testing.assert_array_equal(got[1], np.quantile([4.0, 1.0], self.QS))
        assert np.isnan(got[2]).all()
        assert np.isnan(metrics.row_quantiles(np.empty((2, 0)), np.empty((2, 0), bool),
                                              self.QS)).all()
        for q in self.QS:
            assert metrics.row_quantiles(rows[1:2], np.isfinite(rows[1:2]), [q])[0, 0] == \
                np.quantile([4.0, 1.0], q)


class TestQuantileCurves:
    def test_identical_series_identical_curves(self):
        s = np.random.default_rng(7).gamma(1, 5, 400)
        rows = quantile_curves({"a": s, "b": s.copy()}, n_levels=21)
        a = [r for r in rows if r[0] == "a"]
        b = [r for r in rows if r[0] == "b"]
        assert [r[1:] for r in a] == [r[1:] for r in b]

    def test_monotone_in_q(self):
        s = np.random.default_rng(8).gamma(1, 5, 400)
        rows = quantile_curves({"a": s}, n_levels=99)
        vals = [r[3] for r in rows]
        assert all(v1 <= v2 for v1, v2 in zip(vals, vals[1:]))

    def test_fifth_power_coordinate(self):
        rows = quantile_curves({"a": np.arange(100.0)}, n_levels=99)
        mid = [r for r in rows if abs(r[1] - 0.5) < 1e-12]
        assert len(mid) == 1 and abs(mid[0][2] - 0.03125) < 1e-15
