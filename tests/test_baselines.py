import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from dclimba import _kernels, baselines, cli
from dclimba.errors import InvariantError
from dclimba.gridio import GridField, cell_days, write_grd

METHOD_MODES = [("qm", "multiplicative"), ("ecdfm", "multiplicative"),
                ("ecdfm", "additive"), ("qdm", "multiplicative")]


def gamma_series(seed, n=500, scale=6.0):
    rng = np.random.default_rng(seed)
    return rng.gamma(0.9, scale, size=n)


def one_row(method, model, obs, x, mode="multiplicative"):
    """correct_cells on one series: fit model to obs and correct x."""
    rows = (np.reshape(v, (1, -1)) for v in (model, obs, x))
    return baselines.correct_cells(method, *rows, mode)[0]


HAND_FIT = ([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0])


class TestQm:
    def test_self_mapping_identity(self):
        s = gamma_series(0)
        probes = np.quantile(s, [0.1, 0.35, 0.5, 0.82])
        np.testing.assert_allclose(one_row("qm", s, s, probes), probes, rtol=1e-12)

    def test_hand_interpolation(self):
        assert one_row("qm", *HAND_FIT, [2.5])[0] == 5.0

    def test_multiplicative_tail(self):
        assert one_row("qm", *HAND_FIT, [5.0])[0] == 10.0

    def test_empty_fit_rejected(self):
        with pytest.raises(InvariantError):
            one_row("qm", [], [1.0], [1.0])

    def test_self_consistency_quantiles(self):
        model = gamma_series(1)
        obs = gamma_series(2, scale=4.0)
        corrected = one_row("qm", model, obs, model)
        q = np.linspace(0.01, 0.99, 99)
        np.testing.assert_allclose(np.quantile(corrected, q),
                                   np.quantile(obs, q), atol=1e-9)


class TestEcdfm:
    def test_reduces_to_qm_when_future_is_historical(self):
        model = gamma_series(3)
        obs = gamma_series(4, scale=3.0)
        got = one_row("ecdfm", model, obs, model, "multiplicative")
        expected = one_row("qm", model, obs, model)
        # below the trace threshold the floored ratio deviates by design
        keep = model >= baselines.TRACE_MM
        np.testing.assert_allclose(got[keep], expected[keep], atol=1e-9)

    def test_multiplicative_hand_case(self):
        future = np.array([1.0, 2.0, 2.5, 3.0, 4.0])
        out = one_row("ecdfm", *HAND_FIT, future, "multiplicative")
        assert abs(out[2] - 5.0) < 1e-12  # tau=0.5 -> factor 5/2.5

    def test_additive_hand_case(self):
        future = np.array([1.0, 2.0, 2.5, 3.0, 4.0])
        out = one_row("ecdfm", *HAND_FIT, future, "additive")
        assert abs(out[2] - 5.0) < 1e-12  # 2.5 + (5 - 2.5)

    def test_unknown_mode(self):
        with pytest.raises(InvariantError):
            one_row("ecdfm", [1.0], [1.0], [1.0], "geometric")


class TestQdm:
    def test_no_change_signal_equals_qm(self):
        model = gamma_series(5)
        obs = gamma_series(6, scale=3.0)
        keep = model >= baselines.TRACE_MM
        got = one_row("qdm", model, obs, model)[keep]
        expected = one_row("qm", model, obs, model)[keep]
        np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_doubled_future_preserves_relative_change(self):
        model = np.sort(gamma_series(7)) + 0.5   # distinct, above trace
        obs = np.sort(gamma_series(8, scale=3.0)) + 0.5
        future = 2.0 * model
        corr_fut = one_row("qdm", model, obs, future)
        corr_hist = one_row("qdm", model, obs, model)
        q = np.linspace(0.05, 0.95, 19)
        ratio = np.quantile(corr_fut, q) / np.quantile(corr_hist, q)
        raw_ratio = np.quantile(future, q) / np.quantile(model, q)
        np.testing.assert_allclose(ratio, raw_ratio, rtol=1e-6)

    def test_trace_rule(self):
        out = one_row("qdm", [1.0, 2.0], [3.0, 4.0], [0.01, 1.0, 2.0])
        assert out[0] == 0.0


class TestInvariants:
    def test_monotone_in_input(self):
        model = gamma_series(9)
        obs = gamma_series(10, scale=4.0)
        probes = np.sort(gamma_series(11, n=300))
        for method, mode in METHOD_MODES:
            out = one_row(method, model, obs, probes, mode)
            assert np.all(np.diff(out) >= -1e-12)

    def test_multiplicative_never_negative(self):
        model = gamma_series(12)
        obs = gamma_series(13, scale=2.0)
        probes = np.abs(gamma_series(14, n=300))
        for method in ("qm", "ecdfm", "qdm"):
            assert (one_row(method, model, obs, probes) >= 0).all()

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", [("locb", "multiplicative"),
                                             ("ecdfm", "geometric")])
    def test_unknown_method_or_mode_rejected_before_any_row(self, monkeypatch,
                                                            method, mode, pooled):
        def never(*args):
            raise AssertionError("rows sorted or blocks started")

        monkeypatch.setattr(_kernels, "run_shared", never)
        monkeypatch.setattr(baselines, "_fit_rows_checked", never)
        hist, ref, x = gappy_rows(3, 10, 2)
        with pytest.raises(InvariantError, match="unknown"):
            baselines.correct_cells(method, hist, ref, x, mode, pooled)


class TestFieldCorrection:
    def test_grid_mismatch(self, tiny_world):
        from dclimba.gridio import GridField, cell_days, write_grd
        _, ref, gcm, _ = tiny_world
        other = GridField(0, [0.0, 1.0], [0.0, 1.0],
                          np.zeros((10, 2, 2), dtype=np.float32))
        with pytest.raises(InvariantError):
            baselines.correct_field("qm", ref, other, gcm)

    def test_qm_field_reproduces_obs_quantiles(self, tiny_world):
        _, ref, gcm, _ = tiny_world
        out = baselines.correct_field("qm", ref, gcm, gcm)
        assert out.values.shape == gcm.values.shape
        q = np.linspace(0.05, 0.95, 19)
        for i in (0, 7, 15):
            np.testing.assert_allclose(
                np.quantile(cell_days(out, "test")[i].astype(np.float64), q),
                np.quantile(cell_days(ref, "test")[i].astype(np.float64), q), atol=1e-5)

    def test_unknown_method(self, tiny_world):
        _, ref, gcm, _ = tiny_world
        with pytest.raises(InvariantError):
            baselines.correct_field("locb", ref, gcm, gcm)


# ---------------------------------------------------------------------------
# the per-cell loop the row code replaced, kept as its oracle: each cell's
# finite days, fitted and applied with np.interp in day order
# ---------------------------------------------------------------------------

def _oracle_cdf(sorted_vals, x):
    if sorted_vals.size == 1:
        return np.zeros_like(x)
    return np.interp(x, sorted_vals, np.linspace(0.0, 1.0, sorted_vals.size))


def _oracle_quantile(sorted_vals, tau):
    if sorted_vals.size == 1:
        return np.full_like(tau, sorted_vals[0])
    return np.interp(tau, np.linspace(0.0, 1.0, sorted_vals.size), sorted_vals)


def _oracle_cell(method, mh, ob, x, mode):
    trace = baselines.TRACE_MM
    if method == "qm":
        out = _oracle_quantile(ob, _oracle_cdf(mh, x))
        hi = x > mh[-1]
        out[hi] = x[hi] * (ob[-1] / max(mh[-1], trace))
        lo = x < mh[0]
        out[lo] = x[lo] * (ob[0] / max(mh[0], trace))
        return out
    tau = _oracle_cdf(np.sort(x), x)
    obs_q, hist_q = _oracle_quantile(ob, tau), _oracle_quantile(mh, tau)
    if method == "qdm":
        out = obs_q * (x / np.maximum(hist_q, trace))
        out[x < trace] = 0.0
    elif mode == "multiplicative":
        out = x * (obs_q / np.maximum(hist_q, trace))
    else:
        out = x + (obs_q - hist_q)
    order = np.argsort(x, kind="stable")
    out[order] = np.maximum.accumulate(out[order])
    return out


def oracle_cells(method, hist, ref, x, mode="multiplicative", pooled=False):
    def fit(v):     # + 0.0 makes each -0.0 +0.0, as the row code's fit does
        return np.sort(v[np.isfinite(v)]) + 0.0

    out = np.full(x.shape, np.nan)
    for i in range(x.shape[0]):
        mh, ob = (fit(v.ravel() if pooled else v[i]) for v in (hist, ref))
        ok = np.isfinite(x[i])
        if ok.any():    # the loop raised on a cell with no finite apply day
            out[i, ok] = _oracle_cell(method, mh, ob, x[i, ok], mode)
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


nan = np.nan
# hist, ref and apply rows of 8 days, one cell per row
EDGE_CELLS = np.array([
    # apply all missing
    [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
     [0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5],
     [nan] * 8],
    # one finite fit day each
    [[nan, nan, 3.0, nan, nan, nan, nan, nan],
     [nan, nan, nan, nan, nan, 4.0, nan, nan],
     [0.0, 1.0, 3.0, 3.0, 8.0, nan, 0.01, 2.0]],
    # two finite fit days each
    [[nan, 2.0, nan, nan, 6.0, nan, nan, nan],
     [1.0, nan, nan, nan, nan, nan, nan, 9.0],
     [0.0, 1.0, 2.0, 4.0, 6.0, 7.0, nan, 3.0]],
    # apply beyond both ends of the fit
    [[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
     [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0],
     [0.5, 9.0, 0.02, 20.0, 4.5, 1.0, 8.0, nan]],
    # heavy ties at 0 and values below the trace threshold
    [[0.0, 0.0, 0.0, 0.01, 0.04, 0.0, 3.0, 0.0],
     [0.0, 0.03, 0.0, 0.0, 0.0, 2.0, 0.0, 0.06],
     [0.0, 0.0, 0.01, 0.0, 0.05, 0.0, 0.0, 0.04]],
    # one finite apply day, inf counts as missing
    [[1.0, 3.0, 0.0, 2.0, 5.0, 0.2, 0.1, 4.0],
     [0.0, 2.0, 1.0, 4.0, 3.0, 6.0, 0.3, 1.0],
     [nan, np.inf, nan, 2.5, nan, nan, nan, nan]],
])


class TestRowsMatchOracle:
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_edge_cells(self, method, mode, pooled):
        hist, ref, x = (EDGE_CELLS[:, k] for k in range(3))
        got = baselines.correct_cells(method, hist, ref, x, mode, pooled)
        assert_same_bits(got, oracle_cells(method, hist, ref, x, mode, pooled))
        assert np.isnan(got[0]).all()

    @pytest.mark.parametrize("mode", baselines.MODES)
    @pytest.mark.parametrize("method", baselines.METHODS)
    def test_signed_zeros_match_oracle(self, method, mode):
        # -0.0 and +0.0 tie in a fit row's sort, and the two sides' sorts
        # place them apart; each fitted zero is +0.0, so no output's sign
        # depends on where a sort puts it
        for seed in range(40):
            rng = np.random.default_rng(seed)
            rows = [rng.choice([-0.0, 0.0, 0.5, 1.0, 2.0, 3.0], (8, 730)) for _ in range(3)]
            for r in rows:
                r[rng.random(r.shape) < 0.1] = nan
            assert_same_bits(baselines.correct_cells(method, *rows, mode),
                             oracle_cells(method, *rows, mode))

    @given(st.data())
    def test_gappy_rows(self, data):
        cells = data.draw(st.integers(1, 5), label="cells")
        values = st.one_of(st.sampled_from([nan, 0.0, 0.01, 0.05, 1.0, 2.5]),
                           st.floats(0.0, 80.0))
        hist, ref, x = (data.draw(arrays(np.float64, (cells, data.draw(
            st.integers(1, 30), label=f"{name} days")), elements=values), label=name)
            for name in ("hist", "ref", "apply"))
        for fit in (hist, ref):     # a cell needs one finite fit day
            fit[:, 0] = np.where(np.isfinite(fit[:, 0]), fit[:, 0], 1.0)
        for method, mode in METHOD_MODES:
            for pooled in (False, True):
                assert_same_bits(
                    baselines.correct_cells(method, hist, ref, x, mode, pooled),
                    oracle_cells(method, hist, ref, x, mode, pooled))

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_gappy_field(self, tiny_world, method, mode, pooled):
        _, ref, gcm, _ = tiny_world
        vals = gcm.values.copy()
        vals[np.random.default_rng(3).random(vals.shape) < 0.2] = np.nan
        gappy = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        hist = GridField(gcm.start_date, gcm.lats, gcm.lons, vals[:730])
        got = baselines.correct_field(method, ref, hist, gappy, mode, pooled)

        def rows(v):
            return v.reshape(v.shape[0], -1).T.astype(np.float64)

        want = oracle_cells(method, rows(hist.values), rows(ref.values),
                            rows(vals), mode, pooled)
        want = np.maximum(want, 0.0, where=np.isfinite(want), out=want)
        assert_same_bits(got.values, np.ascontiguousarray(
            want.T, dtype=np.float32).reshape(vals.shape))
        assert np.array_equal(np.isnan(got.values), np.isnan(vals))

    def test_cell_without_finite_fit_day_rejected(self):
        hist, ref, x = (EDGE_CELLS[:, k].copy() for k in range(3))
        ref[2] = nan
        with pytest.raises(InvariantError):
            baselines.correct_cells("qm", hist, ref, x)


def gappy_rows(cells, days, seed):
    """hist, ref and apply rows with ties, zeros and 20 % missing days, each
    fit row holding at least one finite day."""
    rng = np.random.default_rng(seed)
    hist, ref, x = (np.round(rng.gamma(0.6, 4.0, (cells, days)), 1) for _ in range(3))
    for v in (hist, ref, x):
        v[rng.random(v.shape) < 0.2] = nan
    hist[:, 0], ref[:, 0] = 1.0, 2.0
    return hist, ref, x


# one worker, two, and more workers than blocks
WORKERS = [1, 2, 64]


class TestBlocks:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_cells_match_oracle_for_any_worker_count(self, monkeypatch, method, mode,
                                                      pooled, workers):
        monkeypatch.setattr(_kernels, "cpu_count", lambda: workers)
        monkeypatch.setattr(baselines, "BLOCK_CELLS", 4)
        # 6 edge cells, then 15 gappy ones: 6 blocks, the last of one cell
        hist, ref, x = (np.concatenate([EDGE_CELLS[:, k], rows])
                        for k, rows in enumerate(gappy_rows(15, 8, 5)))
        assert_same_bits(baselines.correct_cells(method, hist, ref, x, mode, pooled),
                         oracle_cells(method, hist, ref, x, mode, pooled))
        hist, ref, x = gappy_rows(15, 40, 6)
        assert_same_bits(baselines.correct_cells(method, hist, ref, x, mode, pooled),
                         oracle_cells(method, hist, ref, x, mode, pooled))

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_field_matches_oracle_for_any_worker_count(self, tiny_world, monkeypatch,
                                                        method, mode, pooled, workers):
        monkeypatch.setattr(_kernels, "cpu_count", lambda: workers)
        monkeypatch.setattr(baselines, "BLOCK_CELLS", 5)    # 16 cells: 5, 5, 5, 1
        _, ref, gcm, _ = tiny_world
        vals = gcm.values.copy()
        vals[np.random.default_rng(4).random(vals.shape) < 0.2] = np.nan
        gappy = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        hist = GridField(gcm.start_date, gcm.lats, gcm.lons, vals[:730])
        before = threading.active_count()
        got = baselines.correct_field(method, ref, hist, gappy, mode, pooled)
        assert threading.active_count() == before

        def rows(v):
            return v.reshape(v.shape[0], -1).T.astype(np.float64)

        want = oracle_cells(method, rows(hist.values), rows(ref.values),
                            rows(vals), mode, pooled)
        want = np.maximum(want, 0.0, where=np.isfinite(want), out=want)
        assert_same_bits(got.values, np.ascontiguousarray(
            want.T, dtype=np.float32).reshape(vals.shape))

    def test_cell_without_fit_day_in_a_later_block_raised_from_a_helper(self, monkeypatch):
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 2)
        monkeypatch.setattr(baselines, "BLOCK_CELLS", 2)
        hist, ref, x = gappy_rows(6, 20, 7)
        ref[[2, 5]] = nan       # one bad cell in each block after the first
        caller, raisers, raised = threading.current_thread(), [], threading.Event()
        fit = baselines._fit_rows_checked

        def checked(rows, name):
            # the caller waits, so a helper thread meets a bad cell first
            if threading.current_thread() is caller:
                assert raised.wait(60)
            try:
                return fit(rows, name)
            except InvariantError:
                raisers.append(threading.current_thread())
                raised.set()
                raise

        monkeypatch.setattr(baselines, "_fit_rows_checked", checked)
        before = threading.active_count()
        with pytest.raises(InvariantError, match="obs must be non-empty"):
            baselines.correct_cells("qdm", hist, ref, x)
        assert threading.active_count() == before
        assert any(t is not caller for t in raisers)

    def test_baseline_command_exits_2_on_a_cell_without_fit_day(self, tiny_world, tmp_path,
                                                                 monkeypatch, capsys):
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 4)
        monkeypatch.setattr(baselines, "BLOCK_CELLS", 3)
        _, ref, gcm, _ = tiny_world
        vals = ref.values.copy()
        vals[:, 3, 2] = np.nan      # cell 14, in the last block but one
        paths = {k: tmp_path / f"{k}.grd" for k in ("ref", "gcm")}
        write_grd(GridField(ref.start_date, ref.lats, ref.lons, vals), paths["ref"])
        write_grd(gcm, paths["gcm"])
        out = tmp_path / "out.grd"
        before = threading.active_count()
        assert cli.run(["baseline", "--method", "qm", "--ref", str(paths["ref"]),
                        "--gcm-hist", str(paths["gcm"]), "--gcm-apply", str(paths["gcm"]),
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: obs must be non-empty" in err and "Traceback" not in err
        assert not out.exists()
        assert threading.active_count() == before


inf = np.inf
SUB32 = float(np.float32(1e-40))                    # float32 subnormals
TINY32 = float(np.finfo(np.float32).smallest_subnormal)
FIT_ROW = [0.0, -0.0, 1.0, 2.0, -0.0, 3.0, 0.5, 0.0]
# apply rows of 8 days for the packed ranking's edge cases; each cell is
# fitted to FIT_ROW (hist) and its reverse doubled (ref)
RANK_ROWS = np.array([
    [0.0, -0.0, 0.0, -0.0, 1.0, 2.0, -0.0, 0.0],        # -0.0 tied with +0.0
    [SUB32, TINY32, 0.0, -TINY32, -SUB32, 1.0, SUB32, 0.5],
    [-1.0, -2.5, 0.0, -0.0, 2.0, -1.0, 5.0, -7.0],       # negative values
    [inf, nan, 1.0, -inf, 2.0, nan, inf, 0.0],          # +-inf and NaN missing
    [nan, nan, nan, 4.0, nan, inf, -inf, nan],          # one finite day
    [nan, inf, nan, -inf, nan, nan, nan, nan],          # all missing
])


@pytest.fixture
def ranked_by(monkeypatch):
    """The names of the ranking forms each call of _correct_rows used."""
    used = []
    for name in ("_rank_packed", "_rank_argsort"):
        def spy(x, rank=getattr(baselines, name), name=name):
            used.append(name)
            return rank(x)
        monkeypatch.setattr(baselines, name, spy)
    return used


def _fits(x):
    hist = np.tile(FIT_ROW, (len(x), 1))
    return hist, 2.0 * hist[:, ::-1]


class TestPackedRanking:
    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_edge_rows_match_oracle(self, ranked_by, method, mode, pooled):
        hist, ref = _fits(RANK_ROWS)
        got = baselines.correct_cells(method, hist, ref, RANK_ROWS, mode, pooled)
        assert_same_bits(got, oracle_cells(method, hist, ref, RANK_ROWS, mode, pooled))
        assert ranked_by == ["_rank_packed"]
        assert np.array_equal(np.isnan(got), ~np.isfinite(RANK_ROWS))

    @pytest.mark.parametrize("pooled", [False, True])
    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    @pytest.mark.parametrize("row", [
        [np.nextafter(1.0, 2.0), 1.0, np.nextafter(1.0, 2.0), nan, 1.0, 2.0, 0.5, 1.0],
        [1e39, 1.0, 0.0, nan, 2.0, -1e39, 0.5, 1e39]])     # past float32's range
    def test_float64_rows_float32_cannot_hold_take_the_argsort(self, ranked_by, method,
                                                               mode, pooled, row):
        x = np.vstack([RANK_ROWS, row])
        hist, ref = _fits(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = baselines.correct_cells(method, hist, ref, x, mode, pooled)
        assert_same_bits(got, oracle_cells(method, hist, ref, x, mode, pooled))
        assert ranked_by == ["_rank_argsort"]

    @pytest.mark.parametrize("method,mode", METHOD_MODES)
    def test_float32_field_view_matches_float64_oracle(self, ranked_by, method, mode):
        # 730 days of 70 cells as a (days, cells) float32 field: two blocks,
        # each row a strided view with a 280-byte day stride
        rng = np.random.default_rng(8)
        hist, ref, x = (np.round(rng.gamma(0.6, 4.0, (730, 70)), 1).astype(np.float32)
                        for _ in range(3))
        for v in (hist, ref, x):
            v[rng.random(v.shape) < 0.1] = nan
        hist[0], ref[0] = 1.0, 2.0
        x[:, 5] = nan
        got = baselines.correct_cells(method, hist.T, ref.T, x.T, mode)
        want = oracle_cells(method, *(v.T.astype(np.float64) for v in (hist, ref, x)), mode)
        assert_same_bits(got, want)
        assert ranked_by == ["_rank_packed"] * 2

    def test_empty_day_axis(self):
        hist, ref = _fits(RANK_ROWS)
        for method, mode in METHOD_MODES:
            assert baselines.correct_cells(method, hist, ref, RANK_ROWS[:, :0],
                                           mode).shape == (6, 0)


class TestSelfPosition:
    def test_equals_interp_within_the_row(self):
        # ascending rows with runs of ties, padded with zeros past their
        # counts, and counts 0, 1, 2 and the full row
        rng = np.random.default_rng(9)
        vals = np.sort(rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 7.0], (40, 50)), axis=-1)
        m = rng.integers(0, 51, 40)
        m[:4] = 0, 1, 2, 50
        vals[np.arange(50) >= m[:, None]] = 0.0
        got = baselines._self_position((vals, m))
        for row, mi, g in zip(vals, m, got):
            if not mi:      # np.interp needs a sample point
                continue
            want = np.interp(row[:mi], row[:mi], np.linspace(0.0, 1.0, mi))
            assert np.array_equal(g[:mi].view(np.uint64), want.view(np.uint64))
