import numpy as np
import pytest

from dclimba import synth
from dclimba.errors import InvariantError
from dclimba.gridio import GridField, cell_days
from dclimba.synth import SynthConfig, apply_known_bias, gen_reference, oracle_quantile_gap


class TestGenReference:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(height=4, width=4, years=2, seed=42)
        a, attrs_a = gen_reference(cfg)
        b, attrs_b = gen_reference(cfg)
        np.testing.assert_array_equal(a.values.view(np.uint32),
                                      b.values.view(np.uint32))
        np.testing.assert_array_equal(attrs_a.elevation, attrs_b.elevation)
        np.testing.assert_array_equal(attrs_a.landcover, attrs_b.landcover)

    def test_zero_wet_probability(self):
        cfg = SynthConfig(height=3, width=3, years=1, seed=0, p_wet=0.0)
        fld, _ = gen_reference(cfg)
        assert not fld.values.any()

    def test_wet_frequency_within_tolerance(self, tiny_world):
        cfg = SynthConfig(height=4, width=4, years=10, seed=5, p_wet=0.4)
        fld, _ = gen_reference(cfg)
        freq = (fld.values > 0).mean(axis=0)
        assert np.abs(freq - cfg.p_wet).max() < 0.03

    def test_field_invariants_hold(self, tiny_world):
        _, ref, gcm, attrs = tiny_world
        ref.validate()
        gcm.validate()
        assert (attrs.aspect >= 0).all() and (attrs.aspect < 360).all()

    def test_neighbor_correlation_positive(self):
        cfg = SynthConfig(height=5, width=5, years=3, seed=9)
        fld, _ = gen_reference(cfg)
        flat = fld.values.reshape(-1, 25).astype(np.float64)
        cors = []
        for i in range(25):
            if i % 5 < 4:
                cors.append(np.corrcoef(flat[:, i], flat[:, i + 1])[0, 1])
            if i // 5 < 4:
                cors.append(np.corrcoef(flat[:, i], flat[:, i + 5])[0, 1])
        assert np.mean(cors) > 0.0
        assert np.mean(np.asarray(cors) > 0) > 0.9


class TestApplyKnownBias:
    def test_power_law_example(self):
        vals = np.full((1, 1, 1), 10.0, dtype=np.float32)
        ref = GridField(0, [0.0], [0.0], vals)
        cfg = SynthConfig(height=1, width=1, years=1, bias_a=1.3, bias_p=1.1,
                          drizzle_prob=0.0)
        out = apply_known_bias(ref, cfg)
        assert abs(out.values[0, 0, 0] - 1.3 * 10.0 ** 1.1) < 1e-4

    def test_zero_stays_zero_without_drizzle(self):
        ref = GridField(0, [0.0], [0.0], np.zeros((5, 1, 1), dtype=np.float32))
        cfg = SynthConfig(height=1, width=1, years=1, drizzle_prob=0.0)
        out = apply_known_bias(ref, cfg)
        assert not out.values.any()

    def test_identity_parameters(self):
        cfg = SynthConfig(height=3, width=3, years=1, seed=2, bias_a=1.0,
                          bias_p=1.0, drizzle_prob=0.0)
        ref, _ = gen_reference(cfg)
        out = apply_known_bias(ref, cfg)
        np.testing.assert_allclose(out.values, ref.values, rtol=1e-6)

    def test_rank_order_preserved_on_wet_values(self, tiny_world):
        cfg, ref, gcm, _ = tiny_world
        for i in range(ref.n_cells):
            r = cell_days(ref, "test")[i]
            g = cell_days(gcm, "test")[i]
            wet = r > 0
            np.testing.assert_array_equal(np.argsort(r[wet], kind="stable"),
                                          np.argsort(g[wet], kind="stable"))

    def test_drizzle_probability(self):
        cfg = SynthConfig(height=4, width=4, years=10, seed=3, p_wet=0.3,
                          drizzle_prob=0.3)
        ref, _ = gen_reference(cfg)
        out = apply_known_bias(ref, cfg)
        dry = ref.values == 0
        frac = (out.values[dry] > 0).mean()
        assert abs(frac - 0.3) < 0.02

    def test_spatially_varying_parameters(self):
        H = W = 4
        a = np.linspace(1.1, 1.5, W)[None, :].repeat(H, axis=0)
        cfg = SynthConfig(height=H, width=W, years=1, seed=4, bias_a=a,
                          bias_p=1.0, drizzle_prob=0.0)
        ref, _ = gen_reference(cfg)
        out = apply_known_bias(ref, cfg)
        wet = ref.values > 0
        ratio = np.where(wet, out.values / np.where(wet, ref.values, 1.0), np.nan)
        for j in range(W):
            col = ratio[:, :, j]
            col = col[np.isfinite(col)]
            if col.size:
                np.testing.assert_allclose(col, a[0, j], rtol=1e-5)

    def test_invalid_bias_rejected(self):
        with pytest.raises(InvariantError):
            SynthConfig(bias_a=-1.0)
        with pytest.raises(InvariantError):
            SynthConfig(bias_p=0.0)


class TestOracleQuantileGap:
    def test_identical_fields_zero(self, tiny_world):
        _, ref, _, _ = tiny_world
        gap = oracle_quantile_gap(ref, ref, [0.1, 0.5, 0.9])
        assert gap.max() == 0.0

    def test_unit_shift(self):
        rng = np.random.default_rng(0)
        base = rng.gamma(1.0, 5.0, size=(400, 2, 2)).astype(np.float32)
        ref = GridField(0, [0.0, 1.0], [0.0, 1.0], base)
        shifted = GridField(0, [0.0, 1.0], [0.0, 1.0], base + 1.0)
        gap = oracle_quantile_gap(ref, shifted, np.linspace(0.1, 0.9, 9))
        np.testing.assert_allclose(gap, 1.0, atol=1e-5)

    def test_non_negative(self, tiny_world):
        _, ref, gcm, _ = tiny_world
        gap = oracle_quantile_gap(ref, gcm, np.linspace(0.05, 0.99, 20))
        assert (gap >= 0).all()
