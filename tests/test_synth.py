import functools
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sstats

from dclimba import _kernels, synth
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


# ---------------------------------------------------------------------------
# The whole-array generator, kept as the oracle of the day-blocked one: every
# (days, H, W) array at once, the uniforms of the bias drawn before its
# exponentials on one generator.
# ---------------------------------------------------------------------------

def oracle_gen_reference(config):
    rng = np.random.default_rng(config.seed)
    H, W, D = config.height, config.width, config.n_days

    elev = 500.0 + 1500.0 * synth._smooth_unit(rng.standard_normal((H, W)))
    elev = np.abs(elev)
    cell_m = 111_000.0 * config.dlat
    gy, gx = np.gradient(elev, cell_m)
    slope = np.degrees(np.arctan(np.hypot(gy, gx)))
    aspect = np.degrees(np.arctan2(gx, gy)) % 360.0
    block = max(2, H // 4)
    codes = rng.integers(0, 4, size=(H // block + 1, W // block + 1))
    landcover = np.kron(codes, np.ones((block, block)))[:H, :W]
    attrs = dict(elevation=elev, slope=slope, aspect=aspect, landcover=landcover)

    shape_fld = synth.GAMMA_SHAPE * np.exp(
        synth.PARAM_JITTER * synth._smooth_unit(rng.standard_normal((H, W))))
    scale_fld = synth.GAMMA_SCALE * np.exp(
        synth.PARAM_JITTER * synth._smooth_unit(rng.standard_normal((H, W))))

    values = np.zeros((D, H, W), dtype=np.float32)
    if config.p_wet > 0.0:
        z = synth._smooth_unit(rng.standard_normal((D, H, W)))
        doy = np.arange(D) % synth.DAYS_PER_YEAR
        p_t = np.clip(config.p_wet * (1.0 + synth.SEASON_AMP *
                                      np.sin(2.0 * np.pi * doy / synth.DAYS_PER_YEAR)),
                      0.005, 0.995)
        z_thr = sstats.norm.ppf(p_t)[:, None, None]
        wet = z < z_thr
        u = sstats.norm.cdf(z[wet]) / sstats.norm.cdf(np.broadcast_to(z_thr, z.shape)[wet])
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        sh = np.broadcast_to(shape_fld, z.shape)[wet]
        sc = np.broadcast_to(scale_fld, z.shape)[wet]
        values[wet] = sstats.gamma.ppf(1.0 - u, sh, scale=sc)
    return values, attrs


def oracle_apply_known_bias(values, config):
    rng = np.random.default_rng([config.seed, 0xB1A5])
    v = values.astype(np.float64)
    a = np.broadcast_to(np.asarray(config.bias_a, dtype=np.float64), v.shape)
    p = np.broadcast_to(np.asarray(config.bias_p, dtype=np.float64), v.shape)
    out = v.copy()
    wet = np.isfinite(v) & (v > 0)
    out[wet] = a[wet] * v[wet] ** p[wet]
    dry = np.isfinite(v) & (v == 0)
    hit = rng.random(v.shape) < config.drizzle_prob
    drizzle = rng.exponential(synth.DRIZZLE_SCALE, size=v.shape)
    sel = dry & hit
    out[sel] = drizzle[sel]
    return out.astype(np.float32)


_SMALL = dict(height=4, width=5, years=2, seed=7)
ORACLE_WORLDS = {
    "dry": dict(_SMALL, p_wet=0.0),
    "no-drizzle": dict(_SMALL, drizzle_prob=0.0),
    "all-drizzle": dict(_SMALL, drizzle_prob=1.0),
    "bias-maps": dict(_SMALL, bias_a=np.linspace(0.5, 2.0, 20).reshape(4, 5),
                      bias_p=np.linspace(0.8, 1.3, 20).reshape(4, 5)[::-1]),
    "one-year": dict(_SMALL, years=1, seed=11),
    "evaluate32": dict(height=32, width=32, years=4, seed=1),
}


@functools.cache
def oracle_world(name):
    cfg = SynthConfig(**ORACLE_WORLDS[name])
    values, attrs = oracle_gen_reference(cfg)
    return values, attrs, oracle_apply_known_bias(values, cfg)


class TestBlocksMatchOracle:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("world", sorted(ORACLE_WORLDS))
    def test_same_bits_as_whole_array(self, world, cpus, monkeypatch):
        monkeypatch.setattr(_kernels, "cpu_count", lambda: cpus)
        cfg = SynthConfig(**ORACLE_WORLDS[world])
        values, attrs, biased = oracle_world(world)
        ref, got_attrs = gen_reference(cfg)
        np.testing.assert_array_equal(ref.values.view(np.uint32), values.view(np.uint32))
        for name, arr in attrs.items():
            np.testing.assert_array_equal(getattr(got_attrs, name), arr)
        gcm = apply_known_bias(ref, cfg)
        np.testing.assert_array_equal(gcm.values.view(np.uint32), biased.view(np.uint32))

    @pytest.mark.parametrize("block_cell_days, piece", [(1, 1), (2000, 700), (10**6, 50)])
    def test_same_bits_whatever_the_block(self, block_cell_days, piece, monkeypatch):
        # blocks of one day and of 100 days (ending inside a year), one
        # block; pieces of one value up to one piece per block
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 2)
        monkeypatch.setattr(synth, "BLOCK_CELL_DAYS", block_cell_days)
        monkeypatch.setattr(synth, "GAMMA_PIECE", piece)
        cfg = SynthConfig(**ORACLE_WORLDS["bias-maps"])
        values, _, biased = oracle_world("bias-maps")
        ref, _ = gen_reference(cfg)
        np.testing.assert_array_equal(ref.values.view(np.uint32), values.view(np.uint32))
        gcm = apply_known_bias(ref, cfg)
        np.testing.assert_array_equal(gcm.values.view(np.uint32), biased.view(np.uint32))


def test_peak_memory_a_few_fields():
    # 32x32, 10 years: the float32 field is 14.3 MB. The whole-array code
    # peaked at 214.6 MB in gen_reference and 128.4 MB in apply_known_bias
    cfg = SynthConfig(height=32, width=32, years=10, seed=1)
    field_bytes = 4 * cfg.n_days * cfg.height * cfg.width
    peaks = []
    tracemalloc.start()
    try:
        ref, _ = gen_reference(cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        apply_known_bias(ref, cfg)
        peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert max(peaks) <= 4 * field_bytes, [p / 2**20 for p in peaks]
