"""Synthetic reference climate with an injectable monotone bias.

Daily fields combine spatially correlated occurrence (smoothed Gaussian noise
thresholded at a seasonally modulated wet-day probability) with gamma
intensities coupled to the same noise, so neighboring cells correlate
positively. The injected bias maps wet values through a*x**p (strictly
increasing) and adds exponential drizzle to a fraction of dry days.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import signal
from scipy import stats as sstats

from .errors import InvariantError
from .gridio import AttributeField, GridField
from .metrics import DAYS_PER_YEAR, row_quantiles


@dataclass(frozen=True)
class SynthConfig:
    height: int = 8
    width: int = 8
    lat0: float = 35.0
    lon0: float = -100.0
    dlat: float = 1.0
    dlon: float = 1.0
    years: int = 10
    seed: int = 0
    p_wet: float = 0.4
    season_amp: float = 0.2
    gamma_shape: float = 0.8
    gamma_scale: float = 6.0
    corr_length: float = 2.0
    param_jitter: float = 0.2
    bias_a: object = 1.3       # scalar or (H, W) array, > 0
    bias_p: object = 1.1       # scalar or (H, W) array, > 0
    drizzle_prob: float = 0.3
    drizzle_scale: float = 0.5

    def __post_init__(self):
        if min(self.height, self.width, self.years) < 1:
            raise InvariantError("grid size and years must be at least 1")
        if not (0.0 <= self.p_wet < 1.0):
            raise InvariantError("p_wet must lie in [0, 1)")
        if self.gamma_shape <= 0 or self.gamma_scale <= 0:
            raise InvariantError("gamma parameters must be positive")
        if np.any(np.asarray(self.bias_a) <= 0) or np.any(np.asarray(self.bias_p) <= 0):
            raise InvariantError("bias parameters must be positive for a monotone bias")
        if not (0.0 <= self.drizzle_prob <= 1.0):
            raise InvariantError("drizzle probability must lie in [0, 1]")

    @property
    def lats(self) -> np.ndarray:
        return self.lat0 + self.dlat * np.arange(self.height)

    @property
    def lons(self) -> np.ndarray:
        return self.lon0 + self.dlon * np.arange(self.width)

    @property
    def n_days(self) -> int:
        return self.years * DAYS_PER_YEAR


def _gauss_kernel(sigma: float) -> np.ndarray:
    r = max(1, int(np.ceil(3.0 * sigma)))
    ax = np.arange(-r, r + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (ax / sigma) ** 2)
    k = np.outer(k1, k1)
    return k / k.sum()


def _smooth_unit(noise: np.ndarray, sigma: float) -> np.ndarray:
    """Spatially smooth iid N(0,1) noise along the last two axes, exactly
    renormalized so every cell keeps unit marginal variance."""
    if sigma <= 0:
        return noise
    k = _gauss_kernel(sigma)
    H, W = noise.shape[-2:]
    denom = np.sqrt(signal.convolve2d(np.ones((H, W)), k * k, mode="same"))
    if noise.ndim == 2:
        return signal.oaconvolve(noise, k, mode="same") / denom
    return signal.oaconvolve(noise, k[None, :, :], mode="same", axes=(-2, -1)) / denom


def gen_reference(config: SynthConfig) -> tuple[GridField, AttributeField]:
    """Reference precipitation plus static attributes, reproducible from the
    seed alone."""
    rng = np.random.default_rng(config.seed)
    H, W, D = config.height, config.width, config.n_days

    elev = 500.0 + 1500.0 * _smooth_unit(rng.standard_normal((H, W)), config.corr_length)
    elev = np.abs(elev)
    cell_m = 111_000.0 * config.dlat
    gy, gx = np.gradient(elev, cell_m)
    slope = np.degrees(np.arctan(np.hypot(gy, gx)))
    aspect = np.degrees(np.arctan2(gx, gy)) % 360.0
    block = max(2, H // 4)
    codes = rng.integers(0, 4, size=(H // block + 1, W // block + 1))
    landcover = np.kron(codes, np.ones((block, block)))[:H, :W]
    attrs = AttributeField(lats=config.lats, lons=config.lons, elevation=elev,
                           slope=slope, aspect=aspect, landcover=landcover)

    shape_fld = config.gamma_shape * np.exp(
        config.param_jitter * _smooth_unit(rng.standard_normal((H, W)), config.corr_length))
    scale_fld = config.gamma_scale * np.exp(
        config.param_jitter * _smooth_unit(rng.standard_normal((H, W)), config.corr_length))

    values = np.zeros((D, H, W), dtype=np.float32)
    if config.p_wet > 0.0:
        z = _smooth_unit(rng.standard_normal((D, H, W)), config.corr_length)
        doy = np.arange(D) % DAYS_PER_YEAR
        p_t = np.clip(config.p_wet * (1.0 + config.season_amp *
                                      np.sin(2.0 * np.pi * doy / DAYS_PER_YEAR)),
                      0.005, 0.995)
        z_thr = sstats.norm.ppf(p_t)[:, None, None]
        wet = z < z_thr
        u = sstats.norm.cdf(z[wet]) / sstats.norm.cdf(np.broadcast_to(z_thr, z.shape)[wet])
        u = np.clip(u, 1e-12, 1.0 - 1e-12)
        sh = np.broadcast_to(shape_fld, z.shape)[wet]
        sc = np.broadcast_to(scale_fld, z.shape)[wet]
        values[wet] = sstats.gamma.ppf(1.0 - u, sh, scale=sc)
    fld = GridField(start_date=0, lats=config.lats, lons=config.lons, values=values)
    return fld, attrs


def apply_known_bias(ref: GridField, config: SynthConfig) -> GridField:
    """Distort the reference into a synthetic model field: wet values map
    through a*x**p (rank order preserved within each cell) and dry days gain
    exponential drizzle with the configured probability."""
    rng = np.random.default_rng([config.seed, 0xB1A5])
    v = ref.values.astype(np.float64)
    a = np.broadcast_to(np.asarray(config.bias_a, dtype=np.float64), v.shape)
    p = np.broadcast_to(np.asarray(config.bias_p, dtype=np.float64), v.shape)
    out = v.copy()
    wet = np.isfinite(v) & (v > 0)
    out[wet] = a[wet] * v[wet] ** p[wet]
    dry = np.isfinite(v) & (v == 0)
    hit = rng.random(v.shape) < config.drizzle_prob
    drizzle = rng.exponential(config.drizzle_scale, size=v.shape)
    sel = dry & hit
    out[sel] = drizzle[sel]
    return GridField(start_date=ref.start_date, lats=ref.lats, lons=ref.lons,
                     values=out.astype(np.float32))


def oracle_quantile_gap(ref: GridField, biased: GridField, levels) -> np.ndarray:
    """Per-cell absolute quantile gap |Q_biased(q) - Q_ref(q)| at the given
    levels over each cell's finite days; shape (n_cells, n_levels), NaN for a
    cell with no finite day. The raw-error yardstick."""
    def quantiles(fld: GridField) -> np.ndarray:
        days = fld.values.reshape(fld.values.shape[0], -1).T
        return row_quantiles(days, np.isfinite(days), levels)

    return np.abs(quantiles(biased) - quantiles(ref))
