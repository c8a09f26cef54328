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
from scipy import signal, special
from scipy import stats as sstats

from . import _kernels
from .errors import InvariantError
from .gridio import AttributeField, GridField
from .metrics import DAYS_PER_YEAR, row_quantiles

LAT0, LON0 = 35.0, -100.0   # first grid row's latitude and column's longitude
SEASON_AMP = 0.2            # relative seasonal swing of the wet-day probability
GAMMA_SHAPE, GAMMA_SCALE = 0.8, 6.0   # wet-day intensity gamma before the jitter
PARAM_JITTER = 0.2          # log-scale spatial spread of the gamma parameters
DRIZZLE_SCALE = 0.5         # mean injected drizzle, mm/day
CORR_LENGTH = 2.0           # Gaussian smoothing scale of the noise, in cells
BLOCK_CELL_DAYS = 1 << 18   # cell-days per block of whole days made at once
GAMMA_PIECE = 1 << 14       # wet values per piece of the gamma quantiles


@dataclass(frozen=True)
class SynthConfig:
    height: int = 8
    width: int = 8
    dlat: float = 1.0
    dlon: float = 1.0
    years: int = 10
    seed: int = 0
    p_wet: float = 0.4
    bias_a: object = 1.3       # scalar or (H, W) array, > 0
    bias_p: object = 1.1       # scalar or (H, W) array, > 0
    drizzle_prob: float = 0.3

    def __post_init__(self):
        if min(self.height, self.width, self.years) < 1:
            raise InvariantError("grid size and years must be at least 1")
        if not (0.0 <= self.p_wet < 1.0):
            raise InvariantError("p_wet must lie in [0, 1)")
        if np.any(np.asarray(self.bias_a) <= 0) or np.any(np.asarray(self.bias_p) <= 0):
            raise InvariantError("bias parameters must be positive for a monotone bias")
        if not (0.0 <= self.drizzle_prob <= 1.0):
            raise InvariantError("drizzle probability must lie in [0, 1]")

    @property
    def lats(self) -> np.ndarray:
        return LAT0 + self.dlat * np.arange(self.height)

    @property
    def lons(self) -> np.ndarray:
        return LON0 + self.dlon * np.arange(self.width)

    @property
    def n_days(self) -> int:
        return self.years * DAYS_PER_YEAR


def _smooth_unit(noise: np.ndarray) -> np.ndarray:
    """Spatially smooth iid N(0,1) noise along the last two axes with a
    Gaussian of CORR_LENGTH cells, exactly renormalized so every cell keeps
    unit marginal variance."""
    r = int(np.ceil(3.0 * CORR_LENGTH))
    ax = np.arange(-r, r + 1, dtype=np.float64)
    k1 = np.exp(-0.5 * (ax / CORR_LENGTH) ** 2)
    k = np.outer(k1, k1)
    k = k / k.sum()
    H, W = noise.shape[-2:]
    denom = np.sqrt(signal.convolve2d(np.ones((H, W)), k * k, mode="same"))
    if noise.ndim == 2:
        return signal.oaconvolve(noise, k, mode="same") / denom
    return signal.oaconvolve(noise, k[None, :, :], mode="same", axes=(-2, -1)) / denom


def _block_days(cells: int) -> int:
    """Days per block: BLOCK_CELL_DAYS cell-days, at least one day."""
    return max(1, BLOCK_CELL_DAYS // cells)


def gen_reference(config: SynthConfig) -> tuple[GridField, AttributeField]:
    """Reference precipitation plus static attributes, reproducible from the
    seed alone.

    The daily field is made in blocks of whole days, about BLOCK_CELL_DAYS
    cell-days each, so a small grid is one block. Each block's noise
    is drawn on the calling thread in day order, and numpy's normal draws
    are sequential, so the blocks read the stream that one (days, H, W) draw
    would. Every later step acts on one day (the smoothing, the wet mask) or
    on one value (the gamma quantile), so the field has the bits of the
    whole-array field whatever the block size and the CPU count."""
    rng = np.random.default_rng(config.seed)
    H, W, D = config.height, config.width, config.n_days

    elev = 500.0 + 1500.0 * _smooth_unit(rng.standard_normal((H, W)))
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

    shape_fld = GAMMA_SHAPE * np.exp(
        PARAM_JITTER * _smooth_unit(rng.standard_normal((H, W))))
    scale_fld = GAMMA_SCALE * np.exp(
        PARAM_JITTER * _smooth_unit(rng.standard_normal((H, W))))

    values = np.zeros((D, H, W), dtype=np.float32)
    if config.p_wet > 0.0:
        doy = np.arange(D) % DAYS_PER_YEAR
        p_t = np.clip(config.p_wet * (1.0 + SEASON_AMP *
                                      np.sin(2.0 * np.pi * doy / DAYS_PER_YEAR)),
                      0.005, 0.995)
        z_thr = sstats.norm.ppf(p_t)[:, None, None]
        cdf_thr = sstats.norm.cdf(z_thr)
        step = _block_days(H * W)
        for lo in range(0, D, step):
            hi = min(D, lo + step)
            z = _smooth_unit(rng.standard_normal((hi - lo, H, W)))
            wet = z < z_thr[lo:hi]
            values[lo:hi][wet] = _wet_intensity(
                *(np.broadcast_to(a, z.shape)[wet]
                  for a in (z, cdf_thr[lo:hi], shape_fld, scale_fld)))
    fld = GridField(start_date=0, lats=config.lats, lons=config.lons, values=values)
    return fld, attrs


def _wet_intensity(z, cdf_thr, shape, scale) -> np.ndarray:
    """Gamma(shape, scale) quantiles of the wet values z, coupled to the
    noise: 1 - Phi(z) / Phi(z_thr) is the quantile level.

    The chain is scipy.stats' norm.cdf and gamma.ppf written with their
    special functions, in place: for finite z, norm.cdf is ndtr, and for a
    level strictly inside (0, 1), as the clip makes it, gamma.ppf(q, a,
    scale=s) is gammaincinv(a, q) * s, bit for bit. It runs in pieces of
    GAMMA_PIECE values shared over the CPUs: the special functions release
    the GIL and a value costs about 1 us, so a piece is worth a thread.
    Each value's bits do not depend on its piece, and a piece allocates no
    array."""
    out = np.empty(z.shape)

    def piece(lo, hi):
        q = out[lo:hi]
        special.ndtr(z[lo:hi], out=q)
        np.divide(q, cdf_thr[lo:hi], out=q)
        np.clip(q, 1e-12, 1.0 - 1e-12, out=q)
        np.subtract(1.0, q, out=q)
        special.gammaincinv(shape[lo:hi], q, out=q)
        np.multiply(q, scale[lo:hi], out=q)

    _kernels.run_pieces(list(range(0, z.size, GAMMA_PIECE)) + [z.size], piece)
    return out


def apply_known_bias(ref: GridField, config: SynthConfig) -> GridField:
    """Distort the reference into a synthetic model field: wet values map
    through a*x**p (rank order preserved within each cell) and dry days gain
    exponential drizzle with the configured probability.

    The field is distorted in the day blocks of gen_reference. The stream
    is the one a whole-array draw reads: every uniform of the field first,
    then every exponential. Each uniform takes one 64-bit draw, so the
    exponentials start ref.values.size draws in; a second generator on the
    same seed, advanced by that many draws, reads them block by block."""
    seed = [config.seed, 0xB1A5]
    rng = np.random.default_rng(seed)
    rng_exp = np.random.Generator(np.random.PCG64(seed).advance(ref.values.size))
    a_fld, p_fld = (np.asarray(x, dtype=np.float64) for x in (config.bias_a, config.bias_p))
    out = None
    step = _block_days(ref.n_cells)
    for lo in range(0, len(ref.values), step):
        v = ref.values[lo:lo + step].astype(np.float64)
        a = np.broadcast_to(a_fld, v.shape)
        p = np.broadcast_to(p_fld, v.shape)
        biased = v.copy()
        wet = np.isfinite(v) & (v > 0)
        biased[wet] = a[wet] * v[wet] ** p[wet]
        dry = np.isfinite(v) & (v == 0)
        hit = rng.random(v.shape) < config.drizzle_prob
        drizzle = rng_exp.exponential(DRIZZLE_SCALE, size=v.shape)
        sel = dry & hit
        biased[sel] = drizzle[sel]
        if out is None:
            # made while the first block's temporaries are live, as the
            # whole-array code made its result: made before them, the field
            # sat below them in glibc's heap, and a training run after
            # synth then peaked 3-25 MB higher (8x8 world, 266 MB before)
            out = np.empty(ref.values.shape, dtype=np.float32)
        out[lo:lo + step] = biased
    return GridField(start_date=ref.start_date, lats=ref.lats, lons=ref.lons, values=out)


def oracle_quantile_gap(ref: GridField, biased: GridField, levels) -> np.ndarray:
    """Per-cell absolute quantile gap |Q_biased(q) - Q_ref(q)| at the given
    levels over each cell's finite days; shape (n_cells, n_levels), NaN for a
    cell with no finite day. The raw-error yardstick."""
    def quantiles(fld: GridField) -> np.ndarray:
        days = fld.values.reshape(fld.values.shape[0], -1).T
        return row_quantiles(days, np.isfinite(days), levels)

    return np.abs(quantiles(biased) - quantiles(ref))
