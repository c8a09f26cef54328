"""Composite training objective: weighted quantile loss, rainy-day loss,
and a spatial structure loss, all differentiable in the corrected series.

The quantile grid uses K uniformly spaced levels (k - 1/2)/K so the exact
0 and 1 endpoints are avoided. The spatial term is an epsilon-regularized,
uncentered cosine between corrected and reference vectors per time step,
not a Pearson correlation, implemented exactly in that form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _sigmoid_np
from .gridio import TAU_WET

COSINE_EPS = 1e-8  # regularizer under the spatial term's norms
P1, P2, P3 = 0.99, 0.01, 1.0  # weights of the quantile, rainy-day and spatial terms


@dataclass(frozen=True)
class LossWeights:
    q_star: float | None = None  # emphasized quantile, None = uniform weights
    n_levels: int = 1000

    def __post_init__(self):
        if self.q_star is not None and not (0.0 < self.q_star < 1.0):
            raise ValueError("q_star must lie in (0, 1)")
        if self.n_levels < 2:
            raise ValueError("need at least 2 quantile levels")

    @property
    def levels(self) -> np.ndarray:
        k = np.arange(1, self.n_levels + 1, dtype=np.float64)
        return (k - 0.5) / self.n_levels


@dataclass(frozen=True)
class LossReport:
    Q: float
    R: float
    S: float
    L: float


def quantile_weight(q, q_star: float | None):
    """Level emphasis g(q) = exp(-|q - q_star|), or 1 everywhere when no
    emphasis is requested."""
    q = np.asarray(q, dtype=np.float64)
    if q_star is None:
        return np.ones_like(q)
    return np.exp(-np.abs(q - q_star))


def _quantile_gather(sorted_vals: Tensor, n: int, q: np.ndarray) -> Tensor:
    """Linear order-statistic interpolation at levels q over the last axis
    of an already sorted tensor."""
    pos = q * (n - 1)
    lo = np.floor(pos).astype(np.intp)
    hi = np.ceil(pos).astype(np.intp)
    frac = pos - lo
    return ad.add(ad.mul(ad.take(sorted_vals, lo, axis=-1), 1.0 - frac),
                  ad.mul(ad.take(sorted_vals, hi, axis=-1), frac))


def empirical_quantile(x: Tensor, q) -> Tensor:
    """Empirical quantile function at levels q (last axis of x is the sample
    axis), using linear interpolation between adjacent order statistics;
    differentiable through the sorting permutation."""
    q = np.atleast_1d(np.asarray(q, dtype=np.float64))
    n = x.shape[-1]
    if n == 0:
        raise ValueError("empirical quantile of an empty series")
    svals = ad.sort(x)
    return _quantile_gather(svals, n, q)


def quantile_loss(x: Tensor, y: np.ndarray, weights: LossWeights) -> Tensor:
    """Mean over series of (1/K) sum_k g(q_k) |Q_x(q_k) - Q_y(q_k)|.

    x has shape (..., T); y is the aligned reference with the same shape.
    Rows are treated as independent series (cells); the result averages over
    them. Both series must already have missing days removed."""
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    q = weights.levels
    g = quantile_weight(q, weights.q_star)
    qx = empirical_quantile(x, q)
    qy = _quantile_gather(Tensor(np.sort(y, axis=-1)), y.shape[-1], q)
    diff = ad.abs_(ad.sub(qx, qy))
    per_series = ad.mean_(ad.mul(diff, g), axis=-1)
    return ad.mean_(per_series) if per_series.shape else per_series


def rainy_day_loss(x: Tensor, y: np.ndarray) -> Tensor:
    """Mean over sites of |sum_t sigma(x - tau) - sum_t sigma(y - tau)|
    with tau = TAU_WET, the smooth wet-day frequency mismatch. x has shape
    (sites, T)."""
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    sx = ad.sum_(ad.sigmoid(ad.sub(x, TAU_WET)), axis=-1)
    sy = _sigmoid_np(y - TAU_WET).sum(axis=-1)
    per_site = ad.abs_(ad.sub(sx, Tensor(sy)))
    return ad.mean_(per_site) if per_site.shape else per_site


def spatial_corr_loss(x: Tensor, y: np.ndarray) -> Tensor:
    """Mean over (batch, time) of one minus the regularized uncentered cosine
    between the corrected and reference node vectors.

    x has shape (batch, nodes, time); the cosine runs over the node axis.
    """
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    num = ad.sum_(ad.mul(x, Tensor(y)), axis=1)                     # (batch, time)
    den_x = ad.sqrt(ad.add(ad.sum_(ad.mul(x, x), axis=1), COSINE_EPS))
    den_y = np.sqrt((y * y).sum(axis=1) + COSINE_EPS)
    corr = ad.div(num, ad.mul(den_x, Tensor(den_y)))
    return ad.mean_(ad.sub(1.0, corr))


def composite_loss(Q: Tensor, R: Tensor, S: Tensor) -> tuple[Tensor, LossReport]:
    """L = P1*Q + P2*R + P3*S, returned with a per-batch component report."""
    L = ad.add(ad.add(ad.mul(Q, P1), ad.mul(R, P2)), ad.mul(S, P3))
    report = LossReport(Q=float(Q.data), R=float(R.data), S=float(S.data),
                        L=float(L.data))
    return L, report
