"""Monotone softplus-basis mapping and its parameter constraints.

The mapping is alpha*x + sum_z w_z * softplus(s_z * (x - b_z)) + c, strictly
increasing in x whenever alpha, w_z, s_z are all positive. ``constrain``
produces positive alpha/w/s from unconstrained raw values via softplus; b and
c pass through. Outputs may go negative; ``clamp_output`` floors them at zero
and is applied at inference/export only, never inside the training loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

N_BASIS = 8
N_RAW = 3 * N_BASIS + 2  # alpha | w[Z] | s[Z] | b[Z] | c


@dataclass
class TransformParams:
    """Coefficients of the monotone mapping; entries are Tensors whose
    trailing axis indexes the basis bumps (w, s, b) or is absent (alpha, c).
    Leading axes are free (e.g. cells x days)."""

    alpha: object
    w: object
    s: object
    b: object
    c: object


def constrain(raw: Tensor) -> TransformParams:
    """Map raw (..., N_RAW) network outputs to valid transform parameters,
    differentiably: softplus keeps alpha, w, s strictly positive."""
    if raw.shape[-1] != N_RAW:
        raise ValueError(f"raw parameter vector must have length {N_RAW}")
    z = N_BASIS
    alpha = ad.softplus(ad.take(raw, np.array([0]), axis=-1))
    w = ad.softplus(ad.take(raw, np.arange(1, 1 + z), axis=-1))
    s = ad.softplus(ad.take(raw, np.arange(1 + z, 1 + 2 * z), axis=-1))
    b = ad.take(raw, np.arange(1 + 2 * z, 1 + 3 * z), axis=-1)
    c = ad.take(raw, np.array([N_RAW - 1]), axis=-1)
    return TransformParams(alpha=alpha, w=w, s=s, b=b, c=c)


def _basis_shaped(t: Tensor, xshape: tuple, z: int) -> Tensor:
    """Align a per-bump parameter to shape xshape + (z,)."""
    if t.shape == xshape + (z,):
        return t
    if t.shape == (z,):
        return ad.broadcast_to(ad.reshape(t, (1,) * len(xshape) + (z,)), xshape + (z,))
    raise ValueError(f"basis parameter shape {t.shape} incompatible with x {xshape}")


def _scalar_shaped(t: Tensor, xshape: tuple) -> Tensor:
    """Align alpha/c to x's shape (or keep as a broadcastable scalar)."""
    if t.shape == xshape:
        return t
    if t.shape == xshape + (1,):
        return ad.reshape(t, xshape)
    if t.data.size == 1:
        return ad.reshape(t, ())
    raise ValueError(f"parameter shape {t.shape} incompatible with x {xshape}")


def apply(params: TransformParams, x: Tensor) -> Tensor:
    """Evaluate the monotone mapping at x (mm/day). Parameters may be a
    single coefficient set or carry leading axes matching x. Differentiable
    in both x and parameters."""
    xshape = x.shape
    z = params.w.shape[-1]
    xe = ad.broadcast_to(ad.reshape(x, xshape + (1,)), xshape + (z,))
    w = _basis_shaped(params.w, xshape, z)
    s = _basis_shaped(params.s, xshape, z)
    b = _basis_shaped(params.b, xshape, z)
    bumps = ad.mul(w, ad.softplus(ad.mul(s, ad.sub(xe, b))))
    lin = ad.mul(_scalar_shaped(params.alpha, xshape), x)
    return ad.add(ad.add(lin, ad.sum_(bumps, axis=-1)), _scalar_shaped(params.c, xshape))


def derivative(params: TransformParams, x: Tensor) -> Tensor:
    """d(mapping)/dx = alpha + sum_z w_z s_z sigmoid(s_z (x - b_z)); strictly
    positive for constrained parameters."""
    xshape = x.shape
    z = params.w.shape[-1]
    xe = ad.broadcast_to(ad.reshape(x, xshape + (1,)), xshape + (z,))
    w = _basis_shaped(params.w, xshape, z)
    s = _basis_shaped(params.s, xshape, z)
    b = _basis_shaped(params.b, xshape, z)
    terms = ad.mul(ad.mul(w, s), ad.sigmoid(ad.mul(s, ad.sub(xe, b))))
    return ad.add(ad.sum_(terms, axis=-1), _scalar_shaped(params.alpha, xshape))


def clamp_output(x_ba: np.ndarray) -> np.ndarray:
    """Floor exported precipitation at zero (idempotent)."""
    return np.maximum(np.asarray(x_ba), 0.0)


def softplus_inverse(y: float) -> float:
    """Raw value whose softplus equals y (> 0)."""
    return float(np.log(np.expm1(y)))


def identity_raw(precip_q999: float) -> np.ndarray:
    """(N_RAW,) raw vector whose constrained mapping is close to the
    identity: alpha = 1, w = 0.05, s = 1, c = 0, with the knots b spread
    evenly over [0, precip_q999]."""
    return np.concatenate([
        [softplus_inverse(1.0)],
        np.full(N_BASIS, softplus_inverse(0.05)),
        np.full(N_BASIS, softplus_inverse(1.0)),
        np.linspace(0.0, precip_q999, N_BASIS),
        [0.0],
    ])
