"""Parameter network: temporal 1-D convolutional encoder, geodesic-attention
spatial encoder, and the linear head producing raw transform coefficients
per cell per day.

Node order inside a patch is [target, neighbor_1, ..., neighbor_k]; the
coefficients are read off the target node only, so attention runs from the
target alone over the patch nodes at each time step, with a per-head learned
offset on the logits computed from target-to-node geodesic features.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import transform
from .autodiff import Tensor
from .errors import InvariantError
from .gridio import (AttributeField, GridField, NeighborGraph, TAU_WET, check_same_grid,
                     check_window)

GEO_SCALE_KM = 100.0  # node/pair displacement channels are expressed in units of this
SIGMA_FLOOR = 1e-6
LAGS = 3  # lagged copies of a cell's series among its time channels


@dataclass(frozen=True)
class EncoderConfig:
    kernel_size: int = 3
    heads: int = 2
    model_dim: int = 64
    neighbors: int = 16
    pair_hidden: int = 16

    def __post_init__(self):
        if self.kernel_size % 2 != 1:
            raise InvariantError("kernel size must be odd for length-preserving padding")
        if (min(self.kernel_size, self.heads, self.model_dim, self.pair_hidden) < 1
                or self.neighbors < 0):
            raise InvariantError("encoder sizes must be positive")
        if self.model_dim % self.heads != 0:
            raise InvariantError("model dim must be divisible by the head count")

    @property
    def nodes(self) -> int:
        return 1 + self.neighbors


@dataclass(frozen=True)
class NormalizationStats:
    """Channel normalization fitted on the training window only."""

    precip_mean: np.ndarray  # (N,) per-cell mean of log1p precip
    precip_std: np.ndarray   # (N,) per-cell std, floored
    attr_mean: np.ndarray    # (4,) elevation, slope, aspect_sin, aspect_cos
    attr_std: np.ndarray     # (4,)
    landcover_codes: tuple
    precip_q999: float       # spread of the initial basis knots, mm/day

    def as_arrays(self) -> dict:
        return {
            "norm_precip_mean": self.precip_mean,
            "norm_precip_std": self.precip_std,
            "norm_attr_mean": self.attr_mean,
            "norm_attr_std": self.attr_std,
            "norm_landcover_codes": np.asarray(self.landcover_codes, dtype=np.float64),
            "norm_precip_q999": np.asarray([self.precip_q999]),
        }

    @classmethod
    def from_arrays(cls, arrs: dict) -> "NormalizationStats":
        return cls(precip_mean=arrs["norm_precip_mean"],
                   precip_std=arrs["norm_precip_std"],
                   attr_mean=arrs["norm_attr_mean"],
                   attr_std=arrs["norm_attr_std"],
                   landcover_codes=tuple(int(c) for c in arrs["norm_landcover_codes"]),
                   precip_q999=float(arrs["norm_precip_q999"][0]))

    def check(self, n_cells: int) -> None:
        """InvariantError unless the statistics fit a grid of n_cells cells:
        (n_cells,) per-cell and (4,) attribute arrays, every value finite,
        every std > 0, and a finite precip_q999. A checkpoint is checked
        when it loads, since an infinite mean or a NaN std would turn a
        cell's corrected days into NaN or wrong values without an error."""
        pairs = ((self.precip_mean, self.precip_std, n_cells),
                 (self.attr_mean, self.attr_std, 4))
        if not (np.isfinite(self.precip_q999)
                and all(np.shape(mean) == np.shape(std) == (n,)
                        and np.isfinite(mean).all() and np.isfinite(std).all()
                        and (std > 0).all() for mean, std, n in pairs)):
            raise InvariantError(
                f"normalization statistics need finite ({n_cells},) per-cell and (4,) "
                f"attribute means, stds > 0 and a finite precip_q999")


def _static_attributes(attrs: AttributeField) -> np.ndarray:
    """(N, 4) per-cell elevation, slope, sin(aspect), cos(aspect)."""
    asp = np.radians(attrs.aspect.ravel())
    return np.stack([attrs.elevation.ravel(), attrs.slope.ravel(),
                     np.sin(asp), np.cos(asp)], axis=1)


def fit_normalization(gcm: GridField, attrs: AttributeField,
                      window: tuple[int, int]) -> NormalizationStats:
    """Per-cell log1p precipitation statistics over the training window and
    global statistics of the static attributes."""
    check_window("normalization", window, gcm.values.shape[0])
    t0, t1 = window
    sub = gcm.values[t0:t1].astype(np.float64)
    N = gcm.n_cells
    logv = np.log1p(sub.reshape(sub.shape[0], N))
    mean = np.nanmean(logv, axis=0)
    std = np.maximum(np.nanstd(logv, axis=0), SIGMA_FLOOR)
    stat = _static_attributes(attrs)
    attr_mean = stat.mean(axis=0)
    attr_std = np.maximum(stat.std(axis=0), SIGMA_FLOOR)
    finite = sub[np.isfinite(sub)]
    q999 = float(np.quantile(finite, 0.999)) if finite.size else 1.0
    codes = tuple(sorted(set(int(c) for c in np.unique(attrs.landcover))))
    return NormalizationStats(precip_mean=mean, precip_std=std,
                              attr_mean=attr_mean, attr_std=attr_std,
                              landcover_codes=codes, precip_q999=q999)


@dataclass(frozen=True)
class InputBatch:
    series: np.ndarray      # (cells, LAGS + 2, T) time channels of the batch's distinct cells
    static: np.ndarray      # (cells, S) static channels of the same cells
    node_pos: np.ndarray    # (B, nodes) row of each patch node in series and static
    node_mask: np.ndarray   # (B, nodes) bool
    node_geo: np.ndarray    # (B, nodes, 5) node relative to the target
    target_raw: np.ndarray  # (B, T) raw target precipitation, mm/day
    cells: np.ndarray       # (B,) flat target cell indices

    def targets(self, sl: slice) -> "InputBatch":
        """The targets in sl, reading the same cell rows."""
        return replace(self, node_pos=self.node_pos[sl], node_mask=self.node_mask[sl],
                       node_geo=self.node_geo[sl], target_raw=self.target_raw[sl],
                       cells=self.cells[sl])


class FeaturePack:
    """Input channels of one model field, gathered per batch of patches. A
    node's input channels are, in the row order of in_proj_w:

    [x_t, x_t-1, x_t-2, x_t-3] log1p z-scored per cell | wet-day indicator |
    [elev, slope, aspect_sin, aspect_cos] z-scored | landcover one-hot |
    [dnorth, deast, dist] / 100 km, sin(bearing), cos(bearing) of the node
    relative to the patch target.

    The first two groups vary in time and belong to the node's cell: each
    batch builds them for its own days from the float32 field, which the
    pack reads and does not copy. The third belongs to the cell, and the
    last to the (target, node) pair, read from the neighbor graph's
    features. An empty slot (index -1) is a copy of its target node: the
    target's cell at zero displacement and bearing 0, whatever features the
    graph holds there. The attention mask alone keeps it out of the output.
    """

    def __init__(self, gcm: GridField, attrs: AttributeField, graph: NeighborGraph,
                 stats: NormalizationStats, config: EncoderConfig):
        check_same_grid("attribute", attrs, gcm)
        check_same_grid("neighbor graph", graph, gcm)
        if graph.indices.shape[1] < config.neighbors:
            raise InvariantError("neighbor graph holds fewer neighbors than configured")
        self.config = config
        self.stats = stats
        T, H, W = gcm.values.shape
        N = H * W
        self.values = gcm.values.reshape(T, N)            # float32 (T, N), a view

        stat = (_static_attributes(attrs) - stats.attr_mean) / stats.attr_std
        onehot = (attrs.landcover.ravel()[:, None] ==
                  np.asarray(stats.landcover_codes)[None, :]).astype(np.float64)
        self.static_ch = np.concatenate([stat, onehot], axis=1)  # (N, 4 + codes)

        # patch nodes [target, neighbors]; an empty slot holds the target
        k = config.neighbors
        cells = np.arange(N)[:, None]
        mask = graph.mask[:, :k]
        self.node_idx = np.concatenate([cells, np.where(mask, graph.indices[:, :k], cells)],
                                       axis=1)             # (N, nodes)
        self.node_mask = np.concatenate([np.ones((N, 1), dtype=bool), mask], axis=1)
        feat = np.zeros((N, config.nodes, 4))
        feat[:, 1:] = np.where(mask[..., None], graph.features[:, :k], 0.0)
        self.node_geo = self._encode_geo(feat)

        self.n_channels = LAGS + 2 + self.static_ch.shape[1] + self.node_geo.shape[-1]
        self.n_cells = N

    @staticmethod
    def _encode_geo(feat: np.ndarray) -> np.ndarray:
        """(dn, de, dist, bearing deg) -> scaled displacements + bearing circle."""
        br = np.radians(feat[..., 3])
        return np.stack([feat[..., 0] / GEO_SCALE_KM, feat[..., 1] / GEO_SCALE_KM,
                         feat[..., 2] / GEO_SCALE_KM, np.sin(br), np.cos(br)], axis=-1)

    def _series(self, cells: np.ndarray, day0: int, n_days: int) -> np.ndarray:
        """(cells, LAGS + 2, n_days) time channels of the given cells. The
        lags read day max(d, 0), so they repeat the field's first day only
        at its start."""
        days = np.maximum(np.arange(day0 - LAGS, day0 + n_days), 0)
        vals = self.values[np.ix_(days, cells)].T.astype(np.float64)
        logn = ((np.log1p(vals) - self.stats.precip_mean[cells, None])
                / self.stats.precip_std[cells, None])
        # missing days enter the network as neutral zeros; the loss side
        # drops them pairwise and corrected outputs stay NaN on those days
        logn = np.nan_to_num(logn, nan=0.0)
        series = np.empty((cells.size, LAGS + 2, n_days))
        for lag in range(LAGS + 1):
            series[:, lag] = logn[:, LAGS - lag:LAGS - lag + n_days]
        series[:, LAGS + 1] = vals[:, LAGS:] >= TAU_WET
        return series

    def batch(self, cells, day0: int, n_days: int) -> InputBatch:
        """Gather the inputs for the given target cells and day window: the
        series and static channels once per distinct cell of their patches,
        and where each patch node reads them."""
        check_window("batch", (day0, day0 + n_days), self.values.shape[0])
        cells = np.asarray(cells, dtype=np.intp)
        idx = self.node_idx[cells]        # (B, nodes)
        uniq, pos = np.unique(idx.ravel(), return_inverse=True)
        target_raw = self.values[day0:day0 + n_days, cells].T.astype(np.float64, order="C")
        return InputBatch(series=self._series(uniq, day0, n_days), static=self.static_ch[uniq],
                          node_pos=pos.reshape(idx.shape), node_mask=self.node_mask[cells],
                          node_geo=self.node_geo[cells], target_raw=target_raw, cells=cells)


# ---------------------------------------------------------------------------
# weights and forward passes
# ---------------------------------------------------------------------------

def _xavier(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_weights(config: EncoderConfig, n_channels: int, stats: NormalizationStats,
                 seed: int) -> dict[str, np.ndarray]:
    """Near-identity initialization: the head bias is
    transform.identity_raw, with knots spread over the observed
    precipitation range."""
    rng = np.random.default_rng(seed)
    d = config.model_dim
    k = config.kernel_size
    w = {
        "in_proj_w": _xavier(rng, (n_channels, d), n_channels, d),
        "in_proj_b": np.zeros(d),
        "conv1_w": _xavier(rng, (d, d, k), d * k, d * k),
        "conv1_b": np.zeros(d),
        "conv2_w": _xavier(rng, (d, d, k), d * k, d * k),
        "conv2_b": np.zeros(d),
        "attn_wq": _xavier(rng, (d, d), d, d),
        "attn_bq": np.zeros(d),
        "attn_wk": _xavier(rng, (d, d), d, d),
        "attn_bk": np.zeros(d),
        "attn_wv": _xavier(rng, (d, d), d, d),
        "attn_bv": np.zeros(d),
        "attn_wo": _xavier(rng, (d, d), d, d),
        "attn_bo": np.zeros(d),
        "pair_w1": _xavier(rng, (config.heads, 5, config.pair_hidden), 5, config.pair_hidden),
        "pair_b1": np.zeros((config.heads, config.pair_hidden)),
        "pair_w2": _xavier(rng, (config.heads, config.pair_hidden, 1), config.pair_hidden, 1),
        "pair_b2": np.zeros((config.heads, 1)),
        # the head starts almost flat so the constrained transform sits at
        # the bias vector below: training begins from "no correction"
        "head_w": 1e-2 * _xavier(rng, (d, transform.N_RAW), d, transform.N_RAW),
        "head_b": transform.identity_raw(stats.precip_q999),
    }
    return w


def _tap_window(K: int, T: int) -> np.ndarray:
    """(K, T): 1 where conv tap k reads day t + k - K//2 inside [0, T), 0 where
    it reads the zero padding."""
    day = np.arange(T) + np.arange(K)[:, None] - K // 2
    return ((day >= 0) & (day < T)).astype(np.float64)


def encode_cells(p: dict, series: np.ndarray, static: np.ndarray) -> Tensor:
    """Cell stage of the temporal encoder: the input projection of each
    cell's series and static channels, then conv1 with conv1_b. series is
    (C, LAGS + 2, T) and static (C, S); returns (C, model_dim, T), the part
    of conv1's pre-activation that belongs to the cell and not to a patch
    node. Cells are the stack axis of every product, so a cell's row does
    not depend on the other cells passed with it."""
    n_time = series.shape[1]
    n_static = static.shape[1]
    w = p["in_proj_w"]
    h = ad.add(ad.matmul(Tensor(series.transpose(0, 2, 1)), w[:n_time]),
               ad.matmul(Tensor(static[:, None, :]), w[n_time:n_time + n_static]))  # (C, T, D)
    return ad.conv1d(ad.transpose(h, (0, 2, 1)), p["conv1_w"], p["conv1_b"])


def temporal_encode(p: dict, cell_rows, batch: InputBatch) -> Tensor:
    """Node stage of the temporal encoder: from the cell stage's rows
    (``encode_cells``) to every patch node's embedding. Returns
    (B, nodes, model_dim, T), length preserved.

    The projection and conv1 are linear, so conv1's pre-activation splits
    into the cell part and a per-(target, node) part that is constant in
    time: the geometry channels and in_proj_b, projected and then multiplied
    by conv1's tap sums (partial sums on the first and last K//2 days, where
    taps read the zero padding). A masked slot is a copy of its target, so
    its embedding is the target's. Then softplus, conv2 and softplus per
    node. Nodes stay the stack axis of every product, so a node's embedding
    does not depend on the other nodes passed with it."""
    B, N = batch.node_pos.shape
    n_geo = batch.node_geo.shape[2]
    w = p["in_proj_w"]
    D, _, K = p["conv1_w"].shape
    h = ad.take(cell_rows, batch.node_pos.ravel(), axis=0)        # (B*N, D, T)
    T = h.shape[2]

    u = ad.linear(Tensor(batch.node_geo), w[-n_geo:], p["in_proj_b"])   # (B, N, D)
    taps = ad.reshape(ad.transpose(p["conv1_w"], (1, 0, 2)), (D, D * K))
    per_tap = ad.reshape(ad.matmul(u, taps), (B * N, D, K))
    h = ad.add(h, ad.matmul(per_tap, Tensor(_tap_window(K, T))))
    h = ad.softplus(h)
    h = ad.conv1d(h, p["conv2_w"], p["conv2_b"])   # frees conv2's input before the softplus
    h = ad.softplus(h)
    return ad.reshape(h, (B, N, D, T))


def spatial_attend(p: dict, emb: Tensor, node_geo: np.ndarray,
                   node_mask: np.ndarray, heads: int,
                   return_weights: bool = False):
    """Multi-head attention of the target node over its patch, independently
    at each time step. Only the target's query is computed (the single seed
    query of Set Transformer's pooling by multihead attention), since the
    coefficients are read off the target alone. Per head, a two-layer
    perceptron maps each target-to-node pair's geodesic features to a scalar
    added to the pre-softmax logit; masked keys get a logit of -1e30, so a
    weight of exactly 0.0 next to the finite logits of the others; the
    result is added to the target embedding.

    With one query, keys and values are never formed: per head h the logit
    of node n is emb_n . (W_k,h q_h), since q_h . b_k,h is the same for every
    node of a row and softmax cancels it, and the context is
    (sum_n att_n emb_n) W_v,h + b_v,h, since the weights sum to 1.

    emb is (B, T, nodes, D); node_geo (B, nodes, 5) holds the target-to-node
    features; node_mask (B, nodes) has the target node always valid. Returns
    (B, T, D), and with return_weights also the target row's weights
    (B, heads, T, nodes).
    Cells stay the stack axis of every product, so a cell's output does not
    depend on its batch-mates.
    """
    B, T, N, D = emb.shape
    if not node_mask[:, 0].all():
        raise InvariantError("target node must be unmasked in every patch")
    dh = D // heads
    hs = [slice(h * dh, (h + 1) * dh) for h in range(heads)]

    pf = Tensor(node_geo)                              # (B, nodes, 5)
    offs = []
    for h in range(heads):
        hid = ad.softplus(ad.linear(pf, p["pair_w1"][h], p["pair_b1"][h]))
        offs.append(ad.linear(hid, p["pair_w2"][h], p["pair_b2"][h]))
    off = ad.reshape(ad.transpose(ad.concat(offs, axis=2), (0, 2, 1)),
                     (B, 1, heads, N))

    target = emb[:, :, 0, :]                           # (B, T, D)
    nodes = ad.reshape(emb, (B * T, N, D))             # one (cell, day) per stack item
    q = ad.linear(target, p["attn_wq"], p["attn_bq"])
    wk = p["attn_wk"]
    qk = ad.concat([ad.reshape(ad.matmul(q[:, :, sl], ad.transpose(wk[:, sl], (1, 0))),
                               (B * T, 1, D)) for sl in hs], axis=1)
    logits = ad.mul(ad.matmul(qk, ad.transpose(nodes, (0, 2, 1))),
                    1.0 / np.sqrt(dh))                 # (B*T, heads, N)
    logits = ad.add(ad.reshape(logits, (B, T, heads, N)), off)
    if not node_mask.all():
        logits = ad.add(logits, Tensor(
            np.where(node_mask[:, None, None, :], 0.0, -1e30)))
    att = ad.softmax(logits)                           # (B, T, heads, N)
    pooled = ad.reshape(ad.matmul(ad.reshape(att, (B * T, heads, N)), nodes),
                        (B, T, heads, D))
    ctx = ad.concat([ad.linear(pooled[:, :, h, :], p["attn_wv"][:, sl], p["attn_bv"][sl])
                     for h, sl in enumerate(hs)], axis=2)   # (B, T, D)
    result = ad.add(target, ad.linear(ctx, p["attn_wo"], p["attn_bo"]))
    if return_weights:
        return result, att.data.transpose(0, 2, 1, 3)
    return result


def predict_theta(p: dict, attended: Tensor) -> Tensor:
    """Map the attended target embedding to the raw coefficient vector, one
    per day: (B, T, D) -> (B, T, N_RAW)."""
    return ad.linear(attended, p["head_w"], p["head_b"])


class BiasCorrector:
    """Bundles the encoder weights with the forward pass producing raw
    transform coefficients for each target cell and day of a batch."""

    def __init__(self, config: EncoderConfig, stats: NormalizationStats,
                 n_channels: int, seed: int = 0,
                 weights: dict[str, np.ndarray] | None = None):
        self.config = config
        self.n_channels = n_channels
        init = init_weights(config, n_channels, stats, seed)
        if weights is not None and ({k: v.shape for k, v in weights.items()}
                                    != {k: v.shape for k, v in init.items()}):
            raise InvariantError("weights do not match the encoder configuration")
        self.weights = init if weights is None else weights

    def wrap(self, requires_grad: bool) -> dict[str, Tensor]:
        return {k: Tensor(v, requires_grad=requires_grad)
                for k, v in self.weights.items()}

    def forward(self, params: dict[str, Tensor], batch: InputBatch) -> Tensor:
        return self.forward_nodes(params, encode_cells(params, batch.series, batch.static),
                                  batch)

    def forward_nodes(self, params: dict[str, Tensor], cell_rows,
                      batch: InputBatch) -> Tensor:
        """Raw coefficients (B, T, N_RAW) from the cell stage's rows of the
        batch's series: node stage, attention and head."""
        emb = ad.transpose(temporal_encode(params, cell_rows, batch),
                           (0, 3, 1, 2))                      # (B, T, N, D)
        att = spatial_attend(params, emb, batch.node_geo, batch.node_mask,
                             self.config.heads)
        return predict_theta(params, att)
