"""Adam training of the encoder/transform stack against the composite loss,
inference over a whole field, checkpointing, validation scoring, and the
loss-history screening rule.

Each optimizer step samples a batch of target cells plus one 365-day window
start inside the training window; all losses see only those windows.
Normalization statistics and the neighbor graph are fitted strictly inside
the training window.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import _kernels
from . import autodiff as ad
from . import losses as losses_mod
from . import metrics
from . import transform
from .autodiff import Tensor
from .encoders import (BiasCorrector, EncoderConfig, FeaturePack,
                       NormalizationStats, encode_cells, fit_normalization)
from .errors import FormatError, InvariantError, LengthError, NumericalError
from .gridio import AttributeField, GridField, NeighborGraph

DCKP_MAGIC = b"DCKP"
DCKP_VERSION = 1

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
SMOOTHING_WINDOW = 5  # epochs in the screening rule's moving average

# settings that older checkpoints carry in their JSON blob and that are now
# constants (or were never read): load_checkpoint drops them
RETIRED_CONFIG_KEYS = ("hidden_width", "lags", "n_basis", "n_levels", "p1", "p2",
                       "p3", "beta1", "beta2", "adam_eps")


@dataclass(frozen=True)
class TrainConfig:
    train_window: tuple[int, int]
    val_window: tuple[int, int]
    lr: float = 1e-4
    batch_size: int = 5
    seq_len: int = 365
    epochs: int = 100
    q_star: float | None = None
    seed: int = 0
    steps_per_epoch: int | None = None
    train_region: tuple | None = None   # flat cell indices; None = whole grid
    val_region: tuple | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvariantError("batch size must be at least 1")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise InvariantError(f"learning rate must be finite and not negative: {self.lr}")
        if self.epochs < 0:
            raise InvariantError("epochs must not be negative")
        if self.seq_len < 1:
            raise InvariantError("sequence length must be at least 1")
        t0, t1 = self.train_window
        v0, v1 = self.val_window
        if t1 - t0 < self.seq_len:
            raise InvariantError("training window shorter than the sequence length")
        windows_overlap = not (t1 <= v0 or v1 <= t0)
        if windows_overlap and not self._regions_disjoint():
            raise InvariantError(
                "train and validation windows overlap; either separate the "
                "windows or hold out disjoint cell regions")

    def _regions_disjoint(self) -> bool:
        if self.train_region is None or self.val_region is None:
            return False
        a = np.asarray(self.train_region)
        b = np.asarray(self.val_region)
        return np.intersect1d(a, b).size == 0

    def loss_weights(self) -> losses_mod.LossWeights:
        return losses_mod.LossWeights(q_star=self.q_star)


@dataclass
class Checkpoint:
    weights: dict
    stats: NormalizationStats
    encoder_config: EncoderConfig
    train_config: TrainConfig
    epoch: int
    loss_history: np.ndarray  # rows of (epoch, Q, R, S, L)
    graph: NeighborGraph


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0


def adam_init(params: dict) -> AdamState:
    return AdamState(m={k: np.zeros_like(v) for k, v in params.items()},
                     v={k: np.zeros_like(v) for k, v in params.items()},
                     t=0)


def adam_step(params: dict, grads: dict, state: AdamState,
              lr: float) -> tuple[dict, AdamState]:
    """Bias-corrected first/second-moment update, in place."""
    state.t += 1
    t = state.t
    for k, p in params.items():
        g = grads[k]
        state.m[k] = ADAM_BETA1 * state.m[k] + (1.0 - ADAM_BETA1) * g
        state.v[k] = ADAM_BETA2 * state.v[k] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[k] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[k] / (1.0 - ADAM_BETA2 ** t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return params, state


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _check_aligned(ref: GridField, gcm: GridField) -> None:
    if ref.values.shape != gcm.values.shape:
        raise InvariantError("reference and model fields must share a shape")
    if not (np.array_equal(ref.lats, gcm.lats) and np.array_equal(ref.lons, gcm.lons)):
        raise InvariantError("reference and model fields must share a grid")
    if ref.start_date != gcm.start_date:
        raise InvariantError("reference and model fields must share a start date")


def batch_loss(model: BiasCorrector, params: dict, batch, ref_rows: np.ndarray,
               weights: losses_mod.LossWeights):
    """Forward pass and composite loss for one batch of target cells.

    The spatial term treats the batch's corrected target cells as the node
    vector at each time step; neighbor nodes provide context only and
    receive no loss."""
    raw = model.forward(params, batch)
    theta = transform.constrain(raw)
    finite = np.isfinite(batch.target_raw)
    # gap days enter the map as 0 and are dropped below: a NaN there would
    # turn their zero gradient into NaN partials of every weight
    corrected = transform.apply(theta, Tensor(np.where(finite, batch.target_raw, 0.0)))
    valid = finite.all(axis=0) & np.isfinite(ref_rows).all(axis=0)
    y = ref_rows
    if not valid.all():
        if valid.sum() < 30:
            raise InvariantError("fewer than 30 jointly valid days in batch window")
        corrected = ad.take(corrected, np.where(valid)[0], axis=-1)
        y = ref_rows[:, valid]
    Q = losses_mod.quantile_loss(corrected, y, weights)
    R = losses_mod.rainy_day_loss(corrected, y)
    S = losses_mod.spatial_corr_loss(ad.reshape(corrected, (1,) + corrected.shape), y[None])
    return losses_mod.composite_loss(Q, R, S)


def train(ref: GridField, gcm: GridField, attrs: AttributeField,
          graph: NeighborGraph, config: TrainConfig,
          encoder_config: EncoderConfig | None = None,
          log_path=None, verbose: bool = False) -> Checkpoint:
    """Full optimization run; reproducible from config.seed."""
    _kernels.tune_allocator()
    _check_aligned(ref, gcm)
    enc = encoder_config or EncoderConfig()
    t0, t1 = config.train_window
    if t0 < 0 or t1 > gcm.values.shape[0]:
        raise InvariantError("training window outside the field")
    stats = fit_normalization(gcm, attrs, config.train_window)
    pack = FeaturePack(gcm, attrs, graph, stats, enc)
    model = BiasCorrector(enc, stats, pack.n_channels, seed=config.seed)
    state = adam_init(model.weights)
    weights = config.loss_weights()

    N = gcm.n_cells
    pool = (np.arange(N) if config.train_region is None
            else np.asarray(config.train_region, dtype=np.intp))
    steps = config.steps_per_epoch or math.ceil(pool.size / config.batch_size)
    rng = np.random.default_rng([config.seed, 0x5EED])
    ref_days = ref.values.reshape(ref.values.shape[0], N)   # float32 (T, N), a view

    history = np.zeros((config.epochs, 5))
    log_rows = []
    # one BLAS thread: the kernels split their own work over the CPUs, and
    # OpenBLAS's threads next to theirs slow both down. A diverging run
    # overflows; the NumericalError on the loss reports it, not numpy
    with _kernels.one_blas_thread(), np.errstate(over="ignore", invalid="ignore",
                                                 divide="ignore"):
        for epoch in range(config.epochs):
            comps = np.zeros(4)
            for step in range(steps):
                cells = rng.choice(pool, size=min(config.batch_size, pool.size),
                                   replace=False)
                day0 = int(rng.integers(t0, t1 - config.seq_len + 1))
                batch = pack.batch(cells, day0, config.seq_len)
                y = ref_days[day0:day0 + config.seq_len, cells].T.astype(np.float64)
                with ad.tape_scope():
                    params = {k: Tensor(v, requires_grad=True)
                              for k, v in model.weights.items()}
                    L, rep = batch_loss(model, params, batch, y, weights)
                    if not np.isfinite(rep.L):
                        raise NumericalError(
                            f"non-finite loss at epoch {epoch} step {step}, "
                            f"cells {cells.tolist()}, day0 {day0}")
                    ad.backward(L)
                    grads = {k: (params[k].grad if params[k].grad is not None
                                 else np.zeros_like(model.weights[k]))
                             for k in model.weights}
                adam_step(model.weights, grads, state, config.lr)
                comps += (rep.Q, rep.R, rep.S, rep.L)
            comps /= steps
            history[epoch] = (epoch, *comps)
            log_rows.append(",".join([str(epoch)] + [repr(float(c)) for c in comps]))
            if verbose:
                print(f"epoch {epoch}: Q={comps[0]:.5f} R={comps[1]:.5f} "
                      f"S={comps[2]:.5f} L={comps[3]:.5f}", flush=True)
    if log_path is not None:
        with open(log_path, "w") as f:
            f.write("epoch,Q,R,S,L\n")
            f.write("\n".join(log_rows) + ("\n" if log_rows else ""))
    return Checkpoint(weights=model.weights, stats=stats, encoder_config=enc,
                      train_config=config, epoch=config.epochs,
                      loss_history=history, graph=graph)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

# float64 elements of cell-stage rows (cells x model_dim x days) that
# correct_field holds at once: 64 MB, so a 16x16 field over one year is one
# block, and memory stays bounded for any number of cells
CELL_ROW_BUDGET = 8_000_000

# float64 elements of one node-stage array (targets x nodes x model_dim x
# days) in correct_field: 4 MB, an L2 cache's size, so a group of targets'
# gather, softplus and conv2 run in cache. It sets the group from the window:
# one target over a year at the defaults, fifteen over 30 days
NODE_ARRAY_BUDGET = 500_000


def _target_blocks(pack: FeaturePack, max_rows: int) -> list[np.ndarray]:
    """Consecutive runs of target cells whose patches read at most max_rows
    distinct cell rows, the all-zero row of masked slots included; a block
    holds at least one target. A masked slot holds its target's own cell."""
    blocks, lo, rows, masked = [], 0, set(), False
    for cell in range(pack.n_cells):
        nodes = set(pack.node_idx[cell].tolist())
        cell_masked = not pack.node_mask[cell].all()
        if cell > lo and len(rows | nodes) + (masked or cell_masked) > max_rows:
            blocks.append(np.arange(lo, cell))
            lo, rows, masked = cell, set(), False
        rows |= nodes
        masked = masked or cell_masked
    blocks.append(np.arange(lo, pack.n_cells))
    return blocks


def correct_field(ckpt: Checkpoint, gcm: GridField, attrs: AttributeField,
                  window: tuple[int, int] | None = None) -> GridField:
    """Bias-correct a model field with a trained checkpoint. Missing input
    days stay missing; valid outputs are clamped at zero.

    Targets go in blocks of consecutive cells whose patches fit
    CELL_ROW_BUDGET. A block's cell stage runs once per distinct cell; the
    node stage, attention and head then run on groups of targets whose node
    arrays fit NODE_ARRAY_BUDGET, and the cell stage on slices of a group's
    row count. Slices and groups run on a thread per available CPU, as many
    at once as have node arrays within CELL_ROW_BUDGET. Cells and nodes are
    the stack axis of every product, so the output does not depend on the
    blocks, groups, slices or threads."""
    _kernels.tune_allocator()
    enc = ckpt.encoder_config
    window = window or (0, gcm.values.shape[0])
    t0, t1 = window
    Tw = t1 - t0
    if Tw < 1 or t0 < 0 or t1 > gcm.values.shape[0]:
        raise InvariantError("correction window outside the field")
    pack = FeaturePack(gcm, attrs, ckpt.graph, ckpt.stats, enc)
    model = BiasCorrector(enc, ckpt.stats, pack.n_channels, weights=ckpt.weights)
    params = model.wrap(requires_grad=False)
    out = np.full((Tw, gcm.n_cells), np.nan)
    group = max(1, NODE_ARRAY_BUDGET // (enc.nodes * enc.model_dim * Tw))
    node_array = group * enc.nodes * enc.model_dim * Tw
    threads = min(_kernels.cpu_count(), max(1, CELL_ROW_BUDGET // node_array))
    for cells in _target_blocks(pack, max(1, CELL_ROW_BUDGET // (enc.model_dim * Tw))):
        batch = pack.batch(cells, t0, Tw)
        rows = np.empty((batch.series.shape[0], enc.model_dim, Tw))
        step = group * enc.nodes

        def cell_slice(i):
            sl = slice(i * step, (i + 1) * step)
            rows[sl] = encode_cells(params, batch.series[sl], batch.static[sl]).data

        def target_group(i):
            some = batch.targets(slice(i * group, (i + 1) * group))
            theta = transform.constrain(model.forward_nodes(params, rows, some))
            out[:, some.cells] = transform.apply(theta, Tensor(some.target_raw)).data.T

        _kernels.run_shared(-(-rows.shape[0] // step), cell_slice, threads)
        _kernels.run_shared(-(-len(cells) // group), target_group, threads)
    out = np.where(np.isfinite(out), transform.clamp_output(out), out)
    H, W = gcm.values.shape[1:]
    return GridField(start_date=gcm.start_date + t0, lats=gcm.lats, lons=gcm.lons,
                     values=out.reshape(Tw, H, W).astype(np.float32))


def composite_score_from_fields(sim: GridField, ref: GridField,
                                sim_window: tuple[int, int],
                                ref_window: tuple[int, int],
                                base_window: tuple[int, int],
                                region=None) -> float:
    """Mean over indices of the spatial mean absolute percentage bias of a
    simulated field against the reference; percentile thresholds come from
    the reference over the base window."""
    if sim.values.shape[1:] != ref.values.shape[1:]:
        raise InvariantError("simulated and reference grids do not match")
    thresholds = metrics.wet_day_thresholds(ref, base_window)
    sim_idx = metrics.etccdi_all_cells(sim, sim_window, thresholds)
    ref_idx = metrics.etccdi_all_cells(ref, ref_window, thresholds)
    cells = (np.arange(ref.n_cells) if region is None
             else np.asarray(region, dtype=np.intp))
    _, score = metrics.index_percentage_bias(sim_idx, ref_idx, cells)
    if score is None:
        raise InvariantError("no index produced a defined percentage bias")
    return score


def validate_composite_score(ckpt: Checkpoint, ref: GridField, gcm: GridField,
                             attrs: AttributeField,
                             window: tuple[int, int] | None = None,
                             region=None,
                             base_window: tuple[int, int] | None = None) -> float:
    """Composite score of the checkpoint-corrected model field on the
    validation window/region."""
    _check_aligned(ref, gcm)
    cfg = ckpt.train_config
    window = window or cfg.val_window
    base_window = base_window or cfg.train_window
    if region is None:
        region = cfg.val_region
    corrected = correct_field(ckpt, gcm, attrs, window=window)
    t0, t1 = window
    return composite_score_from_fields(corrected, ref, (0, t1 - t0), window,
                                       base_window, region)


def monotone_after_smoothing(q_series: np.ndarray) -> bool:
    """Screening rule: the SMOOTHING_WINDOW-epoch moving average of the
    quantile loss must be non-increasing across epochs."""
    q = np.asarray(q_series, dtype=np.float64)
    if q.size <= SMOOTHING_WINDOW:
        sm = np.array([q.mean()])
    else:
        kernel = np.ones(SMOOTHING_WINDOW) / SMOOTHING_WINDOW
        sm = np.convolve(q, kernel, mode="valid")
    return bool(np.all(np.diff(sm) <= 0.0))


# ---------------------------------------------------------------------------
# checkpoint container (DCKP)
# ---------------------------------------------------------------------------

def _config_json(ckpt: Checkpoint) -> str:
    enc = asdict(ckpt.encoder_config)
    tc = asdict(ckpt.train_config)
    for key in ("train_region", "val_region"):
        if tc[key] is not None:
            tc[key] = [int(c) for c in tc[key]]
    tc["train_window"] = list(tc["train_window"])
    tc["val_window"] = list(tc["val_window"])
    return json.dumps({"encoder": enc, "train": tc, "epoch": ckpt.epoch,
                       "graph_k": ckpt.graph.k}, sort_keys=True)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Single-file checkpoint: magic, version, a JSON config blob, then a
    length-prefixed list of named float64 arrays."""
    arrays: dict[str, np.ndarray] = {}
    arrays.update({f"w::{k}": v for k, v in ckpt.weights.items()})
    arrays.update(ckpt.stats.as_arrays())
    arrays["loss_history"] = ckpt.loss_history
    arrays["graph_indices"] = ckpt.graph.indices.astype(np.float64)
    arrays["graph_features"] = ckpt.graph.features.reshape(
        ckpt.graph.features.shape[0], -1)
    arrays["graph_mask"] = ckpt.graph.mask.astype(np.float64)
    arrays["graph_lats"] = ckpt.graph.lats
    arrays["graph_lons"] = ckpt.graph.lons
    blob = _config_json(ckpt).encode("utf-8")
    with open(path, "wb") as f:
        f.write(DCKP_MAGIC)
        f.write(struct.pack("<I", DCKP_VERSION))
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype=np.float64)
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            f.write(arr.astype("<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        buf = f.read()
    pos = 0

    def take(n: int) -> bytes:
        # running past the end is a LengthError, never a struct or numpy error
        nonlocal pos
        if n > len(buf) - pos:
            raise LengthError(f"{path}: truncated checkpoint")
        pos += n
        return buf[pos - n:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(4) != DCKP_MAGIC:
        raise FormatError(f"{path}: not a checkpoint file")
    (version,) = unpack("<I")
    if version != DCKP_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (blob_len,) = unpack("<Q")
    blob = take(blob_len)
    (n_arrays,) = unpack("<I")
    arrays = {}
    for _ in range(n_arrays):
        (name_len,) = unpack("<I")
        name = take(name_len)
        (ndim,) = unpack("<I")
        shape = unpack(f"<{ndim}Q")
        data = np.frombuffer(take(8 * math.prod(shape)), dtype="<f8")
        try:
            arrays[name] = data.reshape(shape).copy()
        except ValueError as exc:   # an empty shape no array can take, or ndim > 64
            raise FormatError(f"{path}: malformed array shape {shape}") from exc
    if pos != len(buf):
        raise LengthError(f"{path}: trailing bytes after the last array")
    try:
        # ValueError covers malformed UTF-8 and JSON as well
        meta = json.loads(blob.decode("utf-8"))
        arrays = {name.decode("utf-8"): arr for name, arr in arrays.items()}
        enc_meta = dict(meta["encoder"])
        tc = dict(meta["train"])
        for key in RETIRED_CONFIG_KEYS:
            enc_meta.pop(key, None)
            tc.pop(key, None)
        enc = EncoderConfig(**enc_meta)
        tc["train_window"] = tuple(tc["train_window"])
        tc["val_window"] = tuple(tc["val_window"])
        for key in ("train_region", "val_region"):
            if tc[key] is not None:
                tc[key] = tuple(tc[key])
        train_config = TrainConfig(**tc)
        stats = NormalizationStats.from_arrays(arrays)
        k = int(meta["graph_k"])
        n_cells = arrays["graph_indices"].shape[0]
        graph = NeighborGraph(
            lats=arrays["graph_lats"], lons=arrays["graph_lons"], k=k,
            indices=arrays["graph_indices"].astype(np.int32),
            features=arrays["graph_features"].reshape(n_cells, k, 4),
            mask=arrays["graph_mask"].astype(bool))
        weights = {name[3:]: arr for name, arr in arrays.items()
                   if name.startswith("w::")}
        return Checkpoint(weights=weights, stats=stats, encoder_config=enc,
                          train_config=train_config, epoch=int(meta["epoch"]),
                          loss_history=arrays["loss_history"], graph=graph)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed checkpoint: {exc!r}") from exc
