import warnings

import numpy as np
import pytest

from dclimba import autodiff as ad
from dclimba import transform
from dclimba.autodiff import Tensor
from dclimba.encoders import (LAGS, BiasCorrector, EncoderConfig, FeaturePack, InputBatch,
                              NormalizationStats, encode_cells, fit_normalization,
                              init_weights, predict_theta, spatial_attend,
                              temporal_encode)
from dclimba.errors import InvariantError
from dclimba.gridio import TAU_WET

LN2 = np.log(2.0)


def small_stats(n_cells=4):
    return NormalizationStats(precip_mean=np.zeros(n_cells),
                              precip_std=np.ones(n_cells),
                              attr_mean=np.zeros(4), attr_std=np.ones(4),
                              landcover_codes=(0, 1, 2, 3), precip_q999=30.0)


def wrapped(weights, requires_grad=False):
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in weights.items()}


class TestConfig:
    def test_even_kernel_rejected(self):
        with pytest.raises(InvariantError):
            EncoderConfig(kernel_size=4)

    def test_dim_head_divisibility(self):
        with pytest.raises(InvariantError):
            EncoderConfig(model_dim=65, heads=2)

    @pytest.mark.parametrize("field", ["heads", "model_dim", "kernel_size", "pair_hidden"])
    def test_non_positive_size_rejected(self, field):
        # heads = 0 used to escape as ZeroDivisionError from the divisibility check
        with pytest.raises(InvariantError):
            EncoderConfig(**{field: 0})

    def test_raw_width_is_26(self):
        assert transform.N_RAW == 26
        assert EncoderConfig().nodes == 17


class TestNormalization:
    def test_fit_and_channels(self, tiny_world, tiny_graph):
        _, ref, gcm, attrs = tiny_world
        stats = fit_normalization(gcm, attrs, (0, 730))
        sub = np.log1p(gcm.values[:730].reshape(730, -1).astype(np.float64))
        np.testing.assert_allclose(stats.precip_mean, sub.mean(axis=0), rtol=1e-12)
        assert (stats.precip_std >= 1e-6).all()

    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["+inf", "-inf"])
    def test_infinite_day_fits_like_a_missing_day(self, tiny_world, value):
        # the field holds NaN for it, so the statistics (and every channel
        # of the cell) are those of the NaN twin, with no RuntimeWarning
        from dclimba.gridio import GridField
        _, ref, gcm, attrs = tiny_world
        fields = []
        for fill in (value, np.nan):
            vals = gcm.values.copy()
            vals[100, 0, 0] = fill
            fields.append(GridField(gcm.start_date, gcm.lats, gcm.lons, vals))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = (fit_normalization(f, attrs, (0, 730)) for f in fields)
        for name, arr in want.as_arrays().items():
            assert np.isfinite(arr).all(), name
            assert got.as_arrays()[name].tobytes() == arr.tobytes(), name

    def test_sigma_floor_on_constant_cell(self):
        from dclimba.gridio import AttributeField, GridField
        vals = np.full((400, 1, 2), 2.0, dtype=np.float32)
        fld = GridField(0, [0.0], [0.0, 1.0], vals)
        attrs = AttributeField([0.0], [0.0, 1.0], np.zeros((1, 2)), np.zeros((1, 2)),
                               np.zeros((1, 2)), np.zeros((1, 2)))
        stats = fit_normalization(fld, attrs, (0, 400))
        np.testing.assert_array_equal(stats.precip_std, [1e-6, 1e-6])

    def test_lag_padding_repeats_first_value(self, tiny_world, tiny_graph):
        cfg, ref, gcm, attrs = tiny_world
        enc = EncoderConfig()
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, tiny_graph, stats, enc)
        batch = pack.batch(np.array([5]), 0, 10)
        day0 = batch.series[batch.node_pos[0, 0], :4, 0]  # x_t and three lags on day one
        assert day0[0] == day0[1] == day0[2] == day0[3]

    def test_grid_mismatch_rejected(self, tiny_world, tiny_graph):
        from dclimba.gridio import AttributeField
        _, ref, gcm, _ = tiny_world
        bad = AttributeField([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2)), np.zeros((2, 2)),
                             np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(InvariantError):
            FeaturePack(gcm, bad, tiny_graph, small_stats(16), EncoderConfig())

    def test_graph_of_another_grid_rejected(self, tiny_world, tiny_graph):
        import dataclasses
        _, ref, gcm, attrs = tiny_world
        graph = dataclasses.replace(tiny_graph, lats=tiny_graph.lats + 0.5)
        with pytest.raises(InvariantError):
            FeaturePack(gcm, attrs, graph, small_stats(16), EncoderConfig())

    def test_pack_memory_does_not_grow_with_the_field(self):
        # the pack reads the float32 field; what it owns is per cell, not per day
        from dclimba import gridio, synth

        def owned_bytes(years):
            cfg = synth.SynthConfig(height=8, width=8, years=years, seed=3)
            ref, attrs = synth.gen_reference(cfg)
            graph = gridio.select_neighbors(ref, 16, (0, 730))
            pack = FeaturePack(ref, attrs, graph, fit_normalization(ref, attrs, (0, 730)),
                               EncoderConfig())
            assert np.shares_memory(pack.values, ref.values)
            return sum(v.nbytes for v in vars(pack).values()
                       if isinstance(v, np.ndarray) and v.flags.owndata)

        assert owned_bytes(2) == owned_bytes(20) > 0

    def test_patch_nodes_and_target_geometry(self, tiny_world, tiny_graph):
        # an empty graph slot (index -1) holds the target itself; node_geo
        # is each node relative to its target, row 0 of the patch's pairwise
        # features
        import dataclasses
        from dclimba import gridio
        _, ref, gcm, attrs = tiny_world
        indices = tiny_graph.indices.copy()
        indices[3, 2:] = -1
        graph = dataclasses.replace(tiny_graph, indices=indices)
        pack = FeaturePack(gcm, attrs, graph, fit_normalization(gcm, attrs, (0, 730)),
                           EncoderConfig(neighbors=8))
        clat, clon = gridio.grid_cell_coords(gcm.lats, gcm.lons)
        for i in range(gcm.n_cells):
            nodes = [i] + [int(c) if m else i
                           for c, m in zip(graph.indices[i, :8], graph.mask[i, :8])]
            np.testing.assert_array_equal(pack.node_idx[i], nodes)
            np.testing.assert_array_equal(pack.node_mask[i], [True, *graph.mask[i, :8]])
            la, lo = clat[nodes], clon[nodes]
            full = gridio.geodesic_features_arrays(la[:, None], lo[:, None],
                                                   la[None, :], lo[None, :])
            np.testing.assert_array_equal(pack.node_geo[i], FeaturePack._encode_geo(full)[0])
        assert not pack.node_mask[3, 3:].any()
        batch = pack.batch(np.array([3, 0]), 5, 10)
        np.testing.assert_array_equal(batch.node_geo, pack.node_geo[[3, 0]])


def encode(params, batch):
    """Both stages of the temporal encoder, as BiasCorrector.forward runs them."""
    return temporal_encode(params, encode_cells(params, batch.series, batch.static), batch)


def node_batch(series, static, node_pos, node_geo):
    """An InputBatch for temporal_encode from explicit per-cell channels and
    patch positions, every node unmasked."""
    B = node_pos.shape[0]
    return InputBatch(series=series, static=static, node_pos=node_pos,
                      node_mask=np.ones(node_pos.shape, dtype=bool), node_geo=node_geo,
                      target_raw=np.zeros((B, series.shape[2])), cells=np.arange(B))


def random_node_batch(rng, node_pos, T, n_static=2):
    C = int(node_pos.max()) + 1
    return node_batch(rng.standard_normal((C, 5, T)), rng.standard_normal((C, n_static)),
                      node_pos, rng.standard_normal(node_pos.shape + (5,)))


class TestTemporalEncode:
    def test_length_and_width_preserved(self):
        enc = EncoderConfig()
        w = init_weights(enc, 12, small_stats(), seed=0)
        batch = random_node_batch(np.random.default_rng(0), np.array([[0, 1, 2]]), 365)
        out = encode(wrapped(w), batch)
        assert out.shape == (1, 3, 64, 365)

    def test_zero_weights_softplus_pattern(self):
        enc = EncoderConfig()
        w = init_weights(enc, 12, small_stats(), seed=0)
        for k in w:
            if k.startswith(("in_proj", "conv")):
                w[k] = np.zeros_like(w[k])
        batch = random_node_batch(np.random.default_rng(1), np.array([[0, 1]]), 20)
        out = encode(wrapped(w), batch)
        np.testing.assert_allclose(out.data, np.full((1, 2, 64, 20), LN2), rtol=1e-12)

    def test_identical_nodes_identical_embeddings(self):
        # two nodes with the same channels, read from different cell rows
        enc = EncoderConfig()
        w = init_weights(enc, 13, small_stats(), seed=2)
        rng = np.random.default_rng(3)
        series = np.repeat(rng.standard_normal((1, 5, 50)), 2, axis=0)
        static = np.repeat(rng.standard_normal((1, 3)), 2, axis=0)
        geo = np.repeat(rng.standard_normal((1, 1, 5)), 2, axis=1)
        batch = node_batch(series, static, np.array([[0, 1]]), geo)
        out = encode(wrapped(w), batch)
        np.testing.assert_array_equal(out.data[0, 0], out.data[0, 1])

    @pytest.mark.parametrize("kernel_size,T", [(3, 6), (5, 4)])
    @pytest.mark.parametrize("leaf", ["in_proj_w", "in_proj_b", "conv1_w", "conv1_b",
                                      "conv2_w"])
    def test_gradients_through_cell_rows_and_tap_sums(self, leaf, kernel_size, T):
        # cell rows 0 and 2 feed several nodes each (the gather scatter-adds
        # their gradients), and with K = 5 over four days every day sees the
        # zero padding
        enc = EncoderConfig(model_dim=4, heads=2, kernel_size=kernel_size)
        w = init_weights(enc, 12, small_stats(), seed=8)
        rng = np.random.default_rng(9)
        w["in_proj_b"] = rng.standard_normal(4)
        w["conv1_b"] = rng.standard_normal(4)
        pos = np.array([[0, 2, 0, 3], [2, 0, 1, 3]])
        batch = random_node_batch(rng, pos, T, n_static=2)
        cot = Tensor(rng.standard_normal((2, 4, 4, T)))

        def f(x):
            params = wrapped(w)
            params[leaf] = x
            return ad.sum_(ad.mul(encode(params, batch), cot))

        assert ad.grad_check(f, w[leaf]) < 1e-5


def reference_full_attention(w, emb, pair_feats, node_mask, heads):
    """The full N x N form of the attention block in plain numpy: every node
    queries every node, then the residual wraps all rows. Row 0 is the
    target's output, which spatial_attend computes alone."""
    B, T, N, D = emb.shape
    dh = D // heads

    def softplus(x):
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))

    off = np.stack([softplus(pair_feats @ w["pair_w1"][h] + w["pair_b1"][h])
                    @ w["pair_w2"][h] + w["pair_b2"][h] for h in range(heads)],
                   axis=1)[..., 0]                      # (B, heads, N, N)

    def split(x):                                       # (B, heads, T, N, dh)
        return x.reshape(B, T, N, heads, dh).transpose(0, 3, 1, 2, 4)

    q = split(emb @ w["attn_wq"] + w["attn_bq"])
    k = split(emb @ w["attn_wk"] + w["attn_bk"])
    v = split(emb @ w["attn_wv"] + w["attn_bv"])
    logits = q @ k.swapaxes(-1, -2) / np.sqrt(dh) + off[:, :, None]
    logits = logits + np.where(node_mask[:, None, None, None, :], 0.0, -1e30)
    att = np.exp(logits - logits.max(axis=-1, keepdims=True))
    att /= att.sum(axis=-1, keepdims=True)
    ctx = (att @ v).transpose(0, 2, 3, 1, 4).reshape(B, T, N, D)
    return emb + ctx @ w["attn_wo"] + w["attn_bo"], att


def softplus_np(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def conv_time_major(h, w, b):
    """(..., T, cin) -> (..., T, cout): the direct sum over taps of an odd,
    zero-padded, length-preserving convolution."""
    K = w.shape[2]
    p, T = K // 2, h.shape[-2]
    pad = np.zeros(h.shape[:-2] + (T + 2 * p, h.shape[-1]))
    pad[..., p:p + T, :] = h
    return sum(pad[..., k:k + T, :] @ w[:, :, k].T for k in range(K)) + b


def reference_series(gcm, stats, day0, T):
    """(cells, LAGS + 2, T) time channels of every cell over days
    [day0, day0 + T), built from the whole field the plain way: float64,
    log1p, z-score with the per-cell stats, NaN -> 0, lagged copies that
    repeat the field's day 0, and the wet flag."""
    vals = gcm.values.reshape(gcm.values.shape[0], -1).T.astype(np.float64)
    logn = np.nan_to_num((np.log1p(vals) - stats.precip_mean[:, None])
                         / stats.precip_std[:, None], nan=0.0, posinf=0.0, neginf=0.0)
    lags = [np.concatenate([np.repeat(logn[:, :1], lag, axis=1),
                            logn[:, :logn.shape[1] - lag]], axis=1) for lag in range(LAGS + 1)]
    chans = np.stack(lags + [(vals >= TAU_WET).astype(np.float64)], axis=1)
    return chans[:, :, day0:day0 + T]


def reference_temporal(w, pack, gcm, cells, day0, T):
    """The per-node temporal encoding in plain numpy, the oracle for the
    per-cell form: every patch node's full channel block (its cell's series
    from reference_series and its static channels, then its geometry; a
    masked node's are its target's), the input projection and both
    convolutions per node. Returns (B, nodes, T, D)."""
    idx = pack.node_idx[cells]
    B, N = idx.shape
    S = pack.static_ch.shape[1]
    ch = np.concatenate([
        reference_series(gcm, pack.stats, day0, T)[idx].transpose(0, 1, 3, 2),
        np.broadcast_to(pack.static_ch[idx][:, :, None], (B, N, T, S)),
        np.broadcast_to(pack.node_geo[cells][:, :, None], (B, N, T, 5))], axis=-1)
    h = ch @ w["in_proj_w"] + w["in_proj_b"]
    h = softplus_np(conv_time_major(h, w["conv1_w"], w["conv1_b"]))
    return softplus_np(conv_time_major(h, w["conv2_w"], w["conv2_b"]))


def reference_forward(w, pack, gcm, cells, day0, T, heads):
    """Per-node temporal encoding, attention with keys and values for every
    node, and the head: raw coefficients (B, T, N_RAW)."""
    emb = reference_temporal(w, pack, gcm, cells, day0, T).transpose(0, 2, 1, 3)
    geo = pack.node_geo[cells]
    B, N = geo.shape[:2]
    pair = np.broadcast_to(geo[:, None], (B, N, N, 5))  # row 0, the target's, is what is read
    full, _ = reference_full_attention(w, emb, pair, pack.node_mask[cells], heads)
    return full[:, :, 0, :] @ w["head_w"] + w["head_b"]


class TestForwardMatchesPerNodeOracle:
    @pytest.fixture(scope="class")
    def gappy(self, tiny_world, tiny_graph):
        # 5 % missing cell-days and 15 % of the graph slots empty
        import dataclasses
        from dclimba.gridio import GridField
        _, ref, gcm, attrs = tiny_world
        rng = np.random.default_rng(13)
        vals = gcm.values.copy()
        vals[rng.random(vals.shape) < 0.05] = np.nan
        indices = tiny_graph.indices.copy()
        indices[rng.random(indices.shape) < 0.15] = -1
        return (GridField(gcm.start_date, gcm.lats, gcm.lons, vals), attrs,
                dataclasses.replace(tiny_graph, indices=indices))

    @pytest.mark.parametrize("kernel_size", [3, 5])
    @pytest.mark.parametrize("T", [1, 2, 8])
    def test_matches_per_node_oracle(self, gappy, kernel_size, T):
        gcm, attrs, graph = gappy
        enc = EncoderConfig(kernel_size=kernel_size, neighbors=6)
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, graph, stats, enc)
        model = BiasCorrector(enc, stats, pack.n_channels, seed=3)
        rng = np.random.default_rng(14)
        # perturbed so that the coefficients are not flat across days and cells
        w = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in model.weights.items()}
        cells, day0 = np.array([5, 6, 9, 10, 0]), 96
        batch = pack.batch(cells, day0, T)
        assert batch.series.shape[0] < cells.size * enc.nodes  # cells repeat across patches
        assert not batch.node_mask.all()
        assert np.isnan(gcm.values[day0:day0 + 8].reshape(8, -1)[:, pack.node_idx[cells]]).any()

        emb = encode(wrapped(w), batch).data.transpose(0, 1, 3, 2)
        ref_emb = reference_temporal(w, pack, gcm, cells, day0, T)
        np.testing.assert_allclose(emb, ref_emb, rtol=0, atol=1e-12 * np.abs(ref_emb).max())
        raw = model.forward(wrapped(w), batch).data
        ref_raw = reference_forward(w, pack, gcm, cells, day0, T, enc.heads)
        np.testing.assert_allclose(raw, ref_raw, rtol=0, atol=1e-12 * np.abs(ref_raw).max())

    @pytest.mark.parametrize("kernel_size", [3, 5])
    def test_masked_slot_input_never_reaches_the_output(self, gappy, kernel_size):
        # a masked slot reads its target's row and geometry; any other row
        # and geometry give other embeddings but the same coefficients, bit
        # for bit: the attention mask alone keeps the slot out
        import dataclasses
        gcm, attrs, graph = gappy
        enc = EncoderConfig(kernel_size=kernel_size, neighbors=6)
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, graph, stats, enc)
        model = BiasCorrector(enc, stats, pack.n_channels, seed=3)
        rng = np.random.default_rng(15)
        w = wrapped({k: v + 0.3 * rng.standard_normal(v.shape)
                     for k, v in model.weights.items()})
        batch = pack.batch(np.arange(gcm.n_cells), 96, 40)
        masked = ~batch.node_mask
        assert masked.any()
        n_rows = batch.series.shape[0]
        moved = dataclasses.replace(
            batch,
            node_pos=np.where(masked, (batch.node_pos + rng.integers(1, n_rows, masked.shape))
                              % n_rows, batch.node_pos),
            node_geo=np.where(masked[..., None], rng.standard_normal(batch.node_geo.shape),
                              batch.node_geo))
        rows = encode_cells(w, batch.series, batch.static).data
        emb = temporal_encode(w, rows, batch).data
        emb_moved = temporal_encode(w, rows, moved).data
        assert (emb[masked] == emb[:, :1].repeat(enc.nodes, axis=1)[masked]).all()
        assert not (emb_moved[masked] == emb[masked]).all(axis=(1, 2)).any()
        want = model.forward_nodes(w, rows, batch).data
        assert model.forward_nodes(w, rows, moved).data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("day0", [0, 1, 2, 3, 4, "last"])
    def test_batch_channels_match_oracle_bits(self, gappy, day0):
        # channels built per batch equal the whole-field oracle's bit for bit,
        # lags at the field's start and a window ending on its last day included
        gcm, attrs, graph = gappy
        enc = EncoderConfig(neighbors=6)
        pack = FeaturePack(gcm, attrs, graph, fit_normalization(gcm, attrs, (0, 730)), enc)
        T = 40
        day0 = gcm.values.shape[0] - T if day0 == "last" else day0
        cells = np.array([5, 6, 9, 10, 0])
        batch = pack.batch(cells, day0, T)
        assert not batch.node_mask.all()
        assert np.isnan(gcm.values[day0:day0 + T].reshape(T, -1)[:, cells]).any()
        want = reference_series(gcm, pack.stats, day0, T)[pack.node_idx[cells]]
        assert batch.series[batch.node_pos].tobytes() == want.tobytes()
        raw = gcm.values[day0:day0 + T].reshape(T, -1)[:, cells].T.astype(np.float64)
        assert batch.target_raw.tobytes() == raw.tobytes()

    def test_batch_window_outside_the_field_rejected(self, gappy):
        gcm, attrs, graph = gappy
        pack = FeaturePack(gcm, attrs, graph, fit_normalization(gcm, attrs, (0, 730)),
                           EncoderConfig(neighbors=6))
        for day0, T in ((-1, 10), (gcm.values.shape[0] - 9, 10)):
            with pytest.raises(InvariantError):
                pack.batch(np.array([0]), day0, T)


class TestSpatialAttend:
    def _setup(self, B=2, T=6, N=5, seed=0, mask=None):
        enc = EncoderConfig(neighbors=N - 1)
        w = init_weights(enc, 6, small_stats(), seed=seed)
        rng = np.random.default_rng(seed + 1)
        emb = rng.standard_normal((B, T, N, enc.model_dim))
        pair = rng.standard_normal((B, N, N, 5))
        if mask is None:
            mask = np.ones((B, N), dtype=bool)
        return enc, w, emb, pair, mask

    def test_rows_sum_to_one(self):
        enc, w, emb, pair, mask = self._setup()
        mask[1, -1] = False
        out, att = spatial_attend(wrapped(w), Tensor(emb), pair[:, 0], mask, enc.heads,
                                  return_weights=True)
        assert out.shape == (2, 6, enc.model_dim)
        assert att.shape == (2, enc.heads, 6, 5)
        sums = att.sum(axis=-1)
        np.testing.assert_allclose(sums, np.ones_like(sums), rtol=1e-12)
        assert (att >= 0).all()
        assert np.abs(att[1, ..., ~mask[1]]).max() < 1e-12  # masked keys get no mass
        assert att[0, ..., -1].min() > 0  # the same slot unmasked in the other patch

    def test_uniform_when_symmetric(self):
        enc, w, emb, pair, mask = self._setup()
        for k in ("pair_w1", "pair_b1", "pair_w2", "pair_b2"):
            w[k] = np.zeros_like(w[k])
        emb[:] = emb[:, :, :1, :]  # identical embeddings across nodes
        _, att = spatial_attend(wrapped(w), Tensor(emb), pair[:, 0], mask, enc.heads,
                                return_weights=True)
        np.testing.assert_allclose(att, np.full_like(att, 1.0 / att.shape[-1]),
                                   rtol=1e-12)

    def test_permutation_equivariance_of_target_output(self):
        enc, w, emb, pair, mask = self._setup(B=1, T=4, N=5, seed=7)
        mask[0, -1] = False
        params = wrapped(w)
        base = spatial_attend(params, Tensor(emb), pair[:, 0], mask, enc.heads).data
        perm = np.array([0, 3, 1, 4, 2])  # keeps the target in slot 0
        emb_p = emb[:, :, perm, :]
        pair_p = pair[:, perm][:, :, perm]
        mask_p = mask[:, perm]
        out_p = spatial_attend(params, Tensor(emb_p), pair_p[:, 0], mask_p, enc.heads).data
        np.testing.assert_allclose(out_p, base, atol=1e-12)

    def test_masked_target_rejected(self):
        enc, w, emb, pair, mask = self._setup()
        mask[0, 0] = False
        with pytest.raises(InvariantError):
            spatial_attend(wrapped(w), Tensor(emb), pair[:, 0], mask, enc.heads)

    def test_matches_row_zero_of_full_attention(self):
        # T = 70 is not a multiple of the old 64-step time chunk
        enc, w, emb, pair, mask = self._setup(B=3, T=70, N=17, seed=11)
        rng = np.random.default_rng(12)
        for k in ("pair_w1", "pair_b1", "pair_w2", "pair_b2"):
            w[k] = rng.standard_normal(w[k].shape)
        mask[1, 6] = False
        full, full_att = reference_full_attention(w, emb, pair, mask, enc.heads)
        assert np.abs(full_att[1, ..., 6]).max() < 1e-12
        out, att = spatial_attend(wrapped(w), Tensor(emb), pair[:, 0], mask, enc.heads,
                                  return_weights=True)
        np.testing.assert_allclose(out.data, full[:, :, 0, :], rtol=0, atol=1e-12)
        np.testing.assert_allclose(att, full_att[:, :, :, 0, :], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("leaf", ["emb", "attn_wq", "attn_wk", "attn_wv",
                                      "attn_wo", "pair_w1", "pair_w2", "head_w",
                                      "attn_bq", "attn_bv"])
    def test_gradients_through_attention_and_head(self, leaf):
        enc = EncoderConfig(model_dim=4, heads=2, neighbors=2, pair_hidden=3)
        w = init_weights(enc, 6, small_stats(), seed=5)
        rng = np.random.default_rng(6)
        w["head_w"] = 0.3 * rng.standard_normal(w["head_w"].shape)
        emb = rng.standard_normal((2, 3, 3, 4))
        pair = rng.standard_normal((2, 3, 3, 5))
        mask = np.array([[True, True, True], [True, False, True]])
        cot = Tensor(rng.standard_normal((2, 3, transform.N_RAW)))

        def f(x):
            params = wrapped(w)
            if leaf == "emb":
                e = x
            else:
                params[leaf] = x
                e = Tensor(emb)
            att = spatial_attend(params, e, pair[:, 0], mask, enc.heads)
            return ad.sum_(ad.mul(predict_theta(params, att), cot))

        x0 = emb if leaf == "emb" else w[leaf]
        assert ad.grad_check(f, x0) < 1e-5


class TestPredictTheta:
    def test_width(self):
        enc = EncoderConfig()
        w = init_weights(enc, 6, small_stats(), seed=0)
        rng = np.random.default_rng(0)
        att = Tensor(rng.standard_normal((2, 9, 64)))
        out = predict_theta(wrapped(w), att)
        assert out.shape == (2, 9, 26)

    def test_zero_head_weights_constant_theta(self):
        enc = EncoderConfig()
        w = init_weights(enc, 6, small_stats(), seed=0)
        w["head_w"] = np.zeros_like(w["head_w"])
        r = w["head_b"]
        att = Tensor(np.random.default_rng(1).standard_normal((2, 5, 64)))
        raw = predict_theta(wrapped(w), att)
        np.testing.assert_allclose(raw.data, np.broadcast_to(r, (2, 5, 26)), atol=1e-15)
        p = transform.constrain(raw)
        np.testing.assert_allclose(p.alpha.data, np.ones((2, 5, 1)), rtol=1e-12)


class TestFullModel:
    def _tiny(self, tiny_world, tiny_graph, neighbors=2, T=8):
        cfg, ref, gcm, attrs = tiny_world
        enc = EncoderConfig(neighbors=neighbors)
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, tiny_graph, stats, enc)
        model = BiasCorrector(enc, stats, pack.n_channels, seed=1)
        batch = pack.batch(np.array([5]), 3, T)
        return model, batch

    def test_weights_of_another_configuration_rejected(self):
        w = init_weights(EncoderConfig(), 6, small_stats(), seed=0)
        with pytest.raises(InvariantError):
            BiasCorrector(EncoderConfig(pair_hidden=8), small_stats(), 6, weights=w)
        del w["attn_wq"]
        with pytest.raises(InvariantError):
            BiasCorrector(EncoderConfig(), small_stats(), 6, weights=w)

    def test_shape_contract(self, tiny_world, tiny_graph):
        cfg, ref, gcm, attrs = tiny_world
        enc = EncoderConfig()
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, tiny_graph, stats, enc)
        model = BiasCorrector(enc, stats, pack.n_channels, seed=0)
        batch = pack.batch(np.arange(5), 0, 365)
        assert batch.node_pos.shape == (5, 17)
        assert batch.series.shape[2] == 365
        raw = model.forward(model.wrap(False), batch)
        assert raw.shape == (5, 365, 26)

    def test_determinism_same_seed(self, tiny_world, tiny_graph):
        model1, batch = self._tiny(tiny_world, tiny_graph)
        model2, _ = self._tiny(tiny_world, tiny_graph)
        r1 = model1.forward(model1.wrap(False), batch).data
        r2 = model2.forward(model2.wrap(False), batch).data
        np.testing.assert_array_equal(r1.view(np.uint64), r2.view(np.uint64))

    def test_near_identity_start(self, tiny_world, tiny_graph):
        model, batch = self._tiny(tiny_world, tiny_graph, T=30)
        theta = transform.constrain(model.forward(model.wrap(False), batch))
        assert np.abs(theta.alpha.data - 1.0).max() < 0.1
        assert np.abs(theta.w.data - 0.05).max() < 0.02

    def test_cell_theta_independent_of_batch_mates(self, tiny_world, tiny_graph):
        # training batches hold a few cells and correct_field one target at
        # a time; a cell's coefficients must not depend on which cells share
        # its batch, down to the last bit
        cfg, ref, gcm, attrs = tiny_world
        enc = EncoderConfig()
        stats = fit_normalization(gcm, attrs, (0, 730))
        pack = FeaturePack(gcm, attrs, tiny_graph, stats, enc)
        model = BiasCorrector(enc, stats, pack.n_channels, seed=4)
        params = model.wrap(False)
        cell, T = 5, 365

        def theta(cells):
            cells = np.asarray(cells)
            raw = model.forward(params, pack.batch(cells, 0, T)).data
            return raw[int(np.flatnonzero(cells == cell)[0])]

        alone = theta([cell])
        for cells in ([1, 3, 4, 5, 8, 11, 14], np.arange(pack.n_cells)):
            np.testing.assert_array_equal(theta(cells).view(np.uint64),
                                          alone.view(np.uint64))

    def test_sampled_gradients_match_fd(self, tiny_world, tiny_graph):
        model, batch = self._tiny(tiny_world, tiny_graph, T=8)
        rng = np.random.default_rng(0)
        cot = rng.standard_normal((1, 8, 26))
        base = model.forward(model.wrap(False), batch).data.copy()

        def loss_value():
            # centered on the unperturbed output so finite differences stay
            # well conditioned; the constant shift leaves gradients unchanged
            raw = model.forward(model.wrap(False), batch)
            return float(((raw.data - base) * cot).sum())

        with ad.tape_scope():
            params = model.wrap(True)
            raw = model.forward(params, batch)
            ad.backward(ad.sum_(ad.mul(ad.sub(raw, Tensor(base)), Tensor(cot))))
            grads = {k: t.grad for k, t in params.items()}

        h = 1e-5
        checked = 0
        for name in sorted(model.weights):
            flat = model.weights[name].ravel()
            g = np.zeros(1) if grads[name] is None else grads[name].ravel()
            for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                fp = loss_value()
                flat[idx] = orig - h
                fm = loss_value()
                flat[idx] = orig
                num = (fp - fm) / (2 * h)
                an = g[idx] if g.size > idx else 0.0
                # absolute escape hatch for structurally zero gradients
                # (e.g. key bias under softmax), where FD noise dominates
                ok = (abs(an - num) < 1e-8 or
                      abs(an - num) / max(abs(an), abs(num), 1e-12) < 1e-5)
                assert ok, f"{name}[{idx}]: analytic {an}, numeric {num}"
                checked += 1
        assert checked >= 40
