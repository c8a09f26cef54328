import dataclasses
import hashlib
import itertools
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dclimba import autodiff as ad
from dclimba import _kernels, training, transform
from dclimba.autodiff import Tensor
from dclimba.encoders import (BiasCorrector, EncoderConfig, FeaturePack,
                              fit_normalization)
from dclimba.errors import DataError, InvariantError, NumericalError
from dclimba.gridio import GridField, cell_days
from dclimba.training import (Checkpoint, TrainConfig, adam_init, adam_step,
                              composite_score_from_fields, correct_field,
                              load_checkpoint, monotone_after_smoothing,
                              save_checkpoint, train)


class TestAdam:
    def test_single_step_hand_example(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.array([2.0])}, state, lr=0.1)
        # m_hat=2, v_hat=4 -> update = 0.1 * 2 / (2 + 1e-8)
        assert abs(params["w"][0] - 0.9) < 1e-8
        assert state.t == 1

    def test_zero_gradient_keeps_params(self):
        params = {"w": np.array([1.0, -2.0])}
        state = adam_init(params)
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0])
        assert state.t == 1

    def test_converges_on_quadratic(self):
        params = {"w": np.array([1.0])}
        state = adam_init(params)
        for _ in range(200):
            adam_step(params, {"w": 2.0 * params["w"]}, state, lr=0.1)
        assert abs(params["w"][0]) < 0.05


class TestTrainConfig:
    def test_overlapping_windows_rejected(self):
        with pytest.raises(InvariantError):
            TrainConfig(train_window=(0, 730), val_window=(500, 1000))

    def test_overlap_allowed_with_disjoint_regions(self):
        cfg = TrainConfig(train_window=(0, 730), val_window=(0, 730),
                          train_region=(0, 1, 2), val_region=(3, 4))
        assert cfg.train_window == (0, 730)

    def test_bad_batch(self):
        with pytest.raises(InvariantError):
            TrainConfig(train_window=(0, 730), val_window=(730, 1095), batch_size=0)

    def test_window_shorter_than_sequence(self):
        with pytest.raises(InvariantError):
            TrainConfig(train_window=(0, 100), val_window=(730, 1095))


@pytest.fixture(scope="module")
def tiny_run(tiny_world, tiny_graph):
    _, ref, gcm, attrs = tiny_world
    cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                      epochs=2, seq_len=180, seed=0, steps_per_epoch=2)
    enc = EncoderConfig(neighbors=8)
    ckpt = train(ref, gcm, attrs, tiny_graph, cfg, enc)
    return ckpt, ref, gcm, attrs


class TestTrainLoop:
    def test_loss_history_shape_and_finite(self, tiny_run):
        ckpt, *_ = tiny_run
        assert ckpt.loss_history.shape == (2, 5)
        assert np.isfinite(ckpt.loss_history).all()

    def test_determinism_same_seed(self, tiny_world, tiny_graph):
        _, ref, gcm, attrs = tiny_world
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=1, seq_len=120, seed=9, steps_per_epoch=2)
        enc = EncoderConfig(neighbors=4)
        h1 = train(ref, gcm, attrs, tiny_graph, cfg, enc).loss_history
        h2 = train(ref, gcm, attrs, tiny_graph, cfg, enc).loss_history
        np.testing.assert_array_equal(h1.view(np.uint64), h2.view(np.uint64))

    def test_identity_bias_starts_near_zero_and_stays_bounded(self, tiny_world,
                                                              tiny_graph):
        _, ref, _, attrs = tiny_world
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=2, seq_len=180, seed=1, steps_per_epoch=2)
        enc = EncoderConfig(neighbors=4)
        ckpt = train(ref, ref, attrs, tiny_graph, cfg, enc)  # gcm == ref
        assert ckpt.loss_history[0, 4] < 1.0     # near-identity start
        assert ckpt.loss_history[:, 4].max() < 3.0

    def test_no_training_window_leakage(self, tiny_run):
        ckpt, ref, gcm, attrs = tiny_run
        recomputed = fit_normalization(gcm, attrs, ckpt.train_config.train_window)
        np.testing.assert_array_equal(ckpt.stats.precip_mean, recomputed.precip_mean)
        np.testing.assert_array_equal(ckpt.stats.precip_std, recomputed.precip_std)

    def test_gappy_model_field_trains(self, tiny_world, tiny_graph):
        # gap days of the model field used to give every weight a NaN
        # gradient, so the second step raised NumericalError
        _, ref, gcm, attrs = tiny_world
        vals = gcm.values.copy()
        vals[np.random.default_rng(21).random(vals.shape) < 0.01] = np.nan
        gappy = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=2, seq_len=120, seed=4, steps_per_epoch=2)
        ckpt = train(ref, gappy, attrs, tiny_graph, cfg, EncoderConfig(neighbors=4))
        assert np.isfinite(ckpt.loss_history).all()
        assert all(np.isfinite(w).all() for w in ckpt.weights.values())

    def test_graph_of_another_grid_rejected(self, tiny_world, tiny_graph):
        # same cell count, other coordinates: the graph's patches and
        # geometry belong to another grid
        _, ref, gcm, attrs = tiny_world
        graph = dataclasses.replace(tiny_graph, lons=tiny_graph.lons[::-1].copy())
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=1, seq_len=120, seed=2, steps_per_epoch=1)
        with pytest.raises(InvariantError, match="neighbor graph grid"):
            train(ref, gcm, attrs, graph, cfg, EncoderConfig(neighbors=4))

    def test_one_step_peak_in_node_arrays(self, tiny_world, tiny_graph):
        # the tape keeps only what backward reads, so one step's traced peak,
        # counted in node arrays (targets x nodes x model_dim x days, float64),
        # is at most 10; it read 14.4 while the tape kept every intermediate
        _, ref, gcm, attrs = tiny_world
        enc = EncoderConfig()
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095), epochs=1,
                          steps_per_epoch=1, seq_len=365, batch_size=5, seed=3)
        tracemalloc.start()
        try:
            train(ref, gcm, attrs, tiny_graph, cfg, enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        node_array = cfg.batch_size * enc.nodes * enc.model_dim * cfg.seq_len * 8
        assert peak / node_array <= 10

    def test_one_blas_thread_through_every_step(self, tiny_world, tiny_graph, monkeypatch):
        # the count is read from inside each step; outside train it is restored
        _, ref, gcm, attrs = tiny_world
        calls = _kernels._openblas_thread_calls()
        count = (lambda: calls[0]()) if calls is not None else (lambda: 1)
        seen, adam = [], training.adam_step

        def reading(*args, **kwargs):
            seen.append(count())
            return adam(*args, **kwargs)

        monkeypatch.setattr(training, "adam_step", reading)
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=2, seq_len=120, seed=2, steps_per_epoch=2)
        before = count()
        if calls is not None:
            calls[1](2)
        try:
            train(ref, gcm, attrs, tiny_graph, cfg, EncoderConfig(neighbors=4))
            assert seen == [1, 1, 1, 1]
            assert count() == (2 if calls is not None else 1)
        finally:
            if calls is not None:
                calls[1](before)

    def test_same_bits_on_any_cpu_count(self, tiny_world, tiny_graph, monkeypatch):
        # the kernels cut their work into as many pieces as there are CPUs;
        # the loss history and the weights keep their bits
        _, ref, gcm, attrs = tiny_world
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          epochs=2, seq_len=365, seed=4, steps_per_epoch=2)
        pieces, split_rows = [], _kernels.split_rows

        def counting(*args):
            bounds = split_rows(*args)
            pieces.append(len(bounds) - 1)
            return bounds

        monkeypatch.setattr(_kernels, "split_rows", counting)
        digests = set()
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(_kernels, "cpu_count", lambda n=cpus: n)
            pieces.clear()
            ckpt = train(ref, gcm, attrs, tiny_graph, cfg, EncoderConfig(neighbors=4))
            assert max(pieces) == cpus
            digest = hashlib.sha256(ckpt.loss_history.tobytes())
            for name in sorted(ckpt.weights):
                digest.update(ckpt.weights[name].tobytes())
            digests.add(digest.hexdigest())
        assert len(digests) == 1


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_run, tmp_path):
        ckpt, ref, gcm, attrs = tiny_run
        path = tmp_path / "model.dckp"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        assert set(back.weights) == set(ckpt.weights)
        for k in ckpt.weights:
            np.testing.assert_array_equal(back.weights[k].view(np.uint64),
                                          ckpt.weights[k].view(np.uint64))
        assert back.train_config == ckpt.train_config
        assert back.encoder_config == ckpt.encoder_config
        np.testing.assert_array_equal(back.loss_history, ckpt.loss_history)
        np.testing.assert_array_equal(back.graph.indices, ckpt.graph.indices)

    def test_reload_reproduces_forward_bit_exact(self, tiny_run, tmp_path):
        ckpt, ref, gcm, attrs = tiny_run
        path = tmp_path / "model.dckp"
        save_checkpoint(ckpt, path)
        back = load_checkpoint(path)
        a = correct_field(ckpt, gcm, attrs, window=(730, 1000)).values
        b = correct_field(back, gcm, attrs, window=(730, 1000)).values
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_blob_with_hidden_width_still_loads(self, tiny_run, tmp_path):
        # older checkpoints carry settings that are now constants (or were
        # never read) in the JSON blob, with the values they always had
        import json
        import struct
        ckpt, ref, gcm, attrs = tiny_run
        path = tmp_path / "model.dckp"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 8)
        meta = json.loads(raw[16:16 + blob_len])
        retired = {"encoder": {"hidden_width": 64, "lags": 3, "n_basis": 8},
                   "train": {"n_levels": 1000, "p1": 0.99, "p2": 0.01, "p3": 1.0,
                             "beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8}}
        for part, keys in retired.items():
            assert not set(keys) & set(meta[part])
            meta[part].update(keys)
        assert set(training.RETIRED_CONFIG_KEYS) == {k for v in retired.values() for k in v}
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                         + raw[16 + blob_len:])
        back = load_checkpoint(path)
        assert back.encoder_config == ckpt.encoder_config
        assert back.train_config == ckpt.train_config
        for k in ckpt.weights:
            np.testing.assert_array_equal(back.weights[k], ckpt.weights[k])
        a = correct_field(ckpt, gcm, attrs, window=(730, 1000)).values
        b = correct_field(back, gcm, attrs, window=(730, 1000)).values
        np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))

    def test_older_graph_mask_and_k_go_unread(self, tiny_run, tmp_path):
        # files written before the graph was indices and features alone also
        # hold graph_mask and graph_k; -1 marks an empty slot whatever such a
        # mask says, and the checkpoint corrects as the current file does
        import json
        import math
        import struct
        ckpt, ref, gcm, attrs = tiny_run
        path = tmp_path / "model.dckp"
        save_checkpoint(ckpt, path)
        raw = path.read_bytes()
        (blob_len,) = struct.unpack_from("<Q", raw, 8)
        meta = json.loads(raw[16:16 + blob_len])
        assert "graph_k" not in meta
        pos, arrays = 20 + blob_len, {}
        for _ in range(struct.unpack_from("<I", raw, 16 + blob_len)[0]):
            (n,) = struct.unpack_from("<I", raw, pos)
            name = raw[pos + 4:pos + 4 + n].decode()
            (ndim,) = struct.unpack_from("<I", raw, pos + 4 + n)
            shape = struct.unpack_from(f"<{ndim}Q", raw, pos + 8 + n)
            pos += 8 + n + 8 * ndim
            arrays[name] = np.frombuffer(raw, "<f8", math.prod(shape), pos).reshape(shape)
            pos += 8 * math.prod(shape)
        assert "graph_mask" not in arrays
        empty = ckpt.graph.indices == -1
        assert empty.any()
        meta["graph_k"] = ckpt.graph.indices.shape[1]
        arrays["graph_mask"] = np.ones(empty.shape)      # True on every -1 slot too
        blob = json.dumps(meta, sort_keys=True).encode()
        out = [b"DCKP", struct.pack("<IQ", 1, len(blob)), blob, struct.pack("<I", len(arrays))]
        for name in sorted(arrays):
            arr = arrays[name]
            out += [struct.pack("<I", len(name)), name.encode(),
                    struct.pack(f"<I{arr.ndim}Q", arr.ndim, *arr.shape), arr.tobytes()]
        old = tmp_path / "old.dckp"
        old.write_bytes(b"".join(out))
        back = load_checkpoint(old)
        np.testing.assert_array_equal(back.graph.mask, ~empty)
        a = correct_field(ckpt, gcm, attrs, window=(730, 1000)).values
        b = correct_field(back, gcm, attrs, window=(730, 1000)).values
        assert a.tobytes() == b.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dckp"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(Exception):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [(0, 2 ** 62), (1,) * 65], ids=["empty-huge", "ndim-65"])
    def test_unrepresentable_array_shape_data_error(self, tmp_path, shape):
        # the payload size fits the file, but no array has the shape
        import struct
        name = b"loss_history"
        path = tmp_path / "model.dckp"
        path.write_bytes(b"DCKP" + struct.pack("<IQ", 1, 2) + b"{}" + struct.pack("<I", 1)
                         + struct.pack("<I", len(name)) + name
                         + struct.pack(f"<I{len(shape)}Q", len(shape), *shape)
                         + b"\x00" * (8 * int(np.prod(shape))))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @settings(max_examples=300)
    @given(st.data())
    def test_truncated_or_bit_flipped_file_raises_data_error_only(self, tiny_run,
                                                                  data):
        import tempfile
        ckpt = tiny_run[0]
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/model.dckp"
            save_checkpoint(ckpt, path)
            raw = bytearray(open(path, "rb").read())
            # the header, the JSON blob and the first array headers sit in
            # the first kilobytes; the rest is float payload
            where = st.one_of(st.integers(0, 2048), st.integers(0, len(raw) - 1))
            cut = data.draw(st.one_of(st.integers(0, 2048),
                                      st.integers(0, len(raw))), label="cut")
            flips = data.draw(st.lists(st.tuples(where, st.integers(0, 7)),
                                       max_size=3), label="flips")
            for pos, bit in flips:
                raw[pos] ^= 1 << bit
            with open(path, "wb") as f:
                f.write(bytes(raw[:cut]))
            try:
                load_checkpoint(path)
            except DataError:
                pass


class TestCorrectField:
    def test_no_negative_or_nan_on_valid_input(self, tiny_run):
        ckpt, ref, gcm, attrs = tiny_run
        out = correct_field(ckpt, gcm, attrs, window=(730, 1095))
        assert np.isfinite(out.values).all()
        assert (out.values >= 0).all()

    def test_missing_days_stay_missing(self, tiny_run):
        ckpt, ref, gcm, attrs = tiny_run
        vals = gcm.values.copy()
        vals[800, 0, 0] = np.nan
        gcm2 = GridField(gcm.start_date, gcm.lats, gcm.lons, vals)
        out = correct_field(ckpt, gcm2, attrs, window=(730, 1095))
        assert np.isnan(out.values[70, 0, 0])
        assert np.isfinite(out.values[71, 0, 0])

    def test_infinite_days_are_missing_days(self, tiny_run):
        ckpt, ref, gcm, attrs = tiny_run
        inf, nan = gcm.values.copy(), gcm.values.copy()
        inf[800, 2, 3], inf[801, 2, 3] = np.inf, -np.inf
        nan[800:802, 2, 3] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # no log1p warning from the features
            out = correct_field(ckpt, GridField(gcm.start_date, gcm.lats, gcm.lons, inf),
                                attrs, window=(730, 1095))
        want = correct_field(ckpt, GridField(gcm.start_date, gcm.lats, gcm.lons, nan),
                             attrs, window=(730, 1095))
        assert np.isnan(out.values[70:72, 2, 3]).all()
        assert np.array_equal(out.values, want.values, equal_nan=True)

    @pytest.mark.parametrize("window", [(-5, 10), (1000, 1200), (10, 10)])
    def test_window_outside_field_rejected(self, tiny_run, window):
        ckpt, ref, gcm, attrs = tiny_run
        with pytest.raises(InvariantError):
            correct_field(ckpt, gcm, attrs, window=window)

    def test_grid_mismatch_rejected(self, tiny_run):
        ckpt, ref, gcm, attrs = tiny_run
        small = GridField(0, [0.0, 1.0], [0.0, 1.0],
                          np.zeros((800, 2, 2), dtype=np.float32))
        with pytest.raises(InvariantError):
            correct_field(ckpt, small, attrs)


def perturbed(ckpt, masked: bool):
    """The checkpoint with weights perturbed so that coefficients vary across
    days and cells, and with 20 % of its graph slots emptied (index -1) when
    asked."""
    rng = np.random.default_rng(31)
    weights = {k: v + 0.3 * rng.standard_normal(v.shape) for k, v in ckpt.weights.items()}
    graph = ckpt.graph
    if masked:
        indices = graph.indices.copy()
        indices[rng.random(indices.shape) < 0.2] = -1
        graph = dataclasses.replace(graph, indices=indices)
    return dataclasses.replace(ckpt, weights=weights, graph=graph)


def gappy_field(gcm):
    vals = gcm.values.copy()
    vals[np.random.default_rng(32).random(vals.shape) < 0.02] = np.nan
    return GridField(gcm.start_date, gcm.lats, gcm.lons, vals)


def one_batch_correction(ckpt, gcm, attrs, window):
    """constrain, apply and clamp of one forward pass over a batch of all cells."""
    t0, t1 = window
    pack = FeaturePack(gcm, attrs, ckpt.graph, ckpt.stats, ckpt.encoder_config)
    model = BiasCorrector(ckpt.encoder_config, ckpt.stats, pack.n_channels,
                          weights=ckpt.weights)
    batch = pack.batch(np.arange(gcm.n_cells), t0, t1 - t0)
    theta = transform.constrain(model.forward(model.wrap(False), batch))
    out = transform.apply(theta, Tensor(batch.target_raw)).data.T
    np.maximum(out, 0.0, out=out, where=np.isfinite(out))
    return out.reshape((t1 - t0,) + gcm.values.shape[1:]).astype(np.float32)


class TestCorrectFieldBlocks:
    WINDOW = (730, 1095)

    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_matches_one_batch_of_all_cells(self, tiny_run, masked):
        ckpt, ref, gcm, attrs = tiny_run
        ckpt = perturbed(ckpt, masked)
        assert masked != bool(ckpt.graph.mask[:, :8].all())
        for field in (gcm, gappy_field(gcm)):
            out = correct_field(ckpt, field, attrs, window=self.WINDOW).values
            expected = one_batch_correction(ckpt, field, attrs, self.WINDOW)
            assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("max_rows", [1, 10, 13])
    def test_row_budget_split_same_bytes(self, tiny_run, monkeypatch, max_rows):
        ckpt, ref, gcm, attrs = tiny_run
        ckpt = perturbed(ckpt, masked=True)
        field = gappy_field(gcm)
        whole = correct_field(ckpt, field, attrs, window=self.WINDOW).values
        T = self.WINDOW[1] - self.WINDOW[0]
        monkeypatch.setattr(training, "CELL_ROW_BUDGET",
                            max_rows * ckpt.encoder_config.model_dim * T)
        pack = FeaturePack(field, attrs, ckpt.graph, ckpt.stats, ckpt.encoder_config)
        blocks = training._target_blocks(pack, max_rows)
        assert len(blocks) > 1
        np.testing.assert_array_equal(np.concatenate(blocks), np.arange(field.n_cells))

        def rows_read(cells):
            return np.unique(pack.node_idx[cells]).size

        for cells in blocks:
            assert cells.size == 1 or rows_read(cells) <= max_rows
        for cells, after in zip(blocks, blocks[1:]):   # no block could take one more target
            assert rows_read(np.append(cells, after[0])) > max_rows
        split = correct_field(ckpt, field, attrs, window=self.WINDOW).values
        assert split.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("group,max_rows", [(1, None), (3, None), (16, None), (3, 13)])
    def test_node_budget_groups_same_bytes(self, tiny_run, monkeypatch, group, max_rows):
        ckpt, ref, gcm, attrs = tiny_run
        ckpt = perturbed(ckpt, masked=True)
        field = gappy_field(gcm)
        expected = one_batch_correction(ckpt, field, attrs, self.WINDOW)
        enc = ckpt.encoder_config
        T = self.WINDOW[1] - self.WINDOW[0]
        monkeypatch.setattr(training, "NODE_ARRAY_BUDGET",
                            group * enc.nodes * enc.model_dim * T)
        if max_rows is not None:
            monkeypatch.setattr(training, "CELL_ROW_BUDGET", max_rows * enc.model_dim * T)
        out = correct_field(ckpt, field, attrs, window=self.WINDOW).values
        assert out.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("window,group", [((730, 1095), None), ((730, 1095), 1),
                                              ((800, 830), 15)],
                             ids=["year", "year-one-target-groups", "30-days-ragged"])
    @pytest.mark.parametrize("workers", ["one", "cpus", "more-than-groups"])
    @pytest.mark.parametrize("masked", [False, True], ids=["full", "masked"])
    def test_worker_count_same_bytes(self, tiny_run, monkeypatch, masked, workers,
                                     window, group):
        ckpt, ref, gcm, attrs = tiny_run
        ckpt = perturbed(ckpt, masked)
        enc = ckpt.encoder_config
        T = window[1] - window[0]
        if group is not None:   # 15 targets a group leave a last group of one
            monkeypatch.setattr(training, "NODE_ARRAY_BUDGET",
                                group * enc.nodes * enc.model_dim * T)
        n = {"one": 1, "cpus": os.cpu_count(), "more-than-groups": 4 * gcm.n_cells}[workers]
        monkeypatch.setattr(_kernels, "cpu_count", lambda: n)
        for field in (gcm, gappy_field(gcm)):
            out = correct_field(ckpt, field, attrs, window=window).values
            assert out.tobytes() == one_batch_correction(ckpt, field, attrs, window).tobytes()

    def test_node_arrays_past_the_row_budget_run_one_at_a_time(self, tiny_run, monkeypatch):
        ckpt, ref, gcm, attrs = tiny_run
        enc = ckpt.encoder_config
        T = self.WINDOW[1] - self.WINDOW[0]
        monkeypatch.setattr(training, "CELL_ROW_BUDGET", enc.nodes * enc.model_dim * T - 1)
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 8)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        # the oracle's forward runs outside any job, so its kernels may split
        expected = one_batch_correction(ckpt, gcm, attrs, self.WINDOW)
        monkeypatch.setattr(_kernels, "ThreadPoolExecutor", no_pool)
        out = correct_field(ckpt, gcm, attrs, window=self.WINDOW).values
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("workers", [1, 4])
    def test_error_in_one_group_raised_and_no_thread_left(self, tiny_run, monkeypatch,
                                                          workers):
        ckpt, ref, gcm, attrs = tiny_run
        monkeypatch.setattr(_kernels, "cpu_count", lambda: workers)
        before = threading.active_count()
        correct_field(ckpt, gcm, attrs, window=self.WINDOW)
        assert threading.active_count() == before
        constrain, calls = transform.constrain, itertools.count()

        def failing(raw):
            if next(calls) == 3:
                raise NumericalError("non-finite coefficients")
            return constrain(raw)

        monkeypatch.setattr(transform, "constrain", failing)
        with pytest.raises(NumericalError, match="non-finite coefficients"):
            correct_field(ckpt, gcm, attrs, window=self.WINDOW)
        assert threading.active_count() == before

    def test_error_in_a_helper_thread_raised_in_the_caller(self):
        caller, raised = threading.current_thread(), threading.Event()

        def work(i):
            if threading.current_thread() is caller:
                assert raised.wait(60)   # the helper takes the other job
            else:
                raised.set()
                raise NumericalError(f"job {i}")

        before = threading.active_count()
        with pytest.raises(NumericalError, match="job"):
            _kernels.run_shared(2, work, 2)
        assert threading.active_count() == before

    def test_one_blas_thread_when_jobs_run_inline(self, tiny_run, monkeypatch):
        # one job, or one CPU: the jobs run on the calling thread, and BLAS
        # on one thread all the same
        calls = _kernels._openblas_thread_calls()
        if calls is None:
            pytest.skip("no OpenBLAS with thread-count calls is loaded")
        ckpt, _, gcm, attrs = tiny_run
        seen, encode = [], training.encode_cells

        def reading(*args, **kwargs):
            seen.append(calls[0]())
            return encode(*args, **kwargs)

        before = calls[0]()
        calls[1](2)
        try:
            _kernels.run_shared(1, lambda i: seen.append(calls[0]()), 4)
            monkeypatch.setattr(training, "encode_cells", reading)
            monkeypatch.setattr(_kernels, "cpu_count", lambda: 1)
            correct_field(ckpt, gcm, attrs, window=(730, 1095))
            assert len(seen) > 1 and set(seen) == {1}
            assert calls[0]() == 2
        finally:
            calls[1](before)

    def test_nested_kernels_start_no_pool_in_a_correct16_pass(self, monkeypatch):
        # 16x16 cells, a 365-day window, 16 neighbours: the node arrays are
        # large enough for the kernels to split, but they run inside
        # correct_field's jobs, so the only threads are correct_field's own
        from dclimba import gridio, synth
        cfg = synth.SynthConfig(height=16, width=16, years=3, seed=1)
        ref, attrs = synth.gen_reference(cfg)
        gcm = synth.apply_known_bias(ref, cfg)
        graph = gridio.select_neighbors(ref, 16, (0, 730))
        enc = EncoderConfig(neighbors=16)
        stats = fit_normalization(gcm, attrs, (0, 730))
        model = BiasCorrector(enc, stats, FeaturePack(gcm, attrs, graph, stats, enc).n_channels,
                              seed=3)
        ckpt = Checkpoint(weights=model.weights, stats=stats, encoder_config=enc,
                          train_config=TrainConfig(train_window=(0, 730),
                                                   val_window=(730, 1095), epochs=0),
                          epoch=0, loss_history=np.zeros((1, 5)), graph=graph)
        monkeypatch.setattr(_kernels, "cpu_count", lambda: 3)
        assert len(_kernels.split_rows(17, 17 * 64 * 365)) > 2   # would split alone
        counts, run_pieces = [], _kernels.run_pieces

        def counting(bounds, piece):
            def counted(lo, hi):
                counts.append(threading.active_count())
                piece(lo, hi)
            run_pieces(bounds, counted)

        monkeypatch.setattr(_kernels, "run_pieces", counting)
        before = threading.active_count()
        correct_field(ckpt, gcm, attrs, window=(730, 1095))
        assert counts and before < max(counts) <= before + _kernels.cpu_count() - 1
        assert threading.active_count() == before


class TestCompositeScore:
    def test_identical_fields_score_zero(self, tiny_world):
        _, ref, _, _ = tiny_world
        score = composite_score_from_fields(ref, ref, (0, 730), (0, 730), (0, 730))
        assert score == 0.0

    def test_scaled_field_matches_oracle(self, tiny_world):
        from dclimba import metrics
        _, ref, _, _ = tiny_world
        scaled = GridField(ref.start_date, ref.lats, ref.lons, 1.2 * ref.values)
        got = composite_score_from_fields(scaled, ref, (0, 730), (0, 730), (0, 730))
        per_index = []
        thresholds = metrics.wet_day_thresholds(cell_days(ref, "base", (0, 730)))
        sim_idx = metrics.etccdi_all_cells(cell_days(scaled, "index", (0, 730)), thresholds)
        ref_idx = metrics.etccdi_all_cells(cell_days(ref, "index", (0, 730)), thresholds)
        for name in metrics.INDEX_NAMES:
            pb = 100.0 * (sim_idx[name] - ref_idx[name]) / ref_idx[name]
            per_index.append(np.nanmean(np.abs(pb)))
        assert abs(got - np.mean(per_index)) < 1e-9
        sdii_pb = metrics.mean_percentage_bias(sim_idx["sdii"], ref_idx["sdii"])
        assert np.nanmax(sdii_pb) <= 20.0 + 1e-9   # intensity scales by <= 20%

    def test_transposed_grid_rejected(self, tiny_world):
        # same cell count, other shape: must not be scored cell by cell
        _, ref, _, _ = tiny_world
        T = ref.values.shape[0]
        two, eight = np.array([30.0, 31.0]), np.linspace(30.0, 37.0, 8)
        wide = GridField(ref.start_date, two, -eight, ref.values.reshape(T, 2, 8))
        tall = GridField(ref.start_date, eight, -two, ref.values.reshape(T, 8, 2))
        with pytest.raises(InvariantError):
            composite_score_from_fields(tall, wide, (0, 730), (0, 730), (0, 730))

    def test_cell_order_invariance(self, tiny_world):
        _, ref, _, _ = tiny_world
        scaled = GridField(ref.start_date, ref.lats, ref.lons, 1.1 * ref.values)
        a = composite_score_from_fields(scaled, ref, (0, 730), (0, 730), (0, 730),
                                        region=np.arange(16))
        b = composite_score_from_fields(scaled, ref, (0, 730), (0, 730), (0, 730),
                                        region=np.arange(15, -1, -1))
        assert abs(a - b) < 1e-12


class TestScreening:
    def test_decreasing_series_passes(self):
        q = np.geomspace(2.0, 0.1, 30)
        assert monotone_after_smoothing(q)

    def test_noisy_plateau_fails(self):
        rng = np.random.default_rng(0)
        q = np.concatenate([np.geomspace(2.0, 0.2, 10),
                            0.2 + 0.05 * rng.standard_normal(20)])
        assert not monotone_after_smoothing(q)

    def test_diverging_fails(self):
        q = np.concatenate([np.geomspace(2.0, 0.5, 10), np.geomspace(0.5, 5.0, 10)])
        assert not monotone_after_smoothing(q)

    def test_smoothing_tolerates_single_blips(self):
        q = np.geomspace(2.0, 0.1, 30)
        q[7] *= 1.05   # one noisy epoch, absorbed by the window-5 average
        assert monotone_after_smoothing(q)


class TestGradientStepSanity:
    def test_single_adam_step_decreases_loss(self, tiny_world, tiny_graph):
        _, ref, gcm, attrs = tiny_world
        enc = EncoderConfig(neighbors=8)
        cfg = TrainConfig(train_window=(0, 730), val_window=(730, 1095),
                          lr=1e-4, seq_len=60, seed=0)
        stats = fit_normalization(gcm, attrs, cfg.train_window)
        pack = FeaturePack(gcm, attrs, tiny_graph, stats, enc)
        weights_cfg = cfg.loss_weights()
        ref_flat = ref.values.reshape(-1, ref.n_cells).astype(np.float64)
        rng = np.random.default_rng(123)
        wins = 0
        n_batches = 100
        from dclimba.encoders import BiasCorrector
        for trial in range(n_batches):
            model = BiasCorrector(enc, stats, pack.n_channels, seed=trial)
            state = adam_init(model.weights)
            cells = rng.choice(ref.n_cells, size=5, replace=False)
            day0 = int(rng.integers(0, 730 - 60))
            batch = pack.batch(cells, day0, 60)
            y = ref_flat[day0:day0 + 60, cells].T
            with ad.tape_scope():
                params = {k: Tensor(v, requires_grad=True)
                          for k, v in model.weights.items()}
                L, rep = training.batch_loss(model, params, batch, y, weights_cfg)
                ad.backward(L)
                grads = {k: (params[k].grad if params[k].grad is not None
                             else np.zeros_like(v))
                         for k, v in model.weights.items()}
            before = rep.L
            adam_step(model.weights, grads, state, cfg.lr)
            with ad.tape_scope():
                params = {k: Tensor(v) for k, v in model.weights.items()}
                _, rep2 = training.batch_loss(model, params, batch, y, weights_cfg)
            wins += rep2.L < before
        assert wins >= 95, f"loss decreased in only {wins}/100 batches"
