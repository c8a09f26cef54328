"""Properties of the numpy kernels: a conv row's bits do not depend on its
batch-mates, a kernel split over CPUs gives the bits of the unsplit one
from products of the same shapes, the weight gradient's partials stay
bounded, a run_shared call inside a job starts no thread, run lengths
match a plain loop, distances are zero on the diagonal, and the BLAS
thread count comes back after a one-thread block."""

import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dclimba import _kernels as K
from dclimba import autodiff as ad
from dclimba.autodiff import Tensor


class TestConvBatchInvariance:
    """The numpy forward conv gives a batch row the same bits whatever else
    shares the call: the encoder relies on it for per-node embeddings."""

    @pytest.fixture(scope="class")
    def encoder_sized(self):
        # the encoder's conv: 64 channels, kernel 3, a 365-day window, and
        # B = 5 cells x 17 nodes as in a training batch
        rng = np.random.default_rng(4)
        B, c, T, k = 85, 64, 365, 3
        return (rng.standard_normal((B, c, T + k - 1)),
                rng.standard_normal((c, c, k)), rng.standard_normal(c))

    def test_identical_rows_identical_outputs(self, encoder_sized):
        xpad, w, b = encoder_sized
        xpad = np.repeat(xpad[:1], 7, axis=0)
        out = K.conv1d_forward(xpad, w, b)
        for i in range(1, 7):
            np.testing.assert_array_equal(out[i].view(np.uint64),
                                          out[0].view(np.uint64))

    def test_row_alone_matches_row_in_batch(self, encoder_sized):
        xpad, w, b = encoder_sized
        full = K.conv1d_forward(xpad, w, b)
        for i in (0, 42, 84):
            alone = K.conv1d_forward(xpad[i:i + 1], w, b)
            np.testing.assert_array_equal(alone[0].view(np.uint64),
                                          full[i].view(np.uint64))


def _longest_run(row) -> int:
    best = cur = 0
    for v in row:
        cur = cur + 1 if v else 0
        best = max(best, cur)
    return best


class TestRunLength:
    def test_known_rows(self):
        flags = np.array([[1, 1, 0, 1, 1, 1, 0],
                          [0, 0, 0, 0, 0, 0, 0],
                          [1, 1, 1, 1, 1, 1, 1]], dtype=bool)
        np.testing.assert_array_equal(K.run_length_max(flags), [3, 0, 7])

    def test_matches_plain_loop_random(self):
        rng = np.random.default_rng(1)
        flags = rng.random((20, 365)) < 0.45
        np.testing.assert_array_equal(K.run_length_max(flags),
                                      [_longest_run(row) for row in flags])


class TestCellRows:
    @pytest.mark.parametrize("days", [1, 63, 64, 65, 730])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_contiguous_transpose(self, days, dtype):
        rng = np.random.default_rng(days)
        v = rng.gamma(0.6, 4.0, (days, 3, 7)).astype(np.float32)
        v[rng.random(v.shape) < 0.1] = np.nan
        v[0, 0, :2] = np.inf, -0.0
        rows = v.reshape(days, -1).T
        for cells in (slice(None), slice(4, 17), slice(20, 21)):
            got = K.cell_rows(rows[cells], dtype)
            want = np.ascontiguousarray(rows[cells], dtype=dtype)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_baselines_and_metrics_copy_through_it(self, tiny_world, monkeypatch):
        from dclimba import baselines, metrics
        from dclimba.gridio import cell_days

        dtypes, copy = [], K.cell_rows
        monkeypatch.setattr(K, "cell_rows",
                            lambda v, dtype: dtypes.append(dtype) or copy(v, dtype))
        _, ref, gcm, _ = tiny_world
        baselines.correct_field("qdm", ref, gcm, gcm)
        assert dtypes and set(dtypes) == {np.float32}
        dtypes.clear()
        metrics.etccdi_all_cells(cell_days(ref, "index", (0, 365)),
                                 metrics.wet_day_thresholds(cell_days(ref, "base", (0, 730))))
        metrics.trend_bias(*(cell_days(f, "trend") for f in (gcm, gcm, ref, ref)))
        assert len(dtypes) == 6 and set(dtypes) == {np.float64}


class TestHaversine:
    def test_zero_diagonal(self):
        lats = np.array([0.0, 30.0, -60.0])
        lons = np.array([10.0, -20.0, 170.0])
        d = K.pairwise_haversine(lats[:, None], lons[:, None],
                                 lats[None, :], lons[None, :])
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-9)


def test_one_blas_thread_sets_and_restores_the_count():
    calls = K._openblas_thread_calls()
    before = calls and calls[0]()
    with pytest.raises(KeyError):
        with K.one_blas_thread():
            assert calls is None or calls[0]() == 1
            raise KeyError("restored on error too")
    assert (calls and calls[0]()) == before


@pytest.fixture
def pools(monkeypatch):
    """Counts the pools run_shared starts."""
    started = []

    class Counting(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(K, "ThreadPoolExecutor", Counting)
    return started


def conv_all(xpad, w, b, gy):
    return (K.conv1d_forward(xpad, w, b), K.conv1d_backward_input(gy, w),
            K.conv1d_backward_weight(gy, xpad))


def softplus_all(d, g):
    untaped = ad.softplus(Tensor(d)).data
    with ad.tape_scope(), np.errstate(over="ignore", invalid="ignore"):
        x = Tensor(d, requires_grad=True)
        y = ad.softplus(x)
        ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
    return untaped, y.data, x.grad


class TestSplitKernels:
    """On two threads the conv kernels and softplus split their work into
    pieces; every output byte equals the one-thread result."""

    @pytest.mark.parametrize("B, cin, cout, k, T, splits", [
        (1, 64, 64, 3, 2000, False),    # one batch row: nothing to split
        (85, 64, 64, 3, 365, True),     # a training batch's node arrays, odd B
        (7, 64, 64, 3, 365, True),
        (9, 45, 39, 3, 365, True),      # cin and cout not divisible by two
        (31, 25, 17, 5, 300, True),     # K = 5
        (4099, 64, 64, 3, 1, True),     # T = 1
        (3, 64, 64, 1, 2001, True),     # K = 1
        (9, 32, 4, 3, 365, False),      # cout = 4: small products
    ])
    def test_conv_pieces_same_bytes(self, monkeypatch, pools, B, cin, cout, k, T, splits):
        rng = np.random.default_rng(B + cin + T)
        xpad = rng.standard_normal((B, cin, T + k - 1))
        w, b = rng.standard_normal((cout, cin, k)), rng.standard_normal(cout)
        gy = rng.standard_normal((B, cout, T))
        monkeypatch.setattr(K, "cpu_count", lambda: 1)
        serial = conv_all(xpad, w, b, gy)
        assert pools == []
        monkeypatch.setattr(K, "cpu_count", lambda: 2)
        split = conv_all(xpad, w, b, gy)
        assert len(pools) >= 2 if splits else pools == []
        for one, two in zip(serial, split):
            assert two.shape == one.shape and two.tobytes() == one.tobytes()

    def test_weight_gradient_partials_stay_bounded(self):
        # 4099 one-day rows: the partials of all rows at once would take
        # 4099 * 3 * 64 * 64 floats (403 MB), 70 times the inputs
        rng = np.random.default_rng(6)
        gy, xpad = rng.standard_normal((4099, 64, 1)), rng.standard_normal((4099, 64, 3))
        tracemalloc.start()
        try:
            K.conv1d_backward_weight(gy, xpad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_product_shapes_do_not_depend_on_the_cpu_count(self, monkeypatch, pools):
        # each product has the shape of one batch row's, however many pieces
        # the rows are cut into, so no BLAS kernel can give a split call
        # other bits
        rng = np.random.default_rng(5)
        xpad, w = rng.standard_normal((85, 64, 367)), rng.standard_normal((64, 64, 3))
        gy = rng.standard_normal((85, 64, 365))
        shapes, matmul = [], np.matmul

        def recording(a, b, *args, **kwargs):
            shapes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        seen = {}
        for cpus in (1, 4):
            monkeypatch.setattr(K, "cpu_count", lambda n=cpus: n)
            shapes.clear()
            conv_all(xpad, w, np.zeros(64), gy)
            seen[cpus] = set(shapes)
        assert len(pools) >= 3          # every kernel split at 4 CPUs
        assert seen[1] == seen[4]

    def test_softplus_pieces_same_bytes(self, monkeypatch, pools):
        rng = np.random.default_rng(11)
        d = 30.0 * rng.standard_normal((4097, 64))
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.5, -710.5, 800.0,
                 -800.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308]
        # every special value at random places and on both sides of each cut
        flat = d.reshape(-1)
        flat[rng.choice(flat.size, 4000, replace=False)] = np.resize(edges, 4000)
        for row in (0, 2047, 2048, 2049, 4096):
            d[row, :len(edges)] = edges
        g = rng.standard_normal(d.shape)
        g[5, :len(edges)] = edges
        monkeypatch.setattr(K, "cpu_count", lambda: 1)
        serial = softplus_all(d, g)
        assert pools == []
        monkeypatch.setattr(K, "cpu_count", lambda: 2)
        split = softplus_all(d, g)
        assert len(pools) == 2          # untaped value, taped value and slope
        for one, two in zip(serial, split):
            assert two.tobytes() == one.tobytes()

    def test_small_or_strided_input_runs_inline(self, monkeypatch, pools):
        monkeypatch.setattr(K, "cpu_count", lambda: 4)
        rng = np.random.default_rng(2)
        K.conv1d_forward(rng.standard_normal((5, 8, 40)), rng.standard_normal((8, 8, 3)),
                         np.zeros(8))
        softplus_all(rng.standard_normal((300, 20)), np.ones((300, 20)))
        softplus_all(rng.standard_normal((64, 4097)).T, np.ones((4097, 64)))
        assert pools == []


def test_nested_run_shared_runs_inline(pools):
    outer_threads, inner = set(), []

    def outer(i):
        outer_threads.add(threading.get_ident())
        K.run_shared(3, lambda j: inner.append((threading.get_ident(), i, j)), 3)

    K.run_shared(4, outer, 2)
    assert len(pools) == 1                       # the outer call's only
    assert sorted((i, j) for _, i, j in inner) == [(i, j) for i in range(4) for j in range(3)]
    assert {t for t, _, _ in inner} <= outer_threads


def test_nested_kernel_call_runs_inline(monkeypatch, pools):
    monkeypatch.setattr(K, "cpu_count", lambda: 2)
    rng = np.random.default_rng(3)
    xpad, w = rng.standard_normal((85, 64, 367)), rng.standard_normal((64, 64, 3))
    out = {}
    K.run_shared(2, lambda i: out.setdefault(i, K.conv1d_forward(xpad, w, np.zeros(64))), 2)
    assert len(pools) == 1
    assert out[0].tobytes() == out[1].tobytes()


def test_helpers_keep_the_callers_numpy_error_state():
    seen = {}

    def job(i):
        seen[i] = (threading.get_ident(), np.geterr()["over"])
        for _ in range(10_000):  # hold this thread so the other takes job 1
            if len(seen) == 2:
                break
            threading.Event().wait(0.001)

    with np.errstate(over="ignore"):
        K.run_shared(2, job, 2)
    assert seen[0][0] != seen[1][0]
    assert {over for _, over in seen.values()} == {"ignore"}
