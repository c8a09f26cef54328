"""Properties of the numpy kernels: a conv row's bits do not depend on its
batch-mates, run lengths match a plain loop, distances are zero on the
diagonal, and the BLAS thread count comes back after a one-thread block."""

import numpy as np
import pytest

from dclimba import _kernels as K


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
