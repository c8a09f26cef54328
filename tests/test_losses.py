import numpy as np
import pytest
from hypothesis import given, strategies as st

from dclimba import autodiff as ad
from dclimba import losses
from dclimba.autodiff import Tensor
from dclimba.losses import (LossWeights, composite_loss,
                            empirical_quantile, quantile_loss, quantile_weight,
                            rainy_day_loss, spatial_corr_loss)


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-np.asarray(v, dtype=np.float64)))


def quantile_oracle(series, q):
    """Independent order-statistic interpolation."""
    s = np.sort(np.asarray(series, dtype=np.float64))
    out = []
    for level in np.atleast_1d(q):
        pos = level * (len(s) - 1)
        lo, hi = int(np.floor(pos)), int(np.ceil(pos))
        frac = pos - lo
        out.append(s[lo] * (1 - frac) + s[hi] * frac)
    return np.asarray(out)


def quantile_loss_oracle(x, y, K, q_star):
    q = (np.arange(1, K + 1) - 0.5) / K
    g = np.ones(K) if q_star is None else np.exp(-np.abs(q - q_star))
    qx = quantile_oracle(x, q)
    qy = quantile_oracle(y, q)
    return float(np.mean(g * np.abs(qx - qy)))


class TestEmpiricalQuantile:
    def test_examples(self):
        x = Tensor([1.0, 2.0, 3.0, 4.0])
        assert empirical_quantile(x, 0.0).data[0] == 1.0
        assert empirical_quantile(x, 1.0).data[0] == 4.0
        assert empirical_quantile(x, 0.5).data[0] == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_quantile(Tensor(np.zeros((2, 0))), 0.5)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=12),
           st.floats(0, 1))
    def test_matches_numpy(self, vals, q):
        got = empirical_quantile(Tensor(np.asarray(vals)), q).data[0]
        assert abs(got - np.quantile(np.asarray(vals), q)) < 1e-9


class TestQuantileWeight:
    def test_at_emphasis(self):
        assert quantile_weight(0.9, 0.9) == 1.0

    def test_exp_decay(self):
        assert abs(quantile_weight(0.5, 0.9) - np.exp(-0.4)) < 1e-15
        assert abs(np.exp(-0.4) - 0.670320046) < 1e-9

    def test_uniform_mode(self):
        np.testing.assert_array_equal(quantile_weight(np.linspace(0, 1, 11), None),
                                      np.ones(11))


class TestQuantileLoss:
    def test_identical_series_zero(self):
        w = LossWeights()
        x = np.random.default_rng(0).gamma(1, 5, size=50)
        assert quantile_loss(Tensor(x), x, w).item() == 0.0

    def test_unit_shift_gives_one(self):
        w = LossWeights()
        y = np.random.default_rng(1).gamma(1, 5, size=80)
        got = quantile_loss(Tensor(y + 1.0), y, w).item()
        assert abs(got - 1.0) < 1e-12

    def test_weighted_shift_equals_weight_mean(self):
        w = LossWeights(q_star=0.9)
        x = np.array([2.0, 3.0, 4.0, 5.0])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        expected = np.mean(np.exp(-np.abs(w.levels - 0.9)))
        assert abs(quantile_loss(Tensor(x), y, w).item() - expected) < 1e-12

    @given(st.integers(2, 10), st.integers(2, 20), st.integers(0, 10_000),
           st.sampled_from([None, 0.5, 0.9]))
    def test_brute_force_equivalence(self, n, K, seed, q_star):
        rng = np.random.default_rng(seed)
        x = rng.gamma(1.0, 5.0, size=n)
        y = rng.gamma(1.0, 5.0, size=n)
        w = LossWeights(q_star=q_star, n_levels=K)
        got = quantile_loss(Tensor(x), y, w).item()
        assert abs(got - quantile_loss_oracle(x, y, K, q_star)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.gamma(1, 5, size=60)
        y = rng.gamma(1, 5, size=60)
        w = LossWeights(n_levels=100)
        base = quantile_loss(Tensor(x), y, w).item()
        for seed in range(3):
            r2 = np.random.default_rng(seed)
            got = quantile_loss(Tensor(r2.permutation(x)), r2.permutation(y), w).item()
            assert abs(got - base) < 1e-12

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(4)
        y = rng.gamma(1, 5, size=12)
        w = LossWeights(n_levels=50)
        x0 = rng.gamma(1, 5, size=12) + np.linspace(0, 0.5, 12)

        def f(x):
            return quantile_loss(x, y, w)

        assert ad.grad_check(f, x0) < 1e-5

    def test_batched_mean_over_cells(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(1, 5, size=(3, 40))
        y = rng.gamma(1, 5, size=(3, 40))
        w = LossWeights(n_levels=64)
        got = quantile_loss(Tensor(x), y, w).item()
        per = [quantile_loss(Tensor(x[i]), y[i], w).item() for i in range(3)]
        assert abs(got - np.mean(per)) < 1e-12


class TestRainyDayLoss:
    def test_identical_zero(self):
        x = np.random.default_rng(0).gamma(1, 5, size=(2, 30))
        assert rainy_day_loss(Tensor(x), x).item() == 0.0

    def test_hand_example_two_days(self):
        x = np.array([[0.0, 5.0]])
        y = np.array([[5.0, 5.0]])
        expected = abs((sigmoid(-1.0) + sigmoid(4.0)) - 2 * sigmoid(4.0))
        got = rainy_day_loss(Tensor(x), y).item()
        assert abs(got - expected) < 1e-12
        assert abs(expected - 0.713072) < 1e-6

    def test_hand_example_single_day(self):
        got = rainy_day_loss(Tensor(np.array([[2.0]])), np.array([[0.0]])).item()
        expected = sigmoid(1.0) - sigmoid(-1.0)
        assert abs(got - expected) < 1e-12
        assert abs(expected - 0.462117) < 1e-6


class TestSpatialCorrLoss:
    def test_self_small(self):
        x = np.random.default_rng(0).gamma(1, 5, size=(2, 4, 30)) + 0.1
        assert spatial_corr_loss(Tensor(x), x).item() <= 1e-6

    def test_orthogonal_vectors(self):
        x = np.array([[[1.0], [0.0]]])
        y = np.array([[[0.0], [1.0]]])
        got = spatial_corr_loss(Tensor(x), y).item()
        assert abs(got - 1.0) < 1e-7

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.gamma(1, 5, size=(1, 5, 20)) + 0.1
        got = spatial_corr_loss(Tensor(2.0 * y), y).item()
        assert got < 1e-6
        for lam in (0.5, 3.0, 17.0):
            a = spatial_corr_loss(Tensor(lam * y), y).item()
            assert abs(a - got) < 1e-6


class TestCompositeLoss:
    def test_zero(self):
        L, rep = composite_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0))
        assert L.item() == 0.0 and rep.L == 0.0

    def test_default_weights_sum(self):
        L, rep = composite_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0))
        assert L.item() == 0.99 + 0.01 + 1.0 == 2.0

    def test_report_identity_bit_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, r, s = rng.gamma(1, 1, size=3)
            _, rep = composite_loss(Tensor(q), Tensor(r), Tensor(s))
            assert rep.L == 0.99 * rep.Q + 0.01 * rep.R + 1.0 * rep.S


class TestNonNegativity:
    @given(st.integers(0, 10_000))
    def test_all_components_nonneg(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.gamma(0.8, 6.0, size=(2, 3, 25))
        y = rng.gamma(0.8, 6.0, size=(2, 3, 25))
        w = LossWeights(n_levels=50)
        Q = quantile_loss(Tensor(x.reshape(6, 25)), y.reshape(6, 25), w).item()
        R = rainy_day_loss(Tensor(x.reshape(6, 25)), y.reshape(6, 25)).item()
        S = spatial_corr_loss(Tensor(x), y).item()
        L, _ = composite_loss(Tensor(Q), Tensor(R), Tensor(S))
        assert Q >= 0 and R >= 0 and S >= 0 and L.item() >= 0

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            LossWeights(q_star=1.5)
        with pytest.raises(ValueError):
            LossWeights(n_levels=1)
