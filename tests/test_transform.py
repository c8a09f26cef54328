import numpy as np
import pytest

from dclimba import autodiff as ad
from dclimba import transform
from dclimba.autodiff import Tensor
from dclimba.transform import TransformParams, apply, constrain, derivative

LN2 = np.log(2.0)


def identity_params():
    return TransformParams(alpha=Tensor(1.0), w=Tensor(np.zeros(8)), s=Tensor(np.ones(8)),
                           b=Tensor(np.zeros(8)), c=Tensor(0.0))


def single_bump_params():
    """alpha=1 and one effective softplus bump (w1=1, s1=1, b1=0)."""
    w = np.zeros(8)
    w[0] = 1.0
    return TransformParams(alpha=Tensor(1.0), w=Tensor(w), s=Tensor(np.ones(8)),
                           b=Tensor(np.zeros(8)), c=Tensor(0.0))


class TestConstrain:
    def test_zero_raw_gives_ln2(self):
        p = constrain(Tensor(np.zeros(26)))
        np.testing.assert_allclose(p.alpha.data, [LN2], rtol=1e-15)
        np.testing.assert_allclose(p.w.data, np.full(8, LN2), rtol=1e-15)
        np.testing.assert_allclose(p.s.data, np.full(8, LN2), rtol=1e-15)
        np.testing.assert_array_equal(p.b.data, np.zeros(8))
        np.testing.assert_array_equal(p.c.data, [0.0])

    def test_alpha_limit_positive(self):
        raw = np.zeros(26)
        raw[0] = -40.0
        p = constrain(Tensor(raw))
        assert 0.0 < p.alpha.data[0] < 1e-15

    def test_strictly_increasing_on_positive_slots(self):
        grid = np.linspace(-5, 5, 41)
        vals = [constrain(Tensor(np.full(26, g))).alpha.data[0] for g in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            constrain(Tensor(np.zeros(25)))


class TestApply:
    def test_identity_configuration(self):
        x = np.array([0.0, 1.0, 7.5, 120.0])
        np.testing.assert_allclose(apply(identity_params(), Tensor(x)).data, x, rtol=1e-15)

    def test_single_bump_at_zero(self):
        assert abs(apply(single_bump_params(), Tensor(0.0)).data - LN2) < 1e-12

    def test_single_bump_at_two(self):
        expected = 2.0 + np.log1p(np.exp(2.0))  # 2 + softplus(2)
        got = apply(single_bump_params(), Tensor(2.0)).data
        assert abs(got - expected) < 1e-12
        assert abs(expected - 4.126928011) < 1e-8

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(0, 1, size=(5, 26))
        x = rng.gamma(1.0, 10.0, size=5)
        batched = apply(constrain(Tensor(raw)), Tensor(x)).data
        for i in range(5):
            single = apply(constrain(Tensor(raw[i])), Tensor(x[i])).data
            np.testing.assert_allclose(batched[i], single, rtol=1e-12)


class TestDerivative:
    def test_identity_derivative_one(self):
        x = np.array([0.0, 3.0, 50.0])
        np.testing.assert_allclose(derivative(identity_params(), Tensor(x)).data,
                                   np.ones(3), rtol=1e-15)

    def test_single_bump_derivative_at_zero(self):
        got = derivative(single_bump_params(), Tensor(0.0)).data
        assert abs(got - 1.5) < 1e-12  # 1 + 1*1*sigmoid(0)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(1)
        raw = rng.normal(0, 1, size=26)
        p = constrain(Tensor(raw))
        for x in rng.gamma(1.0, 20.0, size=10):
            h = 1e-6 * max(x, 1.0)
            fd = (apply(p, Tensor(x + h)).data - apply(p, Tensor(x - h)).data) / (2 * h)
            an = derivative(p, Tensor(x)).data
            assert abs(fd - an) / max(abs(an), 1e-12) < 1e-6


class TestMonotonicity:
    def test_random_constrained_pairs(self):
        rng = np.random.default_rng(2)
        n = 2000
        raw = rng.normal(0, 2, size=(n, 26))
        p = constrain(Tensor(raw))
        x1 = rng.uniform(0, 500, size=n)
        x2 = x1 + rng.uniform(1e-6, 500, size=n)
        x2 = np.minimum(x2, 500.0)
        keep = x2 > x1
        y1 = apply(p, Tensor(x1)).data
        y2 = apply(p, Tensor(x2)).data
        assert np.all(y1[keep] < y2[keep])
        assert np.all(derivative(p, Tensor(x1)).data > 0)

    def test_rank_order_preserved(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(0, 1, size=26)
        p = constrain(Tensor(raw))
        x = rng.gamma(0.6, 12.0, size=200)
        y = apply(p, Tensor(x)).data
        np.testing.assert_array_equal(np.argsort(x, kind="stable"),
                                      np.argsort(y, kind="stable"))


class TestGradients:
    def test_apply_grad_wrt_raw_params(self):
        rng = np.random.default_rng(4)
        x0 = rng.gamma(1.0, 8.0, size=6)
        cot = rng.normal(size=6)

        def f(raw):
            p = constrain(raw)
            return ad.sum_(ad.mul(apply(p, Tensor(x0)), Tensor(cot)))

        assert ad.grad_check(f, rng.normal(0, 1, size=26)) < 1e-5

    def test_apply_grad_wrt_x(self):
        rng = np.random.default_rng(5)
        raw = Tensor(rng.normal(0, 1, size=26))

        def f(x):
            return ad.sum_(apply(constrain(raw), x))

        assert ad.grad_check(f, rng.gamma(1.0, 8.0, size=6)) < 1e-6
