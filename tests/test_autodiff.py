import weakref

import numpy as np
import pytest

from dclimba import autodiff as ad
from dclimba.autodiff import Tensor


def rnd(*shape, seed=0, spread=1.0):
    return spread * np.random.default_rng(seed).standard_normal(shape)


def softplus_two_line(d):
    """softplus and its derivative in two plain lines each: the oracle for
    ad.softplus, which computes them with fewer temporaries."""
    e = np.exp(-np.abs(d))
    return (np.maximum(d, 0.0) + np.log1p(e),
            np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)))


class TestPrimitiveValues:
    def test_softplus_bit_identical_to_two_line_formula(self):
        rng = np.random.default_rng(3)
        d = np.concatenate([30.0 * rng.standard_normal((40, 50)).ravel(),
                            [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308]])
        g = rng.standard_normal(d.shape)
        with ad.tape_scope():
            x = Tensor(d, requires_grad=True)
            y = ad.softplus(x)
            got = y.data.copy()
            ad.backward(ad.sum_(ad.mul(y, Tensor(g))))
        value, slope = softplus_two_line(d)
        np.testing.assert_array_equal(got.view(np.uint64), value.view(np.uint64))
        np.testing.assert_array_equal(x.grad.view(np.uint64), (g * slope).view(np.uint64))

    @pytest.mark.parametrize("d", [
        np.array(0.0), np.array(-0.0), np.array(1.5), np.array(-np.inf), np.array(np.nan),
        np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 710.5, -710.5, 800.0,
                  -800.0, 1e308, -1e308, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 0.5, -3.0])],
        ids=["0d-zero", "0d-neg-zero", "0d", "0d-neg-inf", "0d-nan", "edges"])
    def test_softplus_untaped_bit_identical_to_taped(self, d):
        # with a gradient the pieces also make the slope; the value keeps its bits
        untaped = ad.softplus(Tensor(d))
        with ad.tape_scope():
            taped = ad.softplus(Tensor(d, requires_grad=True))
        assert untaped.requires_grad is False and taped.requires_grad is True
        assert untaped.data.shape == taped.data.shape == d.shape
        assert untaped.data.tobytes() == taped.data.tobytes()
        assert untaped.data.tobytes() == softplus_two_line(d)[0].tobytes()

    def test_softplus_at_zero(self):
        out = ad.softplus(Tensor(0.0))
        assert abs(out.item() - np.log(2.0)) < 1e-15
        err = ad.grad_check(lambda x: ad.sum_(ad.softplus(x)), np.array([0.0]))
        assert err < 1e-9

    def test_sort_example(self):
        # permutation [1, 2, 0]: the gradient routes cotangent j to x[perm[j]]
        with ad.tape_scope():
            x = Tensor([3.0, 1.0, 2.0], requires_grad=True)
            s = ad.sort(x)
            ad.backward(ad.sum_(ad.mul(s, Tensor([10.0, 20.0, 30.0]))))
        np.testing.assert_array_equal(s.data, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(x.grad, [30.0, 10.0, 20.0])

    def test_add_zero_identity(self):
        with ad.tape_scope():
            x = Tensor([1.5, -2.0], requires_grad=True)
            ad.backward(ad.sum_(ad.add(x, 0.0)))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0])

    def test_sort_ties_keep_original_order(self):
        # stable permutation [1, 3, 0, 2]: each tie's first element takes
        # the lower rank's cotangent
        with ad.tape_scope():
            x = Tensor([2.0, 1.0, 2.0, 1.0], requires_grad=True)
            ad.backward(ad.sum_(ad.mul(ad.sort(x), Tensor([10.0, 20.0, 30.0, 40.0]))))
        np.testing.assert_array_equal(x.grad, [30.0, 10.0, 40.0, 20.0])

    @pytest.mark.parametrize("idx", [
        np.array([0, 0, 2]), [0, 0, 2], (slice(None), np.array([1, 1])), True],
        ids=["array", "list", "tuple-with-array", "bool"])
    def test_getitem_rejects_advanced_index(self, idx):
        # the vjp's z[idx] += g keeps one cotangent of a repeated index, not
        # their sum (x.grad would read [1, 0, 1] for x[[0, 0, 2]]); take sums them
        with pytest.raises(ValueError, match="ad.take"):
            ad.getitem(Tensor(rnd(3, 3, seed=11)), idx)

    @pytest.mark.parametrize("axis", [0, -1])
    def test_take_backward_matches_add_at(self, axis):
        # repeated and out-of-order indices: each gradient sums its repeats in
        # index order, exactly as np.add.at does
        d = rnd(6, 4, 7, seed=5)
        idx = np.array([3, 0, 3, 5, 3, 0, 1, 5, 3])
        g = rnd(*np.take(d, idx, axis=axis).shape, seed=6, spread=1e3)
        with ad.tape_scope():
            x = Tensor(d, requires_grad=True)
            ad.backward(ad.sum_(ad.mul(ad.take(x, idx, axis=axis), Tensor(g))))
        want = np.zeros_like(d)
        np.add.at(np.moveaxis(want, axis, 0), idx, np.moveaxis(g, axis, 0))
        np.testing.assert_array_equal(x.grad, want)


class TestBackward:
    def test_sum_of_squares(self):
        with ad.tape_scope():
            x = Tensor([1.0, 2.0], requires_grad=True)
            ad.backward(ad.sum_(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_constant_loss(self):
        with ad.tape_scope():
            x = Tensor([1.0, 2.0], requires_grad=True)
            ad.backward(ad.sum_(Tensor([3.0])))
        assert x.grad is None

    def test_leaf_grad_takes_each_part_in_turn(self):
        # 1 + 2**-53 rounds back to 1, so adding the parts one at a time
        # gives 1 where g0 + (p1 + p2) would give 1 + 2**-52
        g0 = np.array([1.0, 0.1])
        with ad.tape_scope():
            x = Tensor([2.0**-53, 0.3], requires_grad=True)
            x.grad = g0
            ad.backward(ad.sum_(ad.mul(x, x)))     # parts g*x, then x*g
        want = (g0 + x.data) + x.data
        assert want[0] == 1.0
        np.testing.assert_array_equal(x.grad.view(np.uint64), want.view(np.uint64))

    def test_intermediates_keep_no_grad(self):
        with ad.tape_scope():
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = ad.mul(x, x)
            loss = ad.sum_(ad.mul(y, y))
            ad.backward(loss)
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [4.0, 32.0])

    def test_softplus_grad_at_zero(self):
        with ad.tape_scope():
            x = Tensor([0.0], requires_grad=True)
            ad.backward(ad.sum_(ad.softplus(x)))
        np.testing.assert_allclose(x.grad, [0.5], rtol=1e-15)

    def test_non_scalar_loss_rejected(self):
        with ad.tape_scope():
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = ad.mul(x, x)
            with pytest.raises(ValueError):
                ad.backward(y)

    def test_linearity(self):
        x0 = rnd(4, seed=1)

        def f(t):
            return ad.sum_(ad.mul(t, t))

        def g(t):
            return ad.sum_(ad.softplus(t))

        a, b = 2.5, -1.25
        with ad.tape_scope():
            x = Tensor(x0, requires_grad=True)
            ad.backward(f(x))
            gf = x.grad.copy()
        with ad.tape_scope():
            x = Tensor(x0, requires_grad=True)
            ad.backward(g(x))
            gg = x.grad.copy()
        with ad.tape_scope():
            x = Tensor(x0, requires_grad=True)
            ad.backward(ad.add(ad.mul(f(x), a), ad.mul(g(x), b)))
            gab = x.grad.copy()
        np.testing.assert_allclose(gab, a * gf + b * gg, atol=1e-12)

    def test_sort_grad_is_ones_for_sum(self):
        with ad.tape_scope():
            x = Tensor(rnd(8, seed=3), requires_grad=True)
            ad.backward(ad.sum_(ad.sort(x)))
        np.testing.assert_array_equal(x.grad, np.ones(8))

    def test_determinism_bit_identical(self):
        def run():
            with ad.tape_scope():
                x = Tensor(rnd(6, seed=5), requires_grad=True)
                y = ad.softmax(ad.mul(x, x))
                ad.backward(ad.sum_(ad.mul(y, Tensor(rnd(6, seed=6)))))
                return x.grad.copy()

        a, b = run(), run()
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("make, use", [
        (lambda x: ad.add(x, x), ad.sum_),       # sum's vjp reads only a shape
        (lambda x: ad.mul(x, x), ad.softplus),   # softplus's reads only its slope
    ], ids=["add-then-sum", "softplus-input"])
    def test_forward_frees_a_value_no_vjp_reads(self, make, use):
        with ad.tape_scope():
            x = Tensor(rnd(3, 4, seed=8), requires_grad=True)
            mid = make(x)
            value = weakref.ref(mid.data)
            out = use(mid)
            del mid
            assert value() is None
            ad.backward(ad.sum_(out))
        assert x.grad.shape == x.shape

    def test_values_stay_readable_after_backward(self):
        with ad.tape_scope():
            x = Tensor([1.0, 2.0], requires_grad=True)
            y = ad.mul(x, x)
            s = ad.softplus(y)
            ad.backward(ad.sum_(s))
        np.testing.assert_array_equal(y.data, [1.0, 4.0])
        assert s.data.tobytes() == softplus_two_line(np.array([1.0, 4.0]))[0].tobytes()

    def test_backward_clears_nodes(self):
        with ad.tape_scope() as tape:
            x = Tensor([1.0, 2.0], requires_grad=True)
            ad.backward(ad.sum_(ad.mul(x, x)))
            assert tape.nodes == []
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])


class TestErrors:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_sqrt_of_negative(self):
        with pytest.raises(ValueError):
            ad.sqrt(Tensor([-1.0]))

    def test_even_conv_kernel_rejected(self):
        with pytest.raises(ValueError):
            ad.conv1d(Tensor(np.zeros((1, 1, 4))), Tensor(np.zeros((1, 1, 2))),
                      Tensor(np.zeros(1)))


def conv1d_oracle(x, w, b):
    """Direct triple-loop zero-padded convolution."""
    B, cin, T = x.shape
    cout, _, K = w.shape
    pad = K // 2
    out = np.zeros((B, cout, T))
    for i in range(B):
        for co in range(cout):
            for t in range(T):
                acc = b[co]
                for ci in range(cin):
                    for k in range(K):
                        src = t + k - pad
                        if 0 <= src < T:
                            acc += w[co, ci, k] * x[i, ci, src]
                out[i, co, t] = acc
    return out


class TestConv:
    def test_matches_direct_oracle(self):
        x = rnd(2, 3, 7, seed=1)
        w = rnd(4, 3, 3, seed=2)
        b = rnd(4, seed=3)
        out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, conv1d_oracle(x, w, b), atol=1e-12)

    def test_grad_all_inputs(self):
        w0 = rnd(2, 3, 3, seed=4)
        b0 = rnd(2, seed=5)
        x0 = rnd(1, 3, 6, seed=6)
        cot = rnd(1, 2, 6, seed=7)
        assert ad.grad_check(
            lambda x: ad.sum_(ad.mul(ad.conv1d(x, Tensor(w0), Tensor(b0)),
                                     Tensor(cot))), x0) < 1e-7

        def fw(w):
            return ad.sum_(ad.mul(ad.conv1d(Tensor(x0), w, Tensor(b0)), Tensor(cot)))

        assert ad.grad_check(fw, w0) < 1e-7


def expanded_pair(op, x):
    """sum(op(a, b) * cotangent) for a = x[:3] as (3, 1), b = x[3:] as (1, 4)."""
    a, b = ad.reshape(x[:3], (3, 1)), ad.reshape(x[3:], (1, 4))
    return ad.sum_(ad.mul(op(a, b), Tensor(rnd(3, 4, seed=83))))


class TestGradChecks:
    @pytest.mark.parametrize("name,f,x", [
        ("add", lambda x: ad.sum_(ad.add(x, Tensor(rnd(5, seed=20)))), rnd(5, seed=10)),
        ("sub", lambda x: ad.sum_(ad.sub(Tensor(rnd(5, seed=21)), x)), rnd(5, seed=11)),
        ("mul", lambda x: ad.sum_(ad.mul(x, Tensor(rnd(5, seed=22)))), rnd(5, seed=12)),
        ("div", lambda x: ad.sum_(ad.div(Tensor(rnd(5, seed=23)), x)),
         2.0 + np.abs(rnd(5, seed=13))),
        ("matmul", lambda x: ad.sum_(ad.matmul(x, Tensor(rnd(4, 3, seed=24)))),
         rnd(2, 4, seed=14)),
        ("sigmoid", lambda x: ad.sum_(ad.sigmoid(x)), rnd(5, seed=15)),
        ("sqrt", lambda x: ad.sum_(ad.sqrt(x)), 1.0 + np.abs(rnd(5, seed=18))),
        ("abs", lambda x: ad.sum_(ad.abs_(x)), 0.5 + np.abs(rnd(5, seed=25))),
        ("mean", lambda x: ad.mean_(ad.mul(x, x)), rnd(6, seed=27)),
        ("softmax", lambda x: ad.sum_(ad.mul(ad.softmax(x), Tensor(rnd(5, seed=28)))),
         rnd(5, seed=29)),
        ("concat", lambda x: ad.sum_(ad.mul(ad.concat([x, x], axis=0),
                                            Tensor(rnd(10, seed=30)))), rnd(5, seed=31)),
        ("take", lambda x: ad.sum_(ad.take(x, np.array([0, 2, 2]), axis=-1)),
         rnd(5, seed=32)),
        ("getitem", lambda x: ad.sum_(x[1:4]), rnd(6, seed=33)),
        ("getitem_tuple", lambda x: ad.sum_(ad.mul(x[np.int64(1), ::-1],
                                                   Tensor(rnd(3, seed=90)))), rnd(4, 3, seed=91)),
        ("getitem_ellipsis_none", lambda x: ad.sum_(ad.mul(
            x[..., None, 0:2], Tensor(rnd(4, 1, 2, seed=92)))), rnd(4, 3, seed=93)),
        ("reshape", lambda x: ad.sum_(ad.mul(ad.reshape(x, (3, 2)),
                                             Tensor(rnd(3, 2, seed=34)))), rnd(6, seed=35)),
        ("transpose", lambda x: ad.sum_(ad.mul(ad.transpose(x, (1, 0)),
                                               Tensor(rnd(3, 2, seed=36)))), rnd(2, 3, seed=37)),
        ("linear", lambda x: ad.sum_(ad.linear(x, Tensor(rnd(3, 2, seed=40)),
                                               Tensor(rnd(2, seed=41)))), rnd(4, 3, seed=42)),
        ("add_expand", lambda x: ad.sum_(ad.mul(
            ad.add(Tensor(rnd(3, 4, seed=43)), ad.reshape(x, (1, 4))),
            Tensor(rnd(3, 4, seed=44)))), rnd(4, seed=45)),
        ("sort", lambda x: ad.sum_(ad.mul(ad.sort(x), Tensor(rnd(6, seed=46)))),
         np.cumsum(0.1 + np.abs(rnd(6, seed=47)))),
        ("linear_stacked", lambda x: ad.sum_(ad.mul(
            ad.linear(x, Tensor(rnd(3, 2, seed=55)), Tensor(rnd(2, seed=56))),
            Tensor(rnd(2, 4, 2, seed=57)))), rnd(2, 4, 3, seed=58)),
        # both operands broadcast: x[:3] as (3, 1) against x[3:] as (1, 4)
        ("sub_both_expanded", lambda x: expanded_pair(ad.sub, x), rnd(7, seed=80)),
        ("mul_both_expanded", lambda x: expanded_pair(ad.mul, x), rnd(7, seed=81)),
        ("div_both_expanded", lambda x: expanded_pair(ad.div, x),
         2.0 + np.abs(rnd(7, seed=82))),
    ])
    def test_primitive_gradients(self, name, f, x):
        assert ad.grad_check(f, x) < 1e-6, name

    def test_weight_gradients_via_linear(self):
        x0 = rnd(4, 3, seed=50)

        def fw(w):
            return ad.sum_(ad.mul(ad.linear(Tensor(x0), w, Tensor(rnd(2, seed=51))),
                                  Tensor(rnd(4, 2, seed=52))))

        assert ad.grad_check(fw, rnd(3, 2, seed=53)) < 1e-7

    def test_weight_and_bias_gradients_via_stacked_linear(self):
        x0 = rnd(3, 4, 3, seed=59)
        cot = Tensor(rnd(3, 4, 2, seed=60))

        def fw(w):
            return ad.sum_(ad.mul(ad.linear(Tensor(x0), w, Tensor(rnd(2, seed=61))), cot))

        def fb(b):
            return ad.sum_(ad.mul(ad.linear(Tensor(x0), Tensor(rnd(3, 2, seed=62)), b), cot))

        assert ad.grad_check(fw, rnd(3, 2, seed=63)) < 1e-7
        assert ad.grad_check(fb, rnd(2, seed=64)) < 1e-7

    def test_stacked_linear_is_one_fused_node(self):
        # items of a stack map exactly as each would alone
        x0 = rnd(3, 4, 5, seed=65)
        w, b = Tensor(rnd(5, 2, seed=66), requires_grad=True), Tensor(rnd(2, seed=67))
        with ad.tape_scope() as tape:
            out = ad.linear(Tensor(x0), w, b)
            assert len(tape.nodes) == 1
        for g in range(3):
            alone = ad.linear(Tensor(x0[g]), w, b).data
            np.testing.assert_array_equal(out.data[g], alone)

    @pytest.mark.parametrize("op, shapes", [
        (ad.mul, [(3, 4), (3, 4)]),
        (ad.linear, [(4, 3), (3, 2), (2,)]),
        (ad.conv1d, [(2, 3, 6), (2, 3, 3), (2,)]),
    ], ids=["mul", "linear", "conv1d"])
    def test_node_returns_only_the_parameters_part(self, op, shapes):
        # data in, a parameter second: the node's backward returns one part.
        # Nodes and parts carry gradient holders, not Tensors
        args = [Tensor(rnd(*s, seed=70 + i)) for i, s in enumerate(shapes)]
        param = args[1] = Tensor(args[1].data, requires_grad=True)
        with ad.tape_scope() as tape:
            out = op(*args)
            (node_out, bwd), = tape.nodes
            parts = bwd(np.ones_like(out.data))
        assert node_out is out.holder
        assert len(parts) == 1 and parts[0][0] is param.holder
        assert parts[0][1].shape == param.shape

    def test_batched_matmul_equal_batch_dims(self):
        def f(x):
            return ad.sum_(ad.matmul(x, ad.transpose(x, (0, 2, 1))))

        assert ad.grad_check(f, rnd(2, 3, 4, seed=54)) < 1e-6
