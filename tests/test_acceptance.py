"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers (run with -s to watch them live)."""

import time

import numpy as np
import pytest

from dclimba import autodiff as ad
from dclimba import _kernels, baselines, gridio, losses, metrics, synth, training, transform
from dclimba.autodiff import Tensor
from dclimba.losses import LossWeights
from dclimba.training import TrainConfig


def report(num, text):
    line = f"[PASS] criterion {num}: {text}"
    print("\n" + line)
    from conftest import ACCEPTANCE_LINES
    ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def _primitive_cases(rng):
    """(name, f, point-generator) per autodiff primitive, sampled away from
    non-smooth loci."""
    def pt(size=4, low=None, gap=None):
        def gen():
            x = rng.standard_normal(size)
            if low is not None:
                x = low + np.abs(x)
            if gap is not None:
                x = np.sort(x) + gap * np.arange(size)  # enforce sorted gaps
            return x
        return gen

    c = Tensor(rng.standard_normal(4))
    w = Tensor(rng.standard_normal((4, 3)))
    cot = Tensor(rng.standard_normal(4))
    cot3 = Tensor(rng.standard_normal(3))
    cot8 = Tensor(rng.standard_normal(8))
    cot23 = Tensor(rng.standard_normal((2, 3)))
    cw = Tensor(rng.standard_normal((2, 2, 3)))
    cb = Tensor(rng.standard_normal(2))
    cotc = Tensor(rng.standard_normal((1, 2, 5)))
    cot34 = Tensor(rng.standard_normal((3, 4)))

    return [
        ("add", lambda x: ad.sum_(ad.mul(ad.add(x, c), cot)), pt()),
        ("sub", lambda x: ad.sum_(ad.mul(ad.sub(x, c), cot)), pt()),
        ("mul", lambda x: ad.sum_(ad.mul(ad.mul(x, c), cot)), pt()),
        ("div", lambda x: ad.sum_(ad.mul(ad.div(c, x), cot)), pt(low=0.5)),
        ("matmul", lambda x: ad.sum_(ad.mul(ad.matmul(ad.reshape(x, (1, 4)), w),
                                            ad.reshape(cot3, (1, 3)))), pt()),
        ("conv1d", lambda x: ad.sum_(ad.mul(
            ad.conv1d(ad.reshape(x, (1, 2, 5)), cw, cb), cotc)), pt(size=10)),
        ("softplus", lambda x: ad.sum_(ad.mul(ad.softplus(x), cot)), pt()),
        ("sigmoid", lambda x: ad.sum_(ad.mul(ad.sigmoid(x), cot)), pt()),
        ("exp", lambda x: ad.sum_(ad.mul(ad.exp(x), cot)), pt()),
        ("log", lambda x: ad.sum_(ad.mul(ad.log(x), cot)), pt(low=0.5)),
        ("abs", lambda x: ad.sum_(ad.mul(ad.abs_(x), cot)), pt(low=1e-2)),
        ("power", lambda x: ad.sum_(ad.mul(ad.power(x, 1.7), cot)), pt(low=0.5)),
        ("sum", lambda x: ad.mul(ad.sum_(x), 1.0), pt()),
        ("mean", lambda x: ad.mean_(ad.mul(x, x)), pt()),
        ("sqrt", lambda x: ad.sum_(ad.mul(ad.sqrt(x), cot)), pt(low=0.5)),
        ("concat", lambda x: ad.sum_(ad.mul(ad.concat([x, x], axis=0), cot8)), pt()),
        ("slice", lambda x: ad.sum_(ad.mul(x[1:3], Tensor([1.3, -0.7]))), pt()),
        ("sort", lambda x: ad.sum_(ad.mul(ad.sort_with_permutation(x)[0], cot)),
         pt(gap=5e-3)),
        ("softmax", lambda x: ad.sum_(ad.mul(ad.softmax(x), cot)), pt()),
        ("clamp_min", lambda x: ad.sum_(ad.mul(ad.clamp_min(x, 0.0), cot)),
         pt(low=0.1)),
        ("reshape", lambda x: ad.sum_(ad.mul(ad.reshape(x, (2, 2)), cot23[:, :2])), pt()),
        ("broadcast_to", lambda x: ad.sum_(ad.mul(
            ad.broadcast_to(ad.reshape(x, (1, 4)), (3, 4)), cot34)), pt()),
    ]


def test_criterion_1_gradient_fidelity():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    worst = {}
    for name, f, gen in _primitive_cases(rng):
        errs = [ad.grad_check(f, gen()) for _ in range(100)]
        worst[name] = max(errs)
        assert worst[name] < 1e-5, f"{name}: max grad error {worst[name]:.2e}"

    # full composite loss at toy sizes: 2 batches x 3 sites x 8 days
    w = LossWeights(n_levels=16, q_star=0.9)
    y = rng.gamma(1.0, 5.0, size=(2, 3, 8)) + np.linspace(0, 0.7, 8)

    def composite(x):
        xs = ad.reshape(x, (6, 8))
        Q = losses.quantile_loss(xs, y.reshape(6, 8), w)
        R = losses.rainy_day_loss(xs, y.reshape(6, 8))
        S = losses.spatial_corr_loss(ad.reshape(x, (2, 3, 8)), y)
        L, _ = losses.composite_loss(Q, R, S)
        return L

    errs = []
    for _ in range(20):
        x0 = rng.gamma(1.0, 5.0, size=(2, 3, 8))
        # keep per-site values well separated so finite differences never
        # cross a sorting tie
        for row in x0.reshape(6, 8):
            order = np.argsort(row, kind="stable")
            row[order] = np.sort(row) + 2e-3 * np.arange(8)
        errs.append(ad.grad_check(composite, x0))
    elapsed = time.monotonic() - t0
    assert max(errs) < 1e-5, f"composite loss grad error {max(errs):.2e}"
    assert elapsed < 120.0, f"gradient fidelity took {elapsed:.0f}s"
    report(1, f"all primitive grad checks < 1e-5 (worst "
              f"{max(worst.values()):.2e}), composite loss {max(errs):.2e}, "
              f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. monotonicity suite
# ---------------------------------------------------------------------------

def test_criterion_2_monotonicity():
    rng = np.random.default_rng(77)
    n = 10_000
    raw = rng.normal(0.0, 2.0, size=(n, 26))
    params = transform.constrain(Tensor(raw))
    x1 = rng.uniform(0.0, 500.0, size=n)
    x2 = rng.uniform(0.0, 500.0, size=n)
    lo, hi = np.minimum(x1, x2), np.maximum(x1, x2)
    same = hi - lo < 1e-9
    hi[same] += 1.0
    y_lo = transform.apply(params, Tensor(lo)).data
    y_hi = transform.apply(params, Tensor(hi)).data
    violations = int(np.sum(~(y_lo < y_hi)))
    assert violations == 0
    d1 = transform.derivative(params, Tensor(lo)).data
    d2 = transform.derivative(params, Tensor(hi)).data
    assert np.all(d1 > 0) and np.all(d2 > 0)
    report(2, f"0 ordering violations over {n} random coefficient sets; "
              f"min derivative {min(d1.min(), d2.min()):.3e} > 0")


# ---------------------------------------------------------------------------
# 3. loss identities and hand values
# ---------------------------------------------------------------------------

def test_criterion_3_loss_identities():
    rng = np.random.default_rng(5)
    w = LossWeights()
    x = rng.gamma(0.8, 6.0, size=(4, 120))
    Q = losses.quantile_loss(Tensor(x), x, w).item()
    R = losses.rainy_day_loss(Tensor(x), x).item()
    S = losses.spatial_corr_loss(Tensor(x[None] + 0.01), x[None] + 0.01).item()
    assert Q == 0.0 and R == 0.0
    assert S <= 1e-6

    for _ in range(25):
        q, r, s = rng.gamma(1.0, 1.0, size=3)
        _, rep = losses.composite_loss(Tensor(q), Tensor(r), Tensor(s))
        assert rep.L == 0.99 * rep.Q + 0.01 * rep.R + 1.0 * rep.S

    y = rng.gamma(1.0, 5.0, size=200)
    assert abs(losses.quantile_loss(Tensor(y + 1.0), y, w).item() - 1.0) < 1e-12

    got = losses.rainy_day_loss(Tensor(np.array([[0.0, 5.0]])),
                                np.array([[5.0, 5.0]])).item()
    assert abs(got - 0.713072) < 1e-6
    assert abs(losses.quantile_weight(0.5, 0.9) - 0.67032) < 1e-5
    report(3, "Q/R/S identities exact, composite bit-exact, hand values "
              "(1.0, 0.713072, 0.67032) reproduced")


# ---------------------------------------------------------------------------
# 4. index oracle equivalence, 1000 random years
# ---------------------------------------------------------------------------

def _oracle_all(year, thr):
    months = []
    start = 0
    for ln in metrics.MONTH_LENGTHS:
        months.append(year[start:start + ln])
        start += ln

    def longest(pred):
        best = cur = 0
        for v in year:
            cur = cur + 1 if pred(v) else 0
            best = max(best, cur)
        return best

    sdii = [float(np.mean(m[m >= 1.0])) if (m >= 1.0).any() else np.nan
            for m in months]
    return {
        "r10mm": float((year >= 10.0).sum()),
        "r20mm": float((year >= 20.0).sum()),
        "rx1day": [float(m.max()) for m in months],
        "rx5day": [max(float(m[i:i + 5].sum()) for i in range(len(m) - 4))
                   for m in months],
        "sdii": sdii,
        "cdd": float(longest(lambda v: v < 1.0)),
        "cwd": float(longest(lambda v: v >= 1.0)),
        "r95ptot": float(year[year > thr[0.95]].sum()),
        "r99ptot": float(year[year > thr[0.99]].sum()),
    }


def test_criterion_4_etccdi_oracle_equivalence():
    rng = np.random.default_rng(31)
    for i in range(1000):
        p_wet = rng.uniform(0.05, 0.8)
        year = np.where(rng.random(365) < p_wet,
                        rng.gamma(0.7, rng.uniform(2.0, 14.0), 365), 0.0)
        base = np.where(rng.random(730) < 0.4, rng.gamma(0.7, 8.0, 730), 0.0)
        thr = metrics.wet_day_thresholds(base[None])
        want = _oracle_all(year, thr)
        assert metrics.etccdi_index(year, "r10mm").values[0] == want["r10mm"]
        assert metrics.etccdi_index(year, "r20mm").values[0] == want["r20mm"]
        assert metrics.etccdi_index(year, "cdd").values[0] == want["cdd"]
        assert metrics.etccdi_index(year, "cwd").values[0] == want["cwd"]
        np.testing.assert_allclose(metrics.etccdi_index(year, "rx1day").values,
                                   want["rx1day"], atol=1e-12)
        np.testing.assert_allclose(metrics.etccdi_index(year, "rx5day").values,
                                   want["rx5day"], atol=1e-12)
        np.testing.assert_allclose(metrics.etccdi_index(year, "sdii").values,
                                   want["sdii"], atol=1e-12)
        p95 = metrics.etccdi_index(year, "r95ptot", thr).values[0]
        p99 = metrics.etccdi_index(year, "r99ptot", thr).values[0]
        assert abs(p95 - want["r95ptot"]) < 1e-12
        assert abs(p99 - want["r99ptot"]) < 1e-12
        assert want["r20mm"] <= want["r10mm"]
        assert p99 <= p95
    report(4, "nine indices match brute-force oracles on 1000 random years; "
              "ordering invariants hold on every sample")


# ---------------------------------------------------------------------------
# 5. fractal fixtures
# ---------------------------------------------------------------------------

def test_criterion_5_fractal_fixtures():
    n = 64
    r, c = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    mask = (r + c < n).astype(np.uint8)
    boxes = (4, 8, 16)
    counts = _kernels.box_partial_count(mask[None].astype(np.float64), np.array([[0.5]]),
                                        boxes)[0, 0]
    for box, got in zip(boxes, counts):
        assert got == n // box, f"box {box}: {got} != {n // box}"
    fd = float(metrics.fd_fit(counts, boxes))
    assert abs(fd - 1.0) <= 1e-9

    rng = np.random.default_rng(99)
    noise = rng.random((256, 256))
    curve = metrics.fd_curve(noise, levels=np.arange(0.1, 0.91, 0.1))
    assert np.all(curve.fd >= 1.7) and np.all(curve.fd <= 2.0)

    ref = metrics.fd_curve(noise, levels=np.array([0.2, 0.5, 0.8]))
    assert metrics.fd_mae(ref, ref) == 0.0
    report(5, f"anti-diagonal N=64/box exact, FD={fd:.12f}; noise FD in "
              f"[{curve.fd.min():.3f}, {curve.fd.max():.3f}] within [1.7, 2]; "
              f"self-MAE 0")


# ---------------------------------------------------------------------------
# 6. baseline algebra
# ---------------------------------------------------------------------------

def test_criterion_6_baseline_algebra():
    def one_row(method, model, obs, x, mode="multiplicative"):
        return baselines.correct_cells(method, model[None], obs[None], x[None], mode)[0]

    rng = np.random.default_rng(13)
    model = rng.gamma(0.9, 6.0, 400)
    obs = rng.gamma(0.8, 4.0, 400)
    corrected = one_row("qm", model, obs, model)
    taus = np.linspace(0.0, 1.0, model.size)
    np.testing.assert_allclose(
        np.sort(corrected), np.sort(obs), atol=1e-9)
    np.testing.assert_allclose(
        np.interp(taus, taus, np.sort(corrected)), np.sort(obs), atol=1e-9)

    hist = np.sort(rng.gamma(0.9, 6.0, 500)) + 0.5
    obs2 = np.sort(rng.gamma(0.8, 4.0, 500)) + 0.5
    future = 1.7 * hist
    corr_fut = one_row("qdm", hist, obs2, future)
    corr_hist = one_row("qdm", hist, obs2, hist)
    q = np.linspace(0.05, 0.95, 46)
    ratio = np.quantile(corr_fut, q) / np.quantile(corr_hist, q)
    raw_ratio = np.quantile(future, q) / np.quantile(hist, q)
    np.testing.assert_allclose(ratio, raw_ratio, rtol=1e-6)

    probes = np.sort(rng.gamma(0.9, 6.0, 500))
    for method, mode in [("qm", "multiplicative"), ("ecdfm", "multiplicative"),
                         ("ecdfm", "additive"), ("qdm", "multiplicative")]:
        assert np.all(np.diff(one_row(method, model, obs, probes, mode)) >= 0.0)
    report(6, "QM self-consistency at 1e-9, QDM preserves per-quantile "
              "relative change at 1e-6 on q in [0.05, 0.95], all baselines "
              "monotone on sorted probes")


# ---------------------------------------------------------------------------
# 7. trend-bias arithmetic
# ---------------------------------------------------------------------------

def test_criterion_7_trend_bias():
    def tb_percent(rh, rf, dh, dfu, stat):
        # one-row float64 arrays: float32 rows would lose the 1e-9 bound
        return metrics.trend_bias(rh[None], rf[None], dh[None], dfu[None])[stat][2][0]

    h = np.full(365, 1.0)
    f = np.full(365, 3.0)
    assert tb_percent(h, f, h, f, "mean") == 0.0
    df = np.full(365, 2.0)
    assert tb_percent(h, f, h, df, "mean") == -50.0
    s = np.full(365, 2.0)
    assert np.isnan(tb_percent(s, s, s, 2 * s, "mean"))

    rng = np.random.default_rng(17)
    rh, rf, dh, dfu = (rng.gamma(1.0, 5.0, 730) for _ in range(4))
    for stat in ("mean", "q95"):
        base = tb_percent(rh, rf, dh, dfu, stat)
        for lam in (0.25, 3.0, 40.0):
            scaled = tb_percent(lam * rh, lam * rf, lam * dh, lam * dfu, stat)
            assert abs(scaled - base) < 1e-9
    report(7, "hand cases (0%, -50%, guard) exact; scale covariance to 1e-9")


# ---------------------------------------------------------------------------
# 8. end-to-end synthetic recovery
# ---------------------------------------------------------------------------

TRAIN8, VAL8, TEST8 = (0, 2190), (2190, 2920), (2920, 3650)


@pytest.fixture(scope="module")
def world8():
    cfg = synth.SynthConfig(height=8, width=8, years=10, seed=11,
                            bias_a=1.3, bias_p=1.1, drizzle_prob=0.3)
    ref, attrs = synth.gen_reference(cfg)
    gcm = synth.apply_known_bias(ref, cfg)
    return cfg, ref, gcm, attrs


@pytest.fixture(scope="module")
def trained8(world8):
    _, ref, gcm, attrs = world8
    t0 = time.monotonic()
    graph = gridio.select_neighbors(gcm, 16, TRAIN8)
    tc = TrainConfig(train_window=TRAIN8, val_window=VAL8, epochs=20,
                     seq_len=365, lr=1e-4, batch_size=5, seed=3)
    ckpt = training.train(ref, gcm, attrs, graph, tc)
    corrected = training.correct_field(ckpt, gcm, attrs, window=TEST8)
    return ckpt, corrected, time.monotonic() - t0


def test_criterion_8_end_to_end_recovery(world8, trained8):
    _, ref, gcm, attrs = world8
    ckpt, corrected, train_seconds = trained8
    t0 = time.monotonic()

    # (i) screening: smoothed quantile loss monotonically decreasing
    assert training.monotone_after_smoothing(ckpt.loss_history[:, 1]), \
        "smoothed quantile loss not monotonically decreasing"

    # (ii) quantile-gap reduction on the held-out test window
    levels = np.round(np.arange(0.05, 0.9949, 0.01), 4)
    ref_test = gridio.GridField(ref.start_date + TEST8[0], ref.lats, ref.lons,
                                ref.values[TEST8[0]:TEST8[1]])
    gcm_test = gridio.GridField(gcm.start_date + TEST8[0], gcm.lats, gcm.lons,
                                gcm.values[TEST8[0]:TEST8[1]])
    raw_gap = synth.oracle_quantile_gap(ref_test, gcm_test, levels).mean()
    corr_gap = synth.oracle_quantile_gap(ref_test, corrected, levels).mean()
    ratio = corr_gap / raw_gap
    assert ratio <= 0.40, f"corrected/raw quantile gap {ratio:.3f} > 0.40"

    # (iii) mean |percentage bias| across the nine indices beats raw
    corr_score = training.composite_score_from_fields(
        corrected, ref, (0, 730), TEST8, TRAIN8)
    raw_score = training.composite_score_from_fields(
        gcm, ref, TEST8, TEST8, TRAIN8)
    assert corr_score < raw_score

    total = train_seconds + (time.monotonic() - t0)
    assert total < 900.0, f"end-to-end run took {total:.0f}s"
    report(8, f"screening ok; gap ratio {ratio:.3f} <= 0.40 "
              f"({(1 - ratio) * 100:.0f}% reduction); index bias "
              f"{corr_score:.2f}% < raw {raw_score:.2f}%; {total:.0f}s < 900s")


# ---------------------------------------------------------------------------
# 9. spatial holdout
# ---------------------------------------------------------------------------

def test_criterion_9_spatial_holdout():
    H = W = 12
    cols = np.arange(H * W) % W
    rows = np.arange(H * W) // W
    train_region = tuple(np.where(cols < 6)[0])
    val_region = tuple(np.where((cols >= 6) & (rows < 6))[0])
    test_region = np.where((cols >= 6) & (rows >= 6))[0]

    bias_a = 1.15 + 0.3 * (np.arange(W) / (W - 1))[None, :].repeat(H, axis=0)
    bias_p = 1.03 + 0.1 * (np.arange(H) / (H - 1))[:, None].repeat(W, axis=1)
    cfg = synth.SynthConfig(height=H, width=W, years=5, seed=23,
                            bias_a=bias_a, bias_p=bias_p, drizzle_prob=0.3)
    ref, attrs = synth.gen_reference(cfg)
    gcm = synth.apply_known_bias(ref, cfg)

    train_w, eval_w = (0, 1095), (1095, 1825)
    graph = gridio.select_neighbors(gcm, 16, train_w)
    tc = TrainConfig(train_window=train_w, val_window=eval_w, epochs=15,
                     seq_len=365, lr=1e-4, batch_size=5, seed=7,
                     train_region=train_region, val_region=val_region)
    ckpt = training.train(ref, gcm, attrs, graph, tc)

    val_score = training.validate_composite_score(ckpt, ref, gcm, attrs)
    corrected = training.correct_field(ckpt, gcm, attrs, window=eval_w)
    corr_score = training.composite_score_from_fields(
        corrected, ref, (0, 730), eval_w, train_w, region=test_region)
    raw_score = training.composite_score_from_fields(
        gcm, ref, eval_w, eval_w, train_w, region=test_region)
    assert corr_score < raw_score, \
        f"test-region bias {corr_score:.2f}% not below raw {raw_score:.2f}%"
    report(9, f"held-out region mean |pct bias| {corr_score:.2f}% < raw "
              f"{raw_score:.2f}% (validation-region score {val_score:.2f}%)")


# ---------------------------------------------------------------------------
# 10. reproducibility and formats
# ---------------------------------------------------------------------------

def test_criterion_10_reproducibility(world8, trained8, tmp_path):
    cfg, ref, gcm, attrs = world8
    ckpt, corrected, _ = trained8

    # fixed-seed regeneration is byte-identical
    ref2, attrs2 = synth.gen_reference(cfg)
    gcm2 = synth.apply_known_bias(ref2, cfg)
    p1, p2 = tmp_path / "a.grd", tmp_path / "b.grd"
    gridio.write_grd(ref, p1)
    gridio.write_grd(ref2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    gridio.write_grd(gcm, p1)
    gridio.write_grd(gcm2, p2)
    assert p1.read_bytes() == p2.read_bytes()

    # GRD1 round trip is bit-exact
    back = gridio.read_grd(p1)
    np.testing.assert_array_equal(back.values.view(np.uint32),
                                  gcm.values.view(np.uint32))

    # checkpoint round trip is bit-exact and reproduces the forward pass
    cpath = tmp_path / "model.dckp"
    training.save_checkpoint(ckpt, cpath)
    back_ckpt = training.load_checkpoint(cpath)
    for k in ckpt.weights:
        np.testing.assert_array_equal(back_ckpt.weights[k].view(np.uint64),
                                      ckpt.weights[k].view(np.uint64))
    redo = training.correct_field(back_ckpt, gcm, attrs, window=(2920, 3000))
    again = training.correct_field(ckpt, gcm, attrs, window=(2920, 3000))
    np.testing.assert_array_equal(redo.values.view(np.uint32),
                                  again.values.view(np.uint32))

    # corrected output is physical
    assert np.isfinite(corrected.values).all()
    assert (corrected.values >= 0).all()
    report(10, "fixed-seed outputs byte-identical; GRD1 and checkpoint round "
               "trips bit-exact; corrected field finite and non-negative")
