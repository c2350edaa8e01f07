"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line. Criteria are numbered; fixtures are frozen by
seed so every run is bitwise reproducible."""

import time
import warnings

import numpy as np
import pytest

from jpegkit.codec import compress, compress_with_table, decompress, decompress_float
from jpegkit.diffjpeg import apply_vjp, forward
from jpegkit.image import FloatImage, PixelImage, to_float, to_pixels
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.losses import LossWeights, SampleBatch, loss_c, loss_fm, loss_sm
from jpegkit.metrics import consistency_rmse, perceptual_proxy
from jpegkit.numerics import run_numerics_study
from jpegkit.projection import project
from jpegkit.restorer import RestoreConfig, restore_with_history, sweep_lambda_c
from jpegkit.toy import (
    fm_identity_check,
    mmse_consistency_deviation,
    posterior_sampler,
    posterior_sampler_checks,
    random_model,
)
from tests.conftest import block_sampler, natural_image, uniform_image
from tests.reference import forward_no_round, mmse_estimate, op_for_image, uniform_model


def _report(num, ok, budget_s, elapsed, detail):
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(f"ACCEPTANCE {num:02d}: {status} ({elapsed:.1f}s/{budget_s:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def sweep_fixture():
    rng = np.random.default_rng(99)
    xs = [natural_image(rng) for _ in range(10)]
    ys = [decompress(compress(x, 5)) for x in xs]
    return xs, ys


def test_criterion_01_mmse_consistency_bound():
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(100):
        model = random_model(np.random.default_rng(10_000 + i))
        worst = max(worst, mmse_consistency_deviation(model))
    ok = worst <= 0.5 + 1e-12
    _report(1, ok, 10, time.perf_counter() - t0, f"max |transform(mmse)-y|_inf = {worst:.15f} <= 0.5+1e-12")


def test_criterion_02_posterior_sampler_characterization():
    t0 = time.perf_counter()
    model = uniform_model(2, 4, [2.0, 2.0])
    exact = posterior_sampler_checks(model, posterior_sampler(model))
    ok = exact.inconsistent_mass <= 1e-12 and exact.marginal_tv < 1e-12

    # counterexample 1: deterministic point mass at the snapped conditional
    # mean matches consistency-ish behavior but cannot match the prior
    def snapped(y):
        est = mmse_estimate(model, np.asarray(y))
        idx = np.argmin(np.sum((model.signals - est) ** 2, axis=1))
        out = np.zeros(model.n_states)
        out[idx] = 1.0
        return out

    det = posterior_sampler_checks(model, block_sampler(snapped))
    ok = ok and det.marginal_tv > 1e-12

    # counterexample 2: sampling the prior regardless of y preserves the
    # marginal but places mass on inconsistent states
    prior_only = posterior_sampler_checks(model, block_sampler(lambda y: model.prior))
    ok = ok and prior_only.marginal_tv <= 1e-12 and prior_only.inconsistent_mass > 1e-12
    _report(
        2, ok, 5, time.perf_counter() - t0,
        f"exact: mass={exact.inconsistent_mass:.1e} tv={exact.marginal_tv:.1e}; "
        f"det tv={det.marginal_tv:.3f}; prior-only mass={prior_only.inconsistent_mass:.3f}",
    )


def test_criterion_03_codec_projection_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    sizes = [(16, 16), (24, 24), (32, 24), (8, 8)]
    bad = 0
    total = 0
    for i in range(100):
        gen = natural_image if i % 2 else uniform_image
        h, w = sizes[i % len(sizes)]
        x = gen(rng, h, w)
        for qf in (5, 10, 50, 95):
            g = compress(x, qf)
            if compress_with_table(decompress_float(g), g.table) != g:
                bad += 1
            total += 1
            # the uint8 pixel path keeps integer equality where cells
            # dwarf the rounding noise
            if qf in (5, 10) and compress(decompress(g), qf) != g:
                bad += 1
    _report(3, bad == 0, 30, time.perf_counter() - t0,
            f"{total} grids recompress integer-exactly (plus uint8 path at qf 5/10)")


def test_criterion_04_jfif_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    bad = 0
    for i in range(100):
        h, w = [(16, 16), (17, 13), (24, 16), (8, 25)][i % 4]
        x = (natural_image if i % 2 else uniform_image)(rng, h, w)
        for qf in (5, 10, 50, 95):
            g = compress(x, qf)
            g2, _ = parse_jfif(write_jfif(g))
            if g2 != g:
                bad += 1
    detail = "parse(write(g)) integer-exact over 400 streams"
    try:
        import io

        from PIL import Image as PILImage

        from tests.conftest import decoded_ycbcr_planes

        # compare at the component-plane level: the external decoder's own
        # color conversion rounds a second time, which is exactly the
        # numerical deviation the study module documents
        worst = 0
        for i in range(10):
            x = natural_image(rng, 24, 16)
            g = compress(x, (5, 25, 50)[i % 3])
            im = PILImage.open(io.BytesIO(write_jfif(g)))
            im.draft("YCbCr", im.size)
            theirs = np.asarray(im, dtype=int)
            worst = max(worst, int(np.max(np.abs(decoded_ycbcr_planes(g) - theirs))))
        if worst > 1:
            bad += 1
        detail += f"; external decoder planes agree within +-{worst} (<= 1)"
    except ImportError:
        detail += "; external decoder unavailable (skipped)"
    _report(4, bad == 0, 60, time.perf_counter() - t0, detail)


def test_criterion_05_projection_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(51)
    float_bad = 0
    worst_rmse = 0.0
    for i in range(50):
        qf = (5, 10)[i % 2]
        x = natural_image(rng)
        g = compress(x, qf)
        y = decompress(g)
        xhat = PixelImage(
            np.clip(x.data.astype(float) + rng.normal(0, 8, x.data.shape), 0, 255).astype(np.uint8)
        )
        xt = project(xhat, g)
        if compress_with_table(xt, g.table) != g:
            float_bad += 1
        worst_rmse = max(worst_rmse, consistency_rmse(to_pixels(xt), y, qf, table=g.table))
    ok = float_bad == 0 and worst_rmse <= 1.0
    _report(5, ok, 30, time.perf_counter() - t0,
            f"50/50 pairs requantize exactly; worst pixel-path consistency {worst_rmse:.4f} <= 1.0")


def test_criterion_06_straight_through_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    worst = 0.0
    for i in range(5):
        x = to_float(natural_image(rng, 16, 16))
        op = op_for_image(x, (5, 10, 50, 75, 95)[i])
        _, vjp = forward(op, x)
        h = 1e-3
        for _ in range(10):
            u = rng.normal(size=x.data.shape)
            v = rng.normal(size=x.data.shape)
            fp = forward_no_round(op, FloatImage(x.data + h * v)).data
            fm = forward_no_round(op, FloatImage(x.data - h * v)).data
            lhs = float(np.sum(u * (fp - fm) / (2 * h)))
            rhs = float(np.sum(apply_vjp(vjp, FloatImage(u)).data * v))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-12))
    _report(6, worst <= 1e-5, 30, time.perf_counter() - t0,
            f"worst relative error vs central differences = {worst:.2e} <= 1e-5")


def test_criterion_07_numerics_dichotomy(sweep_fixture):
    t0 = time.perf_counter()
    xs, _ = sweep_fixture
    rows = {r.path: r.rmse for r in run_numerics_study(xs)}
    ok = (
        rows["rgb-passthrough"] == 0.0
        and 0.0 < rows["ycbcr-rounded"] <= 1.0
        and rows["rgb-passthrough"] < rows["ycbcr-float"] <= rows["ycbcr-rounded"]
    )
    _report(7, ok, 30, time.perf_counter() - t0,
            f"rgb={rows['rgb-passthrough']:.6f} ycbcr-float={rows['ycbcr-float']:.4f} "
            f"ycbcr-rounded={rows['ycbcr-rounded']:.4f}")


def test_criterion_08_tradeoff_sweep(sweep_fixture):
    t0 = time.perf_counter()
    xs, ys = sweep_fixture
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_prior=120.0),
        steps=300,
        step_size=4.0,
        n_seeds=2,
        seed=0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = sweep_lambda_c(ys, xs, [0.0, 1.0, 5.0, 10.0, 100.0], cfg)
    cons = [r.consistency_rmse for r in result.rows]
    violations = [
        (a, b) for a, b in zip(cons, cons[1:]) if b > a * 1.05 + 1e-12
    ]
    ok = len(violations) <= 1 and cons[0] == max(cons) and cons[0] > 0
    _report(8, ok, 600, time.perf_counter() - t0,
            "consistency by weight: " + " -> ".join(f"{c:.3f}" for c in cons))


def test_criterion_09_loss_fixed_points():
    t0 = time.perf_counter()
    rng = np.random.default_rng(91)
    x = natural_image(rng)
    y = decompress(compress(x, 10))
    delta = rng.normal(0, 5, x.data.shape)
    fm = loss_fm(
        SampleBatch(y, (FloatImage(x.data + delta), FloatImage(x.data - delta)), x=x)
    )
    xbar = FloatImage(x.data.astype(float) + 2.0)
    d = np.abs(x.data.astype(float) - xbar.data)
    sm = loss_sm(
        SampleBatch(y, (FloatImage(xbar.data + d), FloatImage(xbar.data - d)), x=x, xbar=xbar)
    )
    g = compress(x, 10)
    c = loss_c(SampleBatch(decompress(g), (decompress_float(g),)), 10)
    worst_fm_identity = max(
        fm_identity_check(random_model(np.random.default_rng(9_000 + i))) for i in range(20)
    )
    ok = fm < 1e-20 and sm < 1e-20 and c <= 1.0 and worst_fm_identity < 1e-12
    _report(9, ok, 10, time.perf_counter() - t0,
            f"fm={fm:.1e} sm={sm:.1e} loss_c(lattice)={c:.4f} fm-identity={worst_fm_identity:.1e}")


def test_criterion_10_projection_perceptual_impact(sweep_fixture):
    t0 = time.perf_counter()
    xs, ys = sweep_fixture
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=10.0, lambda_prior=120.0),
        steps=300,
        step_size=4.0,
        n_seeds=2,
        seed=0,
    )
    plain, projected = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for y in ys:
            outs = restore_with_history(y, cfg).images
            plain.extend(outs)
            projected.extend(to_pixels(project(o, compress(y, 5))) for o in outs)
    pu = perceptual_proxy(plain, xs)
    pp = perceptual_proxy(projected, xs)
    rel = abs(pp - pu) / pu
    _report(10, rel <= 0.15, 120, time.perf_counter() - t0,
            f"proxy unprojected={pu:.2f} projected={pp:.2f} rel change={rel:.2%} <= 15%")
