import numpy as np
import pytest

from jpegkit.codec import compress, decompress, decompress_float, jpeg_q, plane_dct
from jpegkit.color import luma
from jpegkit.errors import (
    DimMismatch,
    MissingGroundTruth,
    MissingReference,
    TooFewSamples,
)
from jpegkit.image import FloatImage, PixelImage, float_samples, to_float
from jpegkit.losses import (
    LossWeights,
    SampleBatch,
    loss_c,
    loss_fm,
    loss_p,
    loss_sm,
    texture_band_features,
    texture_band_pullback,
)
from tests.conftest import natural_image, traced_peak, uniform_image


def _f(img):
    return to_float(img) if isinstance(img, PixelImage) else img


def _pullback(img, cot):
    data = float_samples(img)
    return texture_band_pullback(data.shape, cot, plane_dct(luma(data)))


def test_loss_c_lattice_samples_small(rng):
    x = natural_image(rng)
    for qf in (5, 50):
        g = compress(x, qf)
        y = decompress(g)
        batch = SampleBatch(y, (decompress_float(g),))
        assert loss_c(batch, qf) <= 1.0


def test_loss_c_input_itself_near_zero(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    batch = SampleBatch(y, (to_float(y),))
    assert loss_c(batch, 10) <= 1.0


def test_loss_c_quadratic_in_residual(rng):
    # single-channel lattice image (no color mixing): bumping one
    # coefficient by 1 vs 2 quantization levels scales the penalty by ~4
    from jpegkit.dct import idct2

    g = compress(natural_image(rng, 16, 16, channels=1), 10)
    base = decompress_float(g)
    y = decompress(g)
    q = g.table.luma[2, 3]
    pattern = np.zeros((8, 8))
    pattern[2, 3] = 1.0
    bump = idct2(pattern * q)
    d1 = np.zeros_like(base.data)
    d1[:8, :8, 0] = bump * 1.0
    d2 = np.zeros_like(base.data)
    d2[:8, :8, 0] = bump * 2.0
    l1 = loss_c(SampleBatch(y, (FloatImage(base.data + d1),)), 10)
    l2 = loss_c(SampleBatch(y, (FloatImage(base.data + d2),)), 10)
    assert 3.5 <= l2 / l1 <= 4.5


def test_loss_fm_exact_samples(rng):
    x = natural_image(rng)
    batch = SampleBatch(jpeg_q(x, 10), (to_float(x), to_float(x)), x=x)
    assert loss_fm(batch) == 0.0


def test_loss_fm_symmetric_pair_cancels(rng):
    x = natural_image(rng)
    delta = rng.normal(0, 5, x.data.shape)
    batch = SampleBatch(
        jpeg_q(x, 10),
        (FloatImage(x.data + delta), FloatImage(x.data - delta)),
        x=x,
    )
    assert loss_fm(batch) < 1e-20
    # while the per-sample squared error is clearly positive
    assert np.mean(delta**2) > 1.0


def test_loss_fm_constant_offset(rng):
    x = natural_image(rng)
    delta = rng.normal(0, 3, x.data.shape)
    batch = SampleBatch(jpeg_q(x, 10), (FloatImage(x.data + delta),), x=x)
    assert abs(loss_fm(batch) - float(np.mean(delta**2))) < 1e-12


def test_loss_fm_needs_ground_truth(rng):
    batch = SampleBatch(jpeg_q(natural_image(rng), 10), (to_float(natural_image(rng)),))
    with pytest.raises(MissingGroundTruth):
        loss_fm(batch)


def test_loss_sm_matched_variance_zero(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    # two samples at xbar +- d have population variance d^2; choosing
    # d = |x - xbar| matches the target exactly
    xbar = FloatImage(x.data.astype(float) + 2.0)
    d = np.abs(x.data.astype(float) - xbar.data)
    batch = SampleBatch(y, (FloatImage(xbar.data + d), FloatImage(xbar.data - d)), x=x, xbar=xbar)
    assert loss_sm(batch) < 1e-20


def test_loss_sm_mode_collapse_full_penalty(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    xbar = FloatImage(x.data.astype(float) + 3.0)
    s = to_float(x)
    batch = SampleBatch(y, (s, s), x=x, xbar=xbar)
    target = float(np.mean((x.data.astype(float) - xbar.data) ** 2))
    assert abs(loss_sm(batch) - target) < 1e-12


def test_loss_sm_hand_case():
    y = PixelImage(np.zeros((1, 1, 1), dtype=np.uint8))
    x = PixelImage(np.array([[[4]]], dtype=np.uint8))
    xbar = FloatImage(np.array([[[2.0]]]))  # x - xbar = 2
    a = FloatImage(np.array([[[5.0]]]))
    b = FloatImage(np.array([[[7.0]]]))  # population var of {5,7} is 1
    batch = SampleBatch(y, (a, b), x=x, xbar=xbar)
    assert abs(loss_sm(batch) - 3.0) < 1e-12  # |4 - 1| = 3


def test_loss_sm_permutation_invariant(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    xbar = FloatImage(x.data.astype(float))
    samples = [FloatImage(x.data + rng.normal(0, 2, x.data.shape)) for _ in range(4)]
    b1 = SampleBatch(y, tuple(samples), x=x, xbar=xbar)
    b2 = SampleBatch(y, tuple(samples[::-1]), x=x, xbar=xbar)
    assert loss_sm(b1) == loss_sm(b2)


def test_loss_sm_errors(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    s = to_float(x)
    with pytest.raises(MissingGroundTruth):
        loss_sm(SampleBatch(y, (s, s)))
    with pytest.raises(MissingReference):
        loss_sm(SampleBatch(y, (s, s), x=x))
    with pytest.raises(TooFewSamples):
        loss_sm(SampleBatch(y, (s,), x=x, xbar=FloatImage(x.data.astype(float))))


def test_loss_p_zero_at_ground_truth(rng):
    x = natural_image(rng)
    batch = SampleBatch(jpeg_q(x, 10), (to_float(x),), x=x)
    assert loss_p(batch) == 0.0


def test_band_features_constant_image_hand_check():
    img = FloatImage(np.full((8, 8, 1), 200.0))
    f = texture_band_features(img)
    assert f.shape == (1, 1, 4)
    assert abs(f[0, 0, 0] - (200.0 - 128.0)) < 1e-10  # mean sample level
    assert np.max(np.abs(f[0, 0, 1:])) < 1e-10  # no AC energy


def test_loss_p_blur_increases(rng):
    x = natural_image(rng)
    k = np.ones((3, 3)) / 9.0
    blurred = x.data.astype(float).copy()
    for c in range(3):
        p = np.pad(x.data[:, :, c].astype(float), 1, mode="edge")
        acc = np.zeros_like(blurred[:, :, c])
        for i in range(3):
            for j in range(3):
                acc += k[i, j] * p[i : i + x.height, j : j + x.width]
        blurred[:, :, c] = acc
    sharp = SampleBatch(jpeg_q(x, 10), (to_float(x),), x=x)
    soft = SampleBatch(jpeg_q(x, 10), (FloatImage(blurred),), x=x)
    assert loss_p(soft) > loss_p(sharp)


def test_band_pullback_matches_finite_differences(rng):
    # ragged sizes exercise the adjoint of the edge pad
    for height, width, channels in ((16, 16, 3), (17, 13, 3), (9, 31, 1)):
        x = to_float(natural_image(rng, height, width, channels))
        cot = rng.normal(size=texture_band_features(x).shape)
        v = rng.normal(size=x.data.shape)
        h = 1e-5
        fp = texture_band_features(FloatImage(x.data + h * v))
        fm = texture_band_features(FloatImage(x.data - h * v))
        lhs = float(np.sum(cot * (fp - fm) / (2 * h)))
        rhs = float(np.sum(_pullback(x, cot) * v))
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


def test_all_losses_nonnegative_on_random_batch(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    samples = tuple(FloatImage(x.data + rng.normal(0, 6, x.data.shape)) for _ in range(3))
    batch = SampleBatch(y, samples, x=x, xbar=FloatImage(x.data.astype(float) + 1.0))
    assert loss_c(batch, 10) >= 0.0
    assert loss_fm(batch) >= 0.0
    assert loss_sm(batch) >= 0.0
    assert loss_p(batch) >= 0.0


def test_batch_validation(rng):
    y = uniform_image(rng, 8, 8)
    with pytest.raises(TooFewSamples):
        SampleBatch(y, ())
    with pytest.raises(DimMismatch):
        SampleBatch(y, (FloatImage(np.zeros((4, 4, 3))),))


def test_weights_nonnegative():
    with pytest.raises(ValueError):
        LossWeights(lambda_c=-1.0)
    with pytest.raises(ValueError):
        LossWeights(lambda_sm=float("nan"))


def test_weights_must_be_finite():
    # an infinite weight used to pass here and fail the run at step 0
    for name in ("lambda_c", "lambda_fm", "lambda_p", "lambda_sm", "lambda_prior"):
        with pytest.raises(ValueError, match=name):
            LossWeights(**{name: float("inf")})


def test_loss_c_equals_per_sample_loop(rng):
    # the stacked forward sums the per-sample means in sample order, so it
    # is bit-identical to running the samples one at a time
    from jpegkit.diffjpeg import forward
    from tests.reference import op_for_image

    x = natural_image(rng)
    y = jpeg_q(x, 10)
    samples = (x, *(FloatImage(x.data + rng.normal(0, 6, x.data.shape)) for _ in range(3)))
    batch = SampleBatch(y, samples)
    op = op_for_image(y, 10)
    total = 0.0
    for s in samples:
        z, _ = forward(op, _f(s))
        total += float(np.mean((to_float(y).data - z.data) ** 2))
    assert loss_c(batch, 10) == total / len(samples)


def test_band_features_and_pullback_take_stacks(rng):
    for height, width, channels in ((16, 16, 3), (17, 13, 3), (9, 31, 1)):
        stack = np.stack([to_float(natural_image(rng, height, width, channels)).data for _ in range(3)])
        feats = texture_band_features(stack)
        cot = rng.normal(size=feats.shape)
        pulled = _pullback(stack, cot)
        for k in range(3):
            assert np.array_equal(feats[k], texture_band_features(FloatImage(stack[k])))
            assert np.array_equal(pulled[k], _pullback(FloatImage(stack[k]), cot[k]))


def _noisy_batch(size, n_samples):
    rng = np.random.default_rng(size)
    x = natural_image(rng, size, size)
    y = jpeg_q(x, 10)
    noisy = [np.clip(y.data + rng.normal(0.0, 4.0, y.data.shape), 0, 255) for _ in range(n_samples)]
    return SampleBatch(y, tuple(PixelImage(d.astype(np.uint8)) for d in noisy), x=x, xbar=to_float(y))


def test_loss_sm_builds_no_pull_stack():
    # at 128² with 4 samples the float stack is 1.5 MiB and the variance
    # makes one deviation stack; the sign-times-deviation pull that only
    # the restorer descends would be a third (5.6 MiB peak)
    batch = _noisy_batch(128, 4)
    assert traced_peak(lambda: loss_sm(batch)) <= 4.5 * 2**20


def test_loss_c_runs_one_block_of_samples_at_a_time():
    # a 128² block is one sample: its stack, residual and color buffer are
    # 1.1 MiB, where the whole 4-sample set took 4.9 MiB
    batch = _noisy_batch(128, 4)
    assert traced_peak(lambda: loss_c(batch, 10)) <= 2 * 2**20
