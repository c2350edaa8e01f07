import math

import numpy as np
import pytest

from jpegkit.codec import compress, decompress, jpeg_q
from jpegkit.errors import DimMismatch, EmptySet, TooFewSamples
from jpegkit.image import FloatImage, PixelImage
from jpegkit.losses import SampleBatch
from jpegkit.metrics import (
    MetricReport,
    consistency_rmse,
    dct_statistic_features,
    frechet_distance,
    perceptual_proxy,
    psnr,
    std_map,
)
from tests.conftest import natural_image, uniform_image


def test_consistency_of_decompressed_input(rng):
    x = natural_image(rng)
    for qf in (5, 10, 50):
        g = compress(x, qf)
        y = decompress(g)
        assert consistency_rmse(y, y, qf) <= 1.0


def test_consistency_of_decompress_vs_jpeg(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 10)
    assert consistency_rmse(decompress(compress(x, 10)), y, 10) <= 1.0


def test_consistency_noise_direction(rng):
    x = natural_image(rng)
    y = jpeg_q(x, 5)
    noise = uniform_image(rng)
    assert consistency_rmse(noise, y, 5) > 1.0


def test_consistency_dim_mismatch(rng):
    with pytest.raises(DimMismatch):
        consistency_rmse(uniform_image(rng, 8, 8), uniform_image(rng, 16, 16), 50)


def test_psnr_identical_is_infinite(rng):
    a = uniform_image(rng)
    assert psnr(a, a) == math.inf


def test_psnr_full_scale_is_zero():
    a = PixelImage(np.zeros((4, 4, 1), dtype=np.uint8))
    b = PixelImage(np.full((4, 4, 1), 255, dtype=np.uint8))
    assert abs(psnr(a, b)) < 1e-12


def test_psnr_hand_case():
    arr = np.full((4, 4, 1), 100, dtype=np.uint8)
    a = PixelImage(arr)
    arr2 = arr.copy()
    arr2[0, 0, 0] = 116  # one pixel off by 16
    b = PixelImage(arr2)
    expected = 10 * math.log10(255**2 / (16**2 / 16))
    assert abs(psnr(a, b) - expected) < 1e-9
    assert abs(expected - 36.0895) < 1e-3


def test_psnr_symmetric_and_monotone(rng):
    a = natural_image(rng)
    b = jpeg_q(a, 50)
    c = jpeg_q(a, 5)
    assert psnr(a, b) == psnr(b, a)
    assert psnr(a, b) > psnr(a, c)


def test_proxy_identical_sets_zero(natural_set):
    assert perceptual_proxy(natural_set, natural_set) <= 1e-8


def test_proxy_symmetric(natural_set):
    a, b = natural_set[:6], natural_set[6:]
    assert abs(perceptual_proxy(a, b) - perceptual_proxy(b, a)) < 1e-6


def test_proxy_disjoint_singletons_closed_form(rng):
    a, b = natural_image(rng), natural_image(rng)
    d2 = float(np.sum((dct_statistic_features(a) - dct_statistic_features(b)) ** 2))
    got = perceptual_proxy([a], [b])
    assert abs(got - d2) < 1e-8 * max(1.0, d2)


def test_proxy_direction_compression_hurts(natural_set, rng):
    # ground-truth baseline: two draws of the same content (re-rolled
    # grain), so at this sample size the split noise stays small
    twins = [
        PixelImage(
            np.clip(x.data.astype(float) + rng.normal(0, 2, x.data.shape), 0, 255).astype(
                np.uint8
            )
        )
        for x in natural_set
    ]
    compressed = [jpeg_q(x, 5) for x in natural_set]
    baseline = perceptual_proxy(natural_set, twins)
    degraded = perceptual_proxy(compressed, natural_set)
    assert degraded > baseline


def test_proxy_empty_set(natural_set):
    with pytest.raises(EmptySet):
        perceptual_proxy([], natural_set)


def test_proxy_samples_against_one_reference_closed_form(rng):
    # the benchmark's shape: restored samples against one ground truth. The
    # singleton has zero covariance, so the distance is the squared mean gap
    # plus the trace of the samples' covariance.
    samples = [natural_image(rng, 128, 128) for _ in range(4)]
    ref = natural_image(rng, 128, 128)
    fa = np.stack([dct_statistic_features(s) for s in samples])
    fb = dct_statistic_features(ref)
    expected = float(np.sum((fa.mean(axis=0) - fb) ** 2) + np.trace(np.cov(fa, rowvar=False)))
    assert abs(perceptual_proxy(samples, [ref]) - expected) <= 1e-9 * expected


def _frechet_covariance_form(fa, fb):
    """Reference: ||mu1-mu2||^2 + tr(S1 + S2 - 2 (S1 S2)^(1/2)) on the
    d x d covariances, through the symmetric S2^(1/2) S1 S2^(1/2), no ridge."""
    mu1, mu2 = fa.mean(axis=0), fb.mean(axis=0)
    s1, s2 = np.cov(fa, rowvar=False), np.cov(fb, rowvar=False)
    w2, v2 = np.linalg.eigh(s2)
    root2 = (v2 * np.sqrt(np.clip(w2, 0.0, None))) @ v2.T
    w = np.linalg.eigvalsh(root2 @ s1 @ root2)
    covmean = float(np.sum(np.sqrt(np.clip(w, 0.0, None))))
    return float(np.sum((mu1 - mu2) ** 2) + np.trace(s1) + np.trace(s2)) - 2.0 * covmean


def test_frechet_matches_covariance_form_full_rank(rng):
    for n1, n2, d in ((40, 30, 5), (12, 9, 3), (20, 50, 6)):
        fa = rng.normal(size=(n1, d)) @ rng.normal(size=(d, d))
        fb = rng.normal(1.0, 2.0, size=(n2, d))
        ref = _frechet_covariance_form(fa, fb)
        assert abs(frechet_distance(fa, fb) - ref) <= 1e-12 * abs(ref)


def test_frechet_matches_covariance_form_on_small_sets(natural_set):
    feats = np.stack([dct_statistic_features(i) for i in natural_set])
    for fa, fb in ((feats[:6], feats[6:]), (feats[:3], feats[3:6])):
        ref = _frechet_covariance_form(fa, fb)
        assert abs(frechet_distance(fa, fb) - ref) <= 1e-6 * abs(ref)


def test_frechet_equal_gaussians_zero(rng):
    feats = rng.normal(size=(5, 5)) @ rng.normal(size=(5, 5))
    assert abs(frechet_distance(feats, feats.copy())) < 1e-8


def test_std_map_identical_samples_zero(rng):
    y = uniform_image(rng)
    s = FloatImage(y.data.astype(float))
    batch = SampleBatch(y, (s, s, s))
    assert np.all(std_map(batch).data == 0.0)


def test_std_map_hand_case(rng):
    y = uniform_image(rng, 2, 2)
    a = np.full((2, 2, 3), 10.0)
    b = a.copy()
    b[0, 0, 0] = 12.0  # two samples differing by 2 at one pixel
    batch = SampleBatch(y, (FloatImage(a), FloatImage(b)))
    m = std_map(batch)
    assert abs(m.data[0, 0, 0] - math.sqrt(2)) < 1e-12
    assert np.all(m.data.reshape(-1)[1:] == 0.0)


def test_std_map_fourth_root(rng):
    y = uniform_image(rng, 2, 2)
    a = FloatImage(np.zeros((2, 2, 3)))
    b = FloatImage(np.full((2, 2, 3), 2.0))
    plain = std_map(SampleBatch(y, (a, b)))
    rooted = std_map(SampleBatch(y, (a, b)), fourth_root=True)
    assert np.allclose(rooted.data, plain.data**0.25)


def test_std_map_needs_two_samples(rng):
    y = uniform_image(rng, 2, 2)
    with pytest.raises(TooFewSamples):
        std_map(SampleBatch(y, (FloatImage(y.data.astype(float)),)))


def test_metric_report_csv():
    rep = MetricReport("img.ppm", 5, 0.25, 30.0, 12.5, 3)
    assert MetricReport.CSV_HEADER == "name,qf,consistency_rmse,psnr,perceptual_proxy,n"
    assert rep.to_csv_row().startswith("img.ppm,5,0.250000,30.000000,12.500000,3")
