import csv
import io
import math

import numpy as np
import pytest

from jpegkit.codec import (
    CodecOptions,
    analysis,
    compress,
    compress_with_table,
    decompress,
    decompress_float,
    requantize,
    round_levels,
)
from jpegkit.errors import DimMismatch, EmptySet, TooFewSamples
from jpegkit.image import FloatImage, PixelImage, to_pixels
from jpegkit.losses import SampleBatch
from jpegkit.metrics import (
    MetricReport,
    consistency_rmse,
    csv_text,
    dct_statistic_features,
    frechet_distance,
    mse_8bit,
    perceptual_proxy,
    psnr,
    std_map,
)
from jpegkit.quant import QuantTable, table_for_qf
from tests.conftest import natural_image, uniform_image


def test_consistency_of_decompressed_input(rng):
    x = natural_image(rng)
    for qf in (5, 10, 50):
        g = compress(x, qf)
        y = decompress(g)
        assert consistency_rmse(y, y, qf) <= 1.0


def test_consistency_of_decompress_vs_jpeg(rng):
    x = natural_image(rng)
    y = decompress(compress(x, 10))
    assert consistency_rmse(decompress(compress(x, 10)), y, 10) <= 1.0


def test_consistency_noise_direction(rng):
    x = natural_image(rng)
    y = decompress(compress(x, 5))
    noise = uniform_image(rng)
    assert consistency_rmse(noise, y, 5) > 1.0


def _recompression_cases(rng):
    """(image, table, options) over sizes from 1x1 to 64x64, ragged ones
    included, 1 and 3 channels, both colorspaces, round_chroma, three
    standard tables and a custom one; each size and path as a natural
    pixel image and as a near-flat float image, whose levels round to -0.0."""
    standard = table_for_qf(50)
    custom = QuantTable(np.arange(1, 65).reshape(8, 8)[::-1], standard.chroma)
    tables = (table_for_qf(5), standard, table_for_qf(100), custom)
    for height, width in ((1, 1), (3, 5), (8, 8), (17, 13), (9, 31), (64, 64)):
        for channels in (1, 3):
            paths = [CodecOptions(), CodecOptions(colorspace="rgb-passthrough")]
            if channels == 3:
                paths.append(CodecOptions(round_chroma=True))
            for opts in paths:
                pixels = natural_image(rng, height, width, channels)
                flat = FloatImage(128.0 - rng.uniform(0.0, 0.2, (height, width, channels)))
                for table in tables:
                    yield pixels, table, opts
                    yield flat, table, opts


def test_grid_free_recompression_matches_the_grid_round_trip(rng):
    # consistency_rmse recompresses with requantize, whose default step is
    # the codec's rounding; that equals decompress(compress_with_table(...))
    # bit for bit, -0.0 levels included, so every consistency reading keeps
    # its value
    signed_zeros = 0
    for img, table, opts in _recompression_cases(rng):
        grid = compress_with_table(img, table, opts)
        grid_round_trip = decompress(grid)
        recompressed = requantize(img, table, opts)  # round_levels is the default step
        assert np.array_equal(recompressed, decompress_float(grid).data)
        if opts == CodecOptions():
            assert np.array_equal(requantize(img, table), recompressed)
        assert to_pixels(recompressed).data.tobytes() == grid_round_trip.data.tobytes()
        levels = round_levels(analysis(img, table, opts))
        signed_zeros += int(np.count_nonzero((levels == 0) & np.signbit(levels)))
        if isinstance(img, PixelImage):
            y = decompress(compress_with_table(natural_image(rng, img.height, img.width, img.channels), table, opts))
            want = math.sqrt(mse_8bit(grid_round_trip, y))
            assert consistency_rmse(img, y, 50, opts, table=table) == want
    assert signed_zeros > 0


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
    b = decompress(compress(a, 50))
    c = decompress(compress(a, 5))
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
    compressed = [decompress(compress(x, 5)) for x in natural_set]
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


def test_std_map_needs_two_samples(rng):
    y = uniform_image(rng, 2, 2)
    with pytest.raises(TooFewSamples):
        std_map(SampleBatch(y, (FloatImage(y.data.astype(float)),)))


def test_metric_report_csv():
    rep = MetricReport("img.ppm", 5, 0.25, 30.0, 12.5, 3)
    assert MetricReport.CSV_HEADER == "name,qf,consistency_rmse,psnr,perceptual_proxy,n"
    assert rep.to_csv_row() == "img.ppm,5,0.250000,30.000000,12.500000,3\n"
    # a name that holds the delimiter, a quote or a line break is quoted,
    # so the row still reads back as six fields
    for name in ("a,b.ppm", 'say "hi".ppm', "two\nlines.ppm", "cr\rname.ppm"):
        row = MetricReport(name, 5, 0.25, 30.0, 12.5, 3).to_csv_row()
        assert list(csv.reader(io.StringIO(row))) == [[name, "5", "0.250000", "30.000000", "12.500000", "3"]]


def test_csv_text_quotes_separators_and_line_breaks():
    # every CLI report goes through this one writer: a field that holds the
    # delimiter, a quote, "\n" or "\r" is quoted, and every row ends in "\n"
    fields = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "plain"]
    text = csv_text([fields, [1, 2.5], ["last"]])
    assert text == '"a,b","say ""hi""","two\nlines","cr\rhere",plain\n1,2.5\nlast\n'
    assert list(csv.reader(io.StringIO(text, newline=""))) == [fields, ["1", "2.5"], ["last"]]
    assert csv_text([]) == ""
