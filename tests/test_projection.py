import numpy as np
import pytest

from jpegkit.codec import CodecOptions, compress, compress_with_table, decompress
from jpegkit.errors import DimMismatch
from jpegkit.image import PixelImage, to_pixels
from jpegkit.metrics import consistency_rmse
from jpegkit.projection import project
from tests.conftest import natural_image, uniform_image


def _restoration_pair(rng, qf):
    x = natural_image(rng)
    g = compress(x, qf)
    xhat = PixelImage(
        np.clip(x.data.astype(float) + rng.normal(0, 8, x.data.shape), 0, 255).astype(np.uint8)
    )
    return xhat, g


def test_already_consistent_is_noop(rng):
    g = compress(natural_image(rng), 10)
    xhat = decompress(g)
    out = project(xhat, g)
    assert np.max(np.abs(out.data - xhat.data.astype(float))) < 1e-9


def test_float_path_requantization_exact(rng):
    # arbitrary inputs, block-aligned dims: the float image re-quantizes to
    # the grid with integer equality
    for qf in (5, 10, 50):
        for _ in range(5):
            xhat = uniform_image(rng)
            g = compress(natural_image(rng), qf)
            out = project(xhat, g)
            assert compress_with_table(out, g.table) == g


def test_pixel_path_consistency(rng):
    # restoration-like pairs: after uint8 rounding the projected image still
    # recompresses to the input exactly, so the consistency index is 0 <= 1
    worst = 0.0
    for i in range(10):
        qf = (5, 10)[i % 2]
        xhat, g = _restoration_pair(rng, qf)
        y = decompress(g)
        out = to_pixels(project(xhat, g))
        worst = max(worst, consistency_rmse(out, y, qf, table=g.table))
    assert worst <= 1.0


def test_idempotent(rng):
    xhat, g = _restoration_pair(rng, 10)
    once = project(xhat, g)
    twice = project(once, g)
    assert np.max(np.abs(twice.data - once.data)) < 1e-9


def test_nonexpansive_in_coefficient_space(rng):
    from jpegkit.codec import LEVEL_SHIFT, channel_kinds, planes_for_compress
    from jpegkit.dct import dct2, split_blocks

    xhat, g = _restoration_pair(rng, 5)
    out = project(xhat, g)
    planes = np.moveaxis(planes_for_compress(out.data, CodecOptions()), -1, 0)
    kinds = channel_kinds(3, "ycbcr")
    for plane, kind, levels in zip(planes, kinds, g.channels):
        q = g.table.for_channel_kind(kind)
        coef = dct2(split_blocks(plane - LEVEL_SHIFT, pad=True)) / q
        assert np.max(np.abs(coef - levels)) <= 0.5


def test_tie_guard_keeps_cells_after_clamp(rng):
    # a wildly inconsistent input clamps almost every coefficient; the tie
    # guard (with the pixel guard, never wider) still leaves every
    # float-path requantization on the grid
    xhat = PixelImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
    g = compress(PixelImage(255 - xhat.data), 5)
    out = project(xhat, g)
    assert compress_with_table(out, g.table) == g


def test_dim_mismatch(rng):
    g = compress(uniform_image(rng, 16, 16), 10)
    with pytest.raises(DimMismatch):
        project(uniform_image(rng, 8, 8), g)
    with pytest.raises(DimMismatch):
        project(PixelImage(rng.integers(0, 256, (16, 16, 1), dtype=np.uint8)), g)
