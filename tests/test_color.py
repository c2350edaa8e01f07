import numpy as np
import pytest

from jpegkit.color import luma, rgb_to_ycbcr, rgb_to_ycbcr_data, ycbcr_to_rgb_data
from jpegkit.errors import WrongChannelCount
from jpegkit.image import FloatImage, round_half_away_from_zero, to_float, to_pixels
from tests.conftest import natural_image


def _one_pixel(r, g, b):
    return FloatImage(np.array([[[r, g, b]]], dtype=np.float64))


def _stacked(ycc):
    return np.stack([ycc.y, ycc.cb, ycc.cr])


def test_black_maps_to_zero_luma_neutral_chroma():
    ycc = rgb_to_ycbcr(_one_pixel(0, 0, 0))
    assert (ycc.y[0, 0], ycc.cb[0, 0], ycc.cr[0, 0]) == (0.0, 128.0, 128.0)


def test_white_row_sums():
    ycc = rgb_to_ycbcr(_one_pixel(255, 255, 255))
    assert abs(ycc.y[0, 0] - 255.0) < 1e-9
    assert abs(ycc.cb[0, 0] - 128.0) < 1e-9
    assert abs(ycc.cr[0, 0] - 128.0) < 1e-9


def test_pure_red_direct_evaluation():
    # independent evaluation of the stated constants; the conversion does
    # not clamp, so Cr exceeds the nominal range on pure red
    ycc = rgb_to_ycbcr(_one_pixel(255, 0, 0))
    assert abs(ycc.y[0, 0] - 0.299 * 255) < 1e-9
    assert abs(ycc.cb[0, 0] - (128 - 0.168736 * 255)) < 1e-9
    assert abs(ycc.cr[0, 0] - (128 + 0.5 * 255)) < 1e-9
    assert abs(ycc.cr[0, 0] - 255.5) < 1e-9


def test_neutral_gray_fixed_point():
    ycc = rgb_to_ycbcr(_one_pixel(128, 128, 128))
    back = ycbcr_to_rgb_data(_stacked(ycc))
    assert np.allclose(back, 128.0, atol=1e-9)
    assert abs(ycc.y[0, 0] - 128.0) < 1e-9


def test_float_roundtrip_is_identity(rng):
    img = FloatImage(rng.uniform(0, 255, size=(9, 7, 3)))
    back = ycbcr_to_rgb_data(rgb_to_ycbcr_data(img.data))
    assert np.max(np.abs(back - img.data)) < 1e-9


def test_roundtrip_with_8bit_intermediate_is_lossy():
    img = natural_image(np.random.default_rng(5))
    ycc = rgb_to_ycbcr(to_float(img))
    planes = np.clip(round_half_away_from_zero(_stacked(ycc)), 0, 255)
    back = to_pixels(FloatImage(ycbcr_to_rgb_data(planes)))
    rmse = np.sqrt(np.mean((back.data.astype(float) - img.data.astype(float)) ** 2))
    assert rmse > 0.0
    assert rmse <= 1.0


def test_wrong_channel_count():
    with pytest.raises(WrongChannelCount):
        rgb_to_ycbcr(FloatImage(np.zeros((2, 2, 1))))


def test_data_helpers_take_stacks(rng):
    # one matmul per image: a stack's images convert exactly as they do
    # alone, one-pixel images included
    for height, width in ((1, 1), (2, 3), (17, 13)):
        stack = rng.uniform(0, 255, size=(4, height, width, 3))
        ycc = rgb_to_ycbcr_data(stack)
        lum = luma(stack)
        back = ycbcr_to_rgb_data(ycc.copy())
        for k in range(4):
            one = rgb_to_ycbcr(FloatImage(stack[k]))
            assert np.array_equal(ycc[k], _stacked(one))
            assert np.array_equal(lum[k], luma(stack[k]))
            assert np.array_equal(back[k], ycbcr_to_rgb_data(_stacked(one)))
