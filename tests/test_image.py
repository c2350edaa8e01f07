import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jpegkit.image import (
    FloatImage,
    PixelImage,
    round_half_away_from_zero,
    to_float,
    to_pixels,
)
from tests.conftest import images_equal


@pytest.mark.parametrize(
    "x,expected",
    [
        (0.5, 1.0),
        (-0.5, -1.0),
        (1.5, 2.0),
        (2.5, 3.0),
        (-2.5, -3.0),
        (0.49, 0.0),
        (-0.49, 0.0),
        (127.5, 128.0),
        (0.0, 0.0),
    ],
)
def test_round_half_away(x, expected):
    assert round_half_away_from_zero(x) == expected


def test_to_pixels_rounding_and_clamp():
    img = FloatImage(np.array([[[127.5], [-3.2], [300.0], [128.0]]]))
    out = to_pixels(img)
    assert out.data.reshape(-1).tolist() == [128, 0, 255, 128]


def test_to_float_exact_copy():
    img = PixelImage(np.array([[[128]]], dtype=np.uint8))
    assert to_float(img).data[0, 0, 0] == 128.0


@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.sampled_from([1, 3])),
    )
)
def test_pixel_float_roundtrip(arr):
    img = PixelImage(arr)
    assert images_equal(to_pixels(to_float(img)), img)


def test_float_image_rejects_nonfinite():
    with pytest.raises(ValueError):
        FloatImage(np.array([[[np.nan]]]))
    with pytest.raises(ValueError):
        FloatImage(np.array([[[np.inf]]]))


def test_image_shape_validation():
    with pytest.raises(ValueError):
        PixelImage(np.zeros((2, 2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        PixelImage(np.zeros((0, 2, 1), dtype=np.uint8))


def test_images_are_immutable():
    img = PixelImage(np.zeros((2, 2, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 1


def test_gray_2d_input_promoted():
    img = PixelImage(np.zeros((3, 4), dtype=np.uint8))
    assert (img.height, img.width, img.channels) == (3, 4, 1)


@pytest.mark.parametrize("cls,dtype", [(PixelImage, np.uint8), (FloatImage, np.float64)])
def test_container_copies_the_callers_array(cls, dtype):
    a = np.zeros((2, 3, 1), dtype=dtype)
    img = cls(a)
    assert not np.shares_memory(img.data, a)
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 1
    a[0, 0, 0] = 1  # the caller's array stays writable
    assert img.data[0, 0, 0] == 0
