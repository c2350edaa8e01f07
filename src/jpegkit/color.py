"""Full-range RGB <-> YCbCr conversion (JFIF constants).

Both directions stay in float64; no rounding or clamping happens here. The
inverse uses the exact algebraic inverse of the forward matrix, so the
float round-trip is the identity to ~1e-13. Quantizing the converted
planes to 8 bits is the one step in the codec that breaks exactness, which
is why it is an explicit flag elsewhere rather than implicit here.

Both directions convert (..., h, w, 3) arrays; :func:`rgb_to_ycbcr` wraps
the forward one for a single image, as a :class:`YCbCrImage` of planes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import WrongChannelCount
from .image import FloatImage

RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168736, -0.331264, 0.5],
        [0.5, -0.418688, -0.081312],
    ]
)
YCBCR_OFFSET = np.array([0.0, 128.0, 128.0])
YCBCR_TO_RGB = np.linalg.inv(RGB_TO_YCBCR)
# the right factors of the per-pixel products, as contiguous copies (see
# _per_pixel)
_RGB_TO_YCBCR_T = np.ascontiguousarray(RGB_TO_YCBCR.T)
_YCBCR_TO_RGB_T = np.ascontiguousarray(YCBCR_TO_RGB.T)


class YCbCrImage(NamedTuple):
    """Three full-resolution float planes, nominal [0, 255], as
    :func:`rgb_to_ycbcr` cuts them from a checked :class:`FloatImage`."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray


def _per_pixel(data: np.ndarray, matrix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``data @ matrix`` over the last axis of (..., h, w, 3) data, as one
    matmul per image: numpy runs the same product for every image of the
    stack, so an image's result never depends on what shares its call.
    ``matrix`` should be C-contiguous; BLAS multiplies by a transposed view
    several times more slowly."""
    h, w = data.shape[-3:-1]
    flat_out = None if out is None else out.reshape(-1, h * w, 3)
    result = np.matmul(data.reshape(-1, h * w, 3), matrix, out=flat_out)
    return result.reshape(data.shape[:-1] + matrix.shape[1:])


def _shift_channels(data: np.ndarray, offsets: np.ndarray):
    """``data += offsets`` over the last axis, one channel at a time: a
    broadcast over a length-3 axis runs numpy's inner loop three values at
    a time. A zero offset (luma's) is skipped: adding -0.0 changes nothing,
    and adding +0.0 only turns a -0.0 sample into +0.0, which the level
    shift that follows in the codec maps to the same value."""
    for c, offset in enumerate(offsets):
        if offset != 0.0:
            data[..., c] += offset


def rgb_to_ycbcr_data(rgb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., h, w, 3) RGB samples to (..., h, w, 3) YCbCr, in ``out`` if
    given, else in a new array."""
    out = _per_pixel(rgb, _RGB_TO_YCBCR_T, out)
    _shift_channels(out, YCBCR_OFFSET)
    return out


def ycbcr_to_rgb_data(ycc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr_data`; removes the chroma offset from
    ``ycc`` in place and returns RGB in ``out`` if given, else in a new
    array."""
    _shift_channels(ycc, -YCBCR_OFFSET)
    return _per_pixel(ycc, _YCBCR_TO_RGB_T, out)


def rgb_to_ycbcr(img: FloatImage) -> YCbCrImage:
    if img.channels != 3:
        raise WrongChannelCount(f"need 3 channels, got {img.channels}")
    out = rgb_to_ycbcr_data(img.data)
    return YCbCrImage(out[:, :, 0], out[:, :, 1], out[:, :, 2])


def luma(data: np.ndarray) -> np.ndarray:
    """Y plane of an (..., h, w, 3) RGB array, or the plane of a one-channel one."""
    if data.shape[-1] == 3:
        return _per_pixel(data, RGB_TO_YCBCR[0])
    return data[..., 0]
