"""Full-range RGB <-> YCbCr conversion (JFIF constants).

Both directions stay in float64; no rounding or clamping happens here. The
inverse uses the exact algebraic inverse of the forward matrix, so the
float round-trip is the identity to ~1e-13. Quantizing the converted
planes to 8 bits is the one step in the codec that breaks exactness, which
is why it is an explicit flag elsewhere rather than implicit here.

The forward direction takes interleaved (..., h, w, 3) samples to planar
(..., 3, h, w) planes, the layout the codec's DCT works in, and the inverse
takes them back; :func:`rgb_to_ycbcr` wraps the forward one for a single
image, as a :class:`YCbCrImage` of planes. Each is one matrix product per
image, written straight into the other layout: numpy runs the same product
for every image of a stack, so an image's result never depends on what
shares its call.
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
YCBCR_TO_RGB = np.linalg.inv(RGB_TO_YCBCR)
# the right factor of the inverse product, as a contiguous copy: BLAS
# multiplies by a transposed view several times more slowly
_YCBCR_TO_RGB_T = np.ascontiguousarray(YCBCR_TO_RGB.T)
CHROMA_OFFSET = 128.0


class YCbCrImage(NamedTuple):
    """Three full-resolution float planes, nominal [0, 255], as
    :func:`rgb_to_ycbcr` cuts them from a checked :class:`FloatImage`."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray


def rgb_to_ycbcr_data(rgb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(..., h, w, 3) RGB samples to (..., 3, h, w) YCbCr planes, in ``out``
    (C-contiguous) if given, else in a new array. The chroma offset is added
    after the product, to Cb and Cr alone."""
    lead, (h, w) = rgb.shape[:-3], rgb.shape[-3:-1]
    planes = np.empty(lead + (3, h, w)) if out is None else out.reshape(lead + (3, h, w), copy=False)
    # into a contiguous out: a strided one may take numpy's own loop, not BLAS
    np.matmul(RGB_TO_YCBCR, rgb.reshape(lead + (h * w, 3)).swapaxes(-1, -2), out=planes.reshape(lead + (3, h * w)))
    planes[..., 1:, :, :] += CHROMA_OFFSET
    return planes


def ycbcr_to_rgb_data(ycc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr_data`: C-contiguous (..., 3, h, w)
    planes to (..., h, w, 3) RGB samples, in ``out`` (C-contiguous) if given,
    else in a new array. Removes the chroma offset from ``ycc`` in place."""
    lead, (h, w) = ycc.shape[:-3], ycc.shape[-2:]
    ycc[..., 1:, :, :] -= CHROMA_OFFSET
    rgb = np.empty(lead + (h, w, 3)) if out is None else out
    flat = ycc.reshape(lead + (3, h * w), copy=False).swapaxes(-1, -2)
    np.matmul(flat, _YCBCR_TO_RGB_T, out=rgb.reshape(lead + (h * w, 3), copy=False))
    return rgb


def rgb_to_ycbcr(img: FloatImage) -> YCbCrImage:
    if img.channels != 3:
        raise WrongChannelCount(f"need 3 channels, got {img.channels}")
    return YCbCrImage(*rgb_to_ycbcr_data(img.data))


def luma(data: np.ndarray) -> np.ndarray:
    """Y plane of an (..., h, w, 3) RGB array, or the plane of a one-channel
    one; one matrix-vector product per image."""
    if data.shape[-1] == 3:
        h, w = data.shape[-3:-1]
        return np.matmul(data.reshape(-1, h * w, 3), RGB_TO_YCBCR[0]).reshape(data.shape[:-1])
    return data[..., 0]
