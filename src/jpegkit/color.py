"""Full-range RGB <-> YCbCr conversion (JFIF constants).

Both directions stay in float64; no rounding or clamping happens here. The
inverse uses the exact algebraic inverse of the forward matrix, so the
float round-trip is the identity to ~1e-13. Quantizing the converted
planes to 8 bits is the one step in the codec that breaks exactness, which
is why it is an explicit flag elsewhere rather than implicit here.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class YCbCrImage:
    """Three full-resolution float planes, nominal [0, 255]."""

    y: np.ndarray
    cb: np.ndarray
    cr: np.ndarray

    def __post_init__(self):
        for name in ("y", "cb", "cr"):
            plane = np.asarray(getattr(self, name), dtype=np.float64)
            if plane.shape != np.shape(self.y) or plane.ndim != 2:
                raise ValueError("planes must be 2-D and share one shape")
            if not np.all(np.isfinite(plane)):
                raise ValueError("planes must be finite")
            object.__setattr__(self, name, plane)

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]


def rgb_to_ycbcr(img: FloatImage) -> YCbCrImage:
    if img.channels != 3:
        raise WrongChannelCount(f"need 3 channels, got {img.channels}")
    out = np.tensordot(img.data, RGB_TO_YCBCR.T, axes=1) + YCBCR_OFFSET
    return YCbCrImage(out[:, :, 0], out[:, :, 1], out[:, :, 2])


def ycbcr_to_rgb(img: YCbCrImage) -> FloatImage:
    stacked = np.stack([img.y, img.cb, img.cr], axis=-1) - YCBCR_OFFSET
    return FloatImage(np.tensordot(stacked, YCBCR_TO_RGB.T, axes=1))


def luma(data: np.ndarray) -> np.ndarray:
    """Y plane of an (h, w, 3) RGB array, or the plane of a one-channel one."""
    if data.shape[2] == 3:
        return np.tensordot(data, RGB_TO_YCBCR[0], axes=([2], [0]))
    return data[:, :, 0]
