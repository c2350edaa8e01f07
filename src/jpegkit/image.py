"""8-bit raster and float-plane containers shared by every other module."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def round_half_away_from_zero(x, out=None):
    """Round to the nearest integer, ties away from zero; ``out`` (which may
    be x itself) receives the result if given.

    This is the single rounding rule of the whole package: pixel
    quantization and coefficient quantization both use it.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


def _normalize(arr, dtype):
    arr = np.asarray(arr, dtype=dtype)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError("image data must be (height, width, 1|3)")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("image dimensions must be positive")
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


def check_finite(samples: np.ndarray) -> np.ndarray:
    """Return ``samples`` if every value is finite; raise ValueError, as
    :class:`FloatImage` does, if not."""
    if not np.all(np.isfinite(samples)):
        raise ValueError("float image must be finite")
    return samples


@dataclass(frozen=True, eq=False)
class PixelImage:
    """Interleaved 8-bit raster, shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _normalize(self.data, np.uint8))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True, eq=False)
class FloatImage:
    """Float64 raster in nominal [0, 255]; out-of-range values are allowed
    mid-optimization, non-finite values are not."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", check_finite(_normalize(self.data, np.float64)))

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def float_samples(img) -> np.ndarray:
    """The float64 samples of a :class:`PixelImage` or :class:`FloatImage`;
    an (..., h, w, c) float array, one image or a stack, passes as it is."""
    if isinstance(img, PixelImage):
        return img.data.astype(np.float64)
    if isinstance(img, FloatImage):
        return img.data
    return img


def to_float(img: PixelImage) -> FloatImage:
    """Exact value copy into float64."""
    return FloatImage(img.data.astype(np.float64))


def to_pixels(img: FloatImage) -> PixelImage:
    """Round half-away-from-zero, clamp to [0, 255], narrow to uint8."""
    r = round_half_away_from_zero(img.data)
    return PixelImage(np.clip(r, 0.0, 255.0).astype(np.uint8))
