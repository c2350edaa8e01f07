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
    half = np.copysign(0.5, x)
    out = half if out is None and x.ndim else out  # an array's result goes in its one temporary
    return np.trunc(np.add(x, half, out=out), out=out)


# float64 values, 512 KiB. A toy oracle block pays a fixed count of numpy
# calls whatever its size, so fewer, larger blocks pay up to here. In a
# measured sweep of 2**14 to 2**18, 2**17's further gain sat inside the
# run-to-run spread, and at 2**17 a 128² restorer block holds two images
BLOCK_VALUES = 1 << 16


def block_rows(row_size: int) -> int:
    """Rows of ``row_size`` values in one block: at most BLOCK_VALUES
    values, and at least one row. The toy oracle's table blocks and the
    restorer's and ``loss_c``'s seed blocks keep this bound."""
    return max(1, BLOCK_VALUES // row_size)


def _normalize(arr, dtype):
    # an own read-only copy: the caller's array stays writable, and writing
    # to it later cannot change (or un-finite) the image
    arr = np.array(arr, dtype=dtype, order="C")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[2] not in (1, 3):
        raise ValueError("image data must be (height, width, 1|3)")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("image dimensions must be positive")
    arr.setflags(write=False)
    return arr


def check_finite(samples: np.ndarray) -> np.ndarray:
    """Return ``samples`` if every value is finite; raise ValueError, as
    :class:`FloatImage` does, if not."""
    if not np.all(np.isfinite(samples)):
        raise ValueError("float image must be finite")
    return samples


@dataclass(frozen=True, eq=False)
class _Raster:
    """An interleaved (height, width, channels) array and its geometry."""

    data: np.ndarray

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
class PixelImage(_Raster):
    """Interleaved 8-bit raster, shape (height, width, channels); it holds
    its own read-only copy of the array it is given."""

    def __post_init__(self):
        object.__setattr__(self, "data", _normalize(self.data, np.uint8))


@dataclass(frozen=True, eq=False)
class FloatImage(_Raster):
    """Float64 raster in nominal [0, 255]; out-of-range values are allowed
    mid-optimization, non-finite values are not. It holds its own read-only
    copy of the array it is given, so its data stays finite."""

    def __post_init__(self):
        object.__setattr__(self, "data", check_finite(_normalize(self.data, np.float64)))


def float_samples(img) -> np.ndarray:
    """The float64 samples of a :class:`PixelImage` or :class:`FloatImage`.
    An (..., h, w, c) array, one image or a stack, is where raw samples
    enter: it passes as it is (no copy if already float64) once checked
    finite, raising ValueError as :class:`FloatImage` does, and nothing
    downstream checks it again."""
    if isinstance(img, PixelImage):
        return img.data.astype(np.float64)
    if isinstance(img, FloatImage):
        return img.data
    return check_finite(np.asarray(img, dtype=np.float64))


def to_float(img: PixelImage) -> FloatImage:
    """Exact value copy into float64."""
    return FloatImage(img.data)


def to_pixels(img: FloatImage) -> PixelImage:
    """Round half-away-from-zero, clamp to [0, 255], narrow to uint8."""
    r = round_half_away_from_zero(img.data)
    return PixelImage(np.clip(r, 0.0, 255.0, out=r).astype(np.uint8))
