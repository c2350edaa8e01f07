"""Round-trip error study at lossless settings, isolating the color path.

At maximum quality the only surviving sources of error are the color
transform and the integer quantization of its output. To isolate them the
study runs the codec's color path (``planes_for_compress``, then
``samples_from_planes``) at unit block size, where the transform stage is
exactly invertible on integers (the coefficients ARE the samples), for
three paths, one :class:`~jpegkit.codec.CodecOptions` each:

* rgb-passthrough: no conversion; round-tripping 8-bit samples is exact,
  so the error is identically zero;
* ycbcr-float: convert in float, quantize the converted samples to
  integers, convert back; the rounding noise does not invert exactly;
* ycbcr-rounded: additionally round the converted planes to 8 bits before
  quantization (``round_chroma``; a no-op on top of the quantization here,
  so the row can equal the float row).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import LEVEL_SHIFT, CodecOptions, planes_for_compress, samples_from_planes
from .errors import EmptySet, WrongChannelCount
from .image import FloatImage, PixelImage, float_samples, round_half_away_from_zero, to_pixels
from .metrics import csv_text, mse_8bit

_PATH_OPTIONS = {
    "ycbcr-rounded": CodecOptions(round_chroma=True),
    "ycbcr-float": CodecOptions(),
    "rgb-passthrough": CodecOptions(colorspace="rgb-passthrough"),
}
STUDY_PATHS = tuple(_PATH_OPTIONS)


def _unit_quantize(plane: np.ndarray) -> np.ndarray:
    """Unit-block, unit-step quantization: round the level-shifted samples."""
    return round_half_away_from_zero(plane - LEVEL_SHIFT) + LEVEL_SHIFT


def lossless_roundtrip(img: PixelImage, path: str) -> PixelImage:
    """One image through the chosen lossless-settings path."""
    if path not in _PATH_OPTIONS:
        raise ValueError(f"unknown path {path!r}")
    opts = _PATH_OPTIONS[path]
    if opts.colorspace == "ycbcr" and img.channels != 3:
        raise WrongChannelCount("color paths need a 3-channel image")
    planes = _unit_quantize(planes_for_compress(float_samples(img), opts))
    return to_pixels(FloatImage(samples_from_planes(planes, opts.colorspace)))


@dataclass(frozen=True)
class StudyRow:
    path: str
    rmse: float
    n_images: int


def run_numerics_study(images) -> list:
    """Mean per-image round-trip RMSE of each path over the set."""
    images = list(images)
    if not images:
        raise EmptySet("study needs at least one image")
    rows = []
    for path in STUDY_PATHS:
        errs = []
        for img in images:
            errs.append(math.sqrt(mse_8bit(lossless_roundtrip(img, path), img)))
        rows.append(StudyRow(path, float(np.mean(errs)), len(images)))
    return rows


def study_to_csv(rows) -> str:
    return csv_text([["path", "rmse", "n_images"], *([r.path, f"{r.rmse:.6f}", r.n_images] for r in rows)])
