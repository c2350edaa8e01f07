"""Consistency projection: clamp a restoration's DCT coefficients into the
half-step cells of a compressed input. :func:`project` is
:func:`~jpegkit.codec.requantize` with that clamp as the step: synthesis
after the clamp after analysis. The grid supplies the codec settings, its
table and its colorspace, on the float color path (no 8-bit rounding of
the converted planes), so no second copy of them can disagree with it.

The clamp half-width is 0.5 minus two guards, always both. A 1e-9 tie
guard keeps clamped values off the rounding boundary (a coefficient
exactly halfway re-rounds away from the cell, not into it). The pixel
guard shrinks each position by the worst-case coefficient perturbation
that terminal uint8 rounding can introduce (half the l1 mass of that DCT
basis function, divided by the quantization step), so the projected image
stays exactly consistent, as floats and after it is written out as 8-bit
pixels.

Exactness preconditions: dimensions that are multiples of 8 (otherwise the
edge-replicate pad of the cropped result differs from the padded plane the
clamp saw, perturbing edge-block coefficients), and for the 8-bit path a
projected image that stays close to [0, 255] (the guard absorbs rounding,
not deep clamping).
"""

from __future__ import annotations

import numpy as np

from .codec import CodecOptions, CoefficientGrid, channel_kinds, requantize
from .dct import DCT_M
from .errors import DimMismatch
from .image import FloatImage, PixelImage

TIE_GUARD = 1e-9

# l1 mass of each 2-D basis function; the worst-case coefficient shift from
# per-pixel perturbations bounded by 0.5 is half of this (the color rows
# all have unit l1 norm, so the bound carries through the YCbCr path).
_ROW_L1 = np.abs(DCT_M).sum(axis=1)
BASIS_L1 = np.outer(_ROW_L1, _ROW_L1)


def _half_width(q: np.ndarray) -> np.ndarray:
    return np.maximum(0.5 - TIE_GUARD - 0.5 * BASIS_L1 / q, 0.0)


def project(xhat: PixelImage | FloatImage, y_grid: CoefficientGrid) -> FloatImage:
    """Smallest change to xhat whose requantization reproduces y_grid,
    under the grid's own colorspace on the float color path."""
    if (xhat.width, xhat.height) != (y_grid.width, y_grid.height):
        raise DimMismatch(
            f"image {xhat.width}x{xhat.height} vs grid {y_grid.width}x{y_grid.height}"
        )
    if xhat.channels != y_grid.n_channels:
        raise DimMismatch(
            f"image has {xhat.channels} channels, grid has {y_grid.n_channels}"
        )

    kinds = channel_kinds(y_grid.n_channels, y_grid.colorspace)
    halves = [_half_width(y_grid.table.for_channel_kind(k)) for k in kinds]

    def clamp(coef, c):
        levels = y_grid.channels[c]
        coef -= levels
        np.clip(coef, -halves[c], halves[c], out=coef)
        coef += levels
        return coef

    return FloatImage(requantize(xhat, y_grid.table, CodecOptions(colorspace=y_grid.colorspace), clamp))
