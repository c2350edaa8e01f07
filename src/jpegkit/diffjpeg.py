"""Differentiable compression operator with a straight-through rounding
gradient.

:func:`forward` is :func:`~jpegkit.codec.requantize` with rounding as the
step (synthesis after rounding after analysis), with no terminal 8-bit
step, and returns the value together with the operator, which is all the
state the adjoint needs: the pipeline is linear. It takes one
:class:`FloatImage` or an (..., H, W, C) stack of samples; a stack runs as
one batch, every channel of it in one planar pass with one rounding call,
and a single image is the one-image case of the same path.

Straight-through means the gradient is that of the same pipeline with
rounding replaced by the identity, and that pipeline is itself the
identity map: sampling is 1x1,
the DCT is orthonormal, the color inverse is exact, cropping undoes the
edge pad, and dividing by the table is undone by multiplying by it. So
:func:`apply_vjp` returns the cotangent unchanged. Do not mistake the
result for the true gradient of the rounding pipeline, which is zero
almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecOptions, requantize
from .errors import DimMismatch
from .image import FloatImage, round_half_away_from_zero
from .quant import QuantTable


@dataclass(frozen=True)
class DiffJpegOp:
    """Quantization table, options, and the image geometry they apply to."""

    table: QuantTable
    options: CodecOptions
    width: int
    height: int
    channels: int


def _check_dims(op: DiffJpegOp, x):
    shape = np.shape(x.data if isinstance(x, FloatImage) else x)
    if shape[-3:] != (op.height, op.width, op.channels):
        raise DimMismatch(
            f"samples {shape} do not match operator "
            f"{op.width}x{op.height}x{op.channels}"
        )


def _round_in_place(coef):
    return round_half_away_from_zero(coef, out=coef)


def forward(op: DiffJpegOp, x, out=None, work=None):
    """Float-valued compress-decompress of x, plus ``op``, the adjoint handle.

    ``x`` is a :class:`FloatImage`, which gives a FloatImage back, or a
    (..., H, W, C) stack of samples, which gives a stack back. A stack is
    checked finite once, as it enters (ValueError if not); it runs as one
    batch, and each of its images comes out bit for bit as it would on its
    own. ``out`` and ``work``, C-contiguous arrays shaped like the stack,
    receive the result and hold the coefficients (see
    :func:`~jpegkit.codec.requantize`), so that a caller stepping a stack
    again and again allocates neither.
    """
    _check_dims(op, x)
    result = requantize(x, op.table, op.options, _round_in_place, out=out, work=work)
    return (FloatImage(result) if isinstance(x, FloatImage) else result), op


def apply_vjp(op: DiffJpegOp, cotangent):
    """Pull a cotangent (an image or a stack, as for :func:`forward`) back
    through the pipeline, rounding as identity.

    The no-rounding pipeline is the identity map (see the module
    docstring), so its adjoint returns the cotangent as it is.
    """
    _check_dims(op, cotangent)
    return cotangent
