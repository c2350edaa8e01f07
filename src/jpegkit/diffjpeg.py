"""Differentiable compression operator with a straight-through rounding
gradient.

:func:`forward` is :func:`~jpegkit.codec.synthesis` after rounding after
:func:`~jpegkit.codec.analysis`, with no terminal 8-bit step, and returns
the value together with a :class:`Vjp`. Straight-through means the
gradient is that of the same pipeline with rounding replaced by the
identity, and that pipeline is itself the identity map: sampling is 1x1,
the DCT is orthonormal, the color inverse is exact, cropping undoes the
edge pad, and dividing by the table is undone by multiplying by it. So
:func:`apply_vjp` returns the cotangent unchanged. Do not mistake the
result for the true gradient of the rounding pipeline, which is zero
almost everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import CodecOptions, analysis, synthesis
from .errors import DimMismatch
from .image import FloatImage, round_half_away_from_zero
from .quant import QuantTable, table_for_qf


@dataclass(frozen=True)
class DiffJpegOp:
    """Quantization table, options, and the image geometry they apply to."""

    table: QuantTable
    options: CodecOptions
    width: int
    height: int
    channels: int

    @classmethod
    def for_image(cls, img, qf: int, options: CodecOptions = CodecOptions()) -> "DiffJpegOp":
        return cls(table_for_qf(qf), options, img.width, img.height, img.channels)


@dataclass(frozen=True)
class Vjp:
    """Handle for the adjoint; the pipeline is linear so the operator is
    all the state it needs."""

    op: DiffJpegOp


def _check_dims(op: DiffJpegOp, img: FloatImage):
    if (img.width, img.height, img.channels) != (op.width, op.height, op.channels):
        raise DimMismatch(
            f"image {img.width}x{img.height}x{img.channels} does not match operator "
            f"{op.width}x{op.height}x{op.channels}"
        )


def _run(op: DiffJpegOp, x: FloatImage, rounding: bool) -> FloatImage:
    coefs = analysis(x, op.table, op.options)
    if rounding:
        coefs = [round_half_away_from_zero(c) for c in coefs]
    return synthesis(coefs, op.table, op.width, op.height, op.options.colorspace)


def forward(op: DiffJpegOp, x: FloatImage) -> tuple[FloatImage, Vjp]:
    """Float-valued compress-decompress of x, plus the adjoint handle."""
    _check_dims(op, x)
    return _run(op, x, rounding=True), Vjp(op)


def forward_no_round(op: DiffJpegOp, x: FloatImage) -> FloatImage:
    """The pipeline with rounding replaced by the identity: the map whose
    Jacobian the VJP implements. It returns x up to float error."""
    _check_dims(op, x)
    return _run(op, x, rounding=False)


def apply_vjp(vjp: Vjp, cotangent: FloatImage) -> FloatImage:
    """Pull a cotangent back through the pipeline, rounding as identity.

    The no-rounding pipeline is the identity map (see the module
    docstring), so its adjoint returns the cotangent as it is.
    """
    _check_dims(vjp.op, cotangent)
    return cotangent
