"""Reference implementations that tests compare the library against.

Each is the plain, per-case form of something the library computes in a
faster or batched way, or a convenience only tests need: the codec's
requantize one channel at a time, the diffjpeg pipeline with rounding as
the identity, an operator built from a quality factor, and the toy
oracle's posterior and conditional mean by direct enumeration of one
observation.
"""

import numpy as np

from jpegkit import dct
from jpegkit.codec import LEVEL_SHIFT, CodecOptions, channel_kinds, requantize
from jpegkit.color import CHROMA_OFFSET, RGB_TO_YCBCR, YCBCR_TO_RGB
from jpegkit.diffjpeg import DiffJpegOp, _check_dims
from jpegkit.errors import UnreachableY
from jpegkit.image import FloatImage, float_samples, round_half_away_from_zero
from jpegkit.quant import table_for_qf
from jpegkit.toy import ToyModel, alphabet_for_size


def op_for_image(img, qf: int, options: CodecOptions = CodecOptions()) -> DiffJpegOp:
    """The diffjpeg operator for the geometry of ``img`` at quality ``qf``."""
    return DiffJpegOp(table_for_qf(qf), options, img.width, img.height, img.channels)


def identity_step(coef):
    """A :func:`jpegkit.codec.requantize` step that keeps the coefficients."""
    return coef


def _per_pixel(data: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """``data @ matrix.T`` over the last axis of (..., h, w, 3) data, one
    matmul per image."""
    h, w = data.shape[-3:-1]
    flat = np.matmul(data.reshape(-1, h * w, 3), np.ascontiguousarray(matrix.T))
    return flat.reshape(data.shape)


def _transform(plane: np.ndarray, left: np.ndarray, right: np.ndarray):
    """``left @ block @ right`` for every 8x8 block of a C-contiguous
    (..., H', W') plane, in place, as the codec's strided GEMMs."""
    height, width = plane.shape[-2:]
    rows = np.matmul(left, plane.reshape(plane.shape[:-2] + (height // 8, 8, width)))
    np.matmul(rows.reshape(-1, 8), right, out=plane.reshape(-1, 8))


def requantize_per_channel(img, table, opts: CodecOptions, step) -> np.ndarray:
    """:func:`jpegkit.codec.requantize` as it ran one channel at a time on
    interleaved (..., H, W, C) color planes: ``step(coef, c)`` gets channel
    c's (..., n_by, n_bx, 8, 8) coefficients in units of its steps."""
    samples = float_samples(img)
    height, width, channels = samples.shape[-3:]
    color = channels == 3 and opts.colorspace == "ycbcr"
    planes = samples
    if color:
        planes = _per_pixel(samples, RGB_TO_YCBCR)
        for c in (1, 2):
            planes[..., c] += CHROMA_OFFSET
        if opts.round_chroma:
            planes = np.clip(round_half_away_from_zero(planes), 0.0, 255.0)
    out = np.empty_like(samples)
    for c, kind in enumerate(channel_kinds(channels, opts.colorspace)):
        q = table.for_channel_kind(kind)
        padded = dct.pad_to_block_multiple(planes[..., c]) - LEVEL_SHIFT
        _transform(padded, dct.DCT_M, dct.DCT_M.T.copy())
        coef = step(dct.block_view(padded) / q, c)
        plane = dct.merge_blocks(np.asarray(coef) * q)
        _transform(plane, dct.DCT_M.T.copy(), dct.DCT_M)
        out[..., c] = plane[..., :height, :width] + LEVEL_SHIFT
    if color:
        for c in (1, 2):
            out[..., c] -= CHROMA_OFFSET
        out = _per_pixel(out, YCBCR_TO_RGB)
    return out


def forward_no_round(op: DiffJpegOp, x):
    """The diffjpeg pipeline with rounding replaced by the identity: the map
    whose Jacobian :func:`jpegkit.diffjpeg.apply_vjp` implements. It returns
    x up to float error."""
    _check_dims(op, x)
    result = requantize(x, op.table, op.options, identity_step)
    return FloatImage(result) if isinstance(x, FloatImage) else result


def uniform_model(length: int, a: int, steps) -> ToyModel:
    """A toy model with a uniform prior over a**length states."""
    n = a**length
    return ToyModel(length, alphabet_for_size(a), np.full(n, 1.0 / n), np.asarray(steps, float))


def enumerate_posterior(model: ToyModel, y) -> np.ndarray:
    """p(x | y) over all states, by direct enumeration."""
    y = np.asarray(y, dtype=np.int64)
    mask = np.all(model.degrade_all() == y, axis=1)
    mass = model.prior * mask
    total = mass.sum()
    if total <= 0.0:
        raise UnreachableY(f"no signal maps to {y.tolist()}")
    return mass / total


def mmse_estimate(model: ToyModel, y) -> np.ndarray:
    """Conditional mean E[X | y]."""
    return enumerate_posterior(model, y) @ model.signals.astype(np.float64)
