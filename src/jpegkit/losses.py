"""The paper's loss terms: consistency, first and second moment, and a
texture-band feature distance. Each ``*_term`` function takes a (K, H, W, C)
stack and returns the term's value and the array its gradient is built
from; the restorer descends them, and ``loss_*`` are their values over a
:class:`SampleBatch`.

Every loss is normalized per sample value (mean, not sum) so weights mean
the same thing at any resolution. Absolute weight values are therefore not
comparable across differently normalized implementations.

The per-sample terms (consistency, feature) act on each image of a stack
alone, and each image gets the arithmetic it would get on its own, so a
caller may run them over any split of the stack and get the same bits.
:func:`loss_c` runs the codec over blocks of at most
:func:`~jpegkit.image.block_rows` samples, and the restorer steps its
per-seed terms over the same blocks. The moment terms reduce over the
samples, so they take the whole stack; the second-moment term takes it
minus its mean, which its caller forms once and reuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import CodecOptions, plane_dct
from .color import RGB_TO_YCBCR, luma
from .dct import fold_pad, idct2, merge_blocks
from .diffjpeg import DiffJpegOp, forward
from .errors import (
    DimMismatch,
    MissingGroundTruth,
    MissingReference,
    TooFewSamples,
)
from .image import FloatImage, PixelImage, block_rows, float_samples
from .quant import QuantTable, table_for_qf


def check_references(shape: tuple, x, xbar):
    """Raise :class:`DimMismatch` unless the ground truth x and the reference
    estimate xbar, each when given, have the input's (H, W, C) shape."""
    for img, what in ((x, "ground truth"), (xbar, "reference")):
        if img is not None and img.data.shape != shape:
            raise DimMismatch(f"{what} dims differ from y")


@dataclass(frozen=True)
class SampleBatch:
    """Restorations of one compressed input: the input y, the sample set,
    and optionally the ground truth x and a reference estimate xbar."""

    y: PixelImage
    samples: tuple
    x: PixelImage | None = None
    xbar: FloatImage | None = None

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise TooFewSamples("batch needs at least one sample")
        shape = self.y.data.shape
        for s in self.samples:
            if s.data.shape != shape:
                raise DimMismatch("sample dims differ from y")
        check_references(shape, self.x, self.xbar)

    def stacked(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """The samples ``start:stop`` (all by default) as one float64
        (K, H, W, C) stack."""
        return np.stack([s.data for s in self.samples[start:stop]]).astype(np.float64, copy=False)


@dataclass(frozen=True)
class LossWeights:
    lambda_c: float = 0.0
    lambda_fm: float = 0.0
    lambda_p: float = 0.0
    lambda_sm: float = 0.0
    lambda_prior: float = 0.0

    def __post_init__(self):
        for name in ("lambda_c", "lambda_fm", "lambda_p", "lambda_sm", "lambda_prior"):
            if not 0 <= getattr(self, name) < np.inf:  # NaN included
                raise ValueError(f"{name} must be finite and nonnegative")


def consistency_term(op: DiffJpegOp, states: np.ndarray, y: np.ndarray, out=None, work=None):
    """Per-sample mean squared recompression residual against y, and the
    residual forward(states) - y, written into ``out``. ``work``, shaped
    like states, is scratch: forward's coefficients, then the squared
    residual. Both are allocated when None. Gradient: (2 / y.size) *
    residual, as the straight-through adjoint is the identity."""
    work = np.empty_like(states) if work is None else work
    r, _ = forward(op, states, out=out, work=work)
    with np.errstate(over="ignore", invalid="ignore"):
        r -= y
        mse = np.square(r, out=work).mean(axis=(-3, -2, -1))
    return mse, r


def first_moment_term(states: np.ndarray, x: np.ndarray):
    """Mean squared gap x - (sample mean), and the gap. Gradient per
    sample: -2 / (x.size * K) * gap."""
    gap = x - states.mean(axis=0)
    return float(np.mean(gap * gap)), gap


def second_moment_term(dev: np.ndarray, x: np.ndarray, xbar: np.ndarray):
    """Mean absolute gap (x - xbar)**2 - (population variance), and the
    gap, given ``dev``, the samples minus their mean; the variance sums
    dev**2 seed by seed, as ``np.var`` does. Gradient per sample: -(2 / K)
    * sign(gap) * dev / x.size (a subgradient at the kinks)."""
    var = dev[0] ** 2
    for d in dev[1:]:
        var += d**2
    var /= len(dev)
    gap = x - xbar
    np.square(gap, out=gap)
    gap -= var
    return float(np.mean(np.abs(gap, out=var))), gap


def feature_term(states: np.ndarray, fx: np.ndarray):
    """Per-sample mean squared texture-band feature gap to fx, the gap, and
    the luma block coefficients of states the features were taken from.
    Gradient: :func:`texture_band_pullback` of (2 / gap[0].size) * gap,
    given those coefficients. ``states`` is a float64 stack of finite
    samples, taken as it is: the restorer's own states, or
    :meth:`SampleBatch.stacked`."""
    coef = plane_dct(luma(states))
    gap = _band_features(coef) - fx
    return np.square(gap).mean(axis=(-3, -2, -1)), gap, coef


def ordered_sum(values: np.ndarray) -> float:
    """The values added one at a time, in array order, from +0.0. The
    restorer's objective and the sample means of :func:`loss_c` and
    :func:`loss_p` keep their bits by it: ``math.fsum`` rounds once, at the
    end, and the builtin ``sum`` compensates from Python 3.12, so neither
    gives the same bits."""
    total = 0.0
    for v in values.ravel().tolist():
        total += v
    return total


def loss_c(batch: SampleBatch, qf: int, table: QuantTable | None = None) -> float:
    """Mean squared recompression residual, averaged over samples; ``table``
    overrides qf when given. The samples go through the codec one block at
    a time (see the module docstring), so a call holds one block's stack
    and residual, not the whole set's."""
    y, k = batch.y, len(batch.samples)
    table = table if table is not None else table_for_qf(qf)
    op = DiffJpegOp(table, CodecOptions(), y.width, y.height, y.channels)
    y_f = float_samples(y)
    rows = block_rows(y_f.size)
    mse = [consistency_term(op, batch.stacked(a, a + rows), y_f)[0] for a in range(0, k, rows)]
    return ordered_sum(np.concatenate(mse)) / k


def loss_fm(batch: SampleBatch) -> float:
    """Squared distance between the sample mean and the ground truth.

    Zero whenever the samples average to x, even if every individual
    sample is far from it; this is what separates the term from a
    per-sample squared error.
    """
    if batch.x is None:
        raise MissingGroundTruth("first-moment loss needs x")
    return first_moment_term(batch.stacked(), float_samples(batch.x))[0]


def loss_sm(batch: SampleBatch) -> float:
    """Mean absolute gap between the per-pixel sample variance and the
    squared deviation of x from the reference estimate."""
    if batch.x is None:
        raise MissingGroundTruth("second-moment loss needs x")
    if batch.xbar is None:
        raise MissingReference("second-moment loss needs the reference estimate")
    if len(batch.samples) < 2:
        raise TooFewSamples("second-moment loss needs at least 2 samples")
    dev = batch.stacked()
    dev -= dev.mean(axis=0)
    return second_moment_term(dev, float_samples(batch.x), batch.xbar.data)[0]


# radial bands over the 8x8 coefficient positions: DC alone, then rings of
# AC positions grouped by i+j
_I, _J = np.mgrid[0:8, 0:8]
_S = _I + _J
BAND_MASKS = (
    (_S >= 1) & (_S <= 4),
    (_S >= 5) & (_S <= 9),
    (_S >= 10),
)


def texture_band_features(img) -> np.ndarray:
    """Features of the feature term: per block, the mean sample level plus
    the mean coefficient magnitude in three AC frequency rings; shape
    (nby, nbx, 4), or (..., nby, nbx, 4) for an (..., h, w, c) stack."""
    return _band_features(plane_dct(luma(float_samples(img))))


def _band_features(coef: np.ndarray) -> np.ndarray:
    feats = [coef[..., 0, 0] / 8.0]
    for mask in BAND_MASKS:
        feats.append(np.abs(coef[..., mask]).mean(axis=-1))
    return np.stack(feats, axis=-1)


def texture_band_pullback(shape: tuple, cotangent: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """VJP of :func:`texture_band_features` at an image or a stack of
    samples of the given (..., h, w, c) shape (abs uses its sign
    subgradient), given ``coef``, the luma block coefficients of those
    samples that :func:`feature_term` returns; returns an array of that
    shape."""
    dcoef = np.zeros_like(coef)
    dcoef[..., 0, 0] = cotangent[..., 0] / 8.0
    for m, mask in enumerate(BAND_MASKS):
        n = int(mask.sum())
        sign = np.sign(coef[..., mask])
        dcoef[..., mask] += sign * cotangent[..., m + 1][..., None] / n
    height, width, channels = shape[-3:]
    dplane = fold_pad(merge_blocks(idct2(dcoef)), height, width)
    if channels == 3:
        return dplane[..., None] * RGB_TO_YCBCR[0]
    return dplane[..., None]


def loss_p(batch: SampleBatch) -> float:
    """Mean squared texture-band feature distance to the ground truth."""
    if batch.x is None:
        raise MissingGroundTruth("feature loss needs x")
    fx = texture_band_features(batch.x)
    return ordered_sum(feature_term(batch.stacked(), fx)[0]) / len(batch.samples)
