"""Loss functionals over sample batches: consistency, first/second moment,
and a feature-space term with a pluggable extractor.

Every loss is normalized per sample value (mean, not sum) so weights mean
the same thing at any resolution. Absolute weight values are therefore not
comparable across differently normalized implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from .image import FloatImage, PixelImage, float_samples, to_float
from .quant import QuantTable


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
        if self.x is not None and self.x.data.shape != shape:
            raise DimMismatch("ground truth dims differ from y")
        if self.xbar is not None and self.xbar.data.shape != shape:
            raise DimMismatch("reference dims differ from y")

    def stacked(self) -> np.ndarray:
        return np.stack([s.data for s in self.samples])


@dataclass(frozen=True)
class LossWeights:
    lambda_c: float = 0.0
    lambda_fm: float = 0.0
    lambda_p: float = 0.0
    lambda_sm: float = 0.0
    lambda_prior: float = 0.0

    def __post_init__(self):
        for name in ("lambda_c", "lambda_fm", "lambda_p", "lambda_sm", "lambda_prior"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


def loss_c(batch: SampleBatch, qf: int, opts: CodecOptions = CodecOptions(), table: QuantTable | None = None) -> float:
    """Mean squared recompression residual, averaged over samples."""
    y = to_float(batch.y)
    if table is None:
        op = DiffJpegOp.for_image(y, qf, opts)
    else:
        op = DiffJpegOp(table, opts, y.width, y.height, y.channels)
    z, _ = forward(op, batch.stacked())
    np.subtract(y.data, z, out=z)
    np.square(z, out=z)
    total = 0.0
    for mse in z.mean(axis=(-3, -2, -1)).tolist():
        total += mse
    return total / len(batch.samples)


def loss_fm(batch: SampleBatch) -> float:
    """Squared distance between the sample mean and the ground truth.

    Zero whenever the samples average to x, even if every individual
    sample is far from it; this is what separates the term from a
    per-sample squared error.
    """
    if batch.x is None:
        raise MissingGroundTruth("first-moment loss needs x")
    mean = batch.stacked().mean(axis=0)
    return float(np.mean((batch.x.data.astype(np.float64) - mean) ** 2))


def loss_sm(batch: SampleBatch, unbiased: bool = False) -> float:
    """Mean absolute gap between the per-pixel sample variance and the
    squared deviation of x from the reference estimate."""
    if batch.x is None:
        raise MissingGroundTruth("second-moment loss needs x")
    if batch.xbar is None:
        raise MissingReference("second-moment loss needs the reference estimate")
    if len(batch.samples) < 2:
        raise TooFewSamples("second-moment loss needs at least 2 samples")
    var = batch.stacked().var(axis=0, ddof=1 if unbiased else 0)
    target = (batch.x.data.astype(np.float64) - batch.xbar.data) ** 2
    return float(np.mean(np.abs(target - var)))


FeatureExtractor = Callable[[FloatImage], np.ndarray]

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
    """Default extractor: per block, the mean sample level plus the mean
    coefficient magnitude in three AC frequency rings; shape (nby, nbx, 4),
    or (..., nby, nbx, 4) for an (..., h, w, c) stack of samples."""
    coef = plane_dct(luma(float_samples(img)))
    feats = [coef[..., 0, 0] / 8.0]
    for mask in BAND_MASKS:
        feats.append(np.abs(coef[..., mask]).mean(axis=-1))
    return np.stack(feats, axis=-1)


def texture_band_pullback(img, cotangent: np.ndarray) -> np.ndarray:
    """VJP of :func:`texture_band_features` at img, an image or a stack of
    samples (abs uses its sign subgradient); returns an array shaped like
    its samples."""
    data = float_samples(img)
    coef = plane_dct(luma(data))
    dcoef = np.zeros_like(coef)
    dcoef[..., 0, 0] = cotangent[..., 0] / 8.0
    for m, mask in enumerate(BAND_MASKS):
        n = int(mask.sum())
        sign = np.sign(coef[..., mask])
        dcoef[..., mask] += sign * cotangent[..., m + 1][..., None] / n
    height, width = data.shape[-3:-1]
    dplane = fold_pad(merge_blocks(idct2(dcoef)), height, width)
    if data.shape[-1] == 3:
        return dplane[..., None] * RGB_TO_YCBCR[0]
    return dplane[..., None]


def loss_p(batch: SampleBatch, features: FeatureExtractor | None = None) -> float:
    """Mean squared feature-space distance to the ground truth."""
    if batch.x is None:
        raise MissingGroundTruth("feature loss needs x")
    phi = features if features is not None else texture_band_features
    fx = phi(to_float(batch.x))
    total = 0.0
    for s in batch.samples:
        total += float(np.mean((fx - phi(s)) ** 2))
    return total / len(batch.samples)
