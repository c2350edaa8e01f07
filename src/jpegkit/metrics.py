"""Measurement side of the toolkit: the empirical consistency index, PSNR,
a Fréchet distance over DCT patch statistics standing in for a learned
perceptual index, and per-pixel spread maps for sample sets.

The Fréchet proxy is deterministic and desk-scale. Its absolute values are
not comparable to scores computed with pretrained feature networks; only
orderings and trends are meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .codec import CodecOptions, compress_with_table, decompress, plane_dct
from .color import luma
from .errors import DimMismatch, EmptySet, SingularCovariance, TooFewSamples
from .image import FloatImage, PixelImage, to_float
from .losses import SampleBatch
from .quant import QuantTable, table_for_qf

COV_RIDGE = 1e-6
LOGVAR_FLOOR = 1e-8


@dataclass(frozen=True)
class MetricReport:
    """One evaluated configuration; serializes to a single CSV row."""

    name: str
    qf: int | str
    consistency_rmse: float
    psnr: float
    perceptual_proxy: float
    n_samples: int

    CSV_HEADER = "name,qf,consistency_rmse,psnr,perceptual_proxy,n"

    def to_csv_row(self) -> str:
        return (
            f"{self.name},{self.qf},{self.consistency_rmse:.6f},"
            f"{self.psnr:.6f},{self.perceptual_proxy:.6f},{self.n_samples}"
        )


def consistency_rmse(
    xhat: PixelImage,
    y: PixelImage,
    qf: int,
    opts: CodecOptions = CodecOptions(),
    table: QuantTable | None = None,
) -> float:
    """RMSE in gray levels between y and the recompression of xhat under
    the same settings; zero iff xhat recompresses to the given input."""
    if xhat.data.shape != y.data.shape:
        raise DimMismatch("xhat and y dims differ")
    t = table if table is not None else table_for_qf(qf)
    z = decompress(compress_with_table(xhat, t, opts))
    return float(
        np.sqrt(np.mean((z.data.astype(np.float64) - y.data.astype(np.float64)) ** 2))
    )


def psnr(a: PixelImage, b: PixelImage) -> float:
    if a.data.shape != b.data.shape:
        raise DimMismatch("psnr operands differ in shape")
    mse = float(np.mean((a.data.astype(np.float64) - b.data.astype(np.float64)) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def dct_statistic_features(img: PixelImage | FloatImage) -> np.ndarray:
    """Per-image feature: mean and log-variance of each of the 64 DCT
    coefficient positions over all luma blocks (128 values)."""
    fimg = to_float(img) if isinstance(img, PixelImage) else img
    coef = plane_dct(luma(fimg.data)).reshape(-1, 64)
    mean = coef.mean(axis=0)
    logvar = np.log(coef.var(axis=0) + LOGVAR_FLOOR)
    return np.concatenate([mean, logvar])


def _fit_gaussian(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = feats.mean(axis=0)
    if feats.shape[0] < 2:
        sigma = np.zeros((feats.shape[1], feats.shape[1]))
    else:
        sigma = np.cov(feats, rowvar=False)
    return mu, sigma


def _trace_sqrt_product(sigma1: np.ndarray, sigma2: np.ndarray) -> float:
    """tr((S1 S2)^(1/2)) through the symmetric form S2^(1/2) S1 S2^(1/2);
    eigendecomposition keeps the result real, symmetric in its arguments,
    and stable on the rank-deficient covariances small sets produce."""
    w2, v2 = np.linalg.eigh((sigma2 + sigma2.T) / 2)
    root2 = (v2 * np.sqrt(np.clip(w2, 0.0, None))) @ v2.T
    m = root2 @ sigma1 @ root2
    w = np.linalg.eigvalsh((m + m.T) / 2)
    return float(np.sum(np.sqrt(np.clip(w, 0.0, None))))


def frechet_gaussian_distance(mu1, sigma1, mu2, sigma2) -> float:
    """||mu1-mu2||^2 + tr(S1 + S2 - 2 (S1 S2)^(1/2)); singular covariances
    get a reported +1e-6*I ridge on both sides."""
    diff = float(np.sum((mu1 - mu2) ** 2))
    min_eig = min(
        float(np.linalg.eigvalsh((sigma1 + sigma1.T) / 2).min()),
        float(np.linalg.eigvalsh((sigma2 + sigma2.T) / 2).min()),
    )
    if min_eig < 1e-10:
        warnings.warn(
            f"singular covariance (min eigenvalue {min_eig:.2e}); adding {COV_RIDGE}*I",
            SingularCovariance,
        )
        eye = np.eye(sigma1.shape[0])
        sigma1 = sigma1 + COV_RIDGE * eye
        sigma2 = sigma2 + COV_RIDGE * eye
    # averaging both orders makes the value exactly symmetric despite the
    # ill-conditioning of small-sample covariances
    covmean_trace = 0.5 * (
        _trace_sqrt_product(sigma1, sigma2) + _trace_sqrt_product(sigma2, sigma1)
    )
    return diff + float(np.trace(sigma1) + np.trace(sigma2)) - 2.0 * covmean_trace


def perceptual_proxy(set_a, set_b) -> float:
    """Fréchet distance between Gaussians fitted to the per-image DCT
    statistic features of the two sets."""
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise EmptySet("both sets must be nonempty")
    fa = np.stack([dct_statistic_features(i) for i in set_a])
    fb = np.stack([dct_statistic_features(i) for i in set_b])
    return max(0.0, frechet_gaussian_distance(*_fit_gaussian(fa), *_fit_gaussian(fb)))


def std_map(batch: SampleBatch, fourth_root: bool = False) -> FloatImage:
    """Per-pixel sample standard deviation (unbiased) over the batch."""
    if len(batch.samples) < 2:
        raise TooFewSamples("std map needs at least 2 samples")
    std = batch.stacked().std(axis=0, ddof=1)
    if fourth_root:
        std = std**0.25
    return FloatImage(std)


def mean_std_fraction(batch: SampleBatch) -> float:
    """Scalar per-pixel spread, normalized to [0, 1] by the sample range."""
    return float(np.mean(std_map(batch).data)) / 255.0
