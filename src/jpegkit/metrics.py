"""Measurement side of the toolkit: the empirical consistency index, PSNR,
a Fréchet distance over DCT patch statistics standing in for a learned
perceptual index, and per-pixel spread maps for sample sets.

The Fréchet proxy is computed in sample space, as the nuclear norm of an
n_a x n_b matrix (see `frechet_distance`): the sets hold fewer images than
feature dimensions, and that form is exact for their singular covariances,
with no ridge.

The proxy is deterministic and desk-scale. Its absolute values are
not comparable to scores computed with pretrained feature networks; only
orderings and trends are meaningful.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .codec import CodecOptions, compress_with_table, decompress, plane_dct
from .color import luma
from .errors import DimMismatch, EmptySet, TooFewSamples
from .image import FloatImage, PixelImage, float_samples
from .losses import SampleBatch
from .quant import QuantTable, table_for_qf

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
        """The row and its newline, as :func:`csv_text` writes it."""
        scores = (f"{v:.6f}" for v in (self.consistency_rmse, self.psnr, self.perceptual_proxy))
        return csv_text([[self.name, self.qf, *scores, self.n_samples]])


def csv_text(rows) -> str:
    r"""The rows as CSV, each ending in "\n": the writer of every CLI report.
    The default dialect quotes a field holding a comma, a quote, "\r" or
    "\n" (a "\n" terminator would not quote "\r"); its "\r\n" is cut to "\n"."""
    lines = []
    for row in rows:
        buf = io.StringIO()
        csv.writer(buf).writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def mse_8bit(a: PixelImage, b: PixelImage) -> float:
    """Mean squared difference of two same-shaped 8-bit images."""
    d = a.data.astype(np.float64) - b.data.astype(np.float64)
    return float(np.mean(d * d))


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
    return math.sqrt(mse_8bit(z, y))


def psnr(a: PixelImage, b: PixelImage) -> float:
    if a.data.shape != b.data.shape:
        raise DimMismatch("psnr operands differ in shape")
    mse = mse_8bit(a, b)
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)


def dct_statistic_features(img: PixelImage | FloatImage) -> np.ndarray:
    """Per-image feature: mean and log-variance of each of the 64 DCT
    coefficient positions over all luma blocks (128 values)."""
    coef = plane_dct(luma(float_samples(img))).reshape(-1, 64)
    mean = coef.mean(axis=0)
    logvar = np.log(coef.var(axis=0) + LOGVAR_FLOOR)
    return np.concatenate([mean, logvar])


def frechet_distance(feats_a: np.ndarray, feats_b: np.ndarray) -> float:
    """Fréchet distance between Gaussians fitted to two (n, d) feature sets,
    ||mu_a - mu_b||^2 + tr(S_a + S_b - 2 (S_a S_b)^(1/2)), computed in
    sample space.

    A and B are the centred rows scaled by 1/sqrt(n - 1) (zeros for a single
    row), so S_a = AᵀA and S_b = BᵀB are the unbiased covariances, and
    tr((S_a S_b)^(1/2)) is exactly the nuclear norm of the n_a x n_b matrix
    ABᵀ (Dowson & Landau 1982). Sets smaller than d give singular
    covariances; this form is exact for them and needs no ridge.
    """
    mu_a, mu_b = feats_a.mean(axis=0), feats_b.mean(axis=0)
    a = (feats_a - mu_a) / math.sqrt(max(len(feats_a) - 1, 1))
    b = (feats_b - mu_b) / math.sqrt(max(len(feats_b) - 1, 1))
    nuclear = float(np.linalg.svd(a @ b.T, compute_uv=False).sum())
    return float(np.sum((mu_a - mu_b) ** 2) + np.sum(a * a) + np.sum(b * b)) - 2.0 * nuclear


def perceptual_proxy(set_a, set_b) -> float:
    """Fréchet distance between Gaussians fitted to the per-image DCT
    statistic features of the two sets."""
    set_a, set_b = list(set_a), list(set_b)
    if not set_a or not set_b:
        raise EmptySet("both sets must be nonempty")
    fa = np.stack([dct_statistic_features(i) for i in set_a])
    fb = np.stack([dct_statistic_features(i) for i in set_b])
    return max(0.0, frechet_distance(fa, fb))


def std_map(batch: SampleBatch) -> FloatImage:
    """Per-pixel sample standard deviation (unbiased) over the batch."""
    if len(batch.samples) < 2:
        raise TooFewSamples("std map needs at least 2 samples")
    return FloatImage(batch.stacked().std(axis=0, ddof=1))

