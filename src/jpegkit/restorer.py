"""Stochastic restorer: per-seed gradient descent on pixels, pulling toward
recompression consistency while a smoothness prior pushes toward cleaner
images. Sweeping the consistency weight traces the empirical tradeoff
between the two forces.

The prior is an isotropic Huber-smoothed total variation. The consistency
term recompresses each state with :func:`~jpegkit.diffjpeg.forward`; its
straight-through gradient is lambda_c * (2 / n_values) * residual, because
the straight-through adjoint is the identity (see :mod:`~jpegkit.diffjpeg`).
With only those two terms each seed's trajectory is independent: it
depends on (seed, k) alone, never on how many seeds run alongside. The
optional moment-matching terms (first/second moment, feature) couple the
seeds by construction and require the ground truth.

Two dynamics facts worth knowing. Stability of the consistency pull needs
step_size * 2 * lambda_c / n_values < 1 (the losses are means, so the
bound scales with image size); past it the state overshoots cells and
oscillates, which the divergence report flags. And because the residual is
measured against the 8-bit input, it never vanishes exactly even in the
right cells, so a pure consistency descent drifts slowly and cycles near a
cell boundary instead of parking: expect a small consistency floor
(~1 gray level) rather than zero, and use the projection when exact
consistency is the goal.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import CodecOptions, compress_with_table
from .diffjpeg import DiffJpegOp, forward
from .errors import (
    MissingGroundTruth,
    MissingReference,
    NonFiniteLoss,
    NotACompressedInput,
)
from .image import FloatImage, PixelImage, to_float, to_pixels
from .losses import LossWeights, texture_band_features, texture_band_pullback
from .metrics import consistency_rmse, perceptual_proxy, psnr
from .projection import project
from .quant import QuantTable, table_for_qf

MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class RestoreConfig:
    """Everything a run needs; identical configs give bitwise identical
    outputs."""

    qf: int
    options: CodecOptions = CodecOptions()
    weights: LossWeights = field(default_factory=lambda: LossWeights(lambda_c=1.0))
    steps: int = 200
    step_size: float = 0.1
    n_seeds: int = 1
    seed: int = 0
    init_noise_std: float = 4.0
    huber_eps: float = 0.1
    lambda_c_anneal: tuple | None = None  # (start, end), cosine schedule
    table: QuantTable | None = None  # overrides qf when set

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")

    def quant_table(self) -> QuantTable:
        return self.table if self.table is not None else table_for_qf(self.qf)


def tv_huber(x: np.ndarray, eps: float) -> tuple[float, np.ndarray]:
    """Isotropic Huber-smoothed total variation of an (h, w, c) array,
    normalized per sample value, with its analytic (sub)gradient."""
    gx = np.zeros_like(x)
    gy = np.zeros_like(x)
    gx[:, :-1, :] = x[:, 1:, :] - x[:, :-1, :]
    gy[:-1, :, :] = x[1:, :, :] - x[:-1, :, :]
    mag = np.sqrt(gx**2 + gy**2)
    quad = mag <= eps
    loss = float(np.where(quad, mag**2 / (2 * eps), mag - eps / 2).mean())
    w = np.where(quad, 1.0 / eps, 1.0 / np.maximum(mag, 1e-300))
    px, py = w * gx, w * gy
    grad = np.zeros_like(x)
    grad[:, 1:, :] += px[:, :-1, :]
    grad[:, :-1, :] -= px[:, :-1, :]
    grad[1:, :, :] += py[:-1, :, :]
    grad[:-1, :, :] -= py[:-1, :, :]
    return loss, grad / x.size


def _lambda_c_at(cfg: RestoreConfig, t: int) -> float:
    if cfg.lambda_c_anneal is None:
        return cfg.weights.lambda_c
    start, end = cfg.lambda_c_anneal
    if cfg.steps == 1:
        return float(end)
    frac = t / (cfg.steps - 1)
    return float(end + (start - end) * 0.5 * (1.0 + np.cos(np.pi * frac)))


def _seed_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))


@dataclass
class RestoreRun:
    """Outputs plus per-iteration diagnostics."""

    images: list
    loss_history: np.ndarray  # (steps,) total objective per iteration
    diverged: bool


def restore_with_history(
    y: PixelImage,
    cfg: RestoreConfig,
    x: PixelImage | None = None,
    xbar: FloatImage | None = None,
) -> RestoreRun:
    table = cfg.quant_table()
    if consistency_rmse(y, y, cfg.qf, cfg.options, table=table) > 1.0:
        raise NotACompressedInput("input does not recompress to itself")

    w = cfg.weights
    coupled = (w.lambda_fm > 0) or (w.lambda_sm > 0) or (w.lambda_p > 0)
    if coupled and x is None:
        raise MissingGroundTruth("moment/feature terms need the ground truth")
    if w.lambda_sm > 0 and xbar is None:
        raise MissingReference("second-moment term needs the reference estimate")

    y_f = to_float(y)
    op = DiffJpegOp(table, cfg.options, y.width, y.height, y.channels)
    n = y_f.data.size

    states = []
    for k in range(cfg.n_seeds):
        rng = _seed_rng(cfg.seed, k)
        noise = rng.normal(0.0, cfg.init_noise_std, y_f.data.shape)
        states.append(y_f.data + noise)

    x_f = None if x is None else to_float(x).data
    fx = None if x is None else (texture_band_features(to_float(x)) if w.lambda_p > 0 else None)

    history = np.zeros(cfg.steps)
    for t in range(cfg.steps):
        lam_c = _lambda_c_at(cfg, t)
        grads = [np.zeros_like(s) for s in states]
        total = 0.0

        for k, s in enumerate(states):
            if lam_c > 0:
                z, _ = forward(op, FloatImage(s))
                with np.errstate(over="ignore", invalid="ignore"):
                    r = z.data - y_f.data
                    total += lam_c * float(np.mean(r * r))
                grads[k] += lam_c * (2.0 / n) * r
            if w.lambda_prior > 0:
                tv, g = tv_huber(s, cfg.huber_eps)
                total += w.lambda_prior * tv
                grads[k] += w.lambda_prior * g
            if w.lambda_p > 0:
                f = texture_band_features(FloatImage(s))
                d = f - fx
                total += w.lambda_p * float(np.mean(d * d))
                cot = (2.0 / d.size) * d
                grads[k] += w.lambda_p * texture_band_pullback(FloatImage(s), cot)

        if coupled and (w.lambda_fm > 0 or w.lambda_sm > 0):
            stack = np.stack(states)
            mean = stack.mean(axis=0)
            if w.lambda_fm > 0:
                d = x_f - mean
                total += w.lambda_fm * float(np.mean(d * d))
                g_shared = w.lambda_fm * (-2.0 / (n * cfg.n_seeds)) * d
                for k in range(cfg.n_seeds):
                    grads[k] += g_shared
            if w.lambda_sm > 0:
                var = stack.var(axis=0, ddof=0)
                gap = (x_f - xbar.data) ** 2 - var
                total += w.lambda_sm * float(np.mean(np.abs(gap)))
                sgn = np.sign(gap)
                for k in range(cfg.n_seeds):
                    grads[k] += w.lambda_sm * (-sgn) * (2.0 / cfg.n_seeds) * (
                        states[k] - mean
                    ) / n

        if not np.isfinite(total):
            raise NonFiniteLoss(f"objective became {total} at step {t}")
        history[t] = total
        for k in range(cfg.n_seeds):
            if not np.all(np.isfinite(grads[k])):
                raise NonFiniteLoss(f"gradient became non-finite at step {t}")
            states[k] = states[k] - cfg.step_size * grads[k]

    diverged = bool(np.any(np.diff(history) > MONOTONE_TOL))
    if diverged:
        warnings.warn("objective increased during descent (step size too large?)")
    return RestoreRun([to_pixels(FloatImage(s)) for s in states], history, diverged)


def restore(
    y: PixelImage,
    cfg: RestoreConfig,
    x: PixelImage | None = None,
    xbar: FloatImage | None = None,
) -> list:
    """n_seeds restorations of one compressed input, deterministic in cfg."""
    return restore_with_history(y, cfg, x, xbar).images


def restore_project(y: PixelImage, cfg: RestoreConfig, grid=None) -> list:
    """Restore, then clamp every output into the input's coefficient cells."""
    if grid is None:
        grid = compress_with_table(y, cfg.quant_table(), cfg.options)
    outs = restore(y, cfg)
    return [to_pixels(project(img, grid, cfg.options)) for img in outs]


@dataclass(frozen=True)
class SweepRow:
    lambda_c: float
    consistency_rmse: float
    perceptual_proxy: float
    psnr: float


@dataclass(frozen=True)
class SweepResult:
    """Per-weight rows, ascending in the consistency weight."""

    rows: tuple

    CSV_HEADER = "lambda_c,consistency_rmse,perceptual_proxy,psnr"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.CSV_HEADER.split(","))
        for r in self.rows:
            writer.writerow(
                [r.lambda_c, f"{r.consistency_rmse:.6f}", f"{r.perceptual_proxy:.6f}", f"{r.psnr:.6f}"]
            )
        return buf.getvalue()


def sweep_lambda_c(y_set, x_set, lambdas, cfg: RestoreConfig) -> SweepResult:
    """Restore every input at each consistency weight and measure the
    consistency / proxy / fidelity of the results."""
    y_set, x_set = list(y_set), list(x_set)
    if len(y_set) != len(x_set):
        raise ValueError("y_set and x_set must be paired")
    lambdas = sorted(float(v) for v in lambdas)
    if len(lambdas) < 2:
        raise ValueError("need at least two weights to sweep")
    table = cfg.quant_table()
    rows = []
    for lam in lambdas:
        run_cfg = replace(cfg, weights=replace(cfg.weights, lambda_c=lam))
        restored = []
        cons, fid = [], []
        for y, x in zip(y_set, x_set):
            outs = restore(y, run_cfg)
            restored.extend(outs)
            cons.extend(
                consistency_rmse(o, y, cfg.qf, cfg.options, table=table) for o in outs
            )
            fid.extend(psnr(o, x) for o in outs)
        rows.append(
            SweepRow(
                lam,
                float(np.mean(cons)),
                perceptual_proxy(restored, x_set),
                float(np.mean(fid)),
            )
        )
    return SweepResult(tuple(rows))
