"""Stochastic restorer: :func:`restore_with_history`, gradient descent on
pixels, one trajectory per seed, on the weighted loss terms of
:mod:`~jpegkit.losses` plus a smoothness prior. Sweeping the consistency
weight traces the empirical tradeoff between the pull toward recompression
consistency and the prior.

All seeds step together in one (n_seeds, H, W, C) state array and one
gradient buffer, both updated in place. The per-seed terms (prior,
consistency, feature) run over blocks of consecutive seeds, each of at most
``image.BLOCK_VALUES`` sample values and at least one image, and
write each block's gradient into its slice of the buffer; their scratch,
(3, block, H, W, C), is allocated once per run. So a run holds the states,
the gradient and one block of scratch: at 128² a block is one image (384
KiB, within a 2 MiB L2 cache), at 32² several. The moment terms reduce
over the seeds, so they, the objective, the finiteness checks and the
update act on the whole stack. A second-moment step takes the seed mean
once: its deviation stack is the term's input, then, scaled in place, the
term's pull on the gradient. Blocks keep the bits: every image of a
stack gets the arithmetic it would get on its own, and the objective adds
the per-seed values seed by seed in one order, so any block bound gives
the same outputs and loss history.

Each loss term is the ``*_term`` function that ``loss_c`` /
``loss_fm`` / ``loss_sm`` / ``loss_p`` report; the restorer only weights
and adds their values and gradients. The prior is an isotropic
Huber-smoothed total variation, :func:`tv_huber`.

Without the moment terms each seed's trajectory depends on (seed, k) alone,
never on how many seeds run alongside; the moment terms couple the seeds
by construction.

Two dynamics facts worth knowing. Stability of the consistency pull needs
step_size * 2 * lambda_c / n_values < 1 (the losses are means, so the
bound scales with image size); past it the state overshoots cells and
oscillates, which the divergence report flags. And because the residual is
measured against the 8-bit input, it never vanishes exactly even in the
right cells, so a pure consistency descent drifts slowly and cycles near a
cell boundary instead of parking: expect a small consistency floor
(~1 gray level) rather than zero, and :func:`~jpegkit.projection.project`
each output when exact consistency is the goal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .errors import (
    MissingGroundTruth,
    MissingReference,
    NonFiniteLoss,
    NotACompressedInput,
    TooFewSamples,
)
from .image import FloatImage, PixelImage, block_rows, float_samples, to_pixels
from .losses import (
    LossWeights,
    check_references,
    consistency_term,
    feature_term,
    first_moment_term,
    ordered_sum,
    second_moment_term,
    texture_band_features,
    texture_band_pullback,
)
from .metrics import consistency_rmse, csv_text, perceptual_proxy, psnr
from .quant import QuantTable, table_for_qf

MONOTONE_TOL = 1e-9


@dataclass(frozen=True)
class RestoreConfig:
    """Everything a run needs; identical configs give bitwise identical
    outputs. ``table`` is the input's quantization table, the one codec
    setting a run reads; ``qf`` only names a standard table, which sets
    ``table`` when none is given (``QfOutOfRange`` here if it names none)."""

    qf: int | None = None
    weights: LossWeights = field(default_factory=lambda: LossWeights(lambda_c=1.0))
    steps: int = 200
    step_size: float = 0.1
    n_seeds: int = 1
    seed: int = 0
    init_noise_std: float = 4.0
    huber_eps: ClassVar[float] = 0.1  # the prior's Huber width
    table: QuantTable | None = None

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0 < self.step_size < np.inf:
            raise ValueError("step_size must be finite and positive")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.init_noise_std < np.inf:
            raise ValueError("init_noise_std must be finite and nonnegative")
        if self.table is None:
            object.__setattr__(self, "table", table_for_qf(self.qf))


def tv_huber(x: np.ndarray, eps: float, out: np.ndarray | None = None, work: np.ndarray | None = None):
    """Isotropic Huber-smoothed total variation of an (h, w, c) array, or of
    each image of an (..., h, w, c) stack, normalized per sample value, with
    its analytic (sub)gradient. The loss is a scalar for one image and an
    array over the leading axes for a stack.

    The gradient is written into ``out``, which also serves as scratch.
    ``work``, shaped (3,) + x.shape, holds the other temporaries. Both are
    allocated when None; a caller that calls again and again passes them.
    """
    h, w, c = x.shape[-3:]
    grad = np.empty_like(x) if out is None else out
    gx, gy, mag = np.empty((3,) + x.shape) if work is None else work
    # x-direction terms run over each image's flattened samples, one long
    # run instead of h short ones. A flat run wraps from the last column
    # into the next row; that column has no right neighbour, so its
    # difference, and later its flux, is set to exactly zero.
    flat = x.shape[:-3] + (h * w * c,)
    np.subtract(x.reshape(flat)[..., c:], x.reshape(flat)[..., :-c], out=gx.reshape(flat)[..., :-c])
    gx[..., -1, :] = 0.0
    np.subtract(x[..., 1:, :, :], x[..., :-1, :, :], out=gy[..., :-1, :, :])
    gy[..., -1, :, :] = 0.0
    np.square(gx, out=mag)
    np.square(gy, out=grad)
    mag += grad
    np.sqrt(mag, out=mag)
    quad = mag <= eps
    # per-value loss: mag**2 / (2 eps) inside the quadratic zone, else mag - eps/2
    np.subtract(mag, eps / 2, out=grad)
    np.square(mag, out=grad, where=quad)
    np.divide(grad, 2 * eps, out=grad, where=quad)
    loss = grad.mean(axis=(-3, -2, -1))
    # weight: 1 / eps inside the quadratic zone, else 1 / mag
    np.maximum(mag, eps, out=mag)
    np.divide(1.0, mag, out=mag)
    gx *= mag
    gx[..., -1, :] = 0.0
    gy *= mag
    # x-divergence: each value's left flux minus its own; the first value
    # of each image has no left flux
    np.subtract(gx.reshape(flat)[..., :-c], gx.reshape(flat)[..., c:], out=grad.reshape(flat)[..., c:])
    np.subtract(0.0, gx.reshape(flat)[..., :c], out=grad.reshape(flat)[..., :c])
    grad[..., 1:, :, :] += gy[..., :-1, :, :]
    grad[..., :-1, :, :] -= gy[..., :-1, :, :]
    grad /= h * w * c
    return loss, grad


def _check_compressed_input(y: PixelImage, cfg: RestoreConfig):
    if consistency_rmse(y, y, cfg.qf, table=cfg.table) > 1.0:
        raise NotACompressedInput("input does not recompress to itself")


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
    """``cfg.n_seeds`` restorations of ``y``, the 8-bit decode of the
    compressed input, with every step's objective. The moment and feature
    terms need ``x``, the ground truth, and the second-moment term also
    ``xbar``, the reference estimate, and two seeds, as ``loss_sm`` does.

    Refused before any work, in this order: an x or xbar not shaped as y
    (DimMismatch), no x (MissingGroundTruth), no xbar (MissingReference),
    lambda_sm at one seed, where the term is a constant with no gradient
    (TooFewSamples), then a y that does not recompress to itself within 1
    gray level RMSE (NotACompressedInput).

    Returns ``images``, each seed's output in seed order; ``loss_history``,
    each step's objective before its update; and ``diverged``, whether that
    ever rose by over MONOTONE_TOL. The objective adds, seed by seed, each
    seed's weighted consistency, prior and feature values, then the
    weighted first- and second-moment terms.
    """
    check_references(y.data.shape, x, xbar)
    w = cfg.weights
    coupled = (w.lambda_fm > 0) or (w.lambda_sm > 0) or (w.lambda_p > 0)
    if coupled and x is None:
        raise MissingGroundTruth("moment/feature terms need the ground truth")
    if w.lambda_sm > 0 and xbar is None:
        raise MissingReference("second-moment term needs the reference estimate")
    if w.lambda_sm > 0 and cfg.n_seeds < 2:
        raise TooFewSamples("second-moment term needs at least 2 seeds")
    _check_compressed_input(y, cfg)

    y_f = float_samples(y)
    n = y_f.size
    n_seeds = cfg.n_seeds

    states = np.empty((n_seeds,) + y_f.shape)
    for k in range(n_seeds):
        states[k] = y_f + _seed_rng(cfg.seed, k).normal(0.0, cfg.init_noise_std, y_f.shape)
    grad = np.empty_like(states)
    values = np.zeros((n_seeds, 3))  # each seed's weighted consistency, prior and feature values
    rows = block_rows(n)
    blocks = [slice(a, min(a + rows, n_seeds)) for a in range(0, n_seeds, rows)]
    work = np.empty((3, min(rows, n_seeds)) + y_f.shape)  # one block of scratch for the per-seed terms

    x_f = None if x is None else float_samples(x)
    fx = texture_band_features(x_f) if w.lambda_p > 0 else None

    def per_seed_terms(s: slice):
        # The per-seed terms of the seeds s, with grad[s] as their gradient,
        # values[s] as their weighted values and work as their scratch. The
        # prior goes first, so that tv_huber writes its gradient straight
        # into grad[s] and uses it as scratch; the other gradients are added
        # to it in a fixed order. A term with weight 0 keeps its +0.0 values.
        block, g, wk = states[s], grad[s], work[:, : s.stop - s.start]
        if w.lambda_prior > 0:
            tv, _ = tv_huber(block, cfg.huber_eps, out=g, work=wk)
            g *= w.lambda_prior
            values[s, 1] = w.lambda_prior * tv
        else:
            g.fill(0.0)
        if w.lambda_c > 0:
            mse, r = consistency_term(cfg.table, block, y_f, out=wk[0], work=wk[1])
            g += np.multiply(w.lambda_c * (2.0 / n), r, out=wk[1])
            values[s, 0] = w.lambda_c * mse
        if w.lambda_p > 0:
            feature, gap, coef = feature_term(block, fx)
            g += w.lambda_p * texture_band_pullback(block.shape, (2.0 / gap[0].size) * gap, coef)
            values[s, 2] = w.lambda_p * feature

    history = np.zeros(cfg.steps)
    for t in range(cfg.steps):
        for s in blocks:
            per_seed_terms(s)
        total = ordered_sum(values)  # every value is >= 0, so a weight-0 term's +0.0 leaves its bits

        if w.lambda_fm > 0:
            value, gap = first_moment_term(states, x_f)
            total += w.lambda_fm * value
            grad += w.lambda_fm * (-2.0 / (n * n_seeds)) * gap
        if w.lambda_sm > 0:
            pull = states - states.mean(axis=0)  # the deviation stack, one temporary freed below
            value, gap = second_moment_term(pull, x_f, xbar.data)
            total += w.lambda_sm * value
            pull *= np.sign(gap)
            pull *= w.lambda_sm * (2.0 / n_seeds)
            pull /= n
            grad -= pull
            del pull

        if not np.isfinite(total):
            raise NonFiniteLoss(f"objective became {total} at step {t}")
        history[t] = total
        if not np.all(np.isfinite(grad)):
            raise NonFiniteLoss(f"gradient became non-finite at step {t}")
        grad *= cfg.step_size
        states -= grad
    del grad, work  # the scratch goes before the outputs are built

    diverged = bool(np.any(np.diff(history) > MONOTONE_TOL))
    if diverged:
        warnings.warn("objective increased during descent (step size too large?)")
    return RestoreRun([to_pixels(s) for s in states], history, diverged)


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
        rows = [self.CSV_HEADER.split(",")]
        for r in self.rows:
            rows.append([r.lambda_c, *(f"{v:.6f}" for v in (r.consistency_rmse, r.perceptual_proxy, r.psnr))])
        return csv_text(rows)


def sweep_lambda_c(y_set, x_set, lambdas, cfg: RestoreConfig) -> SweepResult:
    """Restore every input at each consistency weight and measure the
    consistency / proxy / fidelity of the results.

    Refused before any work, as :func:`restore_with_history` is: unpaired
    sets, fewer than two weights, a weight that :class:`LossWeights`
    refuses, an x not shaped as its y (DimMismatch), and a non-compressed y."""
    y_set, x_set = list(y_set), list(x_set)
    if len(y_set) != len(x_set):
        raise ValueError("y_set and x_set must be paired")
    lambdas = sorted(float(v) for v in lambdas)
    if len(lambdas) < 2:
        raise ValueError("need at least two weights to sweep")
    run_cfgs = [replace(cfg, weights=replace(cfg.weights, lambda_c=lam)) for lam in lambdas]
    for y, x in zip(y_set, x_set):
        check_references(y.data.shape, x, None)
        _check_compressed_input(y, cfg)
    rows = []
    for lam, run_cfg in zip(lambdas, run_cfgs):
        restored, cons, fid = [], [], []
        for y, x in zip(y_set, x_set):
            outs = restore_with_history(y, run_cfg).images
            restored.extend(outs)
            cons.extend(consistency_rmse(o, y, cfg.qf, table=cfg.table) for o in outs)
            fid.extend(psnr(o, x) for o in outs)
        rows.append(SweepRow(lam, float(np.mean(cons)), perceptual_proxy(restored, x_set), float(np.mean(fid))))
    return SweepResult(tuple(rows))
