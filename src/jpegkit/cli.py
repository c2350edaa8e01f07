"""Command-line front end: one binary, one subcommand per tool.

Exit codes: 0 success, 1 domain or file error (error class name on
stderr), 2 usage error. All randomness is seeded via flags, so logged
commands reproduce bitwise.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .codec import CodecOptions, compress_with_table, decompress
from .errors import JpegkitError, QfOutOfRange, WrongChannelCount
from .image import PixelImage, to_pixels
from .jfif import parse_jfif, write_jfif
from .losses import LossWeights
from .metrics import MetricReport, consistency_rmse, perceptual_proxy, psnr
from .numerics import run_numerics_study, study_to_csv
from .pnm import read_pnm, write_pnm
from .quant import detect_qf, table_for_qf, table_to_text
from .projection import project
from .restorer import RestoreConfig, restore_with_history, sweep_lambda_c
from .toy import (
    ATOL,
    fm_identity_check,
    load_model,
    mmse_consistency_deviation,
    posterior_sampler,
    posterior_sampler_checks,
    random_model,
)


def _load_pnm(path: str) -> PixelImage:
    return read_pnm(Path(path).read_bytes())


def _load_jfif(path: str):
    return parse_jfif(Path(path).read_bytes())


def _expand_gray(img: PixelImage) -> PixelImage:
    if img.channels == 3:
        return img
    return PixelImage(np.repeat(img.data, 3, axis=2))


def _quality_table(args):
    try:
        return table_for_qf(args.quality)  # the one owner of the range
    except QfOutOfRange as exc:
        raise UsageError(f"--quality: {exc}") from None


def _print_report(path: str, qf, rmse: float, a: PixelImage, b: PixelImage) -> int:
    """Print the CSV header and the one-sample report of ``a`` against ``b``."""
    report = MetricReport(Path(path).name, qf, rmse, psnr(a, b), perceptual_proxy([a], [b]), n_samples=1)
    print(MetricReport.CSV_HEADER)
    print(report.to_csv_row(), end="")
    return 0


def _cmd_encode(args) -> int:
    table = _quality_table(args)
    grid = compress_with_table(_expand_gray(_load_pnm(args.input)), table)
    Path(args.output).write_bytes(write_jfif(grid))
    return 0


def _cmd_decode(args) -> int:
    grid, _ = _load_jfif(args.input)
    Path(args.output).write_bytes(write_pnm(decompress(grid)))
    if args.dump_tables:
        print(table_to_text(grid.table.luma))
        print(table_to_text(grid.table.chroma))
    return 0


def _cmd_roundtrip(args) -> int:
    if args.passthrough and args.round_chroma:
        raise UsageError("--passthrough and --round-chroma exclude each other")
    table = _quality_table(args)
    img = _load_pnm(args.input)
    if args.round_chroma and img.channels != 3:
        raise WrongChannelCount("--round-chroma rounds color-converted planes, which a gray input has none of")
    opts = CodecOptions("rgb-passthrough" if args.passthrough else "ycbcr", args.round_chroma)
    y = decompress(compress_with_table(img, table, opts))
    return _print_report(args.input, args.quality, consistency_rmse(y, y, args.quality, opts, table=table), img, y)


def _cmd_project(args) -> int:
    xhat = _load_pnm(args.xhat)
    grid, _ = _load_jfif(args.compressed)
    out = to_pixels(project(xhat, grid))
    Path(args.output).write_bytes(write_pnm(out))
    return 0


def _cmd_metrics(args) -> int:
    xhat = _load_pnm(args.xhat)
    x = _load_pnm(args.reference)
    grid, _ = _load_jfif(args.compressed)
    y = decompress(grid)
    qf = detect_qf(grid.table.luma, grid.table.chroma)
    return _print_report(args.xhat, qf, consistency_rmse(xhat, y, qf, table=grid.table), xhat, x)


class UsageError(Exception):
    """A flag value the command cannot run with; reported as a usage error."""


def _nonnegative(flag: str, value: float) -> float:
    if not 0 <= value < math.inf:
        raise UsageError(f"{flag} must be finite and nonnegative, got {value}")
    return value


def _check_descent_flags(args):
    if args.seeds < 1:
        raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
    if args.steps < 1:
        raise UsageError(f"--steps must be at least 1, got {args.steps}")
    if not 0 < args.step_size < math.inf:
        raise UsageError(f"--step-size must be finite and positive, got {args.step_size}")
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    _nonnegative("--noise-std", args.noise_std)
    _nonnegative("--lambda-prior", args.lambda_prior)


def _restore_config(args, grid) -> RestoreConfig:
    weights = LossWeights(lambda_c=getattr(args, "lambda_c", 0.0), lambda_prior=args.lambda_prior)
    return RestoreConfig(
        table=grid.table,
        weights=weights,
        steps=args.steps,
        step_size=args.step_size,
        n_seeds=args.seeds,
        seed=args.seed,
        init_noise_std=args.noise_std,
    )


def _cmd_restore(args) -> int:
    _check_descent_flags(args)
    _nonnegative("--lambda-c", args.lambda_c)
    grid, _ = _load_jfif(args.input)
    y = decompress(grid)
    cfg = _restore_config(args, grid)
    outs = restore_with_history(y, cfg).images
    if args.project:
        outs = [to_pixels(project(img, grid)) for img in outs]
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for k, img in enumerate(outs):
        (outdir / f"restored_{k:02d}.ppm").write_bytes(write_pnm(img))
        rmse = consistency_rmse(img, y, cfg.qf, table=cfg.table)
        print(f"seed {k}: consistency_rmse={rmse:.4f}")
    return 0


def _sweep_lambdas(text: str) -> list:
    try:
        lambdas = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--lambdas must be comma-separated numbers, got {text!r}") from None
    if len(lambdas) < 2:
        raise UsageError(f"--lambdas needs at least two weights, got {text!r}")
    return [_nonnegative("--lambdas", v) for v in lambdas]


def _cmd_sweep(args) -> int:
    _check_descent_flags(args)
    lambdas = _sweep_lambdas(args.lambdas)
    pairs = []
    for jpg in sorted(Path(args.directory).glob("*.jpg")):
        ppm = jpg.with_suffix(".ppm")
        if ppm.exists():
            pairs.append((jpg, ppm))
    if not pairs:
        raise JpegkitError("no stem.jpg/stem.ppm pairs found")
    grids = [parse_jfif(j.read_bytes())[0] for j, _ in pairs]
    if any(g.table != grids[0].table for g in grids):
        raise JpegkitError("sweep inputs must share one quantization table")
    y_set = [decompress(g) for g in grids]
    x_set = [read_pnm(p.read_bytes()) for _, p in pairs]
    Path(args.output).parent.stat()  # a missing output directory is refused before the sweep, not after it
    result = sweep_lambda_c(y_set, x_set, lambdas, _restore_config(args, grids[0]))
    Path(args.output).write_text(result.to_csv())
    print(result.to_csv(), end="")
    return 0


def _cmd_numerics_study(args) -> int:
    images = []
    root = Path(args.directory)
    for path in sorted(list(root.glob("*.ppm")) + list(root.glob("*.pgm"))):
        images.append(_expand_gray(read_pnm(path.read_bytes())))
    rows = run_numerics_study(images)
    csv_text = study_to_csv(rows)
    if args.output:
        Path(args.output).write_text(csv_text)
    print(csv_text, end="")
    return 0


def _cmd_theorem_check(args) -> int:
    if args.models < 0:
        raise UsageError(f"--models must be at least 0, got {args.models}")
    if args.models == 0 and not args.fixture:
        raise UsageError("--models 0 checks nothing without --fixture")
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    models = [random_model(rng) for _ in range(args.models)]
    if args.fixture:
        models.append(load_model(Path(args.fixture).read_text(errors="replace")))
    worst_bound = worst_fm = worst_mass = worst_tv = worst_gap = 0.0
    for m in models:
        worst_bound = max(worst_bound, mmse_consistency_deviation(m))
        worst_fm = max(worst_fm, fm_identity_check(m))
        report = posterior_sampler_checks(m, posterior_sampler(m))
        worst_mass = max(worst_mass, report.inconsistent_mass)
        worst_tv = max(worst_tv, report.marginal_tv)
        worst_gap = max(worst_gap, report.max_posterior_gap)
    ok = worst_bound <= 0.5 + ATOL and max(worst_fm, worst_mass, worst_tv, worst_gap) <= ATOL
    print(f"models checked: {len(models)}")
    print(f"max |transform(mmse) - y|_inf = {worst_bound:.15f} (bound 0.5)")
    print(f"max mean-vs-mmse deviation   = {worst_fm:.3e} (bound {ATOL:g})")
    print(
        "posterior sampler (worst over models): "
        f"inconsistent_mass={worst_mass:.3e} "
        f"marginal_tv={worst_tv:.3e} "
        f"max_gap={worst_gap:.3e}"
    )
    print("ALL BOUNDS HOLD" if ok else "BOUND VIOLATED")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jpegkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="compress a PPM/PGM into a baseline .jpg")
    p.add_argument("input")
    p.add_argument("-q", "--quality", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decompress a baseline .jpg into a PPM")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dump-tables", action="store_true",
                   help="print both quantization tables as zigzag integer lines")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("roundtrip", help="compress-decompress and report metrics")
    p.add_argument("input")
    p.add_argument("-q", "--quality", type=int, required=True)
    p.add_argument("--passthrough", action="store_true", help="skip color conversion")
    p.add_argument("--round-chroma", action="store_true", help="round converted planes to 8 bits")
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("project", help="clamp an image into a compressed input's cells")
    p.add_argument("xhat")
    p.add_argument("compressed")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("metrics", help="consistency/psnr/proxy of a restoration")
    p.add_argument("xhat")
    p.add_argument("reference")
    p.add_argument("compressed")
    p.set_defaults(func=_cmd_metrics)

    descent = argparse.ArgumentParser(add_help=False)
    descent.add_argument("--lambda-prior", type=float, default=20.0)
    descent.add_argument("--steps", type=int, default=200)
    descent.add_argument("--step-size", type=float, default=0.1)
    descent.add_argument("--seeds", type=int, default=1)
    descent.add_argument("--seed", type=int, default=0)
    descent.add_argument("--noise-std", type=float, default=4.0)

    p = sub.add_parser("restore", parents=[descent], help="stochastic restoration of a .jpg")
    p.add_argument("input")
    p.add_argument("--lambda-c", type=float, default=10.0)
    p.add_argument("--project", action="store_true", help="project outputs onto the input's cells")
    p.add_argument("-o", "--output", required=True, help="output directory")
    p.set_defaults(func=_cmd_restore)

    p = sub.add_parser("sweep", parents=[descent], help="trace the tradeoff across consistency weights")
    p.add_argument("directory", help="directory of stem.jpg/stem.ppm pairs")
    p.add_argument("--lambdas", required=True, help="comma-separated weights")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("numerics-study", help="lossless-settings color path study")
    p.add_argument("directory")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_numerics_study)

    p = sub.add_parser("theorem-check", help="run the exact finite-space checks")
    p.add_argument("--models", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", help="optional model fixture file")
    p.set_defaults(func=_cmd_theorem_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"jpegkit {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except (JpegkitError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
