"""jpegkit: a block-transform codec toolkit.

Baseline JFIF codec over an orthonormal 8x8 DCT, a differentiable
compression operator with a straight-through rounding gradient, the
DCT-domain consistency projection, measurement and loss functionals, an
exact finite-space oracle for the consistency/posterior-sampling
guarantees, and a stochastic gradient-descent restorer that traces the
perception-consistency tradeoff.
"""

from .codec import (
    CodecOptions,
    CoefficientGrid,
    compress,
    compress_with_table,
    decompress,
    decompress_float,
)
from .diffjpeg import DiffJpegOp, apply_vjp, forward
from .image import FloatImage, PixelImage, to_float, to_pixels
from .jfif import parse_jfif, write_jfif
from .losses import LossWeights, SampleBatch, loss_c, loss_fm, loss_p, loss_sm
from .metrics import MetricReport, consistency_rmse, perceptual_proxy, psnr, std_map
from .pnm import read_pnm, write_pnm
from .projection import project
from .quant import QuantTable, table_for_qf
from .restorer import RestoreConfig, restore_with_history, sweep_lambda_c
from .toy import ToyModel, posterior_sampler_checks

__version__ = "0.1.0"

__all__ = [
    "CodecOptions",
    "CoefficientGrid",
    "DiffJpegOp",
    "FloatImage",
    "LossWeights",
    "MetricReport",
    "PixelImage",
    "QuantTable",
    "RestoreConfig",
    "SampleBatch",
    "ToyModel",
    "apply_vjp",
    "compress",
    "compress_with_table",
    "consistency_rmse",
    "decompress",
    "decompress_float",
    "forward",
    "loss_c",
    "loss_fm",
    "loss_p",
    "loss_sm",
    "parse_jfif",
    "perceptual_proxy",
    "posterior_sampler_checks",
    "project",
    "psnr",
    "read_pnm",
    "restore_with_history",
    "std_map",
    "sweep_lambda_c",
    "table_for_qf",
    "to_float",
    "to_pixels",
    "write_jfif",
    "write_pnm",
    "__version__",
]
