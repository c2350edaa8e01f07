"""Reference implementations that tests compare the library against.

Each is the plain, per-case form of something the library computes in a
faster or batched way, or a convenience only tests need: the diffjpeg
pipeline with rounding as the identity, an operator built from a quality
factor, and the toy oracle's posterior and conditional mean by direct
enumeration of one observation.
"""

import numpy as np

from jpegkit.codec import CodecOptions, requantize
from jpegkit.diffjpeg import DiffJpegOp, _check_dims
from jpegkit.errors import UnreachableY
from jpegkit.image import FloatImage
from jpegkit.quant import table_for_qf
from jpegkit.toy import ToyModel, alphabet_for_size


def op_for_image(img, qf: int, options: CodecOptions = CodecOptions()) -> DiffJpegOp:
    """The diffjpeg operator for the geometry of ``img`` at quality ``qf``."""
    return DiffJpegOp(table_for_qf(qf), options, img.width, img.height, img.channels)


def identity_step(coef, c):
    """A :func:`jpegkit.codec.requantize` step that keeps the coefficients."""
    return coef


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
