"""The full compress/decompress pipeline over quantized coefficient grids.

Everything rests on one pair of maps. :func:`analysis` runs pixels ->
(YCbCr) -> level shift -> edge pad -> 8x8 blocks -> DCT -> divide by the
quantization table, giving each channel's coefficients in units of its
step; :func:`synthesis` is its exact inverse. `compress` is rounding after
analysis, `decompress_float` is synthesis, and a round trip is
``decompress(compress(img, qf, opts))``. :func:`requantize` is
synthesis after a per-channel step after analysis, computed one channel at
a time in one color buffer; :mod:`~jpegkit.diffjpeg` uses it with rounding
as the step and :mod:`~jpegkit.projection` with a cell clamp.

All three take an image or an (..., H, W, C) stack of float samples, and
every image of a stack gets exactly the arithmetic it would get alone, so a
batch never changes a result: the color matrix runs as one matmul per
image, and the 8x8 DCT runs on whole planes as strided GEMMs (one per row
of blocks, then one over every 8-sample run of the stack), in which each
output sums over its own block alone. The coefficients stay in that plane
layout; callers see (..., n_by, n_bx, 8, 8) block views of them.

The grid is the codec's native currency: every module that needs "the
compressed input" takes a :class:`CoefficientGrid`, never a .jpg byte
string. Its blocks are one read-only int32 (C, n_by, n_bx, 8, 8) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dct
from .color import rgb_to_ycbcr_data, ycbcr_to_rgb_data
from .image import (
    FloatImage,
    PixelImage,
    float_samples,
    round_half_away_from_zero,
    to_pixels,
)
from .quant import QuantTable, table_for_qf

COLORSPACES = ("ycbcr", "rgb-passthrough")
LEVEL_SHIFT = 128.0
# DCT_M.T as a contiguous copy (the right factor of the forward transform,
# the left one of the inverse): BLAS multiplies by a transposed view more
# slowly
_DCT_MT = np.ascontiguousarray(dct.DCT_M.T)


@dataclass(frozen=True)
class CodecOptions:
    """Pipeline switches: color path and optional 8-bit rounding of the
    converted planes (for the lossless-settings study). Ragged planes are
    always edge-padded to whole blocks."""

    colorspace: str = "ycbcr"
    round_chroma: bool = False

    def __post_init__(self):
        if self.colorspace not in COLORSPACES:
            raise ValueError(f"colorspace must be one of {COLORSPACES}")
        if self.round_chroma and self.colorspace != "ycbcr":
            raise ValueError("round_chroma rounds color-converted planes, which rgb-passthrough has none of")


@dataclass(frozen=True, eq=False)
class CoefficientGrid:
    """Quantized DCT blocks, one read-only int32 (C, n_by, n_bx, 8, 8)
    array with C = 1 or 3, plus the table that made them. A writable input
    is copied, so a caller's array is never frozen or shared, and a level
    that is not an integer within int32 raises ValueError; a read-only int32
    one (the parser's) is kept as it is, unchecked."""

    channels: np.ndarray
    table: QuantTable
    width: int
    height: int
    colorspace: str = "ycbcr"

    def __post_init__(self):
        if self.colorspace not in COLORSPACES:
            raise ValueError(f"colorspace must be one of {COLORSPACES}")
        levels = self.channels
        if not (
            isinstance(levels, np.ndarray)
            and levels.dtype == np.int32
            and levels.flags.c_contiguous
            and not levels.flags.writeable
            and not (isinstance(levels.base, np.ndarray) and levels.base.flags.writeable)
        ):
            levels = _int32_levels(levels)
        if levels.ndim != 5 or len(levels) not in (1, 3):
            raise ValueError("grid must have 1 or 3 channels")
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (self.width, self.height)):
            raise ValueError(f"grid sizes must be positive integers, not {self.width!r}x{self.height!r}")
        tiling = (-(-self.height // dct.BLOCK), -(-self.width // dct.BLOCK), 8, 8)
        if levels.shape[1:] != tiling:
            raise ValueError(f"channel blocks {levels.shape[1:]} do not tile {self.width}x{self.height}")
        object.__setattr__(self, "channels", levels)

    def __eq__(self, other):
        return (
            isinstance(other, CoefficientGrid)
            and self.width == other.width
            and self.height == other.height
            and self.colorspace == other.colorspace
            and self.table == other.table
            and np.array_equal(self.channels, other.channels)
        )

    @property
    def n_channels(self) -> int:
        return len(self.channels)


def _int32_levels(levels) -> np.ndarray:
    """A read-only int32 C-contiguous copy of ``levels``; ValueError unless
    every level is an integer within int32, so nothing is truncated or wraps."""
    try:
        with np.errstate(invalid="ignore"):  # a NaN, infinite or too large float is refused below
            out = np.array(levels, dtype=np.int32, order="C")
        # a level that the cast truncated or wrapped no longer equals its int32
        # copy; compared channel by channel, so a list of channels is not stacked
        exact = out.ndim == 0 or all(np.array_equal(got, given) for got, given in zip(out, levels))
    except OverflowError:  # a Python int past int32
        exact = False
    if not exact:
        raise ValueError("grid levels must be finite integers within int32")
    out.setflags(write=False)
    return out


def _color_converted(n_channels: int, colorspace: str) -> bool:
    return n_channels == 3 and colorspace == "ycbcr"


def channel_kinds(n_channels: int, colorspace: str) -> list[str]:
    """Which table each channel uses: chroma only for YCbCr channels 2-3."""
    if _color_converted(n_channels, colorspace):
        return ["luma", "chroma", "chroma"]
    return ["luma"] * n_channels


def planes_for_compress(data: np.ndarray, opts: CodecOptions, out: np.ndarray | None = None) -> np.ndarray:
    """The (..., H, W, C) planes the DCT sees. Three-channel YCbCr samples
    are color-converted into one buffer (``out`` if given) and, with
    ``round_chroma``, rounded in place; other samples pass as they are.
    ``data`` must be finite samples, as :func:`~jpegkit.image.float_samples`
    hands them out; they are not checked again here."""
    if not _color_converted(data.shape[-1], opts.colorspace):
        return data
    planes = rgb_to_ycbcr_data(data, out=out)
    if opts.round_chroma:
        np.clip(round_half_away_from_zero(planes), 0.0, 255.0, out=planes)
    return planes


def samples_from_planes(planes: np.ndarray, colorspace: str, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`planes_for_compress`, in ``out`` if given; YCbCr
    planes lose their chroma offset in place."""
    if _color_converted(planes.shape[-1], colorspace):
        return ycbcr_to_rgb_data(planes, out=out)
    return planes


def _block_rows(plane: np.ndarray) -> np.ndarray:
    """A C-contiguous (..., H', W') plane as its (..., n_by, 8, W') rows of
    blocks; a view."""
    height, width = plane.shape[-2:]
    return plane.reshape(plane.shape[:-2] + (height // dct.BLOCK, dct.BLOCK, width))


def _transform(plane: np.ndarray, left: np.ndarray, right: np.ndarray):
    """``left @ block @ right`` for every 8x8 block of a C-contiguous
    (..., H', W') plane, in place: one product per row of blocks, then one
    GEMM over every 8-sample run of the plane."""
    rows = np.matmul(left, _block_rows(plane))
    np.matmul(rows.reshape(-1, dct.BLOCK), right, out=plane.reshape(-1, dct.BLOCK))


@lru_cache(maxsize=32)
def _tiled_steps(steps: bytes, width: int) -> np.ndarray:
    """An 8x8 int64 table (as bytes) tiled across a row of blocks W' wide,
    as read-only float64 (8, W')."""
    tiled = np.tile(np.frombuffer(steps, dtype=np.int64).reshape(8, 8).astype(np.float64), (1, width // dct.BLOCK))
    tiled.setflags(write=False)
    return tiled


def _scale(plane: np.ndarray, q: np.ndarray, op):
    """``op(block, q, out=block)`` for every block of a C-contiguous
    (..., H', W') plane, as one broadcast over its rows of blocks."""
    rows = _block_rows(plane)
    op(rows, _tiled_steps(q.tobytes(), plane.shape[-1]), out=rows)


def _dct_plane(plane: np.ndarray) -> np.ndarray:
    """Level-shift and edge-pad a (..., h, w) plane into a new C-contiguous
    (..., H', W') array, and DCT every 8x8 block of it in place."""
    height, width = plane.shape[-2:]
    coef = np.empty(plane.shape[:-2] + (height + (-height) % dct.BLOCK, width + (-width) % dct.BLOCK))
    np.subtract(plane, LEVEL_SHIFT, out=coef[..., :height, :width])
    coef[..., height:, :width] = coef[..., height - 1 : height, :width]
    coef[..., width:] = coef[..., width - 1 : width]
    _transform(coef, dct.DCT_M, _DCT_MT)
    return coef


def plane_dct(plane: np.ndarray) -> np.ndarray:
    """Edge-pad and level-shift a (..., h, w) plane and DCT every block;
    returns (..., n_by, n_bx, 8, 8), a block view of the coefficients in
    plane layout."""
    return dct.block_view(_dct_plane(plane))


def _plane_coefs(plane: np.ndarray, q: np.ndarray) -> np.ndarray:
    coef = _dct_plane(plane)
    _scale(coef, q, np.divide)
    return dct.block_view(coef)


def _write_plane(plane: np.ndarray, q: np.ndarray, dst: np.ndarray):
    """Scale a C-contiguous (..., H', W') float plane of coefficients by
    the steps q and invert the DCT of every block, both in place; then crop
    to dst and undo the level shift into it."""
    height, width = dst.shape[-2:]
    _scale(plane, q, np.multiply)
    _transform(plane, _DCT_MT, dct.DCT_M)
    np.add(plane[..., :height, :width], LEVEL_SHIFT, out=dst)


def _plane_layout(coef, copy: bool) -> np.ndarray:
    """(..., n_by, n_bx, 8, 8) blocks as a C-contiguous float64
    (..., H', W') plane: always a new array with ``copy``, else a view of
    the blocks when they are already in plane layout, as :func:`analysis`
    and in-place steps leave them."""
    coef = np.asarray(coef)
    nby, nbx = coef.shape[-4:-2]
    plane = np.array(coef.swapaxes(-3, -2), dtype=np.float64, order="C", copy=copy or None)
    return plane.reshape(coef.shape[:-4] + (nby * dct.BLOCK, nbx * dct.BLOCK))


def analysis(
    img: PixelImage | FloatImage | np.ndarray,
    table: QuantTable,
    opts: CodecOptions = CodecOptions(),
) -> list[np.ndarray]:
    """Each channel's DCT coefficients in units of its quantization step.

    ``img`` is an image or a float (..., H, W, C) stack (ValueError if not
    finite); channel c comes back as (..., n_by, n_bx, 8, 8), and every
    image of a stack gets the arithmetic it would get on its own.
    """
    planes = planes_for_compress(float_samples(img), opts)
    kinds = channel_kinds(planes.shape[-1], opts.colorspace)
    return [_plane_coefs(planes[..., c], table.for_channel_kind(k)) for c, k in enumerate(kinds)]


def synthesis(coefs, table: QuantTable, width: int, height: int, colorspace: str) -> np.ndarray:
    """Inverse of :func:`analysis`: scale by the steps, invert the DCT,
    crop, undo the level shift into one (..., H, W, C) buffer, and undo the
    color transform."""
    kinds = channel_kinds(len(coefs), colorspace)
    planes = np.empty(np.shape(coefs[0])[:-4] + (height, width, len(coefs)))
    for c, (coef, kind) in enumerate(zip(coefs, kinds)):
        _write_plane(_plane_layout(coef, copy=True), table.for_channel_kind(kind), planes[..., c])
    return samples_from_planes(planes, colorspace)


def _requantize_plane(plane: np.ndarray, dst: np.ndarray, q: np.ndarray, step, c: int):
    """One channel of :func:`requantize`, in a function of its own so that
    its temporaries are freed before the next channel makes its own."""
    coef = step(_plane_coefs(plane, q), c)
    _write_plane(_plane_layout(coef, copy=False), q, dst)


def requantize(
    img: PixelImage | FloatImage | np.ndarray,
    table: QuantTable,
    opts: CodecOptions,
    step,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """``synthesis(step(analysis(img)))``, bit for bit, one channel at a time.

    ``step(coef, c)`` maps channel c's coefficients (in quantization steps)
    to new ones and may work in place: diffjpeg's rounding or the
    projection's clamp. Each plane is taken from the color buffer and
    written back into it, so a call allocates no second sample-sized array
    besides the result. ``out`` receives the
    result and ``work`` holds the color buffer, both shaped like the
    samples, for callers that run this again and again.
    """
    samples = float_samples(img)
    src = planes_for_compress(samples, opts, out=work)
    if _color_converted(samples.shape[-1], opts.colorspace):
        dst = src
    else:  # the planes are the samples themselves: write to the result
        dst = np.empty_like(samples) if out is None else out
    for c, kind in enumerate(channel_kinds(samples.shape[-1], opts.colorspace)):
        _requantize_plane(src[..., c], dst[..., c], table.for_channel_kind(kind), step, c)
    return samples_from_planes(dst, opts.colorspace, out=out)


def compress(img: PixelImage | FloatImage, qf: int, opts: CodecOptions = CodecOptions()) -> CoefficientGrid:
    """Quantized-coefficient half of the codec."""
    table = table_for_qf(qf)  # raises QfOutOfRange
    return compress_with_table(img, table, opts)


def compress_with_table(
    img: PixelImage | FloatImage, table: QuantTable, opts: CodecOptions = CodecOptions()
) -> CoefficientGrid:
    levels = [round_half_away_from_zero(c, out=c) for c in analysis(img, table, opts)]
    return CoefficientGrid(levels, table, img.width, img.height, opts.colorspace)


def decompress_float(grid: CoefficientGrid) -> FloatImage:
    """Decompress without the terminal 8-bit step."""
    return FloatImage(synthesis(grid.channels, grid.table, grid.width, grid.height, grid.colorspace))


def decompress(grid: CoefficientGrid) -> PixelImage:
    """Pixel half of the codec: dequantize, invert, round to uint8."""
    return to_pixels(decompress_float(grid))
