"""The full compress/decompress pipeline over quantized coefficient grids.

Everything rests on one pair of maps. :func:`analysis` runs pixels ->
(YCbCr) -> level shift -> edge pad -> 8x8 blocks -> DCT -> divide by the
quantization table, giving every channel's coefficients in units of its
step; :func:`synthesis` is its exact inverse. `compress` is rounding after
analysis, `decompress_float` is synthesis, and a round trip is
``decompress(compress(img, qf, opts))``. :func:`requantize` is synthesis
after a step after analysis; :mod:`~jpegkit.diffjpeg` uses it with
rounding as the step and :mod:`~jpegkit.projection` with a cell clamp.

All three take an image or an (..., H, W, C) stack of float samples and
work on one planar (..., C, H', W') float array, every channel at once:
one color product per image writes the interleaved samples straight into
that layout (and the inverse writes them back), the 8x8 DCT runs on the
whole array as strided GEMMs (one per row of blocks, then one over every
8-sample run), in which each output sums over its own block alone, and
each channel's steps divide and multiply as one broadcast. Every image of
a stack gets exactly the arithmetic it would get alone, so a batch never
changes a result. The coefficients stay in that plane layout; callers see
(..., C, n_by, n_bx, 8, 8) block views of them.

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
from .image import FloatImage, PixelImage, float_samples, round_half_away_from_zero, to_pixels
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
        # a level that the cast truncated or wrapped no longer equals its int32 copy
        exact = np.array_equal(out, levels)
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
    """The (..., C, h, w) planes the DCT sees, of finite (..., h, w, C)
    samples, which are not checked again. Three-channel YCbCr samples are
    color-converted into C-contiguous planes (in ``out``, of the samples'
    size, if given) and, with ``round_chroma``, rounded in place; other
    samples come back as a planar view of themselves."""
    if not _color_converted(data.shape[-1], opts.colorspace):
        return np.moveaxis(data, -1, -3)
    planes = rgb_to_ycbcr_data(data, out=out)
    if opts.round_chroma:
        np.clip(round_half_away_from_zero(planes, out=planes), 0.0, 255.0, out=planes)
    return planes


def samples_from_planes(planes: np.ndarray, colorspace: str, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`planes_for_compress`: C-contiguous (..., C, h, w)
    planes to (..., h, w, C) samples, in ``out`` if given, else in a new
    array; YCbCr planes lose their chroma offset in place."""
    if _color_converted(planes.shape[-3], colorspace):
        return ycbcr_to_rgb_data(planes, out=out)
    samples = np.moveaxis(planes, -3, -1)
    if out is None:
        return samples.copy()
    np.copyto(out, samples)
    return out


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
def _tiled_steps(luma: bytes, chroma: bytes, kinds: tuple, width: int) -> np.ndarray:
    """Each channel's 8x8 int64 table (luma or chroma, as bytes, by its
    kind) tiled across a row of blocks W' wide, as read-only float64
    (C, 1, 8, W') steps that broadcast over every row of blocks."""
    steps = np.stack([np.frombuffer(luma if kind == "luma" else chroma, dtype=np.int64) for kind in kinds])
    tiled = np.tile(steps.reshape(-1, 8, 8).astype(np.float64), (1, width // dct.BLOCK))[:, None]
    tiled.setflags(write=False)
    return tiled


def _scale(coef: np.ndarray, table: QuantTable, colorspace: str, op):
    """``op(block, q, out=block)`` for every block of C-contiguous
    (..., C, H', W') coefficient planes, q being each channel's steps, as
    one broadcast over their rows of blocks."""
    rows = _block_rows(coef)
    kinds = tuple(channel_kinds(coef.shape[-3], colorspace))
    op(rows, _tiled_steps(table.luma.tobytes(), table.chroma.tobytes(), kinds, coef.shape[-1]), out=rows)


def _padded(plane: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Level-shift and edge-pad a (..., h, w) plane to whole blocks, into
    ``out``, a C-contiguous (..., H', W') array (new if None; the plane
    itself may be it at whole-block sizes)."""
    height, width = plane.shape[-2:]
    if out is None:
        out = np.empty(plane.shape[:-2] + (height + (-height) % dct.BLOCK, width + (-width) % dct.BLOCK))
    np.subtract(plane, LEVEL_SHIFT, out=out[..., :height, :width])
    out[..., height:, :width] = out[..., height - 1 : height, :width]
    out[..., width:] = out[..., width - 1 : width]
    return out


def plane_dct(plane: np.ndarray) -> np.ndarray:
    """Edge-pad and level-shift a (..., h, w) plane and DCT every block;
    returns (..., n_by, n_bx, 8, 8), a block view of the coefficients in
    plane layout."""
    coef = _padded(plane)
    _transform(coef, dct.DCT_M, _DCT_MT)
    return dct.block_view(coef)


def _plane_layout(coef, copy: bool) -> np.ndarray:
    """(..., n_by, n_bx, 8, 8) blocks as a C-contiguous float64
    (..., H', W') plane: always a new array with ``copy``, else a view of
    the blocks when they are already in plane layout, as :func:`analysis`
    and in-place steps leave them."""
    coef = np.asarray(coef)
    nby, nbx = coef.shape[-4:-2]
    plane = np.array(coef.swapaxes(-3, -2), dtype=np.float64, order="C", copy=copy or None)
    return plane.reshape(coef.shape[:-4] + (nby * dct.BLOCK, nbx * dct.BLOCK))


def _synthesize(coef, table, width, height, colorspace, out=None, work=None) -> np.ndarray:
    """:func:`synthesis` in place on C-contiguous (..., C, H', W') planes,
    into ``out`` if given; ``work`` as in :func:`requantize`."""
    _scale(coef, table, colorspace, np.multiply)
    _transform(coef, _DCT_MT, dct.DCT_M)
    crop = coef[..., :height, :width]
    planes = crop  # the color product needs C-contiguous planes: ragged ones are copied
    if not crop.flags.c_contiguous:
        planes = np.empty(crop.shape) if work is None else work.reshape(crop.shape, copy=False)
    np.add(crop, LEVEL_SHIFT, out=planes)
    return samples_from_planes(planes, colorspace, out=out)


def analysis(
    img: PixelImage | FloatImage | np.ndarray,
    table: QuantTable,
    opts: CodecOptions = CodecOptions(),
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Every channel's DCT coefficients in units of its quantization step.

    ``img`` is an image or a float (..., H, W, C) stack (ValueError if not
    finite). The coefficients come back as one (..., C, n_by, n_bx, 8, 8)
    block view of C-contiguous (..., C, H', W') planes, and every image of
    a stack gets the arithmetic it would get on its own. ``work`` is as in
    :func:`requantize`.
    """
    samples = float_samples(img)
    height, width, channels = samples.shape[-3:]
    planes = planes_for_compress(samples, opts, out=work)
    del samples  # samples made for this call go before the row products
    whole = not (height % dct.BLOCK or width % dct.BLOCK)
    # color planes become the coefficients; other planes are a view of the samples
    coef = _padded(planes, out=planes if whole and _color_converted(channels, opts.colorspace) else None)
    del planes
    _transform(coef, dct.DCT_M, _DCT_MT)
    _scale(coef, table, opts.colorspace, np.divide)
    return dct.block_view(coef)


def synthesis(coefs, table: QuantTable, width: int, height: int, colorspace: str) -> np.ndarray:
    """Inverse of :func:`analysis` on (..., C, n_by, n_bx, 8, 8)
    coefficients, which it leaves as they are: scale by the steps, invert
    the DCT, crop, and undo the level shift and the color transform into
    (..., H, W, C) samples."""
    return _synthesize(_plane_layout(coefs, copy=True), table, width, height, colorspace)


def requantize(
    img: PixelImage | FloatImage | np.ndarray,
    table: QuantTable,
    opts: CodecOptions,
    step,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """``synthesis(step(analysis(img)))``, bit for bit, over every channel
    at once.

    ``step(coef)`` maps the (..., C, n_by, n_bx, 8, 8) coefficients (in
    quantization steps) to new ones and may work in place: diffjpeg's
    rounding or the projection's clamp. ``out`` receives the result.
    ``work``, a C-contiguous float64 array of the samples' size, is
    scratch for the planes: YCbCr planes become the coefficients at
    whole-block sizes, and at ragged ones it holds the planes before the
    pad and after the crop. With both, a YCbCr call at whole-block sizes
    allocates no sample-sized array but the transform's row products and
    the step's own temporaries.
    """
    height, width = np.shape(img.data if isinstance(img, (PixelImage, FloatImage)) else img)[-3:-1]
    coef = _plane_layout(step(analysis(img, table, opts, work)), copy=False)
    return _synthesize(coef, table, width, height, opts.colorspace, out=out, work=work)


def compress(img: PixelImage | FloatImage, qf: int, opts: CodecOptions = CodecOptions()) -> CoefficientGrid:
    """Quantized-coefficient half of the codec."""
    table = table_for_qf(qf)  # raises QfOutOfRange
    return compress_with_table(img, table, opts)


def compress_with_table(
    img: PixelImage | FloatImage, table: QuantTable, opts: CodecOptions = CodecOptions()
) -> CoefficientGrid:
    coef = analysis(img, table, opts)
    return CoefficientGrid(round_half_away_from_zero(coef, out=coef), table, img.width, img.height, opts.colorspace)


def decompress_float(grid: CoefficientGrid) -> FloatImage:
    """Decompress without the terminal 8-bit step."""
    return FloatImage(synthesis(grid.channels, grid.table, grid.width, grid.height, grid.colorspace))


def decompress(grid: CoefficientGrid) -> PixelImage:
    """Pixel half of the codec: dequantize, invert, round to uint8."""
    return to_pixels(decompress_float(grid))
