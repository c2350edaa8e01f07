"""Quality-factor table scaling, quantize (divide + round), dequantize.

The quality scaling follows the ubiquitous libjpeg convention: integer
scale = 5000/qf below 50 else 200 - 2*qf, entries floor((base*scale+50)/100)
clamped to [1, 255]. Rounding of quantized coefficients is
half-away-from-zero, the package-wide rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import QfOutOfRange
from .image import round_half_away_from_zero

BASE_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

BASE_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)

# scan position -> raster index within an 8x8 block
ZIGZAG = np.array(
    [
        0, 1, 8, 16, 9, 2, 3, 10,
        17, 24, 32, 25, 18, 11, 4, 5,
        12, 19, 26, 33, 40, 48, 41, 34,
        27, 20, 13, 6, 7, 14, 21, 28,
        35, 42, 49, 56, 57, 50, 43, 36,
        29, 22, 15, 23, 30, 37, 44, 51,
        58, 59, 52, 45, 38, 31, 39, 46,
        53, 60, 61, 54, 47, 55, 62, 63,
    ]
)


def zigzag_flatten(block: np.ndarray) -> np.ndarray:
    """8x8 block -> length-64 vector in zigzag scan order."""
    return np.asarray(block).reshape(64)[ZIGZAG]


def zigzag_unflatten(vec) -> np.ndarray:
    """Length-64 zigzag vector -> 8x8 block."""
    out = np.empty(64, dtype=np.asarray(vec).dtype)
    out[ZIGZAG] = np.asarray(vec).reshape(64)
    return out.reshape(8, 8)


@dataclass(frozen=True, eq=False)
class QuantTable:
    """Luma/chroma divisor pair; :func:`detect_qf` recovers the quality
    factor that produced it."""

    luma: np.ndarray
    chroma: np.ndarray

    def __post_init__(self):
        for name in ("luma", "chroma"):
            t = np.asarray(getattr(self, name), dtype=np.int64)
            if t.shape != (8, 8):
                raise ValueError(f"{name} table must be 8x8")
            if t.min() < 1 or t.max() > 255:
                raise ValueError(f"{name} entries must lie in [1, 255]")
            t = np.ascontiguousarray(t)
            t.setflags(write=False)
            object.__setattr__(self, name, t)

    def __eq__(self, other):
        return (
            isinstance(other, QuantTable)
            and np.array_equal(self.luma, other.luma)
            and np.array_equal(self.chroma, other.chroma)
        )

    def for_channel_kind(self, kind: str) -> np.ndarray:
        return self.luma if kind == "luma" else self.chroma


def _scale(base: np.ndarray, qf: int) -> np.ndarray:
    scale = 5000 // qf if qf < 50 else 200 - 2 * qf
    return np.clip((base * scale + 50) // 100, 1, 255)


def table_for_qf(qf: int) -> QuantTable:
    """Scale the standard base tables to a quality factor in [1, 100]."""
    if not isinstance(qf, (int, np.integer)) or not 1 <= int(qf) <= 100:
        raise QfOutOfRange(f"quality factor {qf!r} not in [1, 100]")
    qf = int(qf)
    return QuantTable(_scale(BASE_LUMA, qf), _scale(BASE_CHROMA, qf))


def detect_qf(luma: np.ndarray, chroma: np.ndarray) -> int | str:
    """Recover the quality factor that generated a table pair, else "custom"."""
    for qf in range(1, 101):
        if np.array_equal(_scale(BASE_LUMA, qf), luma) and np.array_equal(
            _scale(BASE_CHROMA, qf), chroma
        ):
            return qf
    return "custom"


def quantize(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Divide elementwise by the table, round half away from zero.

    Accepts any (..., 8, 8) coefficient stack; returns int32.
    """
    return round_half_away_from_zero(np.asarray(coef) / table).astype(np.int32)


def dequantize(levels: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Multiply quantized levels back by the table; float64 output."""
    return np.asarray(levels, dtype=np.float64) * table


def table_to_text(table: np.ndarray) -> str:
    """One line of 64 integers in zigzag order (CLI interchange format)."""
    return " ".join(str(int(v)) for v in zigzag_flatten(table))
