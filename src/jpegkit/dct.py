"""Orthonormal 8x8 type-II 2-D DCT and plane <-> block bookkeeping."""

from __future__ import annotations

import numpy as np

from .errors import NonMultipleOf8WithoutPadFlag

BLOCK = 8


def dct_matrix(n: int = BLOCK) -> np.ndarray:
    """Orthonormal DCT-II basis; rows are frequencies."""
    c = np.zeros((n, n))
    j = np.arange(n)
    c[0, :] = 1.0 / np.sqrt(n)
    for i in range(1, n):
        c[i, :] = np.sqrt(2.0 / n) * np.cos((2 * j + 1) * i * np.pi / (2 * n))
    return c


DCT_M = dct_matrix()


def dct2(block: np.ndarray) -> np.ndarray:
    """Forward transform; accepts any (..., 8, 8) stack."""
    return DCT_M @ block @ DCT_M.T


def idct2(coef: np.ndarray) -> np.ndarray:
    """Inverse transform; exact transpose-inverse of :func:`dct2`."""
    return DCT_M.T @ coef @ DCT_M


def pad_to_block_multiple(plane: np.ndarray) -> np.ndarray:
    """Edge-replicate pad of the last two axes (height, width), on the
    bottom/right, up to multiples of 8; leading axes are kept."""
    h, w = plane.shape[-2:]
    ph = (-h) % BLOCK
    pw = (-w) % BLOCK
    if ph == 0 and pw == 0:
        return plane
    return np.pad(plane, ((0, 0),) * (plane.ndim - 2) + ((0, ph), (0, pw)), mode="edge")


def fold_pad(plane: np.ndarray, height: int, width: int) -> np.ndarray:
    """Adjoint of :func:`pad_to_block_multiple`: crop the last two axes to
    (height, width) and add the padded region back onto the edge row/column
    it was copied from."""
    out = plane[..., :height, :].copy()
    if plane.shape[-2] > height:
        out[..., height - 1, :] += plane[..., height:, :].sum(axis=-2)
    out2 = out[..., :width].copy()
    if out.shape[-1] > width:
        out2[..., width - 1] += out[..., width:].sum(axis=-1)
    return out2


def split_blocks(plane: np.ndarray, pad: bool = False) -> np.ndarray:
    """Tile the last two axes of a (..., h, w) array into
    (..., n_by, n_bx, 8, 8) blocks in raster order."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape[-2:]
    if h % BLOCK or w % BLOCK:
        if not pad:
            raise NonMultipleOf8WithoutPadFlag(f"plane is {w}x{h}")
        plane = pad_to_block_multiple(plane)
        h, w = plane.shape[-2:]
    tiles = plane.reshape(plane.shape[:-2] + (h // BLOCK, BLOCK, w // BLOCK, BLOCK))
    return tiles.swapaxes(-3, -2).copy()


def merge_blocks(blocks: np.ndarray) -> np.ndarray:
    """Inverse of :func:`split_blocks`, without the pad's crop."""
    nby, nbx = blocks.shape[-4:-2]
    return blocks.swapaxes(-3, -2).reshape(blocks.shape[:-4] + (nby * BLOCK, nbx * BLOCK))
