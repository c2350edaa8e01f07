import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jpegkit.dct import (
    DCT_M,
    dct2,
    fold_pad,
    idct2,
    merge_blocks,
    pad_to_block_multiple,
    split_blocks,
)
from jpegkit.errors import NonMultipleOf8WithoutPadFlag

finite_blocks = arrays(
    np.float64, (8, 8), elements=st.floats(-200, 200, allow_nan=False)
)


def test_basis_is_orthonormal():
    assert np.max(np.abs(DCT_M @ DCT_M.T - np.eye(8))) < 1e-12
    assert np.allclose(DCT_M[0], 1 / np.sqrt(8))
    # spot-check the stated cosine form
    assert abs(DCT_M[1, 0] - 0.5 * np.cos(np.pi / 16)) < 1e-15


def test_constant_block_all_energy_in_dc():
    out = dct2(np.full((8, 8), 3.25))
    assert abs(out[0, 0] - 8 * 3.25) < 1e-10
    out[0, 0] = 0
    assert np.max(np.abs(out)) < 1e-10


def test_zero_block():
    assert np.max(np.abs(dct2(np.zeros((8, 8))))) == 0.0


def test_dc_impulse_inverts_to_constant_one():
    coef = np.zeros((8, 8))
    coef[0, 0] = 8.0
    assert np.max(np.abs(idct2(coef) - 1.0)) < 1e-10


@given(finite_blocks)
def test_inverse_roundtrip(block):
    assert np.max(np.abs(idct2(dct2(block)) - block)) < 1e-10
    assert np.max(np.abs(dct2(idct2(block)) - block)) < 1e-10


@given(finite_blocks)
def test_energy_preservation(block):
    assert abs(np.linalg.norm(dct2(block)) - np.linalg.norm(block)) < 1e-10


@given(finite_blocks, finite_blocks)
def test_linearity(a, b):
    lhs = dct2(2.5 * a - 1.5 * b)
    rhs = 2.5 * dct2(a) - 1.5 * dct2(b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_split_single_block():
    blocks = split_blocks(np.arange(64, dtype=float).reshape(8, 8))
    assert blocks.shape == (1, 1, 8, 8)


def test_split_raster_order_left_first():
    plane = np.hstack([np.zeros((8, 8)), np.ones((8, 8))])
    blocks = split_blocks(plane)
    assert blocks.shape == (1, 2, 8, 8)
    assert np.all(blocks[0, 0] == 0.0)
    assert np.all(blocks[0, 1] == 1.0)


def test_merge_inverts_split(rng):
    plane = rng.normal(size=(64, 64))
    assert np.array_equal(merge_blocks(split_blocks(plane)), plane)


def test_non_multiple_requires_pad_flag():
    with pytest.raises(NonMultipleOf8WithoutPadFlag):
        split_blocks(np.zeros((9, 8)))


def test_pad_then_crop_recovers(rng):
    plane = rng.normal(size=(13, 10))
    blocks = split_blocks(plane, pad=True)
    assert blocks.shape == (2, 2, 8, 8)
    assert np.array_equal(merge_blocks(blocks)[:13, :10], plane)


def test_pad_replicates_edges():
    plane = np.arange(6, dtype=float).reshape(2, 3)
    padded = pad_to_block_multiple(plane)
    assert padded.shape == (8, 8)
    assert np.all(padded[2:, :3] == plane[1])
    assert np.all(padded[:2, 3:] == plane[:, 2:3])


def test_blockwise_stack_matches_loop(rng):
    blocks = rng.normal(size=(3, 2, 8, 8))
    stacked = dct2(blocks)
    for i in range(3):
        for j in range(2):
            assert np.max(np.abs(stacked[i, j] - dct2(blocks[i, j]))) < 1e-12


def test_block_helpers_take_leading_axes(rng):
    # a (..., h, w) stack gives, plane by plane, exactly what each plane
    # gives on its own; ragged sizes go through the pad and its adjoint
    for lead in ((3,), (2, 2)):
        for h, w in ((16, 16), (13, 10), (9, 31), (8, 8)):
            stack = rng.normal(size=lead + (h, w))
            blocks = split_blocks(stack, pad=True)
            padded = pad_to_block_multiple(stack)
            merged = merge_blocks(blocks)[..., :h, :w]
            assert np.array_equal(merged, stack)
            for idx in np.ndindex(*lead):
                assert np.array_equal(blocks[idx], split_blocks(stack[idx], pad=True))
                assert np.array_equal(padded[idx], pad_to_block_multiple(stack[idx]))
                assert np.array_equal(merged[idx], merge_blocks(blocks[idx])[:h, :w])
            planes = rng.normal(size=padded.shape)
            folded = fold_pad(planes, h, w)
            assert folded.shape == lead + (h, w)
            for idx in np.ndindex(*lead):
                assert np.array_equal(folded[idx], fold_pad(planes[idx], h, w))
