import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jpegkit.errors import QfOutOfRange
from jpegkit.quant import (
    BASE_CHROMA,
    BASE_LUMA,
    ZIGZAG,
    dequantize,
    detect_qf,
    quantize,
    table_for_qf,
    table_to_text,
    zigzag_flatten,
    zigzag_unflatten,
)
from tests.conftest import table_from_text


def test_qf50_is_base_tables():
    t = table_for_qf(50)
    assert np.array_equal(t.luma, BASE_LUMA)
    assert np.array_equal(t.chroma, BASE_CHROMA)
    assert t.luma[0, 0] == 16 and t.chroma[0, 0] == 17


def test_qf100_all_ones():
    t = table_for_qf(100)
    assert np.all(t.luma == 1) and np.all(t.chroma == 1)


def test_qf25_direct_evaluation():
    # scale = 5000 // 25 = 200; floor((16*200 + 50)/100) = 32
    assert table_for_qf(25).luma[0, 0] == 32


def test_qf1_saturates_high():
    t = table_for_qf(1)
    assert t.luma.max() == 255


@pytest.mark.parametrize("qf", [0, -1, 101, 1000])
def test_qf_out_of_range(qf):
    with pytest.raises(QfOutOfRange):
        table_for_qf(qf)


def test_table_dominance_monotone_in_qf():
    prev = table_for_qf(1)
    for qf in range(2, 101):
        cur = table_for_qf(qf)
        assert np.all(cur.luma <= prev.luma)
        assert np.all(cur.chroma <= prev.chroma)
        prev = cur


def test_detect_qf_roundtrip():
    for qf in (1, 5, 37, 50, 93, 100):
        t = table_for_qf(qf)
        assert detect_qf(t.luma, t.chroma) == qf
    custom = np.full((8, 8), 13)
    assert detect_qf(custom, custom) == "custom"


def test_quantize_zero():
    assert np.all(quantize(np.zeros((8, 8)), BASE_LUMA) == 0)


def test_quantize_tie_rounds_away():
    d = np.zeros((8, 8))
    d[0, 0] = 24.0
    assert quantize(d, table_for_qf(50).luma)[0, 0] == 2  # 24/16 = 1.5 -> 2


@given(arrays(np.float64, (8, 8), elements=st.floats(-1000, 1000)))
def test_half_step_bound(d):
    q = table_for_qf(50).luma
    r = quantize(d, q)
    assert np.max(np.abs(d / q - r)) <= 0.5


@given(arrays(np.int32, (8, 8), elements=st.integers(-500, 500)))
def test_quantizer_fixed_point(r):
    q = table_for_qf(50).luma
    assert np.array_equal(quantize(dequantize(r, q), q), r)


@given(arrays(np.float64, (8, 8), elements=st.floats(-1000, 1000)))
def test_reconstruction_error_bound(d):
    q = table_for_qf(75).luma
    err = np.abs(dequantize(quantize(d, q), q) - d)
    assert np.all(err <= q / 2)  # entrywise, not just the global max


def test_dequantize_zero():
    assert np.all(dequantize(np.zeros((8, 8), dtype=np.int32), BASE_LUMA) == 0.0)


def test_zigzag_is_permutation():
    assert sorted(ZIGZAG.tolist()) == list(range(64))


def test_zigzag_matches_diagonal_walk():
    # independent construction: walk anti-diagonals, alternating direction
    order = []
    for s in range(15):
        ij = [(i, s - i) for i in range(max(0, s - 7), min(s, 7) + 1)]
        if s % 2 == 0:
            ij = ij[::-1]
        order.extend(i * 8 + j for i, j in ij)
    assert order == ZIGZAG.tolist()


def test_zigzag_roundtrip(rng):
    block = rng.integers(-100, 100, size=(8, 8))
    assert np.array_equal(zigzag_unflatten(zigzag_flatten(block)), block)


def test_zigzag_low_frequency_first():
    block = np.arange(64).reshape(8, 8)
    flat = zigzag_flatten(block)
    assert flat[:4].tolist() == [0, 1, 8, 16]


def test_table_text_roundtrip():
    t = table_for_qf(37)
    assert np.array_equal(table_from_text(table_to_text(t.luma)), t.luma)
    assert len(table_to_text(t.luma).split()) == 64
