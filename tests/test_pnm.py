import time

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from jpegkit.errors import MaxvalNot255, TruncatedPayload, UnsupportedMagic
from jpegkit.image import PixelImage
from jpegkit.pnm import read_pnm, write_pnm
from tests.conftest import images_equal


def test_read_small_p6():
    data = b"P6\n2 1\n255\n" + bytes([0, 0, 0, 255, 255, 255])
    img = read_pnm(data)
    assert (img.width, img.height, img.channels) == (2, 1, 3)
    assert img.data.reshape(-1).tolist() == [0, 0, 0, 255, 255, 255]


def test_read_single_sample_p5():
    img = read_pnm(b"P5 1 1 255 " + bytes([0x7F]))
    assert (img.width, img.height, img.channels) == (1, 1, 1)
    assert img.data[0, 0, 0] == 127


def test_write_p5_canonical_header():
    img = PixelImage(np.zeros((1, 1, 1), dtype=np.uint8))
    assert write_pnm(img) == b"P5\n1 1\n255\n\x00"


def test_write_p6_payload_order():
    img = PixelImage(np.array([[[1, 2, 3]]], dtype=np.uint8))
    assert write_pnm(img).endswith(bytes([1, 2, 3]))


def test_header_comments_accepted():
    data = b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([1, 2])
    img = read_pnm(data)
    assert img.data.reshape(-1).tolist() == [1, 2]


@given(
    arrays(
        np.uint8,
        st.tuples(st.integers(1, 10), st.integers(1, 10), st.sampled_from([1, 3])),
    )
)
def test_roundtrip_image(arr):
    img = PixelImage(arr)
    assert images_equal(read_pnm(write_pnm(img)), img)


def test_roundtrip_canonical_files(rng):
    # write(read(f)) == f over randomly generated canonical files
    for _ in range(100):
        ch = int(rng.choice([1, 3]))
        w, h = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        payload = rng.integers(0, 256, size=w * h * ch, dtype=np.uint8).tobytes()
        magic = b"P5" if ch == 1 else b"P6"
        f = magic + b"\n" + f"{w} {h}".encode() + b"\n255\n" + payload
        assert write_pnm(read_pnm(f)) == f


@pytest.mark.parametrize("magic", [b"P1", b"P2", b"P3", b"P4", b"P7", b"XX"])
def test_unsupported_magic(magic):
    with pytest.raises(UnsupportedMagic):
        read_pnm(magic + b"\n1 1\n255\n\x00")


def test_maxval_not_255():
    with pytest.raises(MaxvalNot255):
        read_pnm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_payload():
    with pytest.raises(TruncatedPayload):
        read_pnm(b"P6\n2 2\n255\n\x00\x00\x00")


def test_truncated_header():
    with pytest.raises(TruncatedPayload):
        read_pnm(b"P5\n1")


@pytest.mark.parametrize(
    "data",
    [
        b"P6\n" + b"9" * 5000 + b" 1\n255\n",  # past int()'s 4300-digit limit
        b"P6\n1 1\n" + b"2" * 5000 + b"\n\x00\x00\x00",
        b"P6\n" + b"0" * (8 << 20) + b"1 1\n255\n\x00\x00\x00",  # a 1 behind 8 MB of zeros
    ],
    ids=["width", "maxval", "zero-padded-width"],
)
def test_header_field_past_20_digits_is_truncated_payload(data):
    with pytest.raises(TruncatedPayload, match="at most 20 digits"):
        read_pnm(data)


@pytest.mark.parametrize(
    "data",
    [b"P51 1 255\n\x7f", b"P5#c\r1\t1\x0b#c\n255\x0c\x7f"],
    ids=["field-behind-magic", "comments-after-blanks"],
)
def test_header_layouts_accepted(data):
    img = read_pnm(data)
    assert (img.width, img.height, img.channels) == (1, 1, 1)
    assert img.data[0, 0, 0] == 127


def test_comment_sign_inside_a_field_is_part_of_it():
    with pytest.raises(TruncatedPayload, match="1#x"):
        read_pnm(b"P5 1#x 1 255\n\x00")


def test_long_field_refused_in_bounded_time():
    data = b"P6\n" + b"0" * (8 << 20) + b"1 1\n255\n\x00\x00\x00"
    t0 = time.perf_counter()
    with pytest.raises(TruncatedPayload, match="at most 20 digits"):
        read_pnm(data)
    assert time.perf_counter() - t0 < 0.2


def test_long_comment_read_in_bounded_time():
    data = b"P6\n#" + b"c" * (8 << 20) + b"\n1 1\n255\n\x01\x02\x03"
    t0 = time.perf_counter()
    img = read_pnm(data)
    assert time.perf_counter() - t0 < 0.2
    assert img.data.reshape(-1).tolist() == [1, 2, 3]
