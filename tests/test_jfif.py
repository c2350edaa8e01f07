import struct
import tracemalloc

import numpy as np
import pytest

from jpegkit.codec import CodecOptions, compress, decompress
from jpegkit.errors import (
    BadMarker,
    FrameTooLarge,
    HuffmanDecodeError,
    NotBaseline,
    PassthroughNotRepresentable,
    TruncatedStream,
    UnsupportedSampling,
)
from jpegkit.image import PixelImage
from jpegkit.jfif import (
    AC_CHROMA,
    AC_LUMA,
    DC_CHROMA,
    DC_LUMA,
    MAX_PIXELS,
    HuffmanTable,
    parse_jfif,
    write_jfif,
)
from jpegkit.quant import detect_qf
from tests.conftest import natural_image, restart_stream, uniform_image


def test_roundtrip_random_images(rng):
    for qf in (5, 10, 50, 95):
        for size in ((16, 16), (17, 13), (8, 24)):
            x = PixelImage(rng.integers(0, 256, size=(*size, 3), dtype=np.uint8))
            g = compress(x, qf)
            g2, structure = parse_jfif(write_jfif(g))
            assert g2 == g
            assert structure.restart_interval == 0


def test_marker_framing(rng):
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    assert data[:4] == b"\xff\xd8\xff\xe0"
    assert data[-2:] == b"\xff\xd9"


def test_entropy_data_has_no_unstuffed_ff(rng):
    for qf in (5, 95):
        g = compress(uniform_image(rng, 24, 24), qf)
        data = write_jfif(g)
        _, structure = parse_jfif(data)
        start, end = structure.scan_span
        scan = data[start:end]
        i = 0
        while i < len(scan):
            if scan[i] == 0xFF:
                assert scan[i + 1] == 0x00, f"unstuffed 0xFF at scan offset {i}"
                i += 2
            else:
                i += 1


def test_zero_grid_scan_bits_hand_decoded():
    # one 8x8 gray block per component, all coefficients zero. Per component
    # the scan is one DC code for diff 0 plus EOB. Canonical codes from the
    # standard tables: luma DC cat0 = "00", luma EOB = "1010",
    # chroma DC cat0 = "00", chroma EOB = "00"; padded with 1-bits.
    img = PixelImage(np.full((8, 8, 3), 128, dtype=np.uint8))
    g = compress(img, 50)
    assert all(np.all(ch == 0) for ch in g.channels)
    data = write_jfif(g)
    _, structure = parse_jfif(data)
    start, end = structure.scan_span
    bits = "00" + "1010" + "00" + "00" + "00" + "00"
    bits += "1" * (-len(bits) % 8)
    expected = int(bits, 2).to_bytes(len(bits) // 8, "big")
    assert data[start:end] == expected


def test_missing_eoi_truncated(rng):
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    with pytest.raises(TruncatedStream):
        parse_jfif(data[:-2])


def test_progressive_rejected():
    sof2 = b"\xff\xd8" + b"\xff\xc2" + struct.pack(">H", 8) + bytes(6)
    with pytest.raises(NotBaseline):
        parse_jfif(sof2)


def test_subsampling_rejected(rng):
    data = bytearray(write_jfif(compress(uniform_image(rng, 8, 8), 50)))
    i = data.find(b"\xff\xc0")
    # SOF0: marker(2) len(2) precision(1) H(2) W(2) ncomp(1) id(1) then HV
    assert data[i + 11] == 0x11
    data[i + 11] = 0x22
    with pytest.raises(UnsupportedSampling):
        parse_jfif(bytes(data))


def test_not_soi():
    with pytest.raises(BadMarker):
        parse_jfif(b"\x00\x00")


def test_passthrough_not_representable(rng):
    g = compress(uniform_image(rng, 8, 8), 50, CodecOptions(colorspace="rgb-passthrough"))
    with pytest.raises(PassthroughNotRepresentable):
        write_jfif(g)


def test_gray_grid_not_representable(rng):
    g = compress(PixelImage(rng.integers(0, 256, (8, 8, 1), dtype=np.uint8)), 50)
    with pytest.raises(PassthroughNotRepresentable):
        write_jfif(g)


def _zero_grid(width, height):
    from jpegkit.codec import CoefficientGrid
    from jpegkit.quant import table_for_qf

    blocks = np.zeros((-(-height // 8), -(-width // 8), 8, 8), dtype=np.int32)
    return CoefficientGrid((blocks, blocks, blocks), table_for_qf(50), width, height)


@pytest.mark.parametrize("width, height", [(65536, 1), (1, 65536)])
def test_frame_past_16_bits_not_representable(width, height):
    # SOF0's X and Y fields are 16 bits (T.81 B.2.2)
    with pytest.raises(PassthroughNotRepresentable):
        write_jfif(_zero_grid(width, height))


def test_frame_of_65535_samples_roundtrips():
    g = _zero_grid(65535, 1)
    assert parse_jfif(write_jfif(g))[0] == g


@pytest.mark.parametrize("at, level", [(1, 1024), (1, -1024), (0, 1024), (0, -1025)])
def test_coefficient_past_baseline_range_not_representable(at, level):
    g = _zero_grid(8, 8)
    y = g.channels[0].copy()
    y[0, 0, 0, at] = level
    with pytest.raises(PassthroughNotRepresentable):
        write_jfif(type(g)((y, *g.channels[1:]), g.table, 8, 8))


def test_parser_skips_appn_and_com(rng):
    g = compress(uniform_image(rng, 8, 8), 50)
    data = write_jfif(g)
    extra = b"\xff\xe1" + struct.pack(">H", 8) + b"Exif\x00\x00"
    extra += b"\xff\xfe" + struct.pack(">H", 7) + b"hello"
    patched = data[:2] + extra + data[2:]
    g2, structure = parse_jfif(patched)
    assert g2 == g
    assert "APP1" in structure.markers and "COM" in structure.markers


def test_restart_markers_with_dc_reset(rng):
    # a stream with DRI=1 and restart markers between MCUs, resetting the
    # DC prediction per segment as the format requires
    g = compress(uniform_image(rng, 8, 32), 50)  # 4 MCUs in a row
    g2, structure = parse_jfif(restart_stream(g))
    assert structure.restart_interval == 1
    assert g2 == g


def test_restart_markers_out_of_order_rejected(rng):
    g = compress(uniform_image(rng, 8, 32), 50)
    with pytest.raises(BadMarker, match="RST5"):
        parse_jfif(restart_stream(g, rst=(5, 2, 7)))


def test_surplus_restart_segment_rejected(rng):
    # 4 MCUs at DRI=1 make 4 segments; a 5th, correctly numbered, is one
    # too many. Without DRI, a scan is a single segment.
    g = compress(uniform_image(rng, 8, 32), 50)
    data = restart_stream(g)
    with pytest.raises(BadMarker, match="segments"):
        parse_jfif(data[:-2] + b"\xff\xd3\x12\x34\x56" + data[-2:])
    data = write_jfif(g)
    with pytest.raises(BadMarker, match="segments"):
        parse_jfif(data[:-2] + b"\xff\xd0" + data[-2:])


def test_dri_after_the_scan_does_not_apply_to_it(rng):
    # DRI scopes the scans that follow it; moved behind the scan, it leaves
    # that scan with Ri = 0, so its four restart segments are an error
    g = compress(uniform_image(rng, 8, 32), 50)
    data = restart_stream(g)
    dri = b"\xff\xdd\x00\x04\x00\x01"
    moved = data.replace(dri, b"")[:-2] + dri + data[-2:]
    with pytest.raises(BadMarker, match="segments"):
        parse_jfif(moved)


def test_dqt_after_the_scan_does_not_apply_to_it(rng):
    g = compress(natural_image(rng, 16, 16), 50)
    data = write_jfif(g)
    ones = b"\xff\xdb\x00\x43\x00" + bytes([1] * 64)  # table 0, every step 1
    g2, _ = parse_jfif(data[:-2] + ones + data[-2:])
    assert g2 == g
    assert g2.table == g.table


def test_scan_selectors_must_match_frame_ids(rng):
    # T.81 B.2.3: each scan component selector Cs names a frame component,
    # in frame order; selectors no frame component has are an error
    data = bytearray(write_jfif(compress(natural_image(rng, 16, 16), 50)))
    i = data.find(b"\xff\xda")
    # SOS: marker(2) len(2) Ns(1), then (Cs, Td/Ta) per component
    assert data[i + 4] == 3 and bytes(data[i + 5 : i + 11 : 2]) == bytes((1, 2, 3))
    data[i + 5 : i + 11 : 2] = bytes((69, 71, 73))
    with pytest.raises(BadMarker, match="selects id 69"):
        parse_jfif(bytes(data))


def test_forged_dimensions_fail_before_allocating(rng):
    # an 8x8 stream whose SOF0 claims 4096x4096: 262144 MCUs cannot fit in
    # the few hundred bits of its scan, so the parser must refuse it before
    # it allocates their coefficients (192 MiB at int32)
    data = bytearray(write_jfif(compress(uniform_image(rng, 8, 8), 50)))
    i = data.find(b"\xff\xc0")
    data[i + 5 : i + 9] = struct.pack(">HH", 4096, 4096)
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedStream):
            parse_jfif(bytes(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _forged_frame(rng, width, height, scan_bytes=0):
    """An 8x8 stream whose SOF0 claims width x height, with ``scan_bytes``
    zero bytes appended to its scan."""
    data = bytearray(write_jfif(compress(uniform_image(rng, 8, 8), 50)))
    i = data.find(b"\xff\xc0")
    data[i + 5 : i + 9] = struct.pack(">HH", height, width)
    return bytes(data[:-2]) + bytes(scan_bytes) + bytes(data[-2:])


def test_frame_over_the_pixel_cap_is_refused_before_allocating(rng):
    # 65535 x 1366 is one row of pixels over Pillow's decompression-bomb
    # limit. Its scan of ~1.1 MB holds the 2 bits each of its 3 * 8192 *
    # 171 blocks needs, so the size bound alone would let the parser
    # allocate their coefficients (1 GiB at int32).
    width, height = 65535, 1366
    assert width * (height - 1) <= MAX_PIXELS < width * height
    n_blocks = 3 * -(-width // 8) * -(-height // 8)
    data = _forged_frame(rng, width, height, scan_bytes=2 * n_blocks // 8)
    assert 1_000_000 < len(data) < 1_200_000
    tracemalloc.start()
    try:
        with pytest.raises(FrameTooLarge, match="65535x1366"):
            parse_jfif(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_frame_at_the_pixel_cap_passes_the_cap(rng):
    # a row fewer is under the cap: the scan-size bound refuses it instead
    with pytest.raises(TruncatedStream, match="too short"):
        parse_jfif(_forged_frame(rng, 65535, 1365))


def _with_surplus_byte(data: bytes, marker: bytes) -> bytes:
    """The stream with one zero byte appended to the body of its first
    ``marker`` segment, and that segment's length raised to match."""
    i = data.find(marker)
    (length,) = struct.unpack(">H", data[i + 2 : i + 4])
    end = i + 2 + length
    return data[: i + 2] + struct.pack(">H", length + 1) + data[i + 4 : end] + b"\x00" + data[end:]


def test_surplus_byte_in_dri_rejected(rng):
    # T.81 B.2.4.4: a DRI body is exactly Ri, two bytes
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    dri = data[:2] + b"\xff\xdd\x00\x04\x00\x00" + data[2:]
    assert parse_jfif(dri)[1].restart_interval == 0
    with pytest.raises(BadMarker, match="DRI body has 3 bytes, its layout 2"):
        parse_jfif(_with_surplus_byte(dri, b"\xff\xdd"))


def test_surplus_byte_in_sof0_rejected(rng):
    # T.81 B.2.2: a SOF0 body is exactly 6 + 3 * Nf bytes
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    with pytest.raises(BadMarker, match="SOF0 body has 16 bytes, its layout 15"):
        parse_jfif(_with_surplus_byte(data, b"\xff\xc0"))


def test_surplus_byte_in_sos_rejected(rng):
    # T.81 B.2.3: a SOS body is exactly 1 + 2 * Ns + 3 bytes
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    with pytest.raises(BadMarker, match="SOS body has 11 bytes, its layout 10"):
        parse_jfif(_with_surplus_byte(data, b"\xff\xda"))


def test_parse_keeps_one_coefficient_array():
    # the blocks are decoded straight into the array the grid keeps, so the
    # parse peaks under twice the grid's coefficient bytes
    g = compress(natural_image(np.random.default_rng(256), 256, 256), 90)
    data = write_jfif(g)
    tracemalloc.start()
    try:
        g2, _ = parse_jfif(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g2 == g
    assert peak < 2 * sum(ch.nbytes for ch in g.channels)


def test_huffman_tables_prefix_free():
    for t in (DC_LUMA, AC_LUMA, DC_CHROMA, AC_CHROMA):
        assert len(t.code_of) == len(t.symbols)
        assert all(t.symbol_of[bits] == sym for sym, bits in t.code_of.items())
        seen = set()
        for bits in t.code_of.values():
            for p in range(1, len(bits)):
                assert bits[:p] not in seen
            seen.add(bits)


def test_huffman_overflow_rejected():
    with pytest.raises(ValueError):
        HuffmanTable("dc", 0, (3,) + (0,) * 15, (0, 1, 2))


def test_garbage_entropy_data_raises(rng):
    g = compress(uniform_image(rng, 8, 8), 5)
    data = bytearray(write_jfif(g))
    _, structure = parse_jfif(bytes(data))
    start, end = structure.scan_span
    for i in range(start, end):
        data[i] = 0xAA
    with pytest.raises((HuffmanDecodeError, TruncatedStream)):
        parse_jfif(bytes(data))


def test_quality_factor_recovered(rng):
    for qf in (5, 50, 95):
        g = compress(uniform_image(rng, 8, 8), qf)
        g2, _ = parse_jfif(write_jfif(g))
        assert detect_qf(g2.table.luma, g2.table.chroma) == qf


def test_empty_dri_body_truncated(rng):
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    with pytest.raises(TruncatedStream):
        parse_jfif(data[:2] + b"\xff\xdd\x00\x02" + data[2:])


def test_dqt_table_id_above_3_rejected(rng):
    # an otherwise valid extra table with Tq = 4; T.81 allows ids 0-3 only
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    body = bytes((0x04,)) + bytes(range(1, 65))
    extra = b"\xff\xdb" + struct.pack(">H", 2 + len(body)) + body
    with pytest.raises(BadMarker, match="DQT table id 4"):
        parse_jfif(data[:2] + extra + data[2:])


def test_dht_table_id_above_3_rejected(rng):
    # the standard luma DC table again, as class 0 table id 4, and as
    # table id 0 of class 2, which T.81 does not define
    data = write_jfif(compress(uniform_image(rng, 8, 8), 50))
    for tc_th, message in ((0x04, "DHT table id 4"), (0x20, "DHT table class 2")):
        body = bytes((tc_th,)) + bytes(DC_LUMA.counts) + bytes(DC_LUMA.symbols)
        extra = b"\xff\xc4" + struct.pack(">H", 2 + len(body)) + body
        with pytest.raises(BadMarker, match=message):
            parse_jfif(data[:2] + extra + data[2:])


@pytest.mark.integration
def test_external_decoder_agrees(rng):
    # component planes match the external decoder within +-1 (one rounding
    # on each side of the transform); full RGB differs by up to +-2 because
    # libjpeg's fixed-point color conversion rounds a second time
    PIL = pytest.importorskip("PIL.Image")
    import io

    from tests.conftest import decoded_ycbcr_planes

    for i in range(6):
        x = natural_image(rng, 24, 16)
        g = compress(x, (5, 25, 50)[i % 3])
        data = write_jfif(g)
        im = PIL.open(io.BytesIO(data))
        im.draft("YCbCr", im.size)
        theirs = np.asarray(im, dtype=int)
        assert np.max(np.abs(decoded_ycbcr_planes(g) - theirs)) <= 1
        rgb = np.asarray(PIL.open(io.BytesIO(data)).convert("RGB")).astype(int)
        assert np.max(np.abs(decompress(g).data.astype(int) - rgb)) <= 2
