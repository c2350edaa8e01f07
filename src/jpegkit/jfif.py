"""Baseline sequential JFIF bitstream reader and writer.

Scope is deliberately narrow: 8-bit samples, three components, 1x1
sampling, Huffman coding. The encoder always emits the standard "typical"
Huffman tables and never emits restart markers; the parser additionally
skips APPn/COM segments and honors restart markers (numbered RST0..RST7 in
turn, at most one segment per restart interval, with the required DC
prediction reset). Coefficients travel as
:class:`~jpegkit.codec.CoefficientGrid`, so parse(write(g)) is
integer-exact including the quantization tables.

Entropy-coded data is handled as a string of "0"/"1" characters, in the
T.81 Annex F.1.2 layout: a canonical Huffman code, then the size-bit
amplitude field, MSB first. Each :class:`HuffmanTable` carries its
symbol -> code map and the inverse. The writer joins codes and fields and
packs the scan with one ``int(bits, 2)``; the parser unpacks each restart
segment with ``int.from_bytes`` and reads it by slicing. Byte stuffing is
one ``bytes.replace`` each way. Before it allocates the coefficients, the
parser checks that the scan holds the 2 bits every block needs at least;
it then decodes each block straight into the raster-order array that the
grid keeps. DRI, SOF0 and SOS bodies must match their layout's length. A
frame of more than ``MAX_PIXELS`` pixels, Pillow's decompression-bomb
limit, is refused at its SOF0, so the grid the parser allocates is at
most ~1 GiB however many bytes the scan holds.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import dct
from .codec import CoefficientGrid
from .errors import (
    BadMarker,
    FrameTooLarge,
    HuffmanDecodeError,
    NotBaseline,
    PassthroughNotRepresentable,
    TruncatedStream,
    UnsupportedSampling,
)
from .quant import ZIGZAG, QuantTable, zigzag_flatten, zigzag_unflatten

SOI, EOI, SOS, DQT, DHT, DRI, COM = 0xD8, 0xD9, 0xDA, 0xDB, 0xC4, 0xDD, 0xFE
SOF0 = 0xC0
MAX_PIXELS = 89_478_485  # Pillow's Image.MAX_IMAGE_PIXELS: 1 GiB / 4 bytes / 3 channels
APP0 = 0xE0

_MARKER_NAMES = {
    0xC0: "SOF0", 0xC1: "SOF1", 0xC2: "SOF2", 0xC3: "SOF3",
    0xC5: "SOF5", 0xC6: "SOF6", 0xC7: "SOF7", 0xC9: "SOF9",
    0xCA: "SOF10", 0xCB: "SOF11", 0xCD: "SOF13", 0xCE: "SOF14",
    0xCF: "SOF15", 0xC4: "DHT", 0xC8: "JPG", 0xCC: "DAC",
    0xD8: "SOI", 0xD9: "EOI", 0xDA: "SOS", 0xDB: "DQT",
    0xDC: "DNL", 0xDD: "DRI", 0xDE: "DHP", 0xDF: "EXP", 0xFE: "COM",
}
_MARKER_NAMES.update({0xD0 + i: f"RST{i}" for i in range(8)})
_MARKER_NAMES.update({0xE0 + i: f"APP{i}" for i in range(16)})

# T.81 Annex K "typical" Huffman table specifications: 16 code-length
# counts followed by the symbol values in code order.
DC_LUMA_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
DC_LUMA_VALS = tuple(range(12))
DC_CHROMA_BITS = (0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
DC_CHROMA_VALS = tuple(range(12))
AC_LUMA_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D)
AC_LUMA_VALS = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
)
AC_CHROMA_BITS = (0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77)
AC_CHROMA_VALS = (
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
)


@dataclass(frozen=True)
class HuffmanTable:
    """One DC or AC table: 16 code-length counts plus symbols in code order.

    `code_of` maps each symbol to its canonical code as a bit string and
    `symbol_of` maps the code back; both are built once, here.
    """

    table_class: str  # "dc" | "ac"
    table_id: int
    counts: tuple
    symbols: tuple

    def __post_init__(self):
        if self.table_class not in ("dc", "ac"):
            raise ValueError("table_class must be 'dc' or 'ac'")
        if len(self.counts) != 16:
            raise ValueError("counts must have 16 entries")
        if sum(self.counts) != len(self.symbols) or len(self.symbols) > 256:
            raise ValueError("symbol count disagrees with code-length counts")
        code_of = {}
        code = k = 0
        for length, n in enumerate(self.counts, 1):
            if code + n > 1 << length:
                raise ValueError("code-length counts overflow the code space")
            for sym in self.symbols[k : k + n]:
                code_of[sym] = format(code, f"0{length}b")
                code += 1
            k += n
            code <<= 1
        object.__setattr__(self, "code_of", code_of)
        object.__setattr__(self, "symbol_of", {bits: sym for sym, bits in code_of.items()})


DC_LUMA = HuffmanTable("dc", 0, DC_LUMA_BITS, DC_LUMA_VALS)
AC_LUMA = HuffmanTable("ac", 0, AC_LUMA_BITS, AC_LUMA_VALS)
DC_CHROMA = HuffmanTable("dc", 1, DC_CHROMA_BITS, DC_CHROMA_VALS)
AC_CHROMA = HuffmanTable("ac", 1, AC_CHROMA_BITS, AC_CHROMA_VALS)


@dataclass
class JfifStructure:
    """What the container looked like, independent of the coefficients."""

    markers: list
    scan_span: tuple
    huffman_tables: list
    restart_interval: int = 0


# --- encoder ---------------------------------------------------------------


def _segment(out: bytearray, marker: int, payload: bytes):
    out += bytes([0xFF, marker])
    out += struct.pack(">H", 2 + len(payload)) + payload


def _amplitude(v: int) -> tuple[int, str]:
    """Size category of a coefficient and its amplitude field (F.1.2.1)."""
    s = abs(v).bit_length()
    return s, (format(v if v > 0 else v + (1 << s) - 1, f"0{s}b") if s else "")


def _encode_block(out: list, zz: list, dc_code: dict, ac_code: dict):
    """Append one block's codes and fields; zz is the DC difference, then
    the 63 AC levels in zigzag order."""
    s, amp = _amplitude(zz[0])
    out += (dc_code[s], amp)
    run = 0
    for v in zz[1:]:
        if v == 0:
            run += 1
            continue
        s, amp = _amplitude(v)
        # one ZRL (0xF0) per sixteen zeros, then run/size
        out += (ac_code[0xF0] * (run >> 4), ac_code[(run & 15) << 4 | s], amp)
        run = 0
    if run:
        out.append(ac_code[0x00])  # EOB


def write_jfif(grid: CoefficientGrid) -> bytes:
    """Serialize a 3-channel YCbCr grid as a baseline JFIF byte string."""
    if grid.colorspace != "ycbcr" or grid.n_channels != 3:
        raise PassthroughNotRepresentable(
            "only 3-channel ycbcr grids map onto a standard stream"
        )
    if max(grid.width, grid.height) > 0xFFFF:  # SOF0's X and Y are 16-bit (T.81 B.2.2)
        raise PassthroughNotRepresentable(f"a {grid.width}x{grid.height} frame exceeds 65535 samples a side")
    for ch in grid.channels:
        # baseline codes reach DC differences of +-2047 and AC of +-1023;
        # DC in [-1024, 1023] keeps every difference representable
        dc = ch[:, :, 0, 0]
        ac = ch.reshape(-1, 64)[:, 1:]
        if dc.max() > 1023 or dc.min() < -1024 or ac.max() > 1023 or ac.min() < -1023:
            raise PassthroughNotRepresentable("coefficient outside the baseline code range")
    out = bytearray(b"\xff" + bytes([SOI]))
    _segment(out, APP0, b"JFIF\x00" + bytes((1, 1, 0)) + struct.pack(">HHBB", 1, 1, 0, 0))
    _segment(
        out,
        DQT,
        bytes([0x00]) + bytes(int(v) for v in zigzag_flatten(grid.table.luma))
        + bytes([0x01]) + bytes(int(v) for v in zigzag_flatten(grid.table.chroma)),
    )
    sof = struct.pack(">BHHB", 8, grid.height, grid.width, 3)
    for cid, tq in ((1, 0), (2, 1), (3, 1)):
        sof += bytes((cid, 0x11, tq))
    _segment(out, SOF0, sof)
    dht = b""
    for t in (DC_LUMA, AC_LUMA, DC_CHROMA, AC_CHROMA):
        cls = 0 if t.table_class == "dc" else 1
        dht += bytes([(cls << 4) | t.table_id]) + bytes(t.counts) + bytes(t.symbols)
    _segment(out, DHT, dht)
    _segment(out, SOS, bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0]))

    # every block's zigzag vector at once, MCU-major, DC as differences
    nby, nbx = grid.channels[0].shape[:2]
    zz = np.empty((nby * nbx, 3, 64), dtype=np.int32)
    for c, ch in enumerate(grid.channels):
        zz[:, c] = ch.reshape(-1, 64)[:, ZIGZAG]
    zz[:, :, 0] = np.diff(zz[:, :, 0], axis=0, prepend=0)
    codes = [(DC_LUMA.code_of, AC_LUMA.code_of)] + [(DC_CHROMA.code_of, AC_CHROMA.code_of)] * 2
    rows = []
    for row in zz.reshape(nby, nbx * 3, 64):
        pieces = []
        for j, block in enumerate(row.tolist()):
            _encode_block(pieces, block, *codes[j % 3])
        rows.append("".join(pieces))
    bits = "".join(rows)
    bits += "1" * (-len(bits) % 8)  # pad with 1-bits
    out += int(bits, 2).to_bytes(len(bits) // 8, "big").replace(b"\xff", b"\xff\x00")
    out += b"\xff" + bytes([EOI])
    return bytes(out)


# --- parser ----------------------------------------------------------------


# the raster position of each zigzag index, as ints for per-value writes
_RASTER_OF = tuple(ZIGZAG.tolist())


def _read_u16(data: bytes, pos: int) -> int:
    if pos + 2 > len(data):
        raise TruncatedStream("segment length runs past the end")
    return (data[pos] << 8) | data[pos + 1]


def _check_length(name: str, body: bytes, size: int):
    """A fixed-layout segment's body holds exactly its layout's size bytes
    (T.81 B.2.2, B.2.3, B.2.4.4)."""
    if len(body) < size:
        raise TruncatedStream(f"{name} segment truncated")
    if len(body) > size:
        raise BadMarker(f"{name} body has {len(body)} bytes, its layout {size}")


def _split_scan(data: bytes, pos: int):
    """Unstuff entropy data, splitting on restart markers.

    Returns (segments, end_pos) with end_pos at the 0xFF of the first
    non-restart marker after the scan. Restart markers must count RST0,
    RST1, ... RST7, RST0, ... in turn.
    """
    segments = []
    start = pos
    while True:
        pos = data.find(b"\xff", pos)
        if pos < 0:
            raise TruncatedStream("scan data ended without a terminating marker")
        if pos + 1 >= len(data):
            raise TruncatedStream("dangling 0xFF at end of scan")
        m = data[pos + 1]
        if m == 0x00:
            pos += 2
            continue
        segments.append(data[start:pos].replace(b"\xff\x00", b"\xff"))
        if not 0xD0 <= m <= 0xD7:
            return segments, pos
        due = 0xD0 + (len(segments) - 1) % 8
        if m != due:
            raise BadMarker(f"{_MARKER_NAMES[m]} where {_MARKER_NAMES[due]} was due")
        start = pos = pos + 2


def _read_symbol(bits: str, pos: int, symbol_of: dict) -> tuple[int, int]:
    for end in range(pos + 1, pos + 17):
        if end > len(bits):
            raise TruncatedStream("entropy-coded data exhausted")
        sym = symbol_of.get(bits[pos:end])
        if sym is not None:
            return sym, end
    raise HuffmanDecodeError("no code matched within 16 bits")


def _read_amplitude(bits: str, pos: int, s: int) -> tuple[int, int]:
    """The signed value of the s-bit amplitude field at pos (F.2.2.1)."""
    if s == 0:
        return 0, pos
    end = pos + s
    if end > len(bits):
        raise TruncatedStream("entropy-coded data exhausted")
    v = int(bits[pos:end], 2)
    return (v if bits[pos] == "1" else v + 1 - (1 << s)), end


def _decode_block(bits: str, pos: int, block: np.ndarray, dc_map: dict, ac_map: dict, pred: int):
    """Decode one block at bit pos into its 64 values in raster order;
    returns (pos, pred)."""
    s, pos = _read_symbol(bits, pos, dc_map)
    if s > 11:  # 8-bit baseline: DC categories 0..11
        raise HuffmanDecodeError(f"DC category {s} out of range")
    diff, pos = _read_amplitude(bits, pos, s)
    pred += diff
    if not -2048 <= pred <= 2047:  # 8-bit baseline coefficient range
        raise HuffmanDecodeError(f"DC value {pred} out of range")
    block[0] = pred
    k = 1
    while k < 64:
        rs, pos = _read_symbol(bits, pos, ac_map)
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if rs == 0x00:  # EOB
                break
            if rs == 0xF0:  # ZRL
                k += 16
                continue
            raise HuffmanDecodeError(f"invalid AC symbol 0x{rs:02x}")
        if s > 10:  # 8-bit baseline: AC sizes 1..10
            raise HuffmanDecodeError(f"AC size {s} out of range")
        k += r
        if k > 63:
            raise HuffmanDecodeError("AC run overflows the block")
        block[_RASTER_OF[k]], pos = _read_amplitude(bits, pos, s)
        k += 1
    return pos, pred


def parse_jfif(data: bytes):
    """Decode a baseline stream to (CoefficientGrid, JfifStructure)."""
    if len(data) < 2 or data[0] != 0xFF or data[1] != SOI:
        raise BadMarker("stream does not start with SOI")
    pos = 2
    markers = ["SOI"]
    qtables: dict[int, np.ndarray] = {}
    htables: dict[tuple, HuffmanTable] = {}
    frame = None
    restart_interval = 0
    scan = None
    scan_span = (0, 0)
    saw_eoi = False

    while pos < len(data):
        if data[pos] != 0xFF:
            raise BadMarker(f"expected a marker at offset {pos}")
        while pos < len(data) and data[pos] == 0xFF:
            pos += 1  # fill bytes are legal before a marker code
        if pos >= len(data):
            raise TruncatedStream("stream ends inside a marker")
        marker = data[pos]
        pos += 1
        name = _MARKER_NAMES.get(marker, f"0x{marker:02x}")
        markers.append(name)

        if marker == EOI:
            saw_eoi = True
            break
        if marker in (0xC1, 0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF, 0xCC):
            raise NotBaseline(f"{name} frames are not supported")
        if 0xD0 <= marker <= 0xD7:
            raise BadMarker("restart marker outside entropy-coded data")

        length = _read_u16(data, pos)
        if length < 2:
            raise BadMarker(f"{name} segment length {length} is impossible")
        if pos + length > len(data):
            raise TruncatedStream(f"{name} segment runs past the end")
        body = data[pos + 2 : pos + length]
        pos += length

        if APP0 <= marker <= 0xEF or marker == COM:
            continue
        elif marker == DQT:
            i = 0
            while i < len(body):
                pq, tq = body[i] >> 4, body[i] & 0x0F
                if pq != 0:
                    raise NotBaseline("16-bit quantization tables are not baseline")
                if tq > 3:
                    raise BadMarker(f"DQT table id {tq} is above 3")
                if i + 65 > len(body):
                    raise TruncatedStream("DQT table truncated")
                vec = np.frombuffer(body, np.uint8, 64, i + 1).astype(np.int64)
                qtables[tq] = zigzag_unflatten(vec)
                i += 65
        elif marker == DHT:
            i = 0
            while i < len(body):
                if i + 17 > len(body):
                    raise TruncatedStream("DHT header truncated")
                cls, tid = body[i] >> 4, body[i] & 0x0F
                if tid > 3:
                    raise BadMarker(f"DHT table id {tid} is above 3")
                if cls > 1:
                    raise BadMarker(f"DHT table class {cls} is neither 0 (DC) nor 1 (AC)")
                counts = tuple(body[i + 1 : i + 17])
                nsym = sum(counts)
                if i + 17 + nsym > len(body):
                    raise TruncatedStream("DHT symbols truncated")
                symbols = tuple(body[i + 17 : i + 17 + nsym])
                try:
                    table = HuffmanTable("dc" if cls == 0 else "ac", tid, counts, symbols)
                except ValueError as exc:
                    raise HuffmanDecodeError(str(exc)) from exc
                htables[(cls, tid)] = table
                i += 17 + nsym
        elif marker == DRI:
            _check_length(name, body, 2)
            restart_interval = struct.unpack(">H", body)[0]
        elif marker == SOF0:
            if frame is not None:
                raise BadMarker("multiple SOF0 segments")
            if len(body) < 6:
                raise TruncatedStream("SOF0 header truncated")
            precision, height, width, ncomp = struct.unpack(">BHHB", body[:6])
            _check_length(name, body, 6 + 3 * ncomp)
            if width < 1 or height < 1:
                raise BadMarker("frame dimensions must be positive")
            if width * height > MAX_PIXELS:
                raise FrameTooLarge(f"{width}x{height} frame is over the {MAX_PIXELS}-pixel cap")
            if precision != 8:
                raise NotBaseline(f"{precision}-bit samples are not baseline")
            if ncomp != 3:
                raise BadMarker(f"expected 3 components, got {ncomp}")
            comps = []
            for c in range(ncomp):
                cid, hv, tq = body[6 + 3 * c : 9 + 3 * c]
                if hv != 0x11:
                    raise UnsupportedSampling(f"component {cid} uses {hv >> 4}x{hv & 15} sampling")
                comps.append((cid, tq))
            frame = (width, height, comps)
        elif marker == SOS:
            if frame is None:
                raise BadMarker("SOS before SOF0")
            if scan is not None:
                raise BadMarker("multiple scans are not baseline-interleaved")
            if len(body) < 1:
                raise TruncatedStream("SOS header truncated")
            ns = body[0]
            _check_length(name, body, 1 + 2 * ns + 3)
            if ns != len(frame[2]):
                raise BadMarker("scan does not cover all components")
            comp_tables = []
            for c in range(ns):
                cs, tt = body[1 + 2 * c], body[2 + 2 * c]
                if cs != frame[2][c][0]:
                    raise BadMarker(f"scan component {c} selects id {cs}, frame has {frame[2][c][0]}")
                td, ta = tt >> 4, tt & 0x0F
                if (0, td) not in htables or (1, ta) not in htables:
                    raise BadMarker(f"scan references undefined Huffman table {td}/{ta}")
                comp_tables.append((htables[(0, td)], htables[(1, ta)]))
            ss, se, a = body[1 + 2 * ns : 4 + 2 * ns]
            if ss != 0 or se != 63 or a != 0:
                raise NotBaseline("spectral selection / successive approximation present")
            # DRI and DQT apply to the scans that follow them (T.81 B.2.4),
            # so the scan takes the interval and the tables defined so far
            (_, tq_y), (_, tq_c), (_, tq_cr) = frame[2]
            if tq_cr != tq_c:
                raise BadMarker("chroma components use different quantization tables")
            if tq_y not in qtables or tq_c not in qtables:
                raise BadMarker("scan references undefined quantization table")
            luma, chroma = qtables[tq_y], qtables[tq_c]
            try:
                table = QuantTable(luma, chroma)
            except ValueError as exc:
                raise BadMarker(f"invalid quantization table: {exc}") from exc
            scan_start = pos
            segments, pos = _split_scan(data, pos)
            scan_span = (scan_start, pos)
            scan = (comp_tables, segments, table, restart_interval)
        else:
            raise BadMarker(f"unexpected marker {name}")

    if scan is None:
        raise BadMarker("stream has no scan")
    if not saw_eoi:
        raise TruncatedStream("missing EOI")

    width, height, comps = frame
    nby = -(-height // dct.BLOCK)
    nbx = -(-width // dct.BLOCK)
    n_mcu = nby * nbx

    comp_tables, segments, table, restart_interval = scan
    most = -(-n_mcu // restart_interval) if restart_interval else 1
    if len(segments) > most:
        raise BadMarker(f"scan has {len(segments)} restart segments, {n_mcu} MCUs fill at most {most}")
    # every block codes at least one DC and one AC symbol of 1 bit or more
    if 8 * sum(map(len, segments)) < 2 * n_mcu * len(comps):
        raise TruncatedStream(f"scan is too short for {n_mcu} MCUs")
    maps = [(d.symbol_of, a.symbol_of) for d, a in comp_tables]
    # raster order, contiguous per channel: the grid keeps it as it is
    coefs = np.zeros((len(comps), n_mcu, 64), dtype=np.int32)
    mcu = 0
    for seg in segments:
        bits = format(int.from_bytes(seg, "big"), f"0{8 * len(seg)}b") if seg else ""
        pos = 0
        preds = [0] * len(comps)  # DC prediction resets at restart boundaries
        for _ in range(min(restart_interval or n_mcu, n_mcu - mcu)):
            for c in range(len(comps)):
                pos, preds[c] = _decode_block(bits, pos, coefs[c, mcu], *maps[c], preds[c])
            mcu += 1
    if mcu != n_mcu:
        raise TruncatedStream(f"decoded {mcu} of {n_mcu} MCUs")

    grid = CoefficientGrid(
        tuple(c.reshape(nby, nbx, 8, 8) for c in coefs),
        table,
        width,
        height,
        "ycbcr",
    )
    structure = JfifStructure(
        markers=markers,
        scan_span=scan_span,
        huffman_tables=[t for pair in comp_tables for t in pair],
        restart_interval=restart_interval,
    )
    return grid, structure
