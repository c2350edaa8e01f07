"""Mutation fuzzing of the byte-level readers: whatever bytes arrive, they
raise the documented error types, never internal exceptions."""

import numpy as np
import pytest

from jpegkit.codec import compress
from jpegkit.errors import JpegkitError, PassthroughNotRepresentable
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.pnm import read_pnm, write_pnm
from tests.conftest import natural_image, restart_stream, uniform_image


def _mutations(rng, base, n):
    for _ in range(n):
        data = bytearray(base)
        for _ in range(rng.integers(1, 5)):
            op = rng.integers(0, 3)
            if op == 0 and len(data) > 2:
                data[rng.integers(0, len(data))] = rng.integers(0, 256)
            elif op == 1 and len(data) > 4:
                del data[rng.integers(1, len(data)) :]
            else:
                data.insert(rng.integers(0, len(data)), rng.integers(0, 256))
        yield bytes(data)


def test_jfif_parser_never_leaks_internal_errors(rng):
    base = write_jfif(compress(uniform_image(rng, 16, 16), 50))
    for data in _mutations(rng, base, 800):
        try:
            parse_jfif(data)
        except JpegkitError:
            pass


def _segments(data: bytes) -> list:
    """Split a well-formed stream into SOI, each marker segment with its
    length field, each scan's entropy-coded data (RSTn markers included)
    and EOI."""
    segments, pos = [data[:2]], 2
    while pos < len(data):
        marker = data[pos + 1]
        if marker == 0xD9:
            end = pos + 2
        else:
            end = pos + 2 + int.from_bytes(data[pos + 2 : pos + 4], "big")
        segments.append(data[pos:end])
        pos = end
        if marker == 0xDA:  # the scan runs to the first marker that is not RSTn
            while not (data[end] == 0xFF and data[end + 1] not in (0x00, *range(0xD0, 0xD8))):
                end += 1
            segments.append(data[pos:end])
            pos = end
    assert b"".join(segments) == data
    return segments


def _stray_markers(segments) -> list:
    sof0 = next(s for s in segments if s[:2] == b"\xff\xc0")
    return [
        b"\xff\xd8",  # SOI
        b"\xff\xd9",  # EOI
        *(bytes((0xFF, 0xD0 + n)) for n in range(8)),  # RSTn
        b"\xff\xc2" + sof0[2:],  # SOF2, with the frame's own body
        b"\xff\xdc\x00\x04\x00\x08",  # DNL
    ]


def _structured_mutations(rng, base, n):
    """Mutants of a stream that keep its segment layout in view: length
    fields rewritten, segments dropped, duplicated or swapped, stray markers
    at segment boundaries and inside the scan, and DRI intervals varied."""
    segments = _segments(base)
    strays = _stray_markers(segments)
    scans = {segments[i + 1] for i, s in enumerate(segments) if s[:2] == b"\xff\xda"}
    for _ in range(n):
        segs = list(segments)
        for _ in range(rng.integers(1, 4)):
            op = rng.integers(0, 7)
            i = int(rng.integers(0, len(segs)))
            if op == 0 and len(segs[i]) >= 4 and segs[i] not in scans:  # a segment with a length field
                length = int.from_bytes(segs[i][2:4], "big")
                new = int(rng.choice([0, 1, length - 1, length + 1, 0xFFFF]))
                segs[i] = segs[i][:2] + new.to_bytes(2, "big") + segs[i][4:]
            elif op == 1 and len(segs) > 1:
                del segs[i]
            elif op == 2:
                segs.insert(int(rng.integers(0, len(segs) + 1)), segs[i])
            elif op == 3:
                j = int(rng.integers(0, len(segs)))
                segs[i], segs[j] = segs[j], segs[i]
            elif op == 4:
                segs.insert(i, strays[rng.integers(0, len(strays))])
            elif op == 5 and segs[i] in scans:
                at = int(rng.integers(0, len(segs[i]) + 1))
                segs[i] = segs[i][:at] + strays[rng.integers(0, len(strays))] + segs[i][at:]
            else:
                interval = int(rng.choice([0, 1, 2, 3, 7, 0xFFFF]))
                dri = b"\xff\xdd\x00\x04" + interval.to_bytes(2, "big")
                k = next((k for k, s in enumerate(segs) if s[:2] == b"\xff\xdd"), None)
                if k is None:
                    segs.insert(i, dri)
                else:
                    segs[k] = dri
        yield b"".join(segs)


def test_jfif_parser_survives_structured_mutations(rng):
    bases = [
        write_jfif(compress(uniform_image(rng, 16, 16), 50)),
        write_jfif(compress(natural_image(rng, 17, 13), 90)),
        restart_stream(compress(uniform_image(rng, 8, 40), 50)),
        restart_stream(compress(natural_image(rng, 8, 24), 10)),
    ]
    for base in bases:
        parse_jfif(base)
        for data in _structured_mutations(rng, base, 400):
            try:
                parse_jfif(data)
            except JpegkitError:
                pass


def test_pnm_reader_never_leaks_internal_errors(rng):
    base = write_pnm(uniform_image(rng, 9, 7))
    for data in _mutations(rng, base, 800):
        try:
            read_pnm(data)
        except JpegkitError:
            pass


def test_decoded_mutants_still_roundtrip(rng):
    # the few mutations that still parse produce structurally valid grids;
    # grids whose decoded DC drifted past the writable range are refused
    # with a clear error rather than miscoded
    base = write_jfif(compress(uniform_image(rng, 16, 16), 50))
    survivors = 0
    for data in _mutations(rng, base, 400):
        try:
            grid, _ = parse_jfif(data)
        except JpegkitError:
            continue
        survivors += 1
        try:
            reencoded = write_jfif(grid)
        except PassthroughNotRepresentable:
            continue
        g2, _ = parse_jfif(reencoded)
        assert g2 == grid
    assert survivors > 0
