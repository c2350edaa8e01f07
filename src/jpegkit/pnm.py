"""Binary PGM (P5) and PPM (P6) reader/writer, maxval 255 only.

The writer emits a canonical header: magic, newline, "<width> <height>",
newline, "255", newline, then the raw payload. The reader accepts any
legal whitespace/comment layout, so read(write(x)) == x and
write(read(f)) == f for canonical f.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import MaxvalNot255, TruncatedPayload, UnsupportedMagic
from .image import PixelImage


# A header field starts at the first byte of a line, after blanks, that is
# neither whitespace nor "#" (which opens a comment to the line's end); the
# first line starts where the previous field ended. A field runs to the next
# whitespace, cut at 21 bytes: one past the longest number read_pnm accepts.
_FIELD_HERE = re.compile(rb"[ \t\v\f]*([^\s#]\S{0,20})")
_FIELD_NEXT = re.compile(rb"[\n\r][ \t\v\f]*([^\s#]\S{0,20})")


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    m = _FIELD_HERE.match(data, pos) or _FIELD_NEXT.search(data, pos)
    if m is None:
        raise TruncatedPayload("header ended before all fields were read")
    return m.group(1), m.end()


def read_pnm(data: bytes) -> PixelImage:
    """Decode a binary PGM/PPM byte string."""
    if len(data) < 2:
        raise UnsupportedMagic("not a PNM stream")
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise UnsupportedMagic(f"unsupported magic {magic!r}")
    channels = 1 if magic == b"P5" else 3

    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_token(data, pos)
        if not tok.isdigit() or len(tok) > 20:  # int() refuses strings past 4300 digits
            raise TruncatedPayload(f"header field {tok[:20]!r} is not a number of at most 20 digits")
        fields.append(int(tok))
    width, height, maxval = fields
    if maxval != 255:
        raise MaxvalNot255(f"maxval {maxval} (only 255 supported)")
    if width < 1 or height < 1:
        raise TruncatedPayload("non-positive dimensions")

    # exactly one whitespace byte separates the header from the payload
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise TruncatedPayload("missing separator before payload")
    pos += 1

    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise TruncatedPayload(f"payload has {len(payload)} of {need} bytes")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return PixelImage(arr)


def write_pnm(img: PixelImage) -> bytes:
    """Encode to canonical binary PGM (1 channel) or PPM (3 channels)."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = magic + b"\n" + f"{img.width} {img.height}".encode() + b"\n255\n"
    return header + img.data.tobytes()
