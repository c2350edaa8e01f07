"""Mutation fuzzing of the byte-level readers: whatever bytes arrive, they
raise the documented error types, never internal exceptions."""

import numpy as np
import pytest

from jpegkit.codec import compress
from jpegkit.errors import JpegkitError, PassthroughNotRepresentable
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.pnm import read_pnm, write_pnm
from tests.conftest import uniform_image


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
