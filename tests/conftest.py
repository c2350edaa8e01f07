import tracemalloc

import numpy as np
import pytest
from hypothesis import settings

from jpegkit.image import PixelImage, round_half_away_from_zero

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def decoded_ycbcr_planes(grid):
    """The decoder's component planes (before color conversion), quantized
    to 8 bits for comparison against external decoders."""
    from jpegkit import dct
    from jpegkit.codec import LEVEL_SHIFT, channel_kinds
    from jpegkit.quant import dequantize

    planes = []
    for ch, kind in zip(grid.channels, channel_kinds(grid.n_channels, grid.colorspace)):
        coef = dequantize(ch, grid.table.for_channel_kind(kind))
        plane = dct.merge_blocks(dct.idct2(coef), grid.width, grid.height) + LEVEL_SHIFT
        planes.append(np.clip(round_half_away_from_zero(plane), 0, 255))
    return np.stack(planes, axis=-1).astype(int)


def images_equal(a, b) -> bool:
    """Same shape, dtype and values."""
    return (
        a.data.shape == b.data.shape
        and a.data.dtype == b.data.dtype
        and bool(np.array_equal(a.data, b.data))
    )


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def table_from_text(line: str) -> np.ndarray:
    """Parse one `--dump-tables` line: 64 integers in zigzag order."""
    from jpegkit.quant import zigzag_unflatten

    vals = [int(tok) for tok in line.split()]
    if len(vals) != 64:
        raise ValueError(f"expected 64 integers, got {len(vals)}")
    return zigzag_unflatten(np.array(vals, dtype=np.int64))


def natural_image(rng, height=24, width=24, channels=3, lo=16, hi=239):
    """Deterministic pseudo-natural fixture: smooth gradients, a few blobs,
    mild grain, kept away from saturation."""
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    img = np.zeros((height, width, channels))
    for c in range(channels):
        img[:, :, c] = 120 + 60 * np.sin(
            2 * np.pi * (rng.random() * xx / width + rng.random() * yy / height + rng.random())
        )
        for _ in range(3):
            cy, cx = rng.random() * height, rng.random() * width
            s, a = 2 + 4 * rng.random(), rng.normal(0, 40)
            img[:, :, c] += a * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * s * s))
        img[:, :, c] += rng.normal(0, 6, (height, width))
    return PixelImage(np.clip(img, lo, hi).astype(np.uint8))


def uniform_image(rng, height=24, width=24, channels=3):
    return PixelImage(rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8))


def restart_stream(grid, rst=None):
    """A DRI=1 stream of a one-block-high grid, built with `write_jfif` only.

    Each MCU is written as its own 8x8 stream, so its DC prediction starts
    at 0 as a restart requires; the scans are joined with RSTn markers,
    numbered from `rst` (default RST0, RST1, ... modulo 8).
    """
    from jpegkit.codec import CoefficientGrid
    from jpegkit.jfif import write_jfif

    n_mcu = grid.channels[0].shape[1]
    rst = [i % 8 for i in range(n_mcu - 1)] if rst is None else rst
    scans = []
    for i in range(n_mcu):
        one = CoefficientGrid(tuple(ch[:, i : i + 1] for ch in grid.channels), grid.table, 8, 8)
        data = write_jfif(one)
        sos_at = data.find(b"\xff\xda")
        scans.append(data[sos_at + 2 + 12 : -2])  # SOS marker and 12-byte segment
    base = write_jfif(grid)
    sos_at = base.find(b"\xff\xda")
    out = base[:sos_at] + b"\xff\xdd\x00\x04\x00\x01" + base[sos_at : sos_at + 2 + 12]
    for i, scan in enumerate(scans):
        out += scan + (bytes((0xFF, 0xD0 + rst[i])) if i < len(rst) else b"")
    return out + b"\xff\xd9"


def fine_step_model(seed, length=5, a=4):
    """Toy model with steps fine enough (0.3-0.45) that nearly every state
    is its own observation: 4**5 = 1024 states by default."""
    from jpegkit.toy import ToyModel, alphabet_for_size

    rng = np.random.default_rng(seed)
    raw = np.exp(rng.normal(0.0, 1.0, a**length))
    steps = np.exp(rng.uniform(np.log(0.3), np.log(0.45), length))
    return ToyModel(length, alphabet_for_size(a), raw / raw.sum(), steps)


def coarse_step_model(length, a, steps, seed):
    """A model with the step vector of a coarse-step `oracle-check` model
    and a log-normal prior."""
    from jpegkit.toy import ToyModel, alphabet_for_size

    raw = np.exp(np.random.default_rng(seed).normal(0.0, 1.0, a**length))
    return ToyModel(length, alphabet_for_size(a), raw / raw.sum(), np.array(steps))


def block_sampler(per_observation):
    """A block sampler, as the toy checks call one, from a per-observation
    one: ``per_observation(y)`` gets each row of the (k, length) block as a
    tuple of ints, and its k tables are stacked in row order."""
    return lambda ys: np.stack([per_observation(tuple(int(v) for v in y)) for y in ys])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def natural_set():
    rng = np.random.default_rng(99)
    return [natural_image(rng) for _ in range(12)]
