import numpy as np
import pytest

from jpegkit.codec import (
    CodecOptions,
    CoefficientGrid,
    compress,
    compress_with_table,
    decompress,
    decompress_float,
)
from jpegkit.errors import QfOutOfRange
from jpegkit.image import PixelImage
from jpegkit.jfif import parse_jfif, write_jfif
from jpegkit.quant import table_for_qf
from tests.conftest import images_equal, natural_image, traced_peak, uniform_image
from tests.reference import identity_step

PASSTHROUGH = CodecOptions(colorspace="rgb-passthrough")


def test_uniform_gray_compresses_to_zero_grid():
    img = PixelImage(np.full((16, 16, 3), 128, dtype=np.uint8))
    g = compress(img, 30)
    for ch in g.channels:
        assert np.all(ch == 0)


def test_zero_grid_decompresses_to_gray():
    g = compress(PixelImage(np.full((8, 8, 3), 128, dtype=np.uint8)), 50)
    out = decompress(g)
    assert np.all(out.data == 128)


def test_decompress_deterministic(rng):
    g = compress(uniform_image(rng), 20)
    assert images_equal(decompress(g), decompress(g))


def test_qf_out_of_range(rng):
    with pytest.raises(QfOutOfRange):
        compress(uniform_image(rng), 0)


def test_single_block_dc_hand_oracle():
    # gray 8x8, all 0 except one 255 pixel; independent scalar arithmetic
    arr = np.zeros((8, 8, 1), dtype=np.uint8)
    arr[0, 0, 0] = 255
    g = compress(PixelImage(arr), 50)
    shifted_sum = (0 - 128) * 63 + (255 - 128)
    dc = shifted_sum / 8.0  # orthonormal DC = sum / 8
    q = table_for_qf(50).luma[0, 0]
    expected = np.trunc(dc / q + np.copysign(0.5, dc / q))
    assert g.channels[0][0, 0, 0, 0] == expected == -62


def test_dct_domain_idempotence_float_path(rng):
    # recompressing the real-valued decompression recovers the grid exactly
    for qf in (5, 10, 50, 95):
        for gen in (natural_image, uniform_image):
            x = gen(rng)
            g = compress(x, qf)
            g2 = compress_with_table(decompress_float(g), g.table)
            assert g2 == g, f"float-path idempotence failed at qf={qf}"


def test_pixel_path_idempotence_low_qf(rng):
    # through uint8 pixels the property additionally survives at low qf,
    # where cells dwarf the rounding noise
    for qf in (5, 10):
        x = uniform_image(rng)
        g = compress(x, qf)
        assert compress(decompress(g), qf) == g


def test_pixel_path_rounding_flips_unit_cells(rng):
    # at qf around 95 some table entries are 1 and uint8 rounding noise
    # (std ~0.2 per coefficient) flips cells; the float path stays exact
    flips = 0
    for _ in range(10):
        g = compress(uniform_image(rng), 95)
        g2 = compress(decompress(g), 95)
        flips += sum(int(np.sum(a != b)) for a, b in zip(g.channels, g2.channels))
    assert flips > 0


def test_jpeg_q_near_idempotent(rng):
    x = natural_image(rng)
    for qf in (5, 50):
        y = decompress(compress(x, qf))
        z = decompress(compress(y, qf))
        rmse = np.sqrt(np.mean((z.data.astype(float) - y.data.astype(float)) ** 2))
        assert rmse <= 1.0


def test_jpeg_q_gray_fixed_point():
    img = PixelImage(np.full((24, 16, 3), 128, dtype=np.uint8))
    assert images_equal(decompress(compress(img, 10)), img)


def test_jpeg_q_preserves_dims(rng):
    x = PixelImage(rng.integers(0, 256, size=(17, 13, 3), dtype=np.uint8))
    y = decompress(compress(x, 40))
    assert (y.width, y.height, y.channels) == (x.width, x.height, x.channels)


def test_qf100_passthrough_nearly_exact(rng):
    # quantization at unit steps still rounds DCT coefficients, so the round
    # trip is close but NOT the identity on generic images: |err| <= 1 and
    # small RMSE; images already on the lattice reproduce exactly
    x = uniform_image(rng, 16, 16)
    y = decompress(compress(x, 100, PASSTHROUGH))
    err = np.abs(y.data.astype(int) - x.data.astype(int))
    assert err.max() <= 1
    assert np.sqrt(np.mean(err.astype(float) ** 2)) <= 0.5
    assert images_equal(decompress(compress(y, 100, PASSTHROUGH)), decompress(compress(y, 100, PASSTHROUGH)))
    lattice = decompress(compress(x, 100, PASSTHROUGH))
    g1 = compress(lattice, 100, PASSTHROUGH)
    assert compress_with_table(decompress_float(g1), g1.table, PASSTHROUGH) == g1


def test_gray_single_channel_roundtrip(rng):
    x = PixelImage(rng.integers(0, 256, size=(16, 16, 1), dtype=np.uint8))
    g = compress(x, 10)
    assert g.n_channels == 1
    y = decompress(g)
    assert y.channels == 1
    assert compress_with_table(decompress_float(g), g.table) == g


def test_grid_validates_block_shape():
    t = table_for_qf(50)
    with pytest.raises(ValueError):
        CoefficientGrid((np.zeros((1, 1, 8, 8), np.int32),), t, 20, 8, "ycbcr")


@pytest.mark.parametrize(
    "blocks, width, height",
    [
        ((0, 0), 0, 0),
        ((1, 0), 0, 8),
        ((0, 1), 8, -1),
        ((2, 2), 16.0, 16.0),
        ((2, 2), 16, 16.0),
    ],
)
def test_grid_refuses_sizes_that_are_not_positive_integers(blocks, width, height):
    # a 0x0 grid used to reach write_jfif and decompress, and a 16.0x16.0
    # one to fail there with struct.error or TypeError
    channel = np.zeros(blocks + (8, 8), np.int32)
    with pytest.raises(ValueError, match="positive integers"):
        CoefficientGrid((channel,) * 3, table_for_qf(50), width, height)


def test_grid_owns_one_array_and_never_freezes_or_shares_a_callers():
    t = table_for_qf(50)
    stacked, viewed = np.zeros((2, 3, 1, 1, 8, 8), np.int32)
    split = [np.zeros((1, 1, 8, 8), np.int32) for _ in range(3)]
    for levels, owners in ((stacked, [stacked]), (tuple(viewed), [viewed]), (tuple(split), split)):
        g = CoefficientGrid(levels, t, 8, 8)
        assert g.channels.shape == (3, 1, 1, 8, 8) and g.channels.dtype == np.int32
        assert not g.channels.flags.writeable
        for arr in owners:
            arr += 1  # raises if the grid froze the caller's array
        assert not g.channels.any()
    # a parsed stream's array is handed over as it is: no second copy while
    # parsing (a flat image codes in a few bits per block, so the grid's
    # array is nearly all of the parse's memory)
    data = write_jfif(compress(PixelImage(np.full((256, 256, 3), 128, np.uint8)), 50))
    g = parse_jfif(data)[0]
    assert traced_peak(lambda: parse_jfif(data)) < 1.25 * g.channels.nbytes


@pytest.mark.parametrize(
    "level",
    [
        np.float64(0.7),  # a cast truncates it to 0, where the one rounding rule gives 1
        np.float64(3e9),  # a cast wraps it, with a RuntimeWarning alone
        np.float64(np.nan),
        np.float64(-np.inf),
        np.int64(2**31),  # a cast wraps it to -2**31 without a warning
        np.int64(-(2**31) - 1),
        np.uint64(2**63),
    ],
    ids=["fraction", "3e9", "nan", "-inf", "int64-2**31", "int64-below", "uint64"],
)
def test_grid_refuses_levels_that_are_not_int32_integers(level):
    levels = np.zeros((1, 1, 1, 8, 8), dtype=level.dtype)
    levels[0, 0, 0, 3, 5] = level
    with pytest.raises(ValueError, match="finite integers within int32"):
        CoefficientGrid(levels, table_for_qf(50), 8, 8)


def test_grid_refuses_a_python_int_past_int32():
    levels = np.zeros((1, 1, 1, 8, 8), np.int64).tolist()
    levels[0][0][0][3][5] = 2**31  # numpy raises OverflowError for it
    with pytest.raises(ValueError, match="finite integers within int32"):
        CoefficientGrid(levels, table_for_qf(50), 8, 8)


def test_grid_keeps_integral_levels_at_the_int32_ends():
    ends = np.array([-(2**31), 2**31 - 1, -0.0, 1023.0])
    for dtype in (np.float64, np.int64):
        levels = np.zeros((1, 1, 1, 8, 8), dtype=dtype)
        levels.flat[: len(ends)] = ends
        g = CoefficientGrid(levels, table_for_qf(50), 8, 8)
        assert g.channels.flat[: len(ends)].tolist() == [-(2**31), 2**31 - 1, 0, 1023]


def test_grid_keeps_a_read_only_int32_array_uncopied_and_unchecked():
    levels = np.zeros((1, 1, 1, 8, 8), np.int32)
    levels.setflags(write=False)
    assert CoefficientGrid(levels, table_for_qf(50), 8, 8).channels is levels


def test_options_refuse_round_chroma_without_color_conversion():
    # rgb-passthrough has no converted planes for round_chroma to round
    with pytest.raises(ValueError, match="round_chroma"):
        CodecOptions(colorspace="rgb-passthrough", round_chroma=True)


def test_float_input_accepted(rng):
    from jpegkit.image import to_float

    x = uniform_image(rng, 8, 8)
    assert compress(to_float(x), 50) == compress(x, 50)


def test_core_stacks_match_per_image_and_requantize_fuses(rng):
    # analysis/synthesis on a (K, H, W, C) stack give each image what it
    # gets alone, and requantize is synthesis(step(analysis(x))) bit for bit,
    # in float64 whatever the dtype and layout of the step's result
    from jpegkit.codec import analysis, requantize, synthesis
    from jpegkit.dct import block_view, merge_blocks
    from jpegkit.image import round_half_away_from_zero, to_float

    def rounded(coef):
        return round_half_away_from_zero(coef)

    def int32_levels(coef):
        return round_half_away_from_zero(coef).astype(np.int32)

    def float32_coefs(coef):
        return coef.astype(np.float32)

    def strided_planes(coef):
        # plane layout, but every other channel plane of a larger array
        return block_view(np.repeat(merge_blocks(coef), 2, axis=-3)[..., ::2, :, :])

    table = table_for_qf(40)
    for opts in (CodecOptions(), PASSTHROUGH, CodecOptions(round_chroma=True)):
        for channels in (1, 3):
            for height, width in ((16, 16), (17, 13)):
                stack = np.stack(
                    [to_float(natural_image(rng, height, width, channels)).data for _ in range(2)]
                ) + rng.normal(0.0, 2.0, (2, height, width, channels))
                coefs = analysis(stack, table, opts)
                back = synthesis(coefs, table, width, height, opts.colorspace)
                for k in range(2):
                    one = analysis(stack[k], table, opts)
                    assert np.array_equal(coefs[k], one)
                    assert np.array_equal(
                        back[k], synthesis(one, table, width, height, opts.colorspace)
                    )
                for step in (identity_step, rounded, int32_levels, float32_coefs, strided_planes):
                    expected = synthesis(step(coefs), table, width, height, opts.colorspace)
                    got = requantize(stack, table, opts, step)
                    assert got.dtype == np.float64 and np.array_equal(got, expected)
                    out, work = np.empty_like(stack), np.empty_like(stack)
                    got = requantize(stack, table, opts, step, out=out, work=work)
                    assert np.array_equal(got, expected)


def test_plane_dct_matches_block_helpers(rng):
    # the plane-layout transform gives, bit for bit, the block helpers'
    # split -> level shift -> DCT, single planes and stacks alike
    from jpegkit.codec import LEVEL_SHIFT, plane_dct
    from jpegkit.dct import dct2, split_blocks

    for height, width in ((8, 8), (16, 24), (17, 13), (9, 31)):
        for lead in ((), (4,)):
            plane = rng.uniform(0.0, 255.0, lead + (height, width))
            expected = dct2(split_blocks(plane, pad=True) - LEVEL_SHIFT)
            got = plane_dct(plane)
            assert got.shape == expected.shape
            assert np.array_equal(got, expected)


def test_requantize_stack_matches_each_image(rng):
    # a 4-image stack requantizes each image exactly as it does alone: with
    # the identity step, the in-place rounding of diffjpeg, the in-place
    # cell clamp of the projection, and a clamp that returns a new array
    from jpegkit.codec import requantize
    from jpegkit.image import round_half_away_from_zero, to_float

    table = table_for_qf(30)

    def rounded(coef):
        return round_half_away_from_zero(coef, out=coef)

    for opts in (CodecOptions(), PASSTHROUGH):
        for height, width in ((16, 16), (17, 13), (9, 31)):
            x = natural_image(rng, height, width)
            grid = compress(x, 30, opts)
            stack = to_float(x).data + rng.normal(0.0, 3.0, (4, height, width, 3))

            def clamp_in_place(coef):
                coef -= grid.channels
                np.clip(coef, -0.3, 0.3, out=coef)
                coef += grid.channels
                return coef

            def clamp_new(coef):
                return grid.channels + np.clip(coef - grid.channels, -0.3, 0.3)

            for step in (identity_step, rounded, clamp_in_place, clamp_new):
                got = requantize(stack, table, opts, step)
                for k in range(4):
                    assert np.array_equal(got[k], requantize(stack[k], table, opts, step))
            assert np.array_equal(
                requantize(stack, table, opts, clamp_in_place), requantize(stack, table, opts, clamp_new)
            )


def test_planar_requantize_matches_the_per_channel_oracle(rng):
    # one pass over every channel at once gives, bit for bit, what the codec
    # gave one channel at a time, for diffjpeg's rounding and for a cell
    # clamp with its own half-width per channel, with and without out and
    # work, over stacks of 1-4 images and one image alone
    from jpegkit.codec import requantize
    from jpegkit.image import round_half_away_from_zero, to_float
    from jpegkit.quant import QuantTable
    from tests.reference import requantize_per_channel

    standard = table_for_qf(30)
    luma = standard.luma.copy()
    luma[0, 1] += 1
    options = ((CodecOptions(), 3), (PASSTHROUGH, 3), (CodecOptions(round_chroma=True), 3), (CodecOptions(), 1))
    for table in (standard, QuantTable(luma, standard.chroma)):
        for opts, channels in options:
            for height, width in ((64, 64), (17, 13), (9, 31), (21, 37)):
                grid = compress_with_table(natural_image(rng, height, width, channels), table, opts)
                base = to_float(decompress(grid)).data
                halves = np.array([0.3, 0.2, 0.1])[:channels]
                cells = halves[:, None, None, None, None]

                def rounded(coef, c=None):
                    return round_half_away_from_zero(coef, out=coef)

                def clamp(coef):
                    coef -= grid.channels
                    np.clip(coef, -cells, cells, out=coef)
                    coef += grid.channels
                    return coef

                def clamp_channel(coef, c):
                    coef -= grid.channels[c]
                    np.clip(coef, -halves[c], halves[c], out=coef)
                    coef += grid.channels[c]
                    return coef

                for lead in ((), (1,), (2,), (3,), (4,)):
                    x = base + rng.normal(0.0, 3.0, lead + base.shape)
                    for step, oracle_step in ((rounded, rounded), (clamp, clamp_channel)):
                        want = requantize_per_channel(x, table, opts, oracle_step)
                        assert np.array_equal(requantize(x, table, opts, step), want)
                        out, work = np.empty_like(x), np.empty_like(x)
                        assert np.array_equal(requantize(x, table, opts, step, out=out, work=work), want)


def test_steps_are_tiled_once_per_table_and_width(rng):
    # the divide and the multiply of every call share one tiled step array
    from jpegkit.codec import _tiled_steps, requantize
    from jpegkit.image import to_float

    x = to_float(natural_image(rng, 16, 24)).data
    _tiled_steps.cache_clear()
    for _ in range(3):
        requantize(x, table_for_qf(37), CodecOptions(), identity_step)
    assert _tiled_steps.cache_info().misses == 1


def test_codec_peaks_at_512_stay_under_the_per_channel_codec():
    # the per-channel codec peaked at 14.00 (compress), 18.75 (decompress)
    # and 18.00 MiB (project) at 512² q90; the planar one frees the float
    # samples before the transform's row products, and decompress rounds in
    # place (12.0, 13.5 and 12.8 MiB when measured)
    from jpegkit.projection import project

    x = natural_image(np.random.default_rng(512), 512, 512)
    grid = compress(x, 90)
    xhat = natural_image(np.random.default_rng(513), 512, 512)
    assert traced_peak(lambda: compress(x, 90)) <= 14.0 * 2**20
    assert traced_peak(lambda: decompress(grid)) <= 18.75 * 2**20
    assert traced_peak(lambda: project(xhat, grid)) <= 18.0 * 2**20


def _raw_sample_cases(rng):
    """(options, samples) for YCbCr 3-channel, passthrough 3-channel and
    1-channel samples, each as one 13x16 image and as a stack of three."""
    for opts, channels in ((CodecOptions(), 3), (PASSTHROUGH, 3), (CodecOptions(), 1)):
        for lead in ((), (3,)):
            yield opts, rng.uniform(0.0, 255.0, lead + (13, 16, channels))


def test_non_finite_samples_rejected_on_every_path(rng):
    # raw samples are checked once, where they enter, on every colorspace
    # and channel path, for one image and for a stack
    from jpegkit.codec import analysis, requantize
    from jpegkit.diffjpeg import DiffJpegOp, forward
    from jpegkit.losses import texture_band_features
    from tests.reference import forward_no_round

    table = table_for_qf(50)
    for opts, samples in _raw_sample_cases(rng):
        op = DiffJpegOp(table, opts, 16, 13, samples.shape[-1])
        for bad in (np.nan, np.inf, -np.inf):
            x = samples.copy()
            x[..., 5, 7, 0] = bad
            calls = (
                lambda: analysis(x, table, opts),
                lambda: requantize(x, table, opts, identity_step),
                lambda: forward(op, x),
                lambda: forward_no_round(op, x),
                lambda: texture_band_features(x),
            )
            for call in calls:
                with pytest.raises(ValueError):
                    call()


def test_entry_points_leave_the_callers_samples_unchanged(rng):
    # raw arrays enter without a copy, so no path may write into them
    from jpegkit.codec import analysis, requantize
    from jpegkit.diffjpeg import DiffJpegOp, forward
    from jpegkit.image import FloatImage, round_half_away_from_zero
    from jpegkit.projection import project
    from tests.reference import forward_no_round

    def rounded(coef):
        return round_half_away_from_zero(coef, out=coef)

    table = table_for_qf(50)
    for opts, samples in _raw_sample_cases(rng):
        before = samples.tobytes()
        op = DiffJpegOp(table, opts, 16, 13, samples.shape[-1])
        analysis(samples, table, opts)
        for step in (identity_step, rounded):
            requantize(samples, table, opts, step)
            requantize(samples, table, opts, step, out=np.empty_like(samples), work=np.empty_like(samples))
        forward(op, samples)
        forward_no_round(op, samples)
        assert samples.tobytes() == before
        if samples.ndim == 3:
            img = FloatImage(samples.copy())
            pixels = PixelImage(np.clip(samples, 0, 255).astype(np.uint8))
            grid = compress(img, 50, opts)
            for xhat in (img, pixels):
                data = xhat.data.tobytes()
                project(xhat, grid)
                assert xhat.data.tobytes() == data


def test_forward_and_project_scan_samples_once(rng, monkeypatch):
    # finiteness is checked where samples enter: one isfinite scan per
    # forward or project call, whatever the path
    from jpegkit.diffjpeg import DiffJpegOp, forward
    from jpegkit.image import FloatImage
    from jpegkit.projection import project

    isfinite = np.isfinite

    def scans(call):
        shapes = []

        def counting(x, *args, **kwargs):
            shapes.append(np.shape(x))
            return isfinite(x, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(np, "isfinite", counting)
            call()
        return len(shapes)

    table = table_for_qf(50)
    for opts, samples in _raw_sample_cases(rng):
        op = DiffJpegOp(table, opts, 16, 13, samples.shape[-1])
        assert scans(lambda: forward(op, samples)) == 1
        if samples.ndim == 3:
            img = FloatImage(samples.copy())
            grid = compress(img, 50, opts)
            assert scans(lambda: forward(op, img)) == 1
            for xhat in (img, PixelImage(np.clip(samples, 0, 255).astype(np.uint8))):
                assert scans(lambda: project(xhat, grid)) == 1


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks the star
    # import
    import jpegkit

    namespace = {}
    exec("from jpegkit import *", namespace)
    assert set(jpegkit.__all__) <= namespace.keys()
