import numpy as np
import pytest

from jpegkit.codec import CodecOptions, compress, decompress, decompress_float
from jpegkit.diffjpeg import DiffJpegOp, apply_vjp, forward
from jpegkit.errors import DimMismatch
from jpegkit.image import FloatImage, to_float, to_pixels
from tests.conftest import natural_image, uniform_image
from tests.reference import forward_no_round, op_for_image

PASSTHROUGH = CodecOptions(colorspace="rgb-passthrough")


def test_value_agrees_with_codec(rng):
    for qf in (5, 50):
        x = natural_image(rng)
        op = op_for_image(x, qf)
        y, _ = forward(op, to_float(x))
        z = decompress(compress(x, qf))
        assert np.max(np.abs(to_pixels(y).data.astype(int) - z.data.astype(int))) <= 1


def test_lattice_images_are_fixed_points(rng):
    for qf in (10, 100):
        g = compress(uniform_image(rng, 16, 16), qf)
        x = decompress_float(g)
        op = DiffJpegOp(g.table, CodecOptions(), x.width, x.height, x.channels)
        y, _ = forward(op, x)
        assert np.max(np.abs(y.data - x.data)) < 1e-9


def test_qf100_passthrough_lattice_identity(rng):
    g = compress(uniform_image(rng, 8, 8), 100, PASSTHROUGH)
    x = decompress_float(g)
    op = DiffJpegOp(g.table, PASSTHROUGH, x.width, x.height, x.channels)
    y, _ = forward(op, x)
    assert np.max(np.abs(y.data - x.data)) < 1e-9


def test_vjp_matches_finite_differences(rng):
    # central differences of the no-rounding pipeline vs the adjoint
    x = to_float(natural_image(rng, 17, 13))
    op = op_for_image(x, 10)
    _, vjp = forward(op, x)
    h = 1e-3
    for _ in range(10):
        u = rng.normal(size=x.data.shape)
        v = rng.normal(size=x.data.shape)
        fp = forward_no_round(op, FloatImage(x.data + h * v)).data
        fm = forward_no_round(op, FloatImage(x.data - h * v)).data
        lhs = float(np.sum(u * (fp - fm) / (2 * h)))
        rhs = float(np.sum(apply_vjp(vjp, FloatImage(u)).data * v))
        assert abs(lhs - rhs) <= 1e-6 * max(abs(lhs), 1e-12)


def test_vjp_passthrough_is_identity(rng):
    # the no-rounding pipeline is the identity for every supported setting,
    # so its adjoint is too: both color paths, gray and color, ragged sizes
    for opts in (CodecOptions(), PASSTHROUGH):
        for channels in (1, 3):
            for height, width in ((16, 16), (17, 13)):
                x = to_float(natural_image(rng, height, width, channels))
                op = op_for_image(x, 30, opts)
                _, vjp = forward(op, x)
                c = rng.normal(size=x.data.shape)
                out = apply_vjp(vjp, FloatImage(c)).data
                assert np.max(np.abs(out - c)) < 1e-12
                assert np.max(np.abs(forward_no_round(op, x).data - x.data)) < 1e-11


def test_vjp_zero_cotangent(rng):
    x = to_float(uniform_image(rng, 8, 8))
    op = op_for_image(x, 50)
    _, vjp = forward(op, x)
    out = apply_vjp(vjp, FloatImage(np.zeros_like(x.data)))
    assert np.all(out.data == 0.0)


def test_ste_contract_vjp_of_no_round_pipeline(rng):
    # J is input-independent: the adjoint applied to a basis cotangent must
    # reproduce the corresponding row of the no-rounding pipeline's Jacobian
    x = to_float(uniform_image(rng, 8, 8))
    op = op_for_image(x, 20)
    _, vjp = forward(op, x)
    v = rng.normal(size=x.data.shape)
    jv = (
        forward_no_round(op, FloatImage(x.data + v)).data
        - forward_no_round(op, x).data
    )
    u = rng.normal(size=x.data.shape)
    assert abs(np.sum(u * jv) - np.sum(apply_vjp(vjp, FloatImage(u)).data * v)) < 1e-7


def test_residual_shrinks_with_quality(rng):
    # table dominance: higher quality factors quantize no more coarsely,
    # and the reconstruction residual shrinks accordingly on a fixed image
    x = to_float(natural_image(rng))
    norms = []
    for qf in (5, 25, 50, 75, 95, 100):
        op = op_for_image(x, qf, PASSTHROUGH)
        y, _ = forward(op, x)
        norms.append(float(np.linalg.norm(y.data - x.data)))
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.5 * np.sqrt(x.data.size)


def test_dim_mismatch(rng):
    x = to_float(uniform_image(rng, 8, 8))
    op = op_for_image(x, 50)
    bad = FloatImage(np.zeros((16, 16, 3)))
    with pytest.raises(DimMismatch):
        forward(op, bad)
    _, vjp = forward(op, x)
    with pytest.raises(DimMismatch):
        apply_vjp(vjp, bad)


def test_vjp_dataclass_holds_operator(rng):
    x = to_float(uniform_image(rng, 8, 8))
    op = op_for_image(x, 50)
    assert forward(op, x)[1] is op
    assert forward(op, x.data[None])[1] is op
    for shape in ((8, 8, 1), (1, 8, 8, 1), (8, 16, 3)):
        with pytest.raises(DimMismatch):
            apply_vjp(op, np.zeros(shape))


def test_forward_stack_matches_per_image(rng):
    # a stack runs as one batch, and each image comes out bit for bit as on
    # its own, with or without caller buffers
    for opts in (CodecOptions(), PASSTHROUGH):
        for channels in (1, 3):
            for height, width in ((16, 16), (17, 13), (9, 31)):
                stack = np.stack(
                    [to_float(natural_image(rng, height, width, channels)).data for _ in range(3)]
                ) + rng.normal(0.0, 3.0, (3, height, width, channels))
                op = op_for_image(FloatImage(stack[0]), 50, opts)
                z, vjp = forward(op, stack)
                out, work = np.empty_like(stack), np.empty_like(stack)
                z_buf, _ = forward(op, stack, out=out, work=work)
                assert np.array_equal(z_buf, z)
                exact = forward_no_round(op, stack)
                for k in range(3):
                    one, _ = forward(op, FloatImage(stack[k]))
                    assert np.array_equal(z[k], one.data)
                    assert np.array_equal(exact[k], forward_no_round(op, FloatImage(stack[k])).data)
                assert apply_vjp(vjp, stack) is stack


def test_forward_stack_checks(rng):
    x = to_float(uniform_image(rng, 8, 8))
    op = op_for_image(x, 50)
    stack = np.stack([x.data, x.data])
    with pytest.raises(DimMismatch):
        forward(op, stack[:, :, :4])
    stack[1, 2, 3, 0] = np.nan
    with pytest.raises(ValueError):
        forward(op, stack)


def test_image_forward_into_a_reused_buffer_keeps_earlier_results(rng):
    a = to_float(natural_image(rng, 16, 16, 3))
    b = FloatImage(a.data + rng.normal(0.0, 8.0, a.data.shape))
    op = op_for_image(a, 50)
    buf = np.empty_like(a.data)
    za, _ = forward(op, a, out=buf)
    first = za.data.copy()
    forward(op, b, out=buf)
    assert np.array_equal(za.data, first)
