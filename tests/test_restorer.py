import numpy as np
import pytest

from jpegkit.codec import compress, compress_with_table, jpeg_q
from jpegkit.errors import (
    MissingGroundTruth,
    MissingReference,
    NonFiniteLoss,
    NotACompressedInput,
)
from jpegkit.image import FloatImage, to_float, to_pixels
from jpegkit.losses import LossWeights, SampleBatch
from jpegkit.metrics import consistency_rmse, std_map
from jpegkit.restorer import (
    RestoreConfig,
    RestoreRun,
    _lambda_c_at,
    _seed_rng,
    restore,
    restore_project,
    restore_with_history,
    sweep_lambda_c,
    tv_huber,
)
from tests.conftest import images_equal, natural_image


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(42)
    x = natural_image(rng)
    return x, jpeg_q(x, 5)


def test_zero_weights_returns_initialization(pair):
    _, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(), steps=10, n_seeds=2, seed=3)
    outs = restore(y, cfg)
    for k, out in enumerate(outs):
        rng = _seed_rng(3, k)
        init = to_float(y).data + rng.normal(0.0, cfg.init_noise_std, out.data.shape)
        assert images_equal(out, to_pixels(FloatImage(init)))


def test_deterministic(pair):
    _, y = pair
    cfg = RestoreConfig(
        qf=5, weights=LossWeights(lambda_c=10, lambda_prior=20), steps=20, step_size=2.0, n_seeds=2
    )
    a = restore(y, cfg)
    b = restore(y, cfg)
    assert all(images_equal(p, q) for p, q in zip(a, b))


def test_seed_outputs_independent_of_n_seeds(pair):
    _, y = pair
    base = dict(qf=5, weights=LossWeights(lambda_c=10, lambda_prior=20), steps=15, step_size=2.0, seed=7)
    one = restore(y, RestoreConfig(n_seeds=1, **base))
    three = restore(y, RestoreConfig(n_seeds=3, **base))
    assert images_equal(one[0], three[0])


def test_consistency_force_reduces_inconsistency(pair):
    _, y = pair
    drift = RestoreConfig(
        qf=5, weights=LossWeights(lambda_prior=120.0), steps=150, step_size=4.0, seed=1
    )
    pull = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=100.0, lambda_prior=120.0),
        steps=150,
        step_size=4.0,
        seed=1,
    )
    drifted = restore(y, drift)[0]
    # at this large step the objective of this deterministic run rises at
    # some step, which restore reports
    with pytest.warns(UserWarning, match="objective increased"):
        pulled = restore(y, pull)[0]
    c_drift = consistency_rmse(drifted, y, 5)
    c_pull = consistency_rmse(pulled, y, 5)
    assert c_drift > 1.0
    assert c_pull < c_drift


def test_large_weight_beats_noised_init(rng):
    # at mid quality a noised init is genuinely inconsistent, and a strong
    # consistency pull at the stable default step recovers most of it (the
    # uint8 residual keeps a small floor; projection removes even that)
    import warnings

    x = natural_image(rng)
    y = jpeg_q(x, 50)
    std = 12.0
    cfg = RestoreConfig(
        qf=50, weights=LossWeights(lambda_c=1000.0), steps=400, step_size=0.1,
        seed=2, init_noise_std=std,
    )
    init = to_pixels(FloatImage(to_float(y).data + _seed_rng(2, 0).normal(0, std, y.data.shape)))
    c0 = consistency_rmse(init, y, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = restore(y, cfg)[0]
    assert c0 > 1.0
    assert consistency_rmse(out, y, 50) < c0


def test_seeds_differ_but_stay_consistent(pair):
    _, y = pair
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=50.0, lambda_prior=60.0),
        steps=100,
        step_size=4.0,
        n_seeds=2,
        seed=5,
    )
    outs = restore(y, cfg)
    spread = std_map(SampleBatch(y, tuple(FloatImage(o.data.astype(float)) for o in outs)))
    assert float(np.mean(spread.data)) > 0.0
    lam0 = RestoreConfig(qf=5, weights=LossWeights(lambda_prior=60.0), steps=100, step_size=4.0, seed=5)
    unpulled = restore(y, lam0)[0]
    bar = consistency_rmse(unpulled, y, 5)
    for o in outs:
        assert consistency_rmse(o, y, 5) <= bar


def test_loss_monotone_tv_only(pair):
    _, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_prior=20.0), steps=60, step_size=0.1)
    run = restore_with_history(y, cfg)
    assert isinstance(run, RestoreRun)
    assert not run.diverged
    assert np.all(np.diff(run.loss_history) <= 1e-9)


def test_loss_monotone_consistency_only(pair):
    _, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=10.0), steps=60, step_size=0.1)
    run = restore_with_history(y, cfg)
    assert not run.diverged
    assert np.all(np.diff(run.loss_history) <= 1e-9)


def test_non_finite_loss_raises(pair):
    _, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0), steps=4, step_size=1e200)
    with pytest.raises(NonFiniteLoss):
        restore(y, cfg)


def test_divergence_is_reported(pair):
    # mixed objective at an aggressive step: the consistency term jumps when
    # the smoothing force drags coefficients across cell boundaries, and the
    # run reports the loss increase instead of hiding it
    _, y = pair
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=100.0, lambda_prior=120.0),
        steps=150,
        step_size=4.0,
        seed=1,
    )
    with pytest.warns(UserWarning, match="objective increased"):
        run = restore_with_history(y, cfg)
    assert run.diverged


def test_not_a_compressed_input(pair):
    x, _ = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0), steps=1)
    with pytest.raises(NotACompressedInput):
        restore(x, cfg)


def test_restore_project_exactly_consistent(pair):
    _, y = pair
    g = compress(y, 5)
    cfg = RestoreConfig(
        qf=5, weights=LossWeights(lambda_c=10.0, lambda_prior=60.0), steps=80, step_size=4.0, n_seeds=2
    )
    for out in restore_project(y, cfg):
        assert compress_with_table(out, g.table) == g
        assert consistency_rmse(out, y, 5) <= 1.0


def test_moment_terms_require_references(pair):
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_fm=1.0), steps=2)
    with pytest.raises(MissingGroundTruth):
        restore(y, cfg)
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_sm=1.0), steps=2)
    with pytest.raises(MissingReference):
        restore(y, cfg, x=x)


def test_coupled_moment_descent_runs(pair):
    x, y = pair
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=10.0, lambda_fm=5.0, lambda_sm=1.0, lambda_p=0.1),
        steps=10,
        step_size=1.0,
        n_seeds=2,
    )
    outs = restore(y, cfg, x=x, xbar=to_float(y))
    assert len(outs) == 2


def test_anneal_schedule_endpoints():
    cfg = RestoreConfig(qf=5, steps=11, lambda_c_anneal=(0.1, 10.0))
    assert abs(_lambda_c_at(cfg, 0) - 0.1) < 1e-12
    assert abs(_lambda_c_at(cfg, 10) - 10.0) < 1e-12
    mid = _lambda_c_at(cfg, 5)
    assert 0.1 < mid < 10.0


def test_annealed_run_deterministic(pair):
    _, y = pair
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_prior=20.0),
        lambda_c_anneal=(0.1, 50.0),
        steps=30,
        step_size=2.0,
    )
    assert images_equal(restore(y, cfg)[0], restore(y, cfg)[0])


def test_tv_huber_gradient_matches_fd(rng):
    x = rng.normal(0, 10, size=(6, 5, 3))
    loss, grad = tv_huber(x, 0.1)
    v = rng.normal(size=x.shape)
    h = 1e-6
    lp, _ = tv_huber(x + h * v, 0.1)
    lm, _ = tv_huber(x - h * v, 0.1)
    fd = (lp - lm) / (2 * h)
    assert abs(fd - float(np.sum(grad * v))) < 1e-6 * max(1.0, abs(fd))
    # a stack: each image's loss against its own gradient
    xs = rng.normal(0, 10, size=(3, 6, 5, 3))
    _, grads = tv_huber(xs, 0.1)
    vs = rng.normal(size=xs.shape)
    lps, _ = tv_huber(xs + h * vs, 0.1)
    lms, _ = tv_huber(xs - h * vs, 0.1)
    for k in range(3):
        fd = (lps[k] - lms[k]) / (2 * h)
        assert abs(fd - float(np.sum(grads[k] * vs[k]))) < 1e-6 * max(1.0, abs(fd))


def test_tv_huber_stack_matches_per_image(rng):
    # per image, a stack gives the single-image loss and gradient bit for
    # bit, with or without caller buffers; a small eps puts some values in
    # the quadratic zone
    for shape in ((4, 6, 5, 3), (3, 17, 13, 1), (2, 2, 8, 8, 3)):
        x = rng.normal(0, 10, size=shape)
        x[..., :2, :, :] = 7.0  # flat rows: zero gradients, quadratic zone
        loss, grad = tv_huber(x, 0.5)
        out, work = np.empty_like(x), np.empty((3,) + x.shape)
        loss_buf, grad_buf = tv_huber(x, 0.5, out=out, work=work)
        assert grad_buf is out
        assert np.array_equal(loss_buf, loss) and np.array_equal(grad_buf, grad)
        assert loss.shape == shape[:-3]
        for idx in np.ndindex(*shape[:-3]):
            one_loss, one_grad = tv_huber(x[idx], 0.5)
            assert loss[idx] == one_loss
            assert np.array_equal(grad[idx], one_grad)


def test_sweep_identical_lambdas_identical_rows(pair):
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_prior=20.0), steps=10, step_size=2.0)
    res = sweep_lambda_c([y], [x], [5.0, 5.0], cfg)
    assert res.rows[0] == res.rows[1]


def test_sweep_csv_header(pair):
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_prior=20.0), steps=5, step_size=2.0)
    res = sweep_lambda_c([y], [x], [0.0, 10.0], cfg)
    assert res.to_csv().splitlines()[0] == "lambda_c,consistency_rmse,perceptual_proxy,psnr"
    assert res.rows[0].lambda_c == 0.0  # ascending


def test_config_validation():
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, steps=0)
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, step_size=0.0)
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, n_seeds=0)
