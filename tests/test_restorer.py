import numpy as np
import pytest

from jpegkit.codec import compress, compress_with_table, decompress
from jpegkit.errors import (
    DimMismatch,
    MissingGroundTruth,
    MissingReference,
    NonFiniteLoss,
    NotACompressedInput,
    QfOutOfRange,
    TooFewSamples,
)
from jpegkit.image import FloatImage, PixelImage, block_rows, to_float, to_pixels
from jpegkit.losses import (
    LossWeights,
    SampleBatch,
    first_moment_term,
    loss_c,
    loss_fm,
    loss_p,
    loss_sm,
    second_moment_term,
)
from jpegkit.metrics import consistency_rmse, std_map
from jpegkit.projection import project
from jpegkit.quant import table_for_qf
from jpegkit import restorer
from jpegkit.restorer import (
    RestoreConfig,
    RestoreRun,
    _seed_rng,
    restore_with_history,
    sweep_lambda_c,
    tv_huber,
)
from tests.conftest import images_equal, natural_image, traced_peak


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(42)
    x = natural_image(rng)
    return x, decompress(compress(x, 5))


def test_zero_weights_returns_initialization(pair):
    _, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(), steps=10, n_seeds=2, seed=3)
    outs = restore_with_history(y, cfg).images
    for k, out in enumerate(outs):
        rng = _seed_rng(3, k)
        init = to_float(y).data + rng.normal(0.0, cfg.init_noise_std, out.data.shape)
        assert images_equal(out, to_pixels(FloatImage(init)))


def test_deterministic(pair):
    _, y = pair
    cfg = RestoreConfig(
        qf=5, weights=LossWeights(lambda_c=10, lambda_prior=20), steps=20, step_size=2.0, n_seeds=2
    )
    a = restore_with_history(y, cfg).images
    b = restore_with_history(y, cfg).images
    assert all(images_equal(p, q) for p, q in zip(a, b))


def test_seed_outputs_independent_of_n_seeds(pair):
    _, y = pair
    base = dict(qf=5, weights=LossWeights(lambda_c=10, lambda_prior=20), steps=15, step_size=2.0, seed=7)
    one = restore_with_history(y, RestoreConfig(n_seeds=1, **base)).images
    three = restore_with_history(y, RestoreConfig(n_seeds=3, **base)).images
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
    drifted = restore_with_history(y, drift).images[0]
    # at this large step the objective of this deterministic run rises at
    # some step, which restore reports
    with pytest.warns(UserWarning, match="objective increased"):
        pulled = restore_with_history(y, pull).images[0]
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
    y = decompress(compress(x, 50))
    std = 12.0
    cfg = RestoreConfig(
        qf=50, weights=LossWeights(lambda_c=1000.0), steps=400, step_size=0.1,
        seed=2, init_noise_std=std,
    )
    init = to_pixels(FloatImage(to_float(y).data + _seed_rng(2, 0).normal(0, std, y.data.shape)))
    c0 = consistency_rmse(init, y, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = restore_with_history(y, cfg).images[0]
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
    outs = restore_with_history(y, cfg).images
    spread = std_map(SampleBatch(y, tuple(FloatImage(o.data.astype(float)) for o in outs)))
    assert float(np.mean(spread.data)) > 0.0
    lam0 = RestoreConfig(qf=5, weights=LossWeights(lambda_prior=60.0), steps=100, step_size=4.0, seed=5)
    unpulled = restore_with_history(y, lam0).images[0]
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
        restore_with_history(y, cfg)


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
        restore_with_history(x, cfg)


def test_restore_project_exactly_consistent(pair):
    _, y = pair
    g = compress(y, 5)
    cfg = RestoreConfig(
        qf=5, weights=LossWeights(lambda_c=10.0, lambda_prior=60.0), steps=80, step_size=4.0, n_seeds=2
    )
    for restored in restore_with_history(y, cfg).images:
        out = to_pixels(project(restored, g))
        assert compress_with_table(out, g.table) == g
        assert consistency_rmse(out, y, 5) <= 1.0


def test_moment_terms_require_references(pair):
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_fm=1.0), steps=2)
    with pytest.raises(MissingGroundTruth):
        restore_with_history(y, cfg)
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_sm=1.0), steps=2)
    with pytest.raises(MissingReference):
        restore_with_history(y, cfg, x=x)
    # one seed has no variance to pull on; refused before any work, even
    # before the input check that x, not a compressed input, would fail
    with pytest.raises(TooFewSamples):
        restore_with_history(x, cfg, x=x, xbar=to_float(y))


def test_coupled_moment_descent_runs(pair):
    x, y = pair
    cfg = RestoreConfig(
        qf=5,
        weights=LossWeights(lambda_c=10.0, lambda_fm=5.0, lambda_sm=1.0, lambda_p=0.1),
        steps=10,
        step_size=1.0,
        n_seeds=2,
    )
    outs = restore_with_history(y, cfg, x=x, xbar=to_float(y)).images
    assert len(outs) == 2


def test_feature_term_takes_one_dct_per_step(pair, monkeypatch):
    import jpegkit.losses as losses

    calls = []
    plane_dct = losses.plane_dct
    monkeypatch.setattr(losses, "plane_dct", lambda *a: calls.append(1) or plane_dct(*a))
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_p=0.1), steps=10, step_size=1.0, n_seeds=2)
    restore_with_history(y, cfg, x=x)
    assert len(calls) == 10 + 1  # one per step, plus one for the ground truth's features


def test_feature_term_checks_the_states_finite_once_per_step(pair, monkeypatch):
    import jpegkit.image as image

    shapes = []
    check_finite = image.check_finite
    monkeypatch.setattr(image, "check_finite", lambda a: shapes.append(np.shape(a)) or check_finite(a))
    x, y = pair
    cfg = RestoreConfig(qf=5, weights=LossWeights(lambda_c=1.0, lambda_p=0.1), steps=10, step_size=1.0, n_seeds=2)
    restore_with_history(y, cfg, x=x)
    stack = (cfg.n_seeds,) + to_float(y).data.shape
    assert shapes.count(stack) == cfg.steps  # diffjpeg.forward's, as the stack enters the codec


def _initial_states(y, cfg):
    # the seeded states the restorer starts from
    y_f = to_float(y).data
    noise = [_seed_rng(cfg.seed, k).normal(0.0, cfg.init_noise_std, y_f.shape) for k in range(cfg.n_seeds)]
    return np.stack([y_f + d for d in noise])


def test_first_objective_is_the_reported_losses(pair):
    # the restorer's objective at step 0 is the weighted sum of the losses
    # jpegkit.losses reports on the seeded states: the per-seed terms
    # (consistency, prior, feature) summed over seeds, the moment terms once
    x, y = pair
    xbar = to_float(y)
    for n_seeds in (1, 3):
        w = LossWeights(lambda_c=3.0, lambda_fm=5.0, lambda_p=0.7, lambda_sm=2.0 * (n_seeds > 1), lambda_prior=20.0)
        cfg = RestoreConfig(qf=5, weights=w, steps=1, n_seeds=n_seeds, seed=9)
        run = restore_with_history(y, cfg, x=x, xbar=xbar)
        states = _initial_states(y, cfg)
        batch = SampleBatch(y, tuple(FloatImage(s) for s in states), x=x, xbar=xbar)
        per_seed = w.lambda_c * loss_c(batch, 5) + w.lambda_p * loss_p(batch)
        expected = n_seeds * per_seed + w.lambda_prior * float(np.sum(tv_huber(states, cfg.huber_eps)[0]))
        expected += w.lambda_fm * loss_fm(batch)
        if n_seeds > 1:
            expected += w.lambda_sm * loss_sm(batch)
        assert run.loss_history[0] == pytest.approx(expected, rel=1e-12, abs=0.0)


def _fm_gradient(states, x):
    # the gradient the restorer builds from the first-moment gap, unweighted
    _, gap = first_moment_term(states, x)
    return (-2.0 / (x.size * len(states))) * gap


def _deviations(states):
    # the samples minus their mean, which second_moment_term takes
    return states - states.mean(axis=0)


def _sm_gradient(states, x, xbar):
    # the gradient the restorer builds from the second-moment term, unweighted
    _, gap = second_moment_term(_deviations(states), x, xbar)
    pull = np.sign(gap) * (states - states.mean(axis=0))
    return -(2.0 / len(states)) * pull / x.size


def test_moment_gradients_match_central_differences(rng):
    x = to_float(natural_image(rng, 8, 8)).data
    # target (x - xbar)**2 is 9 on about half the values and 0 elsewhere
    xbar = x + np.where(rng.random(x.shape) < 0.5, 3.0, 0.0)
    h = 1e-6
    for n_seeds in (1, 3):
        states = x + rng.normal(0.0, 1.0, (n_seeds,) + x.shape)
        v = rng.normal(size=states.shape)
        fm = [first_moment_term(states + e * v, x)[0] for e in (h, -h)]
        fd = (fm[0] - fm[1]) / (2 * h)
        assert abs(fd - float(np.sum(_fm_gradient(states, x) * v))) <= 1e-6 * max(1.0, abs(fd))
        if n_seeds == 1:
            continue
        # away from the kinks of |gap|, where the value is differentiable
        assert np.min(np.abs((x - xbar) ** 2 - states.var(axis=0))) > 1e-3
        sm = [second_moment_term(_deviations(states + e * v), x, xbar)[0] for e in (h, -h)]
        fd = (sm[0] - sm[1]) / (2 * h)
        assert abs(fd - float(np.sum(_sm_gradient(states, x, xbar) * v))) <= 1e-6 * max(1.0, abs(fd))


def test_restorer_steps_along_the_moment_gradients(pair):
    # one step of the restorer moves the seeded states by step_size times
    # the weighted moment gradient, so its second objective is the moment
    # loss at that point
    x, y = pair
    x_f = to_float(x).data
    xbar = FloatImage(x_f + 2.0)
    for weights in (LossWeights(lambda_fm=50.0), LossWeights(lambda_sm=50.0)):
        cfg = RestoreConfig(qf=5, weights=weights, steps=2, step_size=0.5, n_seeds=3, seed=4)
        run = restore_with_history(y, cfg, x=x, xbar=xbar)
        s0 = _initial_states(y, cfg)
        if weights.lambda_fm > 0:
            s1 = s0 - cfg.step_size * weights.lambda_fm * _fm_gradient(s0, x_f)
            expected = weights.lambda_fm * first_moment_term(s1, x_f)[0]
        else:
            s1 = s0 - cfg.step_size * weights.lambda_sm * _sm_gradient(s0, x_f, xbar.data)
            expected = weights.lambda_sm * second_moment_term(_deviations(s1), x_f, xbar.data)[0]
        assert run.loss_history[1] == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert run.loss_history[1] < run.loss_history[0]


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
    assert "\r" not in res.to_csv()  # one line ending, as the other CLI reports
    assert res.rows[0].lambda_c == 0.0  # ascending


def _count_restores(monkeypatch) -> list:
    # each restore_with_history call the sweep makes appends one entry
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return restore_with_history(*args, **kwargs)

    monkeypatch.setattr(restorer, "restore_with_history", counted)
    return calls


def test_sweep_refuses_before_any_restore(monkeypatch):
    rng = np.random.default_rng(16)
    x = natural_image(rng, 16, 16)
    y = decompress(compress(x, 50))
    cfg = RestoreConfig(qf=50, weights=LossWeights(lambda_prior=20.0), steps=2)
    calls = _count_restores(monkeypatch)
    for lambdas in ([1.0, float("inf")], [0.5, 1.0, float("nan")]):
        with pytest.raises(ValueError, match="lambda_c"):
            sweep_lambda_c([y], [x], lambdas, cfg)
    with pytest.raises(DimMismatch):
        sweep_lambda_c([y], [natural_image(rng, 16, 24)], [0.0, 1.0], cfg)
    with pytest.raises(DimMismatch):  # the second pair's reference, not the first's
        sweep_lambda_c([y, y], [x, natural_image(rng, 16, 16, channels=1)], [0.0, 1.0], cfg)
    assert calls == []
    assert len(sweep_lambda_c([y], [x], [0.0, 1.0], cfg).rows) == 2 and len(calls) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, steps=0)
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, step_size=0.0)
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, step_size=float("inf"))
    with pytest.raises(ValueError):
        RestoreConfig(qf=5, n_seeds=0)


def test_init_noise_std_must_be_finite_and_nonnegative():
    for std in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RestoreConfig(qf=5, init_noise_std=std)
    assert RestoreConfig(qf=5, init_noise_std=0.0).init_noise_std == 0.0


def test_seed_must_be_nonnegative():
    # a negative seed used to run the input check and then die in numpy's
    # seeding with a bare "expected non-negative integer"
    with pytest.raises(ValueError, match="seed"):
        RestoreConfig(qf=5, seed=-1)
    assert RestoreConfig(qf=5, seed=0).seed == 0


def test_config_resolves_its_table_at_construction():
    # qf only names a standard table; one it cannot name, or none at all, is
    # refused with the other field checks, before any run
    for kwargs in ({"qf": 0}, {"qf": 101}, {}):
        with pytest.raises(QfOutOfRange):
            RestoreConfig(**kwargs)
    assert RestoreConfig(qf=5).table == table_for_qf(5)
    given = table_for_qf(7)
    assert RestoreConfig(qf=5, table=given).table is given
    assert RestoreConfig(table=given).qf is None


def test_table_alone_restores_as_qf_with_that_table(pair):
    x, y = pair
    t = table_for_qf(5)
    base = dict(weights=LossWeights(lambda_c=10.0, lambda_prior=20.0), steps=5, step_size=2.0, n_seeds=2, seed=3)
    alone = restore_with_history(y, RestoreConfig(table=t, **base))
    named = restore_with_history(y, RestoreConfig(qf=5, table=t, **base))
    assert alone.loss_history.tobytes() == named.loss_history.tobytes()
    assert all(images_equal(a, b) for a, b in zip(alone.images, named.images))
    sweeps = [sweep_lambda_c([y], [x], [0.0, 10.0], RestoreConfig(**qf, table=t, **base)) for qf in ({}, {"qf": 5})]
    assert sweeps[0].to_csv() == sweeps[1].to_csv()


def test_huber_eps_is_a_constant():
    assert RestoreConfig(qf=5).huber_eps == 0.1
    with pytest.raises(TypeError):
        RestoreConfig(qf=5, huber_eps=0.2)


def test_references_of_another_shape_are_refused():
    # a ground truth or reference estimate that differs from y in shape used
    # to broadcast through every step; the restorer refuses it before any
    # work, as SampleBatch does, even on an input the round-trip check
    # would refuse
    x = natural_image(np.random.default_rng(7), 16, 16)
    y = decompress(compress(x, 10))
    xbar = to_float(y)
    bad_x = (PixelImage(x.data[..., :1]), PixelImage(x.data[:1]))
    bad_xbar = FloatImage(xbar.data[..., :1])
    for terms in (dict(lambda_fm=1.0), dict(lambda_sm=1.0), dict(lambda_p=1.0)):
        cfg = RestoreConfig(qf=10, weights=LossWeights(lambda_c=1.0, **terms), steps=2, n_seeds=2)
        for bad in bad_x:
            with pytest.raises(DimMismatch, match="ground truth"):
                restore_with_history(y, cfg, x=bad, xbar=xbar)
            with pytest.raises(DimMismatch):
                SampleBatch(y, (y,), x=bad)
        with pytest.raises(DimMismatch, match="reference"):
            restore_with_history(y, cfg, x=x, xbar=bad_xbar)
        with pytest.raises(DimMismatch, match="reference"):
            restore_with_history(x, cfg, x=x, xbar=bad_xbar)
    with pytest.raises(DimMismatch):
        SampleBatch(y, (y,), x=x, xbar=bad_xbar)


BLOCK_TERMS = {
    "uncoupled": {},
    "fm": dict(lambda_fm=500.0),
    "sm": dict(lambda_sm=500.0),
    "p": dict(lambda_p=300.0),
    "fm+sm+p": dict(lambda_fm=500.0, lambda_sm=500.0, lambda_p=300.0),
}


def _block_run(terms, n_seeds):
    x = natural_image(np.random.default_rng(11), 32, 32)
    y = decompress(compress(x, 10))
    weights = LossWeights(lambda_c=1.0, lambda_prior=120.0, **BLOCK_TERMS[terms])
    cfg = RestoreConfig(qf=10, weights=weights, steps=6, step_size=2.0, n_seeds=n_seeds, seed=5)
    run = restore_with_history(y, cfg, x=x, xbar=to_float(y))
    return run, loss_c(SampleBatch(y, run.images), 10)


@pytest.mark.parametrize("terms", sorted(BLOCK_TERMS))
@pytest.mark.parametrize("n_seeds", [3, 4])
@pytest.mark.parametrize("rows", [1, 2])
def test_seed_blocks_keep_the_bits(terms, n_seeds, rows, monkeypatch):
    # at 32² every seed fits in one block; a block bound of one or two
    # images splits the seeds (two images leave a short last block at 3
    # seeds), and every image, loss history and loss_c must stay the same
    import jpegkit.image as image

    assert block_rows(32 * 32 * 3) >= n_seeds
    whole, whole_c = _block_run(terms, n_seeds)
    monkeypatch.setattr(image, "BLOCK_VALUES", rows * 32 * 32 * 3)
    assert block_rows(32 * 32 * 3) == rows
    split, split_c = _block_run(terms, n_seeds)
    assert all(images_equal(a, b) for a, b in zip(whole.images, split.images))
    assert np.array_equal(whole.loss_history, split.loss_history)
    assert whole_c == split_c


def test_restore_holds_the_states_the_gradient_and_one_block_of_scratch():
    # a 128² 4-seed stack is 1.5 MiB and a block one image, 0.375 MiB:
    # states, gradient and three scratch images are 4.125 MiB; scratch
    # over the whole stack peaked at 9.2 MiB
    y = decompress(compress(natural_image(np.random.default_rng(128), 128, 128), 10))
    weights = LossWeights(lambda_c=10.0, lambda_prior=120.0)
    cfg = RestoreConfig(qf=10, weights=weights, steps=3, step_size=4.0, n_seeds=4, seed=3)
    assert block_rows(128 * 128 * 3) == 1
    assert traced_peak(lambda: restore_with_history(y, cfg)) <= 5.25 * 2**20


def test_second_moment_pull_is_built_in_one_temporary():
    # the sm pull, (states - mean) * sign(gap) scaled, is one stack-sized
    # temporary built in place; as one expression it made three, and the
    # same run peaked at 9.01 MiB
    x = natural_image(np.random.default_rng(128), 128, 128)
    y = decompress(compress(x, 10))
    weights = LossWeights(lambda_c=10.0, lambda_prior=120.0, lambda_sm=1.0)
    cfg = RestoreConfig(qf=10, weights=weights, steps=3, step_size=4.0, n_seeds=4, seed=3)
    assert traced_peak(lambda: restore_with_history(y, cfg, x=x, xbar=to_float(y))) <= 8.5 * 2**20
