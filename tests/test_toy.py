import itertools
import re
import weakref

import numpy as np
import pytest

from jpegkit import image
from jpegkit.errors import JpegkitError, MalformedModel, MalformedSampler, UnreachableY
from jpegkit.image import block_rows, round_half_away_from_zero
from jpegkit.toy import (
    ToyModel,
    _rows_of,
    _table_blocks,
    alphabet_for_size,
    fm_identity_check,
    load_model,
    mmse_consistency_deviation,
    observations,
    posterior_sampler,
    posterior_sampler_checks,
    random_model,
    save_model,
)
from tests.conftest import block_sampler, coarse_step_model, fine_step_model, traced_peak
from tests.reference import enumerate_posterior, mmse_estimate, uniform_model


def brute_force_posterior(model, y):
    """Independent enumeration with plain Python loops."""
    basis = np.array(
        [
            [
                (1 / np.sqrt(model.length)) if i == 0
                else np.sqrt(2 / model.length) * np.cos((2 * j + 1) * i * np.pi / (2 * model.length))
                for j in range(model.length)
            ]
            for i in range(model.length)
        ]
    )
    weights = []
    for idx, x in enumerate(itertools.product(model.alphabet.tolist(), repeat=model.length)):
        coef = [sum(basis[i][j] * x[j] for j in range(model.length)) / model.steps[i] for i in range(model.length)]
        d = [int(round_half_away_from_zero(c)) for c in coef]
        weights.append(model.prior[idx] if tuple(d) == tuple(y) else 0.0)
    total = sum(weights)
    return np.array(weights) / total


def test_coarse_steps_posterior_equals_prior():
    m = uniform_model(1, 2, [100.0])
    ys, probs, _ = observations(m)
    assert len(ys) == 1  # everything merges into one observation
    assert np.allclose(enumerate_posterior(m, ys[0]), m.prior, atol=1e-15)


def test_fine_steps_posterior_is_point_mass():
    m = uniform_model(2, 3, [0.01, 0.01])
    ys, _, index = observations(m)
    assert len(ys) == m.n_states  # injective degradation
    for row, y in enumerate(ys):
        post = enumerate_posterior(m, y)
        assert np.isclose(post.max(), 1.0)
        assert index[np.argmax(post)] == row


def test_posterior_matches_independent_bruteforce():
    m = uniform_model(2, 4, [2.0, 2.0])
    ys, _, _ = observations(m)
    for y in ys:
        assert np.allclose(enumerate_posterior(m, y), brute_force_posterior(m, y), atol=1e-12)


def test_posterior_sums_to_one(rng):
    for i in range(20):
        m = random_model(np.random.default_rng(i))
        ys, _, _ = observations(m)
        for y in ys:
            assert abs(enumerate_posterior(m, y).sum() - 1.0) <= 1e-12


def test_unreachable_y():
    m = uniform_model(1, 2, [1.0])
    with pytest.raises(UnreachableY):
        enumerate_posterior(m, np.array([999]))


def test_mmse_point_mass():
    m = uniform_model(2, 3, [0.01, 0.01])
    ys, _, index = observations(m)
    post = enumerate_posterior(m, ys[0])
    assert np.allclose(mmse_estimate(m, ys[0]), m.signals[np.argmax(post)])


def test_mmse_symmetric_two_point_midpoint():
    # mass only on +-1, both mapping to the same observation: mean is 0
    alphabet = alphabet_for_size(3)  # [-1, 0, 1]
    prior = np.zeros(3)
    prior[0] = 0.5  # x = -1
    prior[2] = 0.5  # x = +1
    m = ToyModel(1, alphabet, prior, np.array([3.0]))
    ys, _, _ = observations(m)
    assert len(ys) == 1
    assert abs(mmse_estimate(m, ys[0])[0]) < 1e-15


def test_rounding_ties_go_away_from_zero():
    alphabet = alphabet_for_size(5)  # [-2..2]
    prior = np.full(5, 0.2)
    m = ToyModel(1, alphabet, prior, np.array([4.0]))
    d = m.degrade(np.array([[2], [-2]]))
    assert d.tolist() == [[1], [-1]]  # 0.5 -> 1, -0.5 -> -1


def test_theorem_bound_holds_over_random_models():
    worst = 0.0
    for i in range(40):
        m = random_model(np.random.default_rng(1000 + i))
        worst = max(worst, mmse_consistency_deviation(m))
    assert worst <= 0.5 + 1e-12


def test_exact_posterior_sampler_passes_all_checks():
    m = uniform_model(2, 4, [2.0, 2.0])
    rep = posterior_sampler_checks(m, posterior_sampler(m))
    assert rep.inconsistent_mass <= 1e-12
    assert rep.marginal_tv <= 1e-12
    assert rep.max_posterior_gap <= 1e-12


def test_deterministic_estimator_cannot_match_prior():
    # point mass at the grid-snapped conditional mean: consistent (snapping
    # to the nearest consistent state) is not required here; we only need
    # TV > 0 in a model with non-singleton posteriors
    m = uniform_model(2, 4, [2.0, 2.0])

    def snapped(y):
        est = mmse_estimate(m, np.asarray(y))
        idx = np.argmin(np.sum((m.signals - est) ** 2, axis=1))
        out = np.zeros(m.n_states)
        out[idx] = 1.0
        return out

    rep = posterior_sampler_checks(m, block_sampler(snapped))
    assert rep.marginal_tv > 1e-6


def test_prior_sampler_ignoring_y_is_inconsistent():
    m = uniform_model(2, 4, [2.0, 2.0])
    ys, _, _ = observations(m)
    assert len(ys) > 1
    rep = posterior_sampler_checks(m, block_sampler(lambda y: m.prior))
    assert rep.marginal_tv <= 1e-12  # marginal preserved by construction
    assert rep.inconsistent_mass > 1e-6  # but mass leaks across observations


def test_malformed_sampler():
    m = uniform_model(1, 2, [1.0])
    with pytest.raises(MalformedSampler):
        posterior_sampler_checks(m, lambda ys: np.ones((len(ys), m.n_states)))


def test_fm_identity_exact_posterior(rng):
    for i in range(10):
        m = random_model(np.random.default_rng(2000 + i))
        assert fm_identity_check(m) <= 1e-12


def test_fm_identity_biased_sampler_deviates():
    m = uniform_model(2, 4, [2.0, 2.0])

    def biased(y):
        post = enumerate_posterior(m, np.asarray(y))
        out = post.copy()
        out[np.argmax(out)] *= 2.0
        return out / out.sum()

    assert fm_identity_check(m, block_sampler(biased)) > 1e-6


def test_fm_identity_point_mass_prior():
    prior = np.zeros(4)
    prior[1] = 1.0
    m = ToyModel(1, alphabet_for_size(4), prior, np.array([2.0]))
    assert fm_identity_check(m) == 0.0


def test_fixture_roundtrip():
    m = random_model(np.random.default_rng(77))
    m2 = load_model(save_model(m))
    assert m2.length == m.length
    assert np.array_equal(m2.alphabet, m.alphabet)
    assert np.allclose(m2.prior, m.prior, atol=0)
    assert np.allclose(m2.steps, m.steps, atol=0)
    assert mmse_consistency_deviation(m2) == mmse_consistency_deviation(m)


def test_model_rejects_non_finite_values():
    alphabet = alphabet_for_size(2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="steps"):
            ToyModel(1, alphabet, np.array([0.5, 0.5]), np.array([bad]))
        with pytest.raises(ValueError, match="prior"):
            ToyModel(1, alphabet, np.array([bad, 0.5]), np.array([1.0]))
    # a NaN entry once slipped past both the sign and the sum checks
    with pytest.raises(ValueError, match="prior"):
        ToyModel(2, alphabet, np.array([np.nan, 0.5, 0.25, 0.25]), np.array([1.0, 1.0]))


MALFORMED_FIXTURES = {
    "empty": "",
    "garbage": "garbage",
    "two lines": "1 2\n1.0\n",
    "four lines": "1 2\n1.0\n0.5 0.5\n0.5 0.5\n",
    "three header fields": "1 2 3\n1.0\n0.5 0.5\n",
    "float length": "1.5 2\n1.0\n0.5 0.5\n",
    "word in steps": "1 2\nfast\n0.5 0.5\n",
    "NaN step": "1 2\nnan\n0.5 0.5\n",
    "NaN prior": "2 2\n1.0 1.0\nnan 0.5 0.25 0.25\n",
    "overflowing prior": "1 2\n1.0\n1e400 0.5\n",
    "short prior": "1 2\n1.0\n1.0\n",
    "huge alphabet": "1 4000000000000\n1.0\n1.0\n",
    "length zero": "0 2\n\n1.0\n",
    "tiny step": "2 3\n1e-300 1.0\n" + " ".join(["0.125"] * 8 + ["0.0"]) + "\n",
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FIXTURES))
def test_load_model_raises_only_malformed_model(name):
    with pytest.raises(MalformedModel) as info:
        load_model(MALFORMED_FIXTURES[name])
    assert isinstance(info.value, JpegkitError)


def test_model_refuses_steps_past_exact_rounding():
    # |DCT(x)| / 1e-300 overflows int64, which once merged states with
    # different observations and broke the 0.5 bound by ~1e293
    with pytest.raises(ValueError, match="steps too small"):
        ToyModel(2, alphabet_for_size(3), np.full(9, 1 / 9), np.array([1e-300, 1.0]))
    # sqrt(2) * 1 / step reaches 2**53 at step = sqrt(2) / 2**53
    with pytest.raises(ValueError, match="steps too small"):
        ToyModel(2, alphabet_for_size(3), np.full(9, 1 / 9), np.array([1.0, np.sqrt(2) / 2.0**53]))
    m = ToyModel(2, alphabet_for_size(3), np.full(9, 1 / 9), np.array([1.0, 2 * np.sqrt(2) / 2.0**53]))
    ys, _, _ = observations(m)
    assert len(ys) == m.n_states  # every state still has its own observation
    assert mmse_consistency_deviation(m) <= 0.5


def test_model_validation():
    with pytest.raises(ValueError):
        ToyModel(1, alphabet_for_size(2), np.array([0.5, 0.6]), np.array([1.0]))
    with pytest.raises(ValueError):
        ToyModel(1, alphabet_for_size(2), np.array([0.5, 0.5]), np.array([-1.0]))
    with pytest.raises(ValueError):
        ToyModel(9, alphabet_for_size(2), np.full(2**9, 2.0**-9), np.ones(9))


# --- grouped oracle vs per-observation enumeration ---------------------------

EQUIVALENCE_MODELS = [random_model(np.random.default_rng(3000 + i)) for i in range(24)]


def _grouped_means(m):
    return m._grouping.ys, m._grouping.means


@pytest.mark.parametrize("m", EQUIVALENCE_MODELS + [fine_step_model(7)])
def test_grouped_means_match_mmse_estimate(m):
    ys, means = _grouped_means(m)
    assert means.shape == (len(ys), m.length)
    for y, mean in zip(ys, means):
        assert np.abs(mean - mmse_estimate(m, y)).max() <= 1e-12


@pytest.mark.parametrize("m", EQUIVALENCE_MODELS)
def test_posterior_sampler_matches_enumeration_and_bruteforce(m):
    ys, _, _ = observations(m)
    for y, table in zip(ys, posterior_sampler(m)(ys)):
        assert np.abs(table - enumerate_posterior(m, y)).max() <= 1e-12
        assert np.abs(table - brute_force_posterior(m, y)).max() <= 1e-12


def test_posterior_sampler_matches_enumeration_fine_steps():
    m = fine_step_model(7)
    assert m.n_states >= 1024
    ys, _, _ = observations(m)
    assert len(ys) > 0.9 * m.n_states
    for k, (y, table) in enumerate(zip(ys, posterior_sampler(m)(ys))):
        assert np.abs(table - enumerate_posterior(m, y)).max() <= 1e-12
        if k % 128 == 0:  # the pure-Python enumeration is slow at 1024 states
            assert np.abs(table - brute_force_posterior(m, y)).max() <= 1e-12


def test_posterior_sampler_unreachable_y():
    m = uniform_model(1, 2, [1.0])
    sampler = posterior_sampler(m)
    with pytest.raises(UnreachableY):
        sampler(np.array([[999]]))
    with pytest.raises(UnreachableY):
        enumerate_posterior(m, np.array([999]))


@pytest.mark.parametrize(
    "check",
    [
        mmse_consistency_deviation,
        fm_identity_check,
        lambda m: posterior_sampler_checks(m, posterior_sampler(m)),
    ],
    ids=["mmse_consistency_deviation", "fm_identity_check", "posterior_sampler_checks"],
)
def test_checks_degrade_a_constant_number_of_times(monkeypatch, check):
    calls = []
    degrade_all = ToyModel.degrade_all

    def counted(self):
        calls.append(1)
        return degrade_all(self)

    monkeypatch.setattr(ToyModel, "degrade_all", counted)
    counts = []
    for m in (uniform_model(1, 2, [100.0]), uniform_model(2, 4, [2.0, 2.0]), fine_step_model(7)):
        calls.clear()
        check(m)
        counts.append(len(calls))
    assert len(observations(fine_step_model(7))[0]) > 100  # many observations, same count
    assert counts[0] == counts[1] == counts[2] <= 2


# --- cached grouping and blocked sampler checks ------------------------------


def unique_observations(m):
    """The grouping by np.unique that the lexsort grouping replaced."""
    d = m.degrade_all()
    ys_all, index_all = np.unique(d, axis=0, return_inverse=True)
    probs_all = np.zeros(len(ys_all))
    np.add.at(probs_all, index_all, m.prior)
    keep = probs_all > 0.0
    remap = np.full(len(ys_all), -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    return ys_all[keep], probs_all[keep], remap[index_all]


def reference_table(m, dist):
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (m.n_states,):
        raise MalformedSampler(f"sampler table must have {m.n_states} entries")
    if dist.min() < -1e-12 or abs(dist.sum() - 1.0) > 1e-9:
        raise MalformedSampler("sampler table is not a probability distribution")
    return dist


def reference_sampler_checks(m, sampler):
    """The per-observation loop that the blocked checks replaced, calling the
    block sampler with one observation at a time."""
    ys, probs, index = unique_observations(m)
    weights = m.prior / probs[index]
    marginal = np.zeros(m.n_states)
    inconsistent = max_gap = 0.0
    for row, (y, py) in enumerate(zip(ys, probs)):
        dist = reference_table(m, sampler(y[None])[0])
        consistent_mask = index == row
        inconsistent += py * float(dist[~consistent_mask].sum())
        marginal += py * dist
        max_gap = max(max_gap, float(np.abs(dist - np.where(consistent_mask, weights, 0.0)).max()))
    return inconsistent, 0.5 * float(np.abs(marginal - m.prior).sum()), max_gap


def reference_fm_identity(m, sampler):
    ys, _, _ = unique_observations(m)
    means = np.stack([mmse_estimate(m, y) for y in ys])
    signals = m.signals.astype(np.float64)
    sampled = np.stack([reference_table(m, sampler(y[None])[0]) @ signals for y in ys])
    return float(np.abs(sampled - means).max())


def _biased(m):
    def sampler(y):
        out = enumerate_posterior(m, np.asarray(y)).copy()
        out[np.argmax(out)] *= 2.0
        return out / out.sum()

    return block_sampler(sampler)


def _snapped(m):
    def sampler(y):
        est = mmse_estimate(m, np.asarray(y))
        out = np.zeros(m.n_states)
        out[np.argmin(np.sum((m.signals - est) ** 2, axis=1))] = 1.0
        return out

    return block_sampler(sampler)


def _negative_entry(m):
    def sampler(y):
        out = enumerate_posterior(m, np.asarray(y)).copy()
        out[np.argmin(out)] -= 1.0
        out[np.argmax(out)] += 1.0
        return out

    return block_sampler(sampler)


def _wrong_shape(m):
    return block_sampler(lambda y: np.full(m.n_states + 1, 1.0 / (m.n_states + 1)))


def _malformed_at_last(m):
    last = tuple(observations(m)[0][-1].tolist())
    exact = posterior_sampler(m)

    def sampler(y):
        table = exact(np.array([y]))[0]
        return 2.0 * table if y == last else table

    return block_sampler(sampler)


SAMPLERS = {
    "exact": posterior_sampler,
    "biased": _biased,
    "snapped": _snapped,
    "prior-ignoring": lambda m: block_sampler(lambda y: m.prior),
    "negative-entry": _negative_entry,
    "wrong-shape": _wrong_shape,
    "malformed-at-last": _malformed_at_last,
}

# 1024 states take 64 tables per block, so the fine-step model spans many blocks
BLOCK_MODELS = EQUIVALENCE_MODELS[:8] + [uniform_model(2, 4, [2.0, 2.0]), fine_step_model(7)]


def block_sizes(m):
    """The number of observations in each sampler call of a whole check."""
    n_obs, rows = len(observations(m)[0]), block_rows(m.n_states)
    return [min(rows, n_obs - r0) for r0 in range(0, n_obs, rows)]


def _outcome(check):
    try:
        return check()
    except JpegkitError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_blocked_checks_match_per_observation_loop(name):
    for m in BLOCK_MODELS:
        sampler = SAMPLERS[name](m)
        calls = []

        def counted(ys):
            calls.append(len(ys))
            return sampler(ys)

        ref = _outcome(lambda: reference_sampler_checks(m, sampler))
        got = _outcome(lambda: posterior_sampler_checks(m, counted))
        if isinstance(ref, type):
            assert got is ref
            assert calls == block_sizes(m)[: len(calls)]  # a prefix: the raise ends the check
        else:
            rep = (got.inconsistent_mass, got.marginal_tv, got.max_posterior_gap)
            assert np.abs(np.array(rep) - np.array(ref)).max() <= 1e-15
            assert calls == block_sizes(m)
        calls.clear()
        ref = _outcome(lambda: reference_fm_identity(m, sampler))
        got = _outcome(lambda: fm_identity_check(m, counted))
        if isinstance(ref, type):
            assert got is ref
            assert calls == block_sizes(m)[: len(calls)]
        else:
            assert abs(got - ref) <= 1e-14
            assert calls == block_sizes(m)


def test_sampler_is_called_once_per_block_in_row_order():
    # 5**7 = 78125 states is more than 2**16 values: one observation per call
    big = uniform_model(7, 5, [6.0] * 7)
    for m in BLOCK_MODELS + [big]:
        ys = observations(m)[0]
        rows = max(1, 2**16 // m.n_states)
        exact = posterior_sampler(m)
        for check in (posterior_sampler_checks, fm_identity_check):
            blocks = []
            check(m, lambda b: blocks.append(np.array(b)) or exact(b))
            assert len(blocks) == -(-len(ys) // rows)
            assert max(len(b) for b in blocks) <= rows
            assert np.array_equal(np.concatenate(blocks), ys)


def test_oracle_values_do_not_depend_on_the_block_bound(monkeypatch):
    # each column of the exact posterior's tables has one nonzero entry, so
    # every block's sums add zeros alone to it and no bound moves a bit; the
    # fm check's products may sum in another order in another block shape
    assert block_rows(32 * 32 * 3) >= 4  # the bench's 4 seeds at 32² stay one restorer block
    models = BLOCK_MODELS + [coarse_4096_model()]

    def values(m):
        rep = posterior_sampler_checks(m, posterior_sampler(m))
        exact = [mmse_consistency_deviation(m), rep.inconsistent_mass, rep.marginal_tv, rep.max_posterior_gap]
        return exact, fm_identity_check(m)

    want = [values(m) for m in models]
    for bits in range(12, 18):
        monkeypatch.setattr(image, "BLOCK_VALUES", 2**bits)
        for m, (exact, fm) in zip(models, want):
            got_exact, got_fm = values(m)
            assert np.array(got_exact).tobytes() == np.array(exact).tobytes()
            assert abs(got_fm - fm) <= 1e-15


def test_grouping_matches_np_unique():
    for m in EQUIVALENCE_MODELS + [fine_step_model(7), uniform_model(1, 2, [100.0])]:
        for got, want in zip(observations(m), unique_observations(m)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def test_grouping_keys_are_read_only_sorted_and_one_per_observation():
    for m in EQUIVALENCE_MODELS + [fine_step_model(7), uniform_model(1, 2, [100.0])]:
        g = m._grouping
        assert g.keys.shape == (len(g.ys),)
        raw = [k.tobytes() for k in g.keys]
        assert all(a < b for a, b in zip(raw, raw[1:]))  # strictly ascending, as the rows are
        assert np.array_equal(_rows_of(m, g.ys), np.arange(len(g.ys)))
        with pytest.raises(ValueError):
            g.keys[0] = g.keys[-1]


def test_grouping_is_cached_and_read_only():
    m = uniform_model(2, 4, [2.0, 2.0])
    first = observations(m)
    assert all(a is b for a, b in zip(first, observations(m)))
    for arr in first:
        with pytest.raises(ValueError):
            arr[0] = 0


def test_posterior_sampler_tables_are_the_masked_weights():
    for m in EQUIVALENCE_MODELS + [fine_step_model(7)]:
        ys, probs, index = unique_observations(m)
        weights = m.prior / probs[index]
        want = np.where(index == np.arange(len(ys))[:, None], weights, 0.0)
        sampler = posterior_sampler(m)
        assert np.array_equal(sampler(ys), want)
        # any block of observations, in any order and with repeats
        rows = np.random.default_rng(len(ys)).integers(0, len(ys), 64)
        assert np.array_equal(sampler(ys[rows]), want[rows])
        assert sampler(ys[:0]).shape == (0, m.n_states)


def test_unreachable_observation_in_a_block_is_named():
    m = uniform_model(2, 4, [2.0, 2.0])
    block = observations(m)[0][:3].copy()
    block[1] = [99, -99]
    with pytest.raises(UnreachableY, match=r"\[99, -99\]"):
        posterior_sampler(m)(block)
    # steps of 0.5 give each state its own observation, 2x; the state -2
    # has no prior mass, so its observation [-4] is unreachable
    prior = np.zeros(4)
    prior[1] = 1.0
    m = ToyModel(1, alphabet_for_size(4), prior, np.array([0.5]))
    with pytest.raises(UnreachableY, match=r"\[-4\]"):
        posterior_sampler(m)(np.array([[-2], [-4]]))
    with pytest.raises(ValueError):
        posterior_sampler(m)(np.array([-2]))  # not a (k, length) array


def test_all_four_oracle_calls_degrade_each_model_once(monkeypatch):
    calls = []
    degrade_all = ToyModel.degrade_all
    monkeypatch.setattr(ToyModel, "degrade_all", lambda self: calls.append(self) or degrade_all(self))
    # fresh models: a model keeps its grouping once any check has run on it
    models = [uniform_model(2, 4, [2.0, 2.0]), fine_step_model(7), random_model(np.random.default_rng(3000))]
    for m in models:
        mmse_consistency_deviation(m)
        fm_identity_check(m)
        posterior_sampler_checks(m, posterior_sampler(m))
    assert calls == models


def test_conditional_means_are_built_once_per_model(monkeypatch):
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(1) or bincount(*a, **k))
    for first, then in (
        (mmse_consistency_deviation, fm_identity_check),
        (fm_identity_check, mmse_consistency_deviation),
    ):
        for m in (uniform_model(2, 4, [2.0, 2.0]), fine_step_model(7), random_model(np.random.default_rng(3000))):
            first(m)
            assert calls
            calls.clear()
            for check in (then, first, then):
                check(m)
            assert calls == []
            with pytest.raises(ValueError):
                m._grouping.means[0, 0] = 0.0


def test_bad_values_raise_when_their_block_is_full():
    m = fine_step_model(7)
    rows = block_rows(m.n_states)
    assert 1 < rows < len(observations(m)[0]) - rows
    exact = posterior_sampler(m)
    for make_bad in (
        lambda t: 2.0 * t,  # sum off 1
        lambda t: np.full(m.n_states, np.nan),  # NaN
    ):
        for check in (posterior_sampler_checks, fm_identity_check):
            calls = []

            def sampler(ys):
                calls.append(len(ys))
                tables = exact(ys)
                if len(calls) == 2:  # the last table of the second block
                    tables[-1] = make_bad(tables[-1])
                return tables

            with pytest.raises(MalformedSampler, match="probability distribution"):
                check(m, sampler)
            assert calls == [rows, rows]


def test_wrong_shape_block_raises_before_any_value_check():
    m = fine_step_model(7)
    rows = block_rows(m.n_states)
    exact = posterior_sampler(m)
    for reshape in (
        lambda t: t[:, :-1],  # tables one state short
        lambda t: t[:-1],  # one table short
        lambda t: t[0],  # one table, not a block
        lambda t: t.T,  # as many values, transposed
    ):
        for check in (posterior_sampler_checks, fm_identity_check):
            calls = []

            def sampler(ys):
                calls.append(len(ys))
                tables = exact(ys)
                # NaN values as well: the shape is what must be reported
                return np.full_like(reshape(tables), np.nan) if len(calls) == 2 else tables

            with pytest.raises(MalformedSampler, match="table block"):
                check(m, sampler)
            assert calls == [rows, rows]


def test_checks_read_the_samplers_own_blocks_in_place():
    m = fine_step_model(7)
    exact = posterior_sampler(m)
    returned = []

    def sampler(ys):
        returned.append(exact(ys))
        return returned[-1]

    blocks = 0
    for _, block in _table_blocks(m, sampler):
        assert block is returned[-1]  # no copy of a writable float64 block
        blocks += 1
    assert blocks == len(returned) > 1


def _read_only(a):
    a.setflags(write=False)
    return a


def test_read_only_and_fortran_blocks_get_the_stacked_blocks_report():
    # a read-only block, a view or one of its own, is copied before the
    # checks zero its inside entries, and a Fortran-ordered one before they
    # sum its rows, which would add them in another order
    for m in (uniform_model(2, 4, [2.0, 2.0]), fine_step_model(7)):
        stacked = block_sampler(lambda y: m.prior)
        want = posterior_sampler_checks(m, stacked), fm_identity_check(m, stacked)
        for sampler in (
            lambda ys: np.broadcast_to(m.prior, (len(ys), m.n_states)),
            lambda ys: _read_only(stacked(ys)),
            lambda ys: np.asfortranarray(stacked(ys)),
        ):
            assert (posterior_sampler_checks(m, sampler), fm_identity_check(m, sampler)) == want


def test_views_of_a_samplers_table_stay_unchanged():
    m = fine_step_model(7)
    ys = observations(m)[0]
    table = posterior_sampler(m)(ys)  # every observation's table, kept by the sampler
    before = table.copy()
    row_of = {tuple(y): r for r, y in enumerate(ys.tolist())}

    def sampler(block_ys):
        assert np.array_equal(table, before)  # as the earlier blocks left it
        r0 = row_of[tuple(block_ys[0].tolist())]
        return table[r0 : r0 + len(block_ys)]

    rep = posterior_sampler_checks(m, sampler)
    fm = fm_identity_check(m, sampler)
    assert np.array_equal(table, before)
    assert rep == posterior_sampler_checks(m, posterior_sampler(m))
    assert fm == fm_identity_check(m)


def test_sampler_unreachable_y_propagates():
    m = uniform_model(2, 4, [2.0, 2.0])

    def sampler(ys):
        raise UnreachableY("no")

    for check in (posterior_sampler_checks, fm_identity_check):
        with pytest.raises(UnreachableY):
            check(m, sampler)


# --- one live block; validation from the checks' own passes -----------------


def coarse_4096_model():
    """The 4096-state coarse-step model of the parity digests: 197
    observations, 16 tables per block."""
    return coarse_step_model(6, 4, (1.8, 2.16, 2.52, 2.88, 3.24, 3.6), 41)


def test_no_block_is_alive_while_the_sampler_fills_the_next():
    m = fine_step_model(7)  # 1024 observations, 64 per block
    exact = posterior_sampler(m)
    for check in (posterior_sampler_checks, fm_identity_check):
        returned = []

        def sampler(ys):
            assert not returned or returned[-1]() is None, "the previous block is still alive"
            block = exact(ys)
            returned.append(weakref.ref(block))
            return block

        check(m, sampler)
        assert len(returned) == len(block_sizes(m)) == 16


def test_checks_peak_at_one_block():
    m = coarse_4096_model()
    block_bytes = block_rows(m.n_states) * m.n_states * 8
    assert block_bytes == 512 * 1024
    sampler = posterior_sampler(m)
    posterior_sampler_checks(m, sampler)  # the grouping and lookup keys, kept on the model
    # one block, and the call's O(states) arrays; one block alive reads 681
    # KiB, two read 1182 KiB
    assert traced_peak(lambda: posterior_sampler_checks(m, sampler)) < block_bytes + 256 * 1024
    # one block, the signals with their column of ones, and the rest; one
    # block alive reads 774 KiB, two read 1286 KiB
    signals_bytes = m.n_states * (m.length + 1) * 8
    assert traced_peak(lambda: fm_identity_check(m, sampler)) < block_bytes + signals_bytes + 64 * 1024


def _spoil_table(m, row, spoil):
    """The exact sampler, with ``spoil(table, states)`` applied to the table
    of observation ``row``, ``states`` being that observation's own states.
    The sampler keeps every block it returns, and a copy of it as returned."""
    _, _, index = observations(m)
    exact = posterior_sampler(m)
    rows = block_rows(m.n_states)
    kept, as_returned = [], []

    def sampler(ys):
        tables = exact(ys)
        if len(kept) == row // rows:
            spoil(tables[row % rows], np.flatnonzero(index == row))
        kept.append(tables)
        as_returned.append(tables.copy())
        return tables

    return sampler, kept, as_returned


def _negative_inside(table, states):
    # the sum stays 1: one state of the table's own observation loses 1, another gains it
    table[states[0]] -= 1.0
    table[states[1]] += 1.0


def _nan_inside(table, states):
    table[states[0]] = np.nan


@pytest.mark.parametrize("spoil", [_negative_inside, _nan_inside], ids=["negative", "nan"])
def test_bad_entries_on_a_tables_own_states_raise(spoil):
    # the posterior checks zero these entries before they take the block's
    # min, so they are validated from the gathered entries
    m = coarse_4096_model()
    ys, _, index = observations(m)
    rows = block_rows(m.n_states)
    row = 2 * rows + 3  # inside the third block
    assert np.count_nonzero(index == row) >= 2
    for check in (posterior_sampler_checks, fm_identity_check):
        sampler, kept, as_returned = _spoil_table(m, row, spoil)
        with pytest.raises(MalformedSampler, match=re.escape(f"observation {ys[row].tolist()} ")):
            check(m, sampler)
        assert len(kept) == 3  # raised when its block was full
        # the checks read the block in place, and give it back as it came
        assert all(a.tobytes() == b.tobytes() for a, b in zip(kept, as_returned))


def test_malformed_sampler_names_the_first_bad_table():
    m = fine_step_model(7)
    ys = observations(m)[0]
    rows = block_rows(m.n_states)
    exact = posterior_sampler(m)
    sum_off, nan = (lambda t: 2.0 * t), (lambda t: np.full_like(t, np.nan))
    for first, second in ((sum_off, nan), (nan, sum_off)):
        for check in (posterior_sampler_checks, fm_identity_check):
            calls = []

            def sampler(block_ys):
                calls.append(len(block_ys))
                tables = exact(block_ys)
                if len(calls) == 2:  # tables 5 and 9 of the second block
                    tables[5], tables[9] = first(tables[5]), second(tables[9])
                return tables

            with pytest.raises(MalformedSampler, match=re.escape(f"for observation {ys[rows + 5].tolist()} is not")):
                check(m, sampler)
            assert calls == [rows, rows]
