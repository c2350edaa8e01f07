"""Exact finite-space oracle for the consistency and posterior-sampling
guarantees.

A :class:`ToyModel` is a fully enumerable analogue of the codec: signals
are short vectors over a small integer alphabet, the degradation is a 1-D
orthonormal DCT followed by per-coefficient quantization with
half-away-from-zero rounding, and the prior is an explicit table. On this
model the statements that are only approximately checkable on real images
become finite computations:

* the conditional-mean estimate of any reachable observation re-quantizes
  to that observation (its transform lies within half a step per
  coefficient), because the preimage of an observation is a convex box;
* a sampler is the posterior if and only if it is consistent and leaves
  the prior invariant, checkable entry by entry.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .dct import dct_matrix
from .errors import MalformedModel, MalformedSampler, UnreachableY
from .image import round_half_away_from_zero

ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ToyModel:
    """Signal space, prior, and degradation, all explicit.

    Alphabet values are level-shifted integers (k - a//2 for k < a) so
    rounding ties actually occur for suitable step choices.
    """

    length: int
    alphabet: np.ndarray
    prior: np.ndarray
    steps: np.ndarray

    def __post_init__(self):
        if not 1 <= self.length <= 8:
            raise ValueError("signal length must be in [1, 8]")
        alphabet = np.asarray(self.alphabet, dtype=np.int64)
        if not 2 <= alphabet.size <= 8:
            raise ValueError("alphabet size must be in [2, 8]")
        steps = np.asarray(self.steps, dtype=np.float64)
        if steps.shape != (self.length,) or not np.all(np.isfinite(steps)) or np.any(steps <= 0):
            raise ValueError("steps must be finite and positive, one per coefficient")
        prior = np.asarray(self.prior, dtype=np.float64)
        n_states = alphabet.size**self.length
        if prior.shape != (n_states,):
            raise ValueError(f"prior must have {n_states} entries")
        if not np.all(np.isfinite(prior)) or prior.min() < 0 or abs(prior.sum() - 1.0) > ATOL:
            raise ValueError("prior must be a finite probability table")
        for name, val in (("alphabet", alphabet), ("prior", prior), ("steps", steps)):
            val = np.ascontiguousarray(val)
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        signals = np.stack(
            np.meshgrid(*([alphabet] * self.length), indexing="ij"), axis=-1
        ).reshape(-1, self.length)
        signals.setflags(write=False)
        object.__setattr__(self, "_signals", signals)
        basis = dct_matrix(self.length)
        basis.setflags(write=False)
        object.__setattr__(self, "_basis", basis)

    @property
    def signals(self) -> np.ndarray:
        """All states, shape (alphabet**length, length), fixed order."""
        return self._signals

    @property
    def n_states(self) -> int:
        return self._signals.shape[0]

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Unquantized coefficient vector(s): DCT(x) / steps."""
        return (np.asarray(x, dtype=np.float64) @ self._basis.T) / self.steps

    def degrade(self, x: np.ndarray) -> np.ndarray:
        """The deterministic observation: rounded coefficient vector(s)."""
        return round_half_away_from_zero(self.transform(x)).astype(np.int64)

    def degrade_all(self) -> np.ndarray:
        return self.degrade(self._signals)


def alphabet_for_size(a: int) -> np.ndarray:
    """Level-shifted integer alphabet: 0..a-1 minus a//2."""
    return np.arange(a, dtype=np.int64) - a // 2


def uniform_model(length: int, a: int, steps) -> ToyModel:
    alphabet = alphabet_for_size(a)
    n = a**length
    return ToyModel(length, alphabet, np.full(n, 1.0 / n), np.asarray(steps, float))


def random_model(rng: np.random.Generator, max_length: int = 4, max_alphabet: int = 4) -> ToyModel:
    """Random prior and steps; steps mix coarse and fine so observations
    range from fully merged to injective."""
    length = int(rng.integers(1, max_length + 1))
    a = int(rng.integers(2, max_alphabet + 1))
    raw = np.exp(rng.normal(0.0, 1.0, a**length))
    prior = raw / raw.sum()
    steps = np.exp(rng.uniform(np.log(0.3), np.log(6.0), length))
    if rng.random() < 0.25:
        steps[rng.integers(0, length)] = float(rng.integers(1, 4))  # tie-prone
    return ToyModel(length, alphabet_for_size(a), prior, steps)


def observations(model: ToyModel):
    """Reachable observations (positive pushforward mass) and their
    probabilities.

    Returns (ys, probs, index) where ys has one row per reachable
    observation and index maps each state to its observation's row, or -1
    when the state's observation carries no prior mass.
    """
    d = model.degrade_all()
    ys_all, index_all = np.unique(d, axis=0, return_inverse=True)
    probs_all = np.zeros(len(ys_all))
    np.add.at(probs_all, index_all, model.prior)
    keep = probs_all > 0.0
    remap = np.full(len(ys_all), -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    return ys_all[keep], probs_all[keep], remap[index_all]


def enumerate_posterior(model: ToyModel, y) -> np.ndarray:
    """p(x | y) over all states, by direct enumeration."""
    y = np.asarray(y, dtype=np.int64)
    mask = np.all(model.degrade_all() == y, axis=1)
    mass = model.prior * mask
    total = mass.sum()
    if total <= 0.0:
        raise UnreachableY(f"no signal maps to {y.tolist()}")
    return mass / total


def mmse_estimate(model: ToyModel, y) -> np.ndarray:
    """Conditional mean E[X | y]."""
    post = enumerate_posterior(model, y)
    return post @ model.signals.astype(np.float64)


def _posterior_weights(model: ToyModel, probs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """p(x | y(x)) for every state x: its prior over its observation's mass.

    A state whose observation carries no mass has zero prior itself, so
    its weight is 0 whatever ``probs[-1]`` is.
    """
    return model.prior / probs[index]


def _conditional_means(model: ToyModel, weights: np.ndarray, index: np.ndarray, n_obs: int) -> np.ndarray:
    """E[X | y] for every reachable observation, shape (n_obs, length), from
    one pass over the states grouped by ``index``."""
    kept = index >= 0
    rows, w = index[kept], weights[kept]
    signals = model.signals[kept].astype(np.float64)
    return np.stack(
        [np.bincount(rows, weights=w * signals[:, j], minlength=n_obs) for j in range(model.length)],
        axis=1,
    )


def mmse_consistency_deviation(model: ToyModel) -> float:
    """max over reachable y of ||transform(E[X|y]) - y||_inf.

    At most 0.5 (plus float noise): every consistent state's transform
    lies in the half-step box around y and the box is convex.

    Cost: one O(states * length**2) degradation and one O(states) pass that
    yields every conditional mean at once.
    """
    ys, probs, index = observations(model)
    means = _conditional_means(model, _posterior_weights(model, probs, index), index, len(ys))
    return float(np.abs(model.transform(means) - ys).max())


@dataclass(frozen=True)
class SamplerReport:
    """Outcome of checking a conditional sampler against the model."""

    inconsistent_mass: float
    marginal_tv: float
    max_posterior_gap: float


def _validated_table(model: ToyModel, dist) -> np.ndarray:
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != (model.n_states,):
        raise MalformedSampler(f"sampler table must have {model.n_states} entries")
    if dist.min() < -ATOL or abs(dist.sum() - 1.0) > 1e-9:
        raise MalformedSampler("sampler table is not a probability distribution")
    return dist


def posterior_sampler_checks(model: ToyModel, sampler) -> SamplerReport:
    """Evaluate a sampler (y -> distribution table over states) on the two
    conditions that jointly force it to equal the posterior: zero mass on
    inconsistent states, and a sample marginal equal to the prior.

    Cost: one O(states * length**2) degradation, then O(states) per
    observation to read and compare the sampler's table.
    """
    ys, probs, index = observations(model)
    weights = _posterior_weights(model, probs, index)
    marginal = np.zeros(model.n_states)
    inconsistent = 0.0
    max_gap = 0.0
    for row, (y, py) in enumerate(zip(ys, probs)):
        dist = _validated_table(model, sampler(tuple(int(v) for v in y)))
        consistent_mask = index == row  # every state mapping to y, prior-independent
        inconsistent += py * float(dist[~consistent_mask].sum())
        marginal += py * dist
        gap = float(np.abs(dist - np.where(consistent_mask, weights, 0.0)).max())
        max_gap = max(max_gap, gap)
    tv = 0.5 * float(np.abs(marginal - model.prior).sum())
    return SamplerReport(inconsistent, tv, max_gap)


def _sampler_from(ys: np.ndarray, weights: np.ndarray, index: np.ndarray):
    rows = {y: row for row, y in enumerate(map(tuple, ys.tolist()))}

    def sampler(y) -> np.ndarray:
        y = np.asarray(y, dtype=np.int64)
        row = rows.get(tuple(y.reshape(-1).tolist()))
        if row is None:
            raise UnreachableY(f"no signal maps to {y.tolist()}")
        return np.where(index == row, weights, 0.0)

    return sampler


def posterior_sampler(model: ToyModel):
    """The exact posterior as a sampler table function.

    The states are grouped by observation once, here; each call then costs
    O(states).
    """
    ys, probs, index = observations(model)
    return _sampler_from(ys, _posterior_weights(model, probs, index), index)


def fm_identity_check(model: ToyModel, sampler=None) -> float:
    """max over reachable y of ||E_sampler[x | y] - E[X | y]||_inf.

    Exactly zero (to float noise) for the enumerated posterior: averaging
    samples of the posterior IS the conditional mean.

    Cost: one O(states * length**2) degradation and one O(states) pass for
    every conditional mean, then O(states) per observation to read the
    sampler's table.
    """
    ys, probs, index = observations(model)
    weights = _posterior_weights(model, probs, index)
    if sampler is None:
        sampler = _sampler_from(ys, weights, index)
    means = _conditional_means(model, weights, index, len(ys))
    signals = model.signals.astype(np.float64)
    sampled = np.stack(
        [_validated_table(model, sampler(tuple(int(v) for v in y))) @ signals for y in ys]
    )
    return float(np.abs(sampled - means).max())


# --- text fixtures ---------------------------------------------------------


def save_model(model: ToyModel) -> str:
    """Serialize as a small text fixture: length/alphabet-size line, the
    step vector, then the prior table."""
    buf = io.StringIO()
    buf.write(f"{model.length} {model.alphabet.size}\n")
    buf.write(" ".join(repr(float(s)) for s in model.steps) + "\n")
    buf.write(" ".join(repr(float(p)) for p in model.prior) + "\n")
    return buf.getvalue()


def load_model(text: str) -> ToyModel:
    """Parse a :func:`save_model` fixture; malformed text, or a model
    :class:`ToyModel` rejects, raises :class:`MalformedModel`."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    try:
        if len(lines) != 3 or len(lines[0]) != 2:
            raise ValueError("want a 'length alphabet-size' line, a steps line and a prior line")
        length, a = (int(tok) for tok in lines[0])
        if not 2 <= a <= 8:  # before alphabet_for_size allocates a entries
            raise ValueError("alphabet size must be in [2, 8]")
        steps = np.array([float(tok) for tok in lines[1]])
        prior = np.array([float(tok) for tok in lines[2]])
        return ToyModel(length, alphabet_for_size(a), prior, steps)
    except ValueError as exc:
        raise MalformedModel(f"bad model fixture: {exc}") from exc
