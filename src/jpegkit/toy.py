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

Each model groups its states by observation once, on the first check that
needs it, and keeps the grouping on itself as read-only arrays; every later
check, and the exact posterior sampler, reads it.

A sampler is block-shaped: it takes a (k, length) int array of observations
and returns a (k, n_states) array, one distribution table over the states
per observation. The sampler checks keep one block contract. Block
bound: they call the sampler once per block of at most
``block_rows(n_states) = max(1, 2**15 // n_states)`` observations (the
bound :mod:`~jpegkit.image` states once), in row order, so no check holds
an (observations x states) table. Copy rule: they read each block where the
sampler returned it, and copy only one that is not a writable, C-contiguous
float64 array of its own, since they write to it. One block alive: no check
holds block i, or a view of it, while the sampler fills block i + 1. Pass
counts: validation takes no pass of its own, so
:func:`posterior_sampler_checks` reads a block in four dense passes and
:func:`fm_identity_check` in two. A block of the wrong shape raises
:class:`MalformedSampler`, and so does a table that is not a probability
distribution, named by its observation (the first such in its block). The
exact posterior sampler fills a block with one scatter.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dct import dct_matrix
from .errors import MalformedModel, MalformedSampler, UnreachableY
from .image import block_rows, round_half_away_from_zero

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
        # |DCT(x)_i| <= sqrt(length) * max|x|; past 2**53 a coefficient over
        # its step no longer rounds exactly, and past int64 it wraps
        largest = math.sqrt(self.length) * float(np.abs(alphabet.astype(np.float64)).max())
        if steps.min() <= largest / 2.0**53:
            raise ValueError("steps too small: a coefficient over its step could reach 2**53")
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

    @cached_property
    def _grouping(self) -> _Grouping:
        """The states grouped by observation, computed on first use and kept."""
        return _group(self)

    @cached_property
    def _row_keys(self) -> np.ndarray:
        """Sorted, read-only lookup keys of the grouping's observations, kept
        apart so that the checks, which never look one up, do not pay for them."""
        keys = _observation_keys(self._grouping.ys)
        keys.setflags(write=False)
        return keys


def alphabet_for_size(a: int) -> np.ndarray:
    """Level-shifted integer alphabet: 0..a-1 minus a//2."""
    return np.arange(a, dtype=np.int64) - a // 2


def random_model(rng: np.random.Generator) -> ToyModel:
    """Random prior and steps; steps mix coarse and fine so observations
    range from fully merged to injective."""
    length = int(rng.integers(1, 5))  # at most 4 positions
    a = int(rng.integers(2, 5))  # of at most 4 levels
    raw = np.exp(rng.normal(0.0, 1.0, a**length))
    prior = raw / raw.sum()
    steps = np.exp(rng.uniform(np.log(0.3), np.log(6.0), length))
    if rng.random() < 0.25:
        steps[rng.integers(0, length)] = float(rng.integers(1, 4))  # tie-prone
    return ToyModel(length, alphabet_for_size(a), prior, steps)


def observations(model: ToyModel):
    """Reachable observations (positive pushforward mass) and their
    probabilities: (ys, probs, index), where ys has one row per reachable
    observation, in lexicographic order, and index maps each state to its
    observation's row, or -1 when that observation carries no prior mass.
    The arrays are the model's cached grouping, read-only."""
    g = model._grouping
    return g.ys, g.probs, g.index


@dataclass(frozen=True)
class _Grouping:
    """A model's states grouped by observation (see :func:`_group`); every
    array is read-only."""

    ys: np.ndarray  # (n_obs, length) reachable observations, lexicographic
    probs: np.ndarray  # (n_obs,) their pushforward masses
    index: np.ndarray  # (n_states,) each state's row in ys, or -1
    weights: np.ndarray  # (n_states,) p(x | y(x))
    order: np.ndarray  # the states with index >= 0, stably sorted by row
    starts: np.ndarray  # (n_obs + 1,) where each row's states begin in order


def _group(model: ToyModel) -> _Grouping:
    """Group the states by observation: one degradation, one lexsort.

    The rows come out in the order, and with the masses, that
    ``np.unique(axis=0)`` over the degraded states would give them.
    """
    d = model.degrade_all()
    n = len(d)
    order = np.lexsort(d.T[::-1])  # column 0 is the primary key; stable
    d = d[order]
    first = np.ones(n, dtype=bool)  # each sorted row that differs from the one before
    np.any(d[1:] != d[:-1], axis=1, out=first[1:])
    group = np.empty(n, dtype=np.int64)
    group[order] = np.cumsum(first) - 1
    probs_all = np.zeros(int(first.sum()))
    np.add.at(probs_all, group, model.prior)
    keep = probs_all > 0.0
    remap = np.full(len(probs_all), -1, dtype=np.int64)
    remap[keep] = np.arange(int(keep.sum()))
    ys, probs, index = d[first][keep], probs_all[keep], remap[group]
    order = order[index[order] >= 0]
    g = _Grouping(
        ys=ys,
        probs=probs,
        index=index,
        weights=model.prior / probs[index],  # 0 where index is -1: no prior there
        order=order,
        starts=np.searchsorted(index[order], np.arange(len(ys) + 1)),
    )
    for arr in vars(g).values():
        arr.setflags(write=False)
    return g


_SIGN_BIT = np.int64(-(2**63))


def _observation_keys(ys: np.ndarray) -> np.ndarray:
    """One opaque key per row of a (k, length) int64 array, ordered as the
    rows are lexicographically: each value with its sign bit flipped, stored
    big-endian, so keys compare byte by byte as the rows compare value by
    value."""
    return (ys ^ _SIGN_BIT).astype(">i8").view(f"V{8 * ys.shape[1]}")[:, 0]


def _rows_of(model: ToyModel, ys) -> np.ndarray:
    """The grouping row of each observation of a (k, length) int array, by one
    binary search over the model's keys; the first observation that no state
    with prior mass reaches raises :class:`UnreachableY`, which names it."""
    ys = np.asarray(ys, dtype=np.int64)
    if ys.ndim != 2 or ys.shape[1] != model.length:
        raise ValueError(f"observations must be a (k, {model.length}) array")
    keys, wanted = model._row_keys, _observation_keys(ys)
    rows = keys.searchsorted(wanted)
    found = keys.take(rows, mode="clip") == wanted
    if not found.all():
        raise UnreachableY(f"no signal maps to {ys[np.argmin(found)].tolist()}")
    return rows


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

    Cost: the model's cached grouping and one O(states * length) pass that
    yields every conditional mean.
    """
    g = model._grouping
    means = _conditional_means(model, g.weights, g.index, len(g.ys))
    return float(np.abs(model.transform(means) - g.ys).max())


@dataclass(frozen=True)
class SamplerReport:
    """Outcome of checking a conditional sampler against the model."""

    inconsistent_mass: float
    marginal_tv: float
    max_posterior_gap: float


def _table_blocks(model: ToyModel, sampler):
    """Yield (first row, block) for each block of reachable observations,
    the block's tables as its rows, under the block contract of the module
    docstring; the checks validate the values. :class:`UnreachableY` from
    the sampler propagates."""
    n = model.n_states
    ys = model._grouping.ys
    size = block_rows(n)
    for r0 in range(0, len(ys), size):
        k = min(size, len(ys) - r0)
        block = np.asarray(sampler(ys[r0 : r0 + k]), np.float64, order="C")
        if not (block.flags.writeable and block.flags.owndata):
            block = block.copy()
        if block.shape != (k, n):
            raise MalformedSampler(f"sampler must return a {(k, n)} table block, not {block.shape}")
        yield r0, block
        del block


def _not_a_distribution(ys: np.ndarray, block: np.ndarray, sums: np.ndarray) -> MalformedSampler:
    """The error for a block that failed validation, naming the observation
    of its first table with a negative or NaN entry or a sum off 1; ``ys``
    and ``sums`` are the block's observations and row sums."""
    ok = (block.min(axis=1) >= -ATOL) & (np.abs(sums - 1.0) <= 1e-9)
    y = ys[int(np.argmin(ok))].tolist()
    return MalformedSampler(f"sampler table for observation {y} is not a probability distribution")


def posterior_sampler_checks(model: ToyModel, sampler) -> SamplerReport:
    """Evaluate a block sampler ((k, length) observations -> (k, n_states)
    distribution tables) on the two conditions that jointly force it to
    equal the posterior: zero mass on inconsistent states, and a sample
    marginal equal to the prior.

    Blocks are read under the block contract of the module docstring. A
    table's "inside" entries are those on its own observation's states; the
    rest is its mass outside, read from the block with the inside zeroed.

    Cost: the model's cached grouping, a few O(states) arrays per call,
    then one sampler call and the block passes per block of tables.
    """
    g = model._grouping
    n = model.n_states
    # flat positions in their blocks: a block's first row is a multiple of the block size
    inside_at = g.index[g.order] % block_rows(n) * n + g.order
    inside_weights = g.weights[g.order]
    ones = np.ones(n)
    marginal = np.zeros(n)
    inconsistent = max_gap = 0.0
    for r0, block in _table_blocks(model, sampler):
        r1 = r0 + len(block)
        s0, s1 = g.starts[r0], g.starts[r1]
        at = inside_at[s0:s1]
        inside = block.take(at)
        block.put(at, 0.0)  # the block now holds the mass outside
        lo, hi, outside = block.min(), block.max(), block @ ones
        block.put(at, inside)
        sums = outside + np.add.reduceat(inside, g.starts[r0:r1] - s0)
        if not (lo >= -ATOL and inside.min() >= -ATOL and np.abs(sums - 1.0).max() <= 1e-9):
            raise _not_a_distribution(g.ys[r0:r1], block, sums)
        py = g.probs[r0:r1]
        inconsistent += float(py @ outside)
        gap_inside = np.abs(inside - inside_weights[s0:s1]).max()
        max_gap = max(max_gap, float(hi), float(-lo), float(gap_inside))
        marginal += py @ block
        del block  # before the sampler fills the next one
    tv = 0.5 * float(np.abs(marginal - model.prior).sum())
    return SamplerReport(inconsistent, tv, max_gap)


def posterior_sampler(model: ToyModel):
    """The exact posterior as a block sampler: a (k, length) int array of
    observations in, their (k, n_states) posterior tables out.

    A call costs one binary search per observation over the model's
    cached lookup keys and one scatter of the posterior weights into a zero
    block, O(states) per observation. An observation that no state with
    prior mass reaches raises :class:`UnreachableY`, which names it.
    """
    g = model._grouping
    sizes = g.starts[1:] - g.starts[:-1]
    n = model.n_states

    def sampler(ys) -> np.ndarray:
        rows = _rows_of(model, ys)
        counts = sizes[rows]
        # where each row's states sit in g.order, the rows one after another
        ends = counts.cumsum()
        pos = (g.starts[rows] - ends + counts).repeat(counts)
        pos += np.arange(len(pos))
        members = g.order[pos]
        tables = np.zeros((len(rows), n))
        flat = np.arange(0, tables.size, n).repeat(counts)
        flat += members
        tables.reshape(-1)[flat] = g.weights[members]
        return tables

    return sampler


def fm_identity_check(model: ToyModel, sampler=None) -> float:
    """max over reachable y of ||E_sampler[x | y] - E[X | y]||_inf.

    Exactly zero (to float noise) for the enumerated posterior: averaging
    samples of the posterior IS the conditional mean. The sampler, a block
    sampler that is the exact posterior by default, is read under the block
    contract of the module docstring; the product with the signals and a
    column of ones gives each table's mean and its sum together.

    Cost: the model's cached grouping, one O(states * length) pass for
    every conditional mean, then one sampler call and the block passes per
    block of tables.
    """
    g = model._grouping
    if sampler is None:
        sampler = posterior_sampler(model)
    means = _conditional_means(model, g.weights, g.index, len(g.ys))
    length = model.length
    signals = np.ones((model.n_states, length + 1))
    signals[:, :length] = model.signals
    sampled = np.empty((len(g.ys), length + 1))
    for r0, block in _table_blocks(model, sampler):
        out = sampled[r0 : r0 + len(block)]
        np.matmul(block, signals, out=out)
        if not (block.min() >= -ATOL and np.abs(out[:, length] - 1.0).max() <= 1e-9):
            raise _not_a_distribution(g.ys[r0 : r0 + len(block)], block, out[:, length])
        del block  # before the sampler fills the next one
    return float(np.abs(sampled[:, :length] - means).max())


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
