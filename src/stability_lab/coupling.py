"""Shared-randomness coupling of every distribution on a domain.

One tape of i.i.d. unit-rate exponential variates, one per symbol, couples
the whole family of distributions at once: the sample for q is the winner
of the exponential race, argmin_z E_z / q(z). Minima of independent
exponentials give the exact marginal, P(winner = z) = q(z), and two
distributions disagree with probability at most 2*TV / (1 + TV).

Tapes are generated by a counter-based hash (splitmix64 applied twice),
so the tape for any (seed, symbol) cell is addressable directly. That
keeps Monte Carlo runs over millions of fresh tapes cheap and makes the
per-trial convention used by `disagreement_estimate` (tape seed =
root seed + trial index) identical no matter how trials are batched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ContentDomain, DiscreteDistribution
from .errors import DomainMismatch

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1

# Largest block of race cells (tapes x models x symbols) materialized at
# once: 2**17 float64 cells keep each temporary near 1 MB.
_CHUNK_CELLS = 2**17


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wrapping arithmetic).

    `x + _GOLD` is the one allocation; every later step works in place on
    it, so `x` itself is never written.
    """
    z = x + _GOLD
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def _exp_variates(seeds: np.ndarray, size: int) -> np.ndarray:
    """Unit-rate exponential variates, one row per seed, `size` per row.

    Row i, column z is a pure function of (seeds[i], z): the seed is mixed
    into a stream key, the symbol index is folded in, and the resulting 64
    bits become a uniform in (0,1) mapped through -log. Values are strictly
    positive and finite by construction. The float steps run in place on
    one buffer; `seeds` is never written.
    """
    keys = _splitmix64(np.asarray(seeds, dtype=np.uint64))[:, None]
    cells = _splitmix64(keys + np.arange(size, dtype=np.uint64)[None, :])
    cells >>= np.uint64(11)
    u = cells.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.log(u, out=u)
    np.negative(u, out=u)
    return u


@dataclass(frozen=True, eq=False)
class CouplingTape:
    """One realization of the coupling's randomness for a whole domain.

    Fully determined by (domain, seed); independent of any dataset by
    construction (nothing data-dependent enters tape creation).
    """

    domain: ContentDomain
    variates: np.ndarray
    seed: int

    def __post_init__(self):
        v = np.array(self.variates, dtype=np.float64)
        if v.shape != (self.domain.size,):
            raise ValueError("tape needs one variate per domain symbol")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("tape variates must be strictly positive and finite")
        v.flags.writeable = False
        object.__setattr__(self, "variates", v)


def new_tape(domain: ContentDomain, seed: int) -> CouplingTape:
    """Fresh tape of |Z| unit-rate exponentials, deterministic in the seed."""
    variates = _exp_variates(np.array([seed & _U64_MASK], dtype=np.uint64), domain.size)[0]
    return CouplingTape(domain=domain, variates=variates, seed=seed)


def _race(variates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """argmin_z variates[..., z] / weights[..., z], zero weights excluded.

    Broadcasting covers one tape against a (k, |Z|) weight matrix, a
    (n, |Z|) block of tapes against one weight vector, and a (n, 1, |Z|)
    block of tapes against a (k, |Z|) matrix. Weights that are not > 0 are
    replaced by +0.0 before the division, so they give +inf (variates are
    strictly positive and finite) and never win; a -0.0 weight left as it
    is would give -inf and win. Masking the weights rather than the
    quotient does the mask once per weight cell, not once per broadcast
    cell. np.argmin takes the first minimum, which implements the
    lowest-index tie rule.
    """
    with np.errstate(divide="ignore"):
        return np.argmin(variates / np.where(weights > 0, weights, 0.0), axis=-1)


def _tapes_per_block(cells_per_tape: int) -> int:
    """Tapes whose race cells fit in one _CHUNK_CELLS block (at least one)."""
    return max(1, _CHUNK_CELLS // max(1, cells_per_tape))


def _tape_chunks(seed: int, trials: int, size: int):
    """Variates of the tapes seed, seed + 1, ..., seed + trials - 1, in row blocks."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    chunk = _tapes_per_block(size)
    base = np.uint64(seed & _U64_MASK)
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        seeds = base + np.arange(start, start + count, dtype=np.uint64)
        yield _exp_variates(seeds, size)


def coupled_sample_index(tape: CouplingTape, q: DiscreteDistribution) -> int:
    """Index form of coupled_sample."""
    if q.domain != tape.domain:
        raise DomainMismatch("tape and distribution domains differ")
    return int(_race(tape.variates, q.weights))


def coupled_sample(tape: CouplingTape, q: DiscreteDistribution) -> str:
    """Winner of the exponential race on this tape for distribution q.

    Pure function of (tape, q); over fresh tapes the marginal law is
    exactly q. Ties (probability zero in exact arithmetic) go to the
    lowest symbol index.
    """
    return tape.domain.symbols[coupled_sample_index(tape, q)]


def race_matrix(tape: CouplingTape, weight_matrix: np.ndarray) -> np.ndarray:
    """Coupled sample index for each row of a (n_models, |Z|) weight matrix.

    Row i equals coupled_sample_index(tape, q_i); all rows share the one
    tape, which is the point of the coupling.
    """
    if weight_matrix.shape[1] != tape.domain.size:
        raise DomainMismatch("weight matrix width does not match the domain")
    return _race(tape.variates, weight_matrix)


def race_tapes(
    domain: ContentDomain, seeds: Sequence[int], weight_matrix: np.ndarray
) -> np.ndarray:
    """Coupled sample index of every weight row on each seed's tape.

    Returns a (len(seeds), n_models) array whose row j equals
    race_matrix(new_tape(domain, seeds[j]), weight_matrix) bit for bit: the
    tapes are made by the same counter-based hash and raced by the same
    kernel, in blocks of at most _CHUNK_CELLS cells.
    """
    weight_matrix = np.asarray(weight_matrix, dtype=np.float64)
    if weight_matrix.ndim != 2 or weight_matrix.shape[1] != domain.size:
        raise DomainMismatch("weight matrix width does not match the domain")
    keys = np.array([s & _U64_MASK for s in seeds], dtype=np.uint64)
    out = np.empty((keys.size, weight_matrix.shape[0]), dtype=np.intp)
    block = _tapes_per_block(weight_matrix.size)
    for start in range(0, keys.size, block):
        variates = _exp_variates(keys[start : start + block], domain.size)
        out[start : start + block] = _race(variates[:, None, :], weight_matrix)
    return out


def disagreement_estimate(
    q1: DiscreteDistribution, q2: DiscreteDistribution, trials: int, seed: int
) -> float:
    """Fraction of fresh tapes on which q1's and q2's samples differ.

    Trial i uses the tape with seed `seed + i`, so batching the trials
    cannot change the estimate. The expected value is bounded by
    2*TV(q1,q2) / (1 + TV(q1,q2)).
    """
    if q1.domain != q2.domain:
        raise DomainMismatch("coupled distributions must share a domain")
    disagreements = 0
    for variates in _tape_chunks(seed, trials, q1.domain.size):
        x1 = _race(variates, q1.weights)
        x2 = _race(variates, q2.weights)
        disagreements += int(np.count_nonzero(x1 != x2))
    return disagreements / trials


def coupled_marginal_counts(
    q: DiscreteDistribution, trials: int, seed: int
) -> np.ndarray:
    """Histogram of coupled samples over `trials` fresh tapes (seed + i)."""
    size = q.domain.size
    counts = np.zeros(size, dtype=np.int64)
    for variates in _tape_chunks(seed, trials, size):
        counts += np.bincount(_race(variates, q.weights), minlength=size)
    return counts
