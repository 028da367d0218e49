"""Finite content domains, datasets, distributions, and total-variation tools.

All types are immutable values after construction and safe to share across
threads. Randomized helpers take explicit integer seeds; nothing touches
global RNG state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DomainMismatch,
    DomainTooLarge,
    EmptyList,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
)

# Normalization is checked to 1e-9 at construction; exact-arithmetic style
# identities (event-form equivalences and the like) are asserted to 1e-12.
NORMALIZATION_ATOL = 1e-9
EVENT_ENUM_MAX = 20


@dataclass(frozen=True)
class ContentDomain:
    """Ordered set of distinct content identifiers (opaque strings)."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) == 0:
            raise ValueError("a content domain needs at least one symbol")
        index = {s: i for i, s in enumerate(self.symbols)}
        if len(index) != len(self.symbols):
            raise ValueError("domain symbols must be distinct")
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self._index

    def index_of(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise DomainMismatch(f"symbol {symbol!r} is not in the domain") from None

    def to_json_obj(self) -> dict:
        return {"symbols": list(self.symbols)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ContentDomain":
        return cls(tuple(obj["symbols"]))


class DiscreteDistribution:
    """Probability vector over a finite content domain.

    Weights must be non-negative and sum to one within NORMALIZATION_ATOL;
    construction rejects anything else. Zero-probability symbols are kept in
    the vector so indices stay aligned across the package.
    """

    __slots__ = ("domain", "weights")

    def __init__(self, domain: ContentDomain, weights):
        w = np.asarray(weights, dtype=np.float64)
        _check_probability_rows(w, (domain.size,))
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "weights", w)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteDistribution is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(
            self.weights, other.weights
        )

    def __hash__(self):
        return hash((self.domain, self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"DiscreteDistribution({np.round(self.weights, 6).tolist()})"

    def prob(self, symbol: str) -> float:
        return float(self.weights[self.domain.index_of(symbol)])

    def support_indices(self) -> np.ndarray:
        return np.flatnonzero(self.weights > 0)

    def to_json_obj(self) -> dict:
        return {
            "symbols": list(self.domain.symbols),
            "weights": [float(x) for x in self.weights],
        }

    @classmethod
    def from_json_obj(
        cls, obj: dict, domain: ContentDomain | None = None
    ) -> "DiscreteDistribution":
        file_domain = ContentDomain(tuple(obj["symbols"]))
        if domain is not None and domain != file_domain:
            raise DomainMismatch("distribution symbols do not match the domain")
        return cls(domain or file_domain, obj["weights"])


def _check_probability_rows(w: np.ndarray, shape: tuple[int, ...]) -> None:
    """Raise unless `w` has `shape` and each row along its last axis is a
    probability vector: finite, non-negative, summing to one within
    NORMALIZATION_ATOL.

    The one home of the distribution rule, for a single weight vector and
    for a (k, |Z|) matrix of shard models validated in one pass.
    """
    if w.shape != shape:
        raise LengthMismatch(f"expected weights of shape {shape}, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise NegativeWeight("weights must be finite")
    if (w < 0).any():
        at = np.unravel_index(int(np.argmin(w)), w.shape)
        raise NegativeWeight(
            f"negative weight at index {', '.join(str(int(i)) for i in at)}"
        )
    totals = w.sum(axis=-1)
    off = np.abs(totals - 1.0) > NORMALIZATION_ATOL
    if off.any():
        total = float(np.atleast_1d(totals)[np.atleast_1d(off)][0])
        raise NotNormalized(f"weights sum to {total!r}, not 1")


def make_distribution(domain: ContentDomain, weights) -> DiscreteDistribution:
    """Validated constructor for a distribution over `domain`."""
    return DiscreteDistribution(domain, weights)


class Dataset:
    """Multiset of domain symbols, kept in input order.

    Internally stored as an index array; `items` materializes the symbols.
    """

    __slots__ = ("domain", "indices")

    def __init__(self, domain: ContentDomain, items: Iterable[str]):
        idx = np.fromiter(
            (domain.index_of(s) for s in items), dtype=np.int64
        )
        idx.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_indices(cls, domain: ContentDomain, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= domain.size):
            raise DomainMismatch("index out of domain range")
        ds = object.__new__(cls)
        idx = idx.copy()
        idx.flags.writeable = False
        object.__setattr__(ds, "domain", domain)
        object.__setattr__(ds, "indices", idx)
        return ds

    def __setattr__(self, name, value):
        raise AttributeError("Dataset is immutable")

    @property
    def items(self) -> tuple[str, ...]:
        symbols = self.domain.symbols
        return tuple(symbols[i] for i in self.indices)

    @property
    def size(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.domain == other.domain and np.array_equal(
            self.indices, other.indices
        )

    def __hash__(self):
        return hash((self.domain, self.indices.tobytes()))

    def __repr__(self) -> str:
        return f"Dataset(size={self.size}, domain=|{self.domain.size}|)"

    def counts(self) -> np.ndarray:
        """Occurrence count per domain index."""
        return np.bincount(self.indices, minlength=self.domain.size)

    def slice(self, start: int, stop: int) -> "Dataset":
        return Dataset.from_indices(self.domain, self.indices[start:stop])


@dataclass(frozen=True)
class Event:
    """Subset of the domain, encoded as a bitmask (bit i = symbol i)."""

    domain: ContentDomain
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.domain.size):
            raise ValueError("event mask out of range for the domain")

    @classmethod
    def from_symbols(cls, domain: ContentDomain, symbols: Iterable[str]) -> "Event":
        mask = 0
        for s in symbols:
            mask |= 1 << domain.index_of(s)
        return cls(domain, mask)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(
            s for i, s in enumerate(self.domain.symbols) if self.mask >> i & 1
        )

    def __contains__(self, symbol: str) -> bool:
        return bool(self.mask >> self.domain.index_of(symbol) & 1)

    def indicator(self) -> np.ndarray:
        return np.array(
            [bool(self.mask >> i & 1) for i in range(self.domain.size)]
        )

    def probability(self, q: DiscreteDistribution) -> float:
        if q.domain != self.domain:
            raise DomainMismatch("event and distribution domains differ")
        return float(q.weights[self.indicator()].sum())


def _require_same_domain(a, b) -> None:
    # The identity test skips the field-by-field compare when operands share
    # one domain object, the common case; equal copies still pass.
    if a.domain is not b.domain and a.domain != b.domain:
        raise DomainMismatch("operands live on different content domains")


def tv_distance(q1: DiscreteDistribution, q2: DiscreteDistribution) -> float:
    """Total variation distance, (1/2) * sum_z |q1(z) - q2(z)|."""
    _require_same_domain(q1, q2)
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    return 0.5 * float(np.add.reduce(np.abs(q1.weights - q2.weights)))


def _all_event_gaps(diff: np.ndarray) -> np.ndarray:
    """Sum of `diff` over every subset; entry m is the subset with bitmask m.

    Doubling construction: after processing symbol j, the array holds all
    2^(j+1) subset sums of the first j+1 coordinates.
    """
    sums = np.zeros(1)
    for d in diff:
        sums = np.concatenate([sums, sums + d])
    return sums


def _max_event(domain: ContentDomain, diff: np.ndarray) -> tuple[float, Event]:
    """Max over all events E of sum_{z in E} diff(z), with a maximizer.

    Enumerates every one of the 2^|Z| events, so it is an oracle for small
    domains only (|Z| <= EVENT_ENUM_MAX).
    """
    if domain.size > EVENT_ENUM_MAX:
        raise DomainTooLarge(
            f"event enumeration is capped at |Z| <= {EVENT_ENUM_MAX}"
        )
    gaps = _all_event_gaps(diff)
    best = int(np.argmax(gaps))
    return float(gaps[best]), Event(domain, best)


def tv_event_form(
    q1: DiscreteDistribution, q2: DiscreteDistribution
) -> tuple[float, Event]:
    """Brute-force sup over all events of q1(E) - q2(E), with a maximizer."""
    _require_same_domain(q1, q2)
    return _max_event(q1.domain, q1.weights - q2.weights)


def sample_indices(q: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n index samples from q, deterministic given the seed.

    Inverse-CDF sampling with the CDF renormalized by its final value, so
    the 1e-9 construction slack cannot leak probability onto any symbol and
    zero-width bins (zero-probability symbols) are never selected.
    """
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(q.weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def sample(q: DiscreteDistribution, seed: int) -> str:
    """Draw one symbol from q, deterministic given the seed."""
    return q.domain.symbols[int(sample_indices(q, 1, seed)[0])]


def sample_dataset(q: DiscreteDistribution, size: int, seed: int) -> Dataset:
    """Dataset of `size` i.i.d. draws from q."""
    return Dataset.from_indices(q.domain, sample_indices(q, size, seed))


def min_envelope(models: Sequence[DiscreteDistribution]) -> np.ndarray:
    """Pointwise minimum over a family of distributions.

    The result is a non-negative vector whose total mass is generally
    below one; for a pair it equals 1 - tv_distance(q1, q2).
    """
    models = list(models)
    if not models:
        raise EmptyList("min_envelope needs at least one model")
    first = models[0]
    for other in models[1:]:
        _require_same_domain(first, other)
    stacked = np.stack([m.weights for m in models])
    return stacked.min(axis=0)


def load_dataset(path: str | Path, domain: ContentDomain) -> Dataset:
    """Load a dataset from a plain-text file, one symbol per line.

    Blank lines are ignored.
    """
    return Dataset(domain, _line_tokens(Path(path).read_text(encoding="utf-8")))


def _line_tokens(text: str) -> list[str]:
    """One token per non-blank line, surrounding whitespace stripped."""
    return [t for t in (line.strip() for line in text.splitlines()) if t]


def read_distribution(
    path: str | Path, domain: ContentDomain | None = None
) -> DiscreteDistribution:
    """Read a {"symbols": [...], "weights": [...]} JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return DiscreteDistribution.from_json_obj(obj, domain)


def write_distribution(path: str | Path, q: DiscreteDistribution) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(q.to_json_obj(), fh, indent=2)
        fh.write("\n")
