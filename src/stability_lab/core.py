"""Finite content domains, datasets, distributions, and total-variation tools.

All types are immutable values after construction and safe to share across
threads. Randomized helpers take explicit integer seeds; nothing touches
global RNG state.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DomainMismatch,
    DomainTooLarge,
    EmptyCorpus,
    EmptyList,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
)
from .util import _seed_key

# Normalization is checked to 1e-9 at construction; exact-arithmetic style
# identities (event-form equivalences and the like) are asserted to 1e-12.
NORMALIZATION_ATOL = 1e-9

_REQUIRED = object()


def _json_field(obj: dict, key: str, default=_REQUIRED):
    """obj[key], or `default` when the key is absent. The one home of the
    missing-key error: an absent key without a default raises ConfigError
    at `key`, "missing required field"."""
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ConfigError(key, "missing required field")
    return default


class _JsonObject(dict):
    """A JSON object as the package's document readers parse it (the
    object_pairs_hook of their json.load): a dict that also keeps
    `repeated`, the keys given more than once, of which a dict keeps only
    the last value."""

    def __init__(self, pairs: list):
        super().__init__(pairs)
        self.repeated = [k for k, n in collections.Counter(k for k, _ in pairs).items() if n > 1]


def _known_fields(obj: dict, known: tuple[str, ...], owner: str) -> None:
    """The one key rule of a JSON object the package reads: a key outside
    `known` raises ConfigError at that key, "unknown field of <owner>; known
    fields: ...", as a misspelled key would otherwise never be read, and a
    key given twice (_JsonObject) raises at that key, "repeated field", as
    only its last value would be read."""
    for key in obj:
        if key not in known:
            raise ConfigError(key, f"unknown field of {owner}; known fields: {', '.join(known)}")
    if repeated := getattr(obj, "repeated", None):
        raise ConfigError(repeated[0], "repeated field")


# JSON kind -> the test of a value of that kind. A number is a JSON integer
# or float, and no number is a bool.
_JSON_KINDS = {
    "a number": lambda raw: isinstance(raw, (int, float)) and not isinstance(raw, bool),
    "an integer": lambda raw: isinstance(raw, int) and not isinstance(raw, bool),
    "a string": lambda raw: isinstance(raw, str),
    "a file path string": lambda raw: isinstance(raw, str),
    "a non-empty list": lambda raw: isinstance(raw, list) and len(raw) > 0,
    "a JSON object": lambda raw: isinstance(raw, dict),
}
# List kind -> the kind of each of its entries.
_ENTRY_KINDS = {"a list of strings": "a string", "a list of numbers": "a number"}

# The most characters of a wrong value's repr that its error echoes; a
# longer repr is cut to this length, its last three characters "...".
_ECHO_CHARS = 80


def _json_value(path: str, raw, kind: str):
    """`raw`, unless it is not a JSON value of `kind` (a key of _JSON_KINDS
    or _ENTRY_KINDS): the one type rule of a JSON document the package
    reads, which raises ConfigError at `path`, "expected <kind>, got
    <raw!r>", the repr cut to _ECHO_CHARS characters. A value of a list
    kind is a list whose first entry of the wrong kind raises at
    "<path>[i]", so the error never echoes the list."""
    entry_kind = _ENTRY_KINDS.get(kind)
    if not (isinstance(raw, list) if entry_kind else _JSON_KINDS[kind](raw)):
        echo = repr(raw)
        if len(echo) > _ECHO_CHARS:
            echo = echo[: _ECHO_CHARS - 3] + "..."
        raise ConfigError(path, f"expected {kind}, got {echo}")
    for i, entry in enumerate(raw if entry_kind else ()):
        if not _JSON_KINDS[entry_kind](entry):
            _json_value(f"{path}[{i}]", entry, entry_kind)  # raises at the entry
    return raw


class _SymbolIndex(dict):
    """symbol -> domain index, the one home of the rule that a symbol outside
    the domain raises DomainMismatch. A hit takes dict's C path; `in` and
    `.get` never call __missing__."""

    __slots__ = ()

    def __missing__(self, symbol):
        raise DomainMismatch(f"symbol {symbol!r} is not in the domain")


def _not_bare(items, name: str):
    """`items`, unless it is a bare str or bytes (TypeError): one is
    iterable, but as characters, not symbols. The one bare-string rule of
    ContentDomain and Dataset."""
    if isinstance(items, (str, bytes)):
        raise TypeError(
            f"{name} must be an iterable of symbols, not a bare {type(items).__name__}"
        )
    return items


@dataclass(frozen=True)
class ContentDomain:
    """Ordered set of distinct content identifiers (opaque strings).

    The symbols are any iterable of strings except a bare str or bytes.
    Either, or a symbol that is not a str, raises TypeError, so every
    domain can be written by write_distribution and read back."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        symbols = tuple(_not_bare(self.symbols, "symbols"))
        if others := [s for s in symbols if not isinstance(s, str)]:
            raise TypeError(f"domain symbols must be strings, got {others[0]!r}")
        object.__setattr__(self, "symbols", symbols)
        if len(self.symbols) == 0:
            raise ValueError("a content domain needs at least one symbol")
        index = _SymbolIndex(zip(self.symbols, range(len(self.symbols))))
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
        return self._index[symbol]

    def to_json_obj(self) -> dict:
        return {"symbols": list(self.symbols)}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ContentDomain":
        """The domain of a {"symbols": [...]} object, which holds no other key
        (_known_fields); "symbols" must be a JSON list of strings
        (_json_value)."""
        _known_fields(obj, ("symbols",), "a domain")
        return cls(tuple(_json_value("symbols", _json_field(obj, "symbols"), "a list of strings")))


class DiscreteDistribution:
    """Probability vector over a finite content domain.

    Weights must be non-negative and sum to one within NORMALIZATION_ATOL;
    construction rejects anything else. Zero-probability symbols are kept in
    the vector so indices stay aligned across the package.
    """

    __slots__ = ("domain", "weights")

    def __init__(self, domain: ContentDomain, weights):
        w = _frozen_row(domain, weights)
        _check_probability_rows(w)
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
        # + 0.0 maps -0.0 to 0.0, so equal weight vectors hash alike.
        return hash((self.domain, (self.weights + 0.0).tobytes()))

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
        """The distribution of a {"symbols": [...], "weights": [...]} object,
        which holds no other key (_known_fields). The symbols are read as
        ContentDomain's, and "weights" must be a JSON list of numbers, not
        bools (_json_value).

        A file whose symbols differ from a given `domain` raises DomainMismatch
        with its own text, "distribution symbols do not match the domain":
        it compares the file's symbols, not an operand's domain or an
        array's width, and the CLI reports it under the field's name."""
        _known_fields(obj, ("symbols", "weights"), "a distribution")
        file_domain = ContentDomain.from_json_obj({"symbols": _json_field(obj, "symbols")})
        weights = _json_value("weights", _json_field(obj, "weights"), "a list of numbers")
        if domain is not None and domain != file_domain:
            raise DomainMismatch("distribution symbols do not match the domain")
        return cls(domain or file_domain, weights)


def _require_shape(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """`array`, unless its shape is not `shape`: the one width rule of an
    array over a domain (one entry per symbol along the last axis), which
    raises LengthMismatch with one text naming both shapes."""
    if array.shape != shape:
        raise LengthMismatch(
            f"an array over the domain needs shape {shape}, got shape {array.shape}"
        )
    return array


def _frozen_row(domain: ContentDomain, values) -> np.ndarray:
    """A read-only float64 copy of `values`, a vector over `domain`
    (_require_shape)."""
    row = _require_shape(np.array(values, dtype=np.float64), (domain.size,))
    row.flags.writeable = False
    return row


def _check_probability_rows(w: np.ndarray) -> None:
    """Raise unless each row of `w` along its last axis is a probability
    vector: finite, non-negative, summing to one within NORMALIZATION_ATOL.

    The one home of the distribution rule, for a single weight vector and
    for a (k, |Z|) matrix of shard models validated in one pass; the
    caller applies the width rule (_require_shape) first.
    """
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
    The constructor takes any iterable of symbols except a bare str or
    bytes (TypeError). The first symbol outside the domain raises
    DomainMismatch, an unhashable item TypeError, and a KeyError that the
    iterable raises itself passes through unchanged.
    """

    __slots__ = ("domain", "indices")

    def __init__(self, domain: ContentDomain, items: Iterable[str]):
        # One C-level dict lookup per token: map and fromiter run no Python
        # frame per item.
        idx = np.fromiter(map(domain._index.__getitem__, _not_bare(items, "items")), np.int64)
        idx.flags.writeable = False
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_indices(cls, domain: ContentDomain, indices) -> "Dataset":
        """Dataset of integer indices into `domain`; a float, bool, string or
        object array raises TypeError, as casting would change its values.
        The dataset keeps its own copy, so the caller's array stays free."""
        return cls._from_owned(domain, np.array(indices))

    @classmethod
    def _from_owned(cls, domain: ContentDomain, idx: np.ndarray) -> "Dataset":
        """from_indices without the copy, for an array that no one else
        holds: an int64 `idx` becomes the dataset's read-only indices."""
        if idx.size and idx.dtype.kind not in "iu":
            raise TypeError(f"indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        if idx.ndim != 1:
            raise ValueError("indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= domain.size):
            raise DomainMismatch("index out of domain range")
        ds = object.__new__(cls)
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
    """Subset of the domain, encoded as a bitmask (bit i = symbol i).

    The mask is stored as operator.index(mask): a float or str raises
    TypeError, a numpy integer becomes an int."""

    domain: ContentDomain
    mask: int

    def __post_init__(self):
        object.__setattr__(self, "mask", operator.index(self.mask))
        if not 0 <= self.mask < (1 << self.domain.size):
            raise ValueError("event mask out of range for the domain")

    @classmethod
    def from_symbols(cls, domain: ContentDomain, symbols: Iterable[str]) -> "Event":
        flags = np.zeros(domain.size, dtype=bool)
        flags[np.fromiter(map(domain.index_of, symbols), np.intp)] = True
        return cls(domain, _flags_mask(flags))

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(itertools.compress(self.domain.symbols, self.indicator().tolist()))

    def __contains__(self, symbol: str) -> bool:
        return bool(self.mask >> self.domain.index_of(symbol) & 1)

    def indicator(self) -> np.ndarray:
        """Boolean vector over the domain, the mask decoded in one pass."""
        size = self.domain.size
        packed = np.frombuffer(self.mask.to_bytes((size + 7) // 8, "little"), np.uint8)
        return np.unpackbits(packed, count=size, bitorder="little").view(bool)

    def probability(self, q: DiscreteDistribution) -> float:
        _require_same_domain(self, q)
        return float(q.weights[self.indicator()].sum())


def _flags_mask(flags: np.ndarray) -> int:
    """The event bitmask of a boolean vector: bit i set where flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _require_count(name: str, value, minimum: int = 1):
    """The one rule for a trial count or size, a scalar or an array: of a
    numpy integer dtype, so a bool (True would run one trial), a float and
    a Python int past the dtypes (2^64 and up: too large) are refused
    alike, and at least `minimum` throughout. A scalar is returned as an
    int, an array as it is."""
    counts = np.asarray(value)
    too_large = counts.dtype == object and isinstance(value, int)
    if counts.dtype.kind not in "iu" and not too_large:
        raise ValueError(f"{name} must be an integer, got {value!r} (bools are not integers here)")
    if (counts < minimum).any():
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
    if too_large:
        raise ValueError(f"{name} must be below 2**64, got {value!r}: too large")
    return operator.index(value) if counts.ndim == 0 else value


def _require_size(what: str, size: int, cap: int) -> None:
    """The one size rule: DomainTooLarge, before anything is built, above the cap."""
    if size > cap:
        raise DomainTooLarge(f"{what}: {size} is above the cap {cap}")


def _require_alpha(name: str, alpha) -> None:
    """The one DP/NAF level rule: a number in [0, ln(DBL_MAX)], the largest
    level whose e^alpha is a finite float (NaN fails)."""
    if not 0 <= alpha <= math.log(sys.float_info.max):
        raise ValueError(
            f"{name} must be a finite number >= 0 whose e^{name} is finite, got {alpha!r}"
        )


def _require_fraction(name: str, value) -> None:
    """The one rule for delta, eta, beta and an output law's tail: a number
    in (0, 1) (NaN fails)."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def _require_nonnegative(name: str, value) -> None:
    """The one rule for the empirical learner's smoothing and prop1's
    margin: a finite number >= 0 (NaN fails)."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")


# The one cell budget. _tapes_per_block sizes every block of the package's
# array work by it: a race's tape block (tapes x |Z| variates, and the
# release chunk of its count rows), tournament group (tapes x k quotients),
# rank group (tapes x k gathered ranks), rank chunk (tapes x E: its rank
# table, quotients and their order) and Monte Carlo step (models x tapes);
# a premise block (rows x max(m, |Z|)); a sampler block of _sample_rows
# (whole rows of draws, or a slice of one longer row); and a shard-count
# block of _row_counts (rows x max(m, |Z|)). It also caps two lookup
# tables, each of which takes the most buckets the budget allows: the
# sampler's bucket table (_search_table, within draws / 16 as well, unless
# 16 |cdf| already passes them) and the rank race's code table
# (coupling._weight_codes, |Z| (B + 1) cells). 2**15 float64 cells are
# 256 KB. The Monte Carlo step of two models x 2**14 tapes timed
# best: the oracle sweep's 55 calls took 0.27-0.31 s there, 0.40-0.44 s at
# 2**15 tapes and 0.42-0.53 s at 2**16 (2 vCPUs). At k = 3170 a tournament
# group races 10 tapes, and a rank chunk of E = 124 pairs 33 groups of 8.
_CELL_BUDGET = 2**15


def _tapes_per_block(cells_per_tape: int) -> int:
    """Tapes (or rows) whose cells fit in one _CELL_BUDGET block (at least one)."""
    return max(1, _CELL_BUDGET // cells_per_tape)


def _row_counts(indices: np.ndarray, size: int) -> np.ndarray:
    """(n, size) symbol counts of each row of an (n, m) index matrix.

    The rows are counted in blocks of _tapes_per_block(max(m, size)) whole
    rows, so a block's offset cells and counts fit the cell budget: one
    bincount of the block's cells, row r's indices offset by r * size.
    """
    n, m = indices.shape
    counts = np.empty((n, size), np.intp)
    block = _tapes_per_block(max(m, size))
    for start in range(0, n, block):
        rows = indices[start : start + block]
        cells = np.arange(0, len(rows) * size, size, dtype=np.intp)[:, None] + rows
        counts[start : start + len(rows)] = np.bincount(
            cells.ravel(), minlength=len(rows) * size
        ).reshape(len(rows), size)
    return counts


def _require_domain(domain: ContentDomain, operand) -> None:
    # The identity test skips the field-by-field compare when operands share
    # one domain object, the common case; equal copies still pass.
    if domain is not operand.domain and domain != operand.domain:
        raise DomainMismatch("operands live on different content domains")


def _require_same_domain(a, b) -> None:
    _require_domain(a.domain, b)


def _tv_rows(a: np.ndarray, b: np.ndarray):
    """Total variation distance of each last-axis row of a and b."""
    # np.add.reduce is what ndarray.sum calls, without its Python wrapper.
    return 0.5 * np.add.reduce(np.abs(a - b), axis=-1)


def tv_distance(q1: DiscreteDistribution, q2: DiscreteDistribution) -> float:
    """Total variation distance, (1/2) * sum_z |q1(z) - q2(z)|."""
    _require_same_domain(q1, q2)
    return float(_tv_rows(q1.weights, q2.weights))


def _max_event(domain: ContentDomain, diff: np.ndarray) -> tuple[float, Event]:
    """Max over all events E of sum_{z in E} diff(z), with a maximizer.

    The maximizer is E+ = {z : diff(z) > 0}, and the value is the sum of
    diff over E+ added left to right from 0.0 in index order, in O(|Z|).
    That is the same float as the largest in-index-order sum over all 2^|Z|
    events: correctly rounded addition is monotone, so adding a positive
    term or dropping a non-positive one never lowers a later partial sum.
    A term too small to move the running sum leaves the value unchanged, so
    other events can tie with E+ (one without such a positive term, say);
    E+ is the one returned.
    """
    positive = diff > 0
    # accumulate adds in order from the leading 0.0; .sum() would add pairwise.
    value = float(np.add.accumulate(np.r_[0.0, diff[positive]])[-1])
    return value, Event(domain, _flags_mask(positive))


def tv_event_form(
    q1: DiscreteDistribution, q2: DiscreteDistribution
) -> tuple[float, Event]:
    """sup over all events of q1(E) - q2(E), the TV distance, with the
    maximizer E+ = {z : q1(z) > q2(z)} (_max_event)."""
    _require_same_domain(q1, q2)
    return _max_event(q1.domain, q1.weights - q2.weights)


def _mixed_buckets(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """The buckets [b/B, (b+1)/B) of `buckets` B, a power of two, that hold a
    value c < 1 of `cdf` strictly inside: c * B is exact, so that bucket is
    floor(c * B), taken where c * B is not an integer."""
    scaled = cdf * buckets
    bucket = np.floor(scaled)
    return bucket[(bucket != scaled) & (scaled < buckets)].astype(np.intp)


def _bucket_table(cdf: np.ndarray, buckets: int) -> np.ndarray:
    """Guide table of a non-decreasing `cdf` over `buckets` buckets, a power
    of two: entry b is #{cdf <= b/B}, or -1 where a cdf value lies strictly
    inside [b/B, (b+1)/B).

    For u in bucket b, #{cdf <= b/B} <= #{cdf <= u} <= #{cdf < (b+1)/B}, so
    where the two counts agree every draw of the bucket has that index.
    They differ exactly in the buckets of _mixed_buckets.
    """
    edges = np.arange(buckets, dtype=np.float64)
    edges /= buckets
    table = np.searchsorted(cdf, edges, side="right")
    del edges
    table[_mixed_buckets(cdf, buckets)] = -1
    return table


def _search_table(cdf: np.ndarray, draws: int) -> np.ndarray | None:
    """The bucket table that _search_cdf reads for a call of `draws` draws
    over `cdf`, or None when the draws are at most the smallest power of
    two >= 16|cdf|: the table would cost more than it saves. The call's
    total draw count chooses, never the size of one block.

    B is that many buckets, or, if more, the largest power of two within
    both _CELL_BUDGET and draws / 16, so the table's build and cache
    footprint stay small next to the draws. B depends on |cdf| and the
    draws alone. Each doubling halves a draw's chance 1/B of landing in a
    given mixed bucket (_mixed_buckets), whose draws fall through to a
    binary search. The table is exact at every B (_bucket_table), so B
    moves only the time.
    """
    first = 1 << (16 * cdf.size - 1).bit_length()
    if draws <= first:
        return None
    buckets = max(first, 1 << (min(_CELL_BUDGET, draws // 16).bit_length() - 1))
    return _bucket_table(cdf, buckets)


def _search_cdf(
    cdf: np.ndarray, u: np.ndarray, table: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """np.searchsorted(cdf, u, side="right") written into the int64 `out`,
    for a non-decreasing `cdf` and draws `u` in [0, 1).

    With a bucket table of B buckets (_search_table; Chen & Asau 1974) each
    draw is resolved in the table: u * B only shifts u's exponent, so the
    truncating cast gives its bucket exactly, and only draws whose bucket
    holds a cdf value, at most |cdf| - 1 of the B buckets, are searched.
    """
    if table is None:
        out[...] = np.searchsorted(cdf, u, side="right")
        return out
    # Buckets go straight into `out`, then map through the table in place
    # (take reads each index before it writes that slot).
    np.multiply(u, table.size, out=out, casting="unsafe")
    np.take(table, out, out=out, mode="clip")
    miss = np.flatnonzero(out < 0)
    out[miss] = np.searchsorted(cdf, u[miss], side="right")
    return out


def sample_indices(q: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    """Draw n index samples from q, deterministic given the seed: the one
    row of _sample_rows(q, n, [seed])."""
    return _sample_rows(q, n, [seed])[0]


def _sample_rows(q: DiscreteDistribution, size: int, seeds: Sequence[int]) -> np.ndarray:
    """(len(seeds), size) index samples from q, row i from seeds[i]: the
    one seeded sampler.

    Inverse-CDF sampling with the CDF renormalized by its final value, so
    the 1e-9 construction slack cannot leak probability onto any symbol and
    zero-width bins (zero-probability symbols) are never selected. Row i is
    #{cdf <= u} for each u of default_rng(key).random(size), where key is
    util._seed_key(seeds[i]): a seed is read mod 2**64, as every seed is.

    The draws go through one buffer of at most _CELL_BUDGET doubles, reused
    block by block: a block holds _tapes_per_block(size) whole rows, each
    drawn from its own seed's Generator, or, for a row longer than the
    buffer, one slice of that row, its Generator going on where the last
    slice stopped (consecutive random(out=...) blocks are the one-call
    stream). Each block is mapped by _search_cdf straight into its span of
    the int64 result, with the one bucket table that _search_table chooses
    for the whole call, built at most once; the table gives the same result
    as a binary search. A size that _require_count refuses (below 0) raises
    its ValueError before any draw.
    """
    size = _require_count("size", size, 0)
    cdf = np.cumsum(q.weights)
    cdf /= cdf[-1]
    out = np.empty(len(seeds) * size, np.int64)
    table = _search_table(cdf, out.size)
    rows = _tapes_per_block(max(size, 1))
    width = min(size, _CELL_BUDGET) or 1  # draws of one row in one block
    buffer = np.empty(min(out.size, rows * width))
    done = 0
    for first in range(0, len(seeds), rows):
        chunk = seeds[first : first + rows]
        # A whole row's Generator is made as the row is drawn and dropped
        # after it; only a row cut into slices keeps its one Generator.
        generators = (np.random.default_rng(_seed_key(s)) for s in chunk)
        if size > width:
            generators = list(generators)
        for column in range(0, size, width):
            block = buffer[: len(chunk) * min(width, size - column)]
            for generator, row in zip(generators, block.reshape(len(chunk), -1)):
                generator.random(out=row)
            _search_cdf(cdf, block, table, out[done : done + block.size])
            done += block.size
    return out.reshape(len(seeds), size)


def sample(q: DiscreteDistribution, seed: int) -> str:
    """Draw one symbol from q, deterministic given the seed."""
    return q.domain.symbols[int(sample_indices(q, 1, seed)[0])]


def sample_dataset(q: DiscreteDistribution, size: int, seed: int) -> Dataset:
    """Dataset of `size` i.i.d. draws from q: the indices of
    sample_indices(q, size, seed), taken over without a copy."""
    return Dataset._from_owned(q.domain, sample_indices(q, size, seed))


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

    Blank lines are ignored, and so is a leading UTF-8 byte-order mark. The
    first line outside `domain`, in file order, raises DomainMismatch.
    """
    return _index_corpus(path, "line", domain)


# Corpus text is indexed in chunks of at least this many characters, so the
# strings of one chunk's tokens are all that is held at once.
_CORPUS_CHUNK_CHARS = 2**18

_SPLITS = {"line": str.splitlines, "whitespace": str.split}


def _require_tokenization(name: str, tokenization: str):
    """The one tokenization rule: "line" or "whitespace", returned as the
    str method that cuts text into raw pieces."""
    if tokenization not in _SPLITS:
        raise ValueError(f"{name} must be 'line' or 'whitespace', got {tokenization!r}")
    return _SPLITS[tokenization]


def _corpus_chunks(text: str):
    r"""`text` cut right after each "\n" that sits at least
    _CORPUS_CHUNK_CHARS characters past the previous cut.

    A "\n" always ends a str.splitlines line (a "\r\n" stays whole) and is
    whitespace to str.split, so the pieces of the chunks, concatenated, are
    the pieces of the whole text.
    """
    start = 0
    while start < len(text):
        cut = text.find("\n", start + _CORPUS_CHUNK_CHARS) + 1 or len(text)
        yield text[start:cut]
        start = cut


def _index_corpus(
    path: str | Path, tokenization: str, domain: ContentDomain | None = None
) -> Dataset:
    """The tokens of a UTF-8 text file, in file order, as a Dataset.

    "line" makes each non-blank line (str.splitlines boundaries) one token,
    surrounding whitespace stripped; "whitespace" splits on any whitespace.
    A leading byte-order mark is dropped; bytes that are not UTF-8 raise
    UnicodeDecodeError, a ValueError. The domain is `domain`, where the
    first token outside it raises DomainMismatch, or else the sorted
    distinct tokens, where a file without tokens raises EmptyCorpus.

    Each distinct raw piece gets a compact id, so it is stripped and looked
    up in the domain once however often it repeats.
    """
    split = _require_tokenization("tokenization", tokenization)
    # A piece seen for the first time gets the next id from a C-level
    # counter, so no Python frame runs per piece.
    ids = collections.defaultdict(itertools.count().__next__)
    blocks = [np.zeros(0, dtype=np.int64)]
    for chunk in _corpus_chunks(Path(path).read_text(encoding="utf-8-sig")):
        pieces = split(chunk)
        blocks.append(np.fromiter(map(ids.__getitem__, pieces), np.int64, len(pieces)))
    order = np.concatenate(blocks)
    tokens = list(map(str.strip, ids))
    del ids  # frees the raw pieces before the domain is built
    if domain is None:
        symbols = sorted(set(filter(None, tokens)))
        if not symbols:
            raise EmptyCorpus(f"no tokens found in {path}")
        domain = ContentDomain(tuple(symbols))
    # id -> domain index, -1 for a blank line. Ids count first occurrences,
    # so the first lookup miss, which raises DomainMismatch, is the first
    # token outside the domain in file order.
    nonblank = np.fromiter(map(bool, tokens), bool, len(tokens))
    table = np.full(len(tokens), -1, np.int64)
    table[nonblank] = np.fromiter(
        map(domain._index.__getitem__, itertools.compress(tokens, tokens)), np.int64
    )
    indices = table[order]
    return Dataset._from_owned(domain, indices if nonblank.all() else indices[indices >= 0])


def read_distribution(
    path: str | Path, domain: ContentDomain | None = None
) -> DiscreteDistribution:
    """Read a {"symbols": [...], "weights": [...]} JSON file
    (DiscreteDistribution.from_json_obj, so any other key or a value of the
    wrong JSON type raises ConfigError, as does a file that holds no JSON
    object); a leading UTF-8 byte-order mark is dropped."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        obj = json.load(fh, object_pairs_hook=_JsonObject)
    return DiscreteDistribution.from_json_obj(_json_value("", obj, "a JSON object"), domain)


def write_distribution(path: str | Path, q: DiscreteDistribution) -> None:
    """Write q as the {"symbols": [...], "weights": [...]} JSON file that
    read_distribution reads back: UTF-8, indented, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(q.to_json_obj(), fh, indent=2)
        fh.write("\n")
