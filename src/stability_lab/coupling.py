"""Shared-randomness coupling of every distribution on a domain.

One tape of i.i.d. unit-rate exponential variates, one per symbol, couples
the whole family of distributions at once: the sample for q is the winner
of the exponential race, argmin_z E_z / q(z). Minima of independent
exponentials give the exact marginal, P(winner = z) = q(z), and two
distributions disagree with probability at most 2*TV / (1 + TV).

Tapes are generated by a counter-based hash (splitmix64 applied twice;
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011),
so the tape for any (seed, symbol) cell is addressable directly. The
Monte Carlo helpers (tape seed = root seed + trial index, so batching
cannot change a result) stream each symbol's row over a block of tapes
through the tournament and never build a tape block. Argmin races one tape.
race_tapes and race_counts race blocks of tapes, in the order of their
candidate masks, each block on one of two kernels chosen by _ranks_pay from
its candidate sets: the tournament, or the rank race, which ranks each
tape's (symbol, distinct weight) pairs once per chunk of tape groups and
gives every weight row the least rank of its cells.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, NamedTuple

import numpy as np

from . import core
from .core import (
    ContentDomain,
    DiscreteDistribution,
    _check_probability_rows,
    _frozen_row,
    _require_count,
    _require_same_domain,
    _require_shape,
    _row_counts,
    _tapes_per_block,
)
from .util import _seed_key

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray, offsets=np.uint64(0)) -> np.ndarray:
    """splitmix64 finalizer of x + offsets over uint64 arrays (wrapping arithmetic).

    The golden-ratio increment joins the offsets first: uint64 addition
    wraps, so it is associative, and `x + (offsets + _GOLD)` is the one
    full-size allocation when the offsets are a scalar or a row. The three
    xor-shifts go through one scratch buffer and every other step works in
    place, so `x` itself is never written.
    """
    z = x + (offsets + _GOLD)
    tmp = z >> np.uint64(30)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def _cell_variates(keys: np.ndarray, symbols: np.ndarray) -> np.ndarray:
    """Unit-rate exponential variate of each (stream key, symbol) cell.

    Tape keys and symbol offsets broadcast; key + offset goes through
    splitmix64, and its top 53 bits m become the uniform u = (m + 0.5)
    2^-53, mapped through -log (strictly positive, finite). The sum rounds
    to even above 2^52, so m = 2^53 - 1 alone would give u = 1.0 and a
    variate of -0.0; u is clamped to 1 - 2^-53, the largest double below
    1, which changes that one hash value's variate and no other. Offsets
    must be uint64: NumPy 2 promotes uint64 + int64 to float64. The float
    steps run in place on one buffer; neither operand is written.
    """
    cells = _splitmix64(keys, symbols)
    cells >>= np.uint64(11)
    u = cells.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    np.log(u, out=u)
    np.negative(u, out=u)
    return u


def _stream_keys(seeds) -> np.ndarray:
    """The stream key of each seed, the one seeding rule of the tapes and
    the histogram noise: splitmix64 of its util._seed_key, as a uint64 array."""
    return _splitmix64(np.array([_seed_key(s) for s in seeds], dtype=np.uint64))


def _exp_variates(seeds, size: int) -> np.ndarray:
    """Tape-major variates: row i, column z is the cell (stream key of seeds[i], z)."""
    return _cell_variates(_stream_keys(seeds)[:, None], np.arange(size, dtype=np.uint64))


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
        v = _frozen_row(self.domain, self.variates)
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("tape variates must be strictly positive and finite")
        object.__setattr__(self, "variates", v)


def new_tape(domain: ContentDomain, seed: int) -> CouplingTape:
    """Fresh tape of |Z| unit-rate exponentials, deterministic in the seed."""
    return CouplingTape(domain=domain, variates=_exp_variates([seed], domain.size)[0], seed=seed)


def _race_floats() -> np.errstate:
    """The race's float rule, held only where its quotients E / w are formed.

    A quotient over a masked zero weight (a division by zero) or one past
    DBL_MAX (a subnormal weight) is +inf, with no warning. +inf never wins
    a row that has a finite quotient, and every raced row is a law, so it
    has one (the rank path's premise, stated in _weight_pairs). The setting
    is made afresh at each use (numpy 2 enters an np.errstate only once)
    and closed before every yield, so the callers of the race's generators
    keep their own settings.
    """
    return np.errstate(divide="ignore", over="ignore")


def _masked(weights: np.ndarray) -> np.ndarray:
    """Weights not > 0 as +0.0: under _race_floats their quotient is +inf
    and never wins.

    Variates are strictly positive and finite; a -0.0 left as it is would
    give -inf and win.
    """
    return np.where(weights > 0, weights, 0.0)


def _tournament(rows, columns: np.ndarray) -> np.ndarray:
    """argmin over the (z, row) pairs of row / columns[z], entry by entry.

    The iterator `rows` yields each raced symbol z, in increasing order,
    with its variates; `columns` is symbol-major, row z is symbol z's
    masked weights; (n, 1) tapes meet a (1, k) row, or n tapes (k, 1)
    columns.
    The first symbol's quotients seed the running best; each later symbol
    takes the entries where its quotient is strictly smaller, so an exact
    tie keeps the lower index (np.argmin's rule). A new winner is the
    largest index so far, so the update is a maximum. Winners are held in
    the narrowest unsigned type that indexes every symbol (uint8 up to 256
    symbols), where the mask times z is several times cheaper than in
    intp. Its quotients follow _race_floats, which the caller holds:
    masked and subnormal weights give +inf.
    """
    index = np.min_scalar_type(columns.shape[0] - 1).type
    first, values = next(rows)
    best = values / columns[first]
    winner = np.full(best.shape, first, dtype=index)
    for z, values in rows:
        q = values / columns[z]
        np.maximum(winner, (q < best) * index(z), out=winner)
        np.minimum(best, q, out=best)
    return winner


def coupled_sample_index(tape: CouplingTape, q: DiscreteDistribution) -> int:
    """Index form of coupled_sample: np.argmin's first minimum is the tie rule."""
    _require_same_domain(tape, q)
    with _race_floats():
        return int(np.argmin(tape.variates / _masked(q.weights)))


def coupled_sample(tape: CouplingTape, q: DiscreteDistribution) -> str:
    """Winner of the exponential race on this tape for distribution q.

    Pure function of (tape, q); over fresh tapes the marginal law is
    exactly q. Ties (probability zero in exact arithmetic) go to the
    lowest symbol index.
    """
    return tape.domain.symbols[coupled_sample_index(tape, q)]


def _race_weights(domain: ContentDomain, weight_matrix) -> np.ndarray:
    """The float64 (k, |Z|) weight matrix of a public race, checked once,
    before any seed is read: the width rule (_require_shape), at least one
    row, then the distribution rule (core._check_probability_rows), so
    every raced row is a law. An array that is not 2-D, a single 1-D row
    among them, is held to (1, |Z|), so the width message names the
    domain's width."""
    weights = np.asarray(weight_matrix, dtype=np.float64)
    rows = len(weights) if weights.ndim == 2 else 1
    _require_shape(weights, (rows, domain.size))
    if rows < 1:
        raise ValueError("weight matrix needs at least one row")
    _check_probability_rows(weights)
    return weights


def _weight_columns(weights: np.ndarray) -> np.ndarray:
    """The masked (k, |Z|) weight matrix as a contiguous, symbol-major (|Z|, k) block."""
    return np.ascontiguousarray(_masked(weights).T)


class _WeightPairs(NamedTuple):
    """The distinct masked weights of each column, as (symbol, weight) pairs.

    A shard column holds few distinct weights: a learner_empirical column
    on m items at most m + 1, and prop1's (3170, 8) matrix about 120 in
    all. The E pairs are symbol-major and ascending in weight within a symbol:
    `values` holds their weights and `owners` their symbols (in the
    narrowest unsigned type, as the tournament holds its winners), and
    codes[z, i] is the pair of weight row i's weight at symbol z.
    """

    values: np.ndarray
    owners: np.ndarray
    codes: np.ndarray


def _weight_pairs(columns: np.ndarray, group: int) -> _WeightPairs | None:
    """The pairs of the (|Z|, k) masked columns of law rows, or None when
    E * group, the cells of a group's rank table, would pass
    core._CELL_BUDGET, or when the budget holds fewer than the two cells a
    column that _weight_codes' table needs.

    The rank path's premise is that every weight row has a finite least
    quotient. A variate is at most 54 ln 2 (about 37.43, below 2^6), so
    E / w is finite for every w >= 2^-1016, and a law's largest weight is
    at least (1 - NORMALIZATION_ATOL) / |Z|. A +inf quotient then never
    wins, so the rank path leaves +0.0 pairs out. E >= |Z|, so the two
    limits on |Z| are checked before the columns are sorted. The mask
    leaves no -0.0 (sort and != would take it for +0.0 anyway). The codes
    come from one exact-hit bucket table within the cell budget,
    _weight_codes, whose docstring gives its rule and why each code equals
    the per-column binary search's.
    """
    size = columns.shape[0]
    if size * max(group, 2) > core._CELL_BUDGET:
        return None
    ordered = np.sort(columns, axis=1)
    new = np.empty(ordered.shape, dtype=bool)
    new[:, 0] = True
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    distinct = new.sum(axis=1)
    if distinct.sum() * group > core._CELL_BUDGET:
        return None
    values = ordered[new]
    del ordered, new
    owners = np.repeat(np.arange(size, dtype=np.min_scalar_type(size - 1)), distinct)
    return _WeightPairs(values, owners, _weight_codes(columns, values, owners, distinct))


def _weight_codes(
    columns: np.ndarray, values: np.ndarray, owners: np.ndarray, distinct: np.ndarray
) -> np.ndarray:
    """codes[z, i], the pair of columns[z, i]: np.searchsorted(values_z,
    columns[z, i]) plus column z's first pair, where values_z are its
    `distinct` ascending weights, read from one exact-hit bucket table.

    The table gives each column B + 1 buckets, B the largest power of two
    with |Z| (B + 1) cells in core._CELL_BUDGET (B >= 1, as _weight_pairs
    leaves at least two cells a column). Column z's weight w lies in
    bucket floor(w * B / S_z), S_z the least power of two at or above its
    largest weight (at least 2^(log2 B - 1023), so B / S_z is a
    double). B / S_z is a power of two, so the product only shifts w's
    exponent: every bucket is exact for w in [0, S_z], subnormals included
    (a product that underflows is below 1, in bucket 0 either way), and a
    weight of S_z lands in the extra bucket B. A bucket that holds one pair
    stores its index. Each key is one of its column's weights and goes
    through the same arithmetic as its pair, so a hit is that pair,
    exactly; the scaling is monotone, so the pairs of a bucket are
    adjacent. Keys in a bucket of two or more pairs are searched in their
    column.
    """
    size = columns.shape[0]
    starts = np.cumsum(distinct) - distinct
    buckets = 1 << ((core._CELL_BUDGET // size - 1).bit_length() - 1)
    shift = buckets.bit_length() - 1
    mantissa, exponent = np.frexp(values[starts + distinct - 1])
    exponent -= mantissa == 0.5  # S_z = top when top is a power of two
    scale = np.ldexp(1.0, shift - np.maximum(exponent, shift - 1023))
    # column z's buckets start at offsets[z] in the flat table; the pairs'
    # slots ascend, so a pair alone in its bucket differs from both its
    # neighbours
    offsets = np.arange(0, size * (buckets + 1), buckets + 1)
    slots = (values * scale[owners]).astype(np.intp)
    slots += offsets[owners]
    edges = np.ones(slots.size + 1, dtype=bool)
    np.not_equal(slots[1:], slots[:-1], out=edges[1:-1])
    alone = np.flatnonzero(edges[1:] & edges[:-1])
    table = np.full(size * (buckets + 1), 0xFFFF, dtype=np.uint16)
    table[slots[alone]] = alone
    index = np.empty(columns.shape, np.intp)
    np.multiply(columns, scale[:, None], out=index, casting="unsafe")
    index += offsets[:, None]
    codes = np.take(table, index, mode="clip")
    del index
    missed = codes == 0xFFFF
    for z in np.flatnonzero(missed.any(axis=1)).tolist():
        start, stop = starts[z], starts[z] + distinct[z]
        codes[z, missed[z]] = np.searchsorted(values[start:stop], columns[z, missed[z]]) + start
    return codes


def _ranks_pay(k: int, raced: int, passes: int, gathered: int) -> bool:
    """The kernel rule: whether a tape block races in rank space.

    The tournament would race `raced` (tape, symbol) pairs of k cells in
    `passes` symbol passes (one per raced symbol of each group); the rank
    path would gather `gathered` such pairs, the symbols of its groups'
    unions. A gathered uint16 cell costs about half a raced float64 cell,
    and a symbol pass has a fixed cost of about 5,000 cells (its five
    ufunc calls). Fitted to race_counts of 300 to 1,344 tapes on 2 vCPUs,
    at k in {73, 275, 1000, 3170} and |Z| in {2, 8, 16, 32, 64, 200} under
    learner_constant and learner_empirical(0) and (1): on 69 such shapes
    drawn again, the rule was never more than 2% slower than the
    tournament alone, and within 8% of the faster path in all but one
    (k = 1000, |Z| = 32, constant rows keep the tournament: 2.8 ms where
    ranks take 2.2 ms). The crossover it draws: constant rows at k = 3170
    race in rank space up to |Z| = 64 and keep the tournament at 200
    (11.3 ms, against 15.0 ms in rank space); smoothed shards at |Z| = 200
    keep it too (14.3 ms, against 22.2 ms). Every chain of prop1 races in
    rank space.
    """
    return gathered * k <= 2 * (raced * k + 5000 * passes)


def _symbol_tapes(firsts: list, unions: np.ndarray, tapes: int) -> int:
    """(tape, symbol) pairs raced by groups starting at `firsts` over `unions`."""
    return int(unions.sum(axis=1) @ np.diff(firsts + [tapes]))


def _mask_order(candidates: np.ndarray):
    """Tapes sorted by their candidate masks, and where each run of equal masks starts.

    The order is np.lexsort(candidates.T), the highest symbol most
    significant, taken over the masks packed into little-endian uint64
    words (symbol z is bit z % 64 of word z // 64): |Z| / 64 sort keys, not
    |Z|. Equal masks are adjacent, so a run holds exactly one candidate set.
    """
    tapes, size = candidates.shape
    packed = np.zeros((tapes, -(-size // 64) * 8), dtype=np.uint8)
    packed[:, : -(-size // 8)] = np.packbits(candidates, axis=1, bitorder="little")
    words = packed.view("<u8")
    order = np.lexsort(words.T)
    words = words[order]
    return order, np.r_[True, (words[1:] != words[:-1]).any(axis=1)]


def _tied_rows(ranked: np.ndarray) -> np.ndarray:
    """Rows of a row-sorted matrix that hold two equal values side by side."""
    return np.flatnonzero((ranked[:, 1:] == ranked[:, :-1]).any(axis=1))


def _rank_chunk(
    variates: np.ndarray, unions: np.ndarray, pairs: _WeightPairs, group: int, count: bool
):
    """The race of a chunk of consecutive groups of tapes, in rank space.

    `variates` is the chunk's (n, |Z|) tape-major block; group j is its
    tapes j * group to (j + 1) * group (the last may be short) and races
    the symbols of unions[j]. Each tape's variates are divided by the
    distinct weights > 0 of the chunk's raced symbols, E_C pairs, the very
    quotients E_z / w_iz of the tournament, and each tape's row of them is
    ranked once. The pairs are symbol-major, so a stable order ranks an
    exact tie's lower symbol first, np.argmin's rule. The default argsort
    gives the same order to a row with no two equal quotients, so only
    rows that hold a tie are sorted again, stably. The quotients follow
    _race_floats, which the caller holds: a subnormal weight's may be +inf,
    ranked after every finite one. A +0.0 pair is left out and ranks
    0xFFFF: its +inf quotient never wins, as every weight row has a finite
    least quotient in a candidate symbol (_weight_pairs). Tape t of a
    group ranks from t * E_C on, so a uint16 (E, group) table holds a
    group: a weight row's winners are the least ranks of its raced cells
    (one row gather per raced symbol; the codes are in range, so take's
    clip mode never clips), and one bincount per group counts them. One
    weighted bincount maps the chunk's rank counts to symbols, exact below
    2**53. Returns the (n, |Z|) counts, or with count=False the (n, k)
    winners.

    Ranking with the default argsort first pays: on a prop1 chunk (272 x
    120 quotients) it took 0.31 ms against 1.54 ms for a stable argsort,
    and no row of a criterion-6 run of 20 x 300 tapes held a tie.
    """
    tapes, size = variates.shape
    raced = np.logical_or.reduce(unions)[pairs.owners]
    chosen = np.flatnonzero(raced & (pairs.values > 0))
    width = chosen.size
    symbols, weights = pairs.owners[chosen], pairs.values[chosen]
    # each (n, E_C) array is dropped once used, so few are alive at a time
    quotients = variates[:, symbols] / weights
    order = np.argsort(quotients, axis=1)
    quotients.sort(axis=1)
    tied = _tied_rows(quotients)
    del quotients
    if tied.size:
        # the tied rows' quotients, made again and ranked stably
        order[tied] = np.argsort(variates[tied][:, symbols] / weights, axis=1, kind="stable")
    # table[j, p, t]: tape t of group j's rank of pair p, offset by t * E_C
    table = np.empty((len(unions), pairs.values.size, group), dtype=np.uint16)
    table[:, np.flatnonzero(raced & (pairs.values == 0))] = 0xFFFF
    index = chosen[order]
    del order
    # the symbol of each tape's ranks
    owners = pairs.owners[index]
    index *= group
    slots = np.arange(tapes)
    index += (slots // group * table[0].size + slots % group)[:, None]
    slot_ranks = np.arange(group * width, dtype=np.uint16)
    table.reshape(-1)[index.ravel()] = np.resize(slot_ranks, index.size)
    del index
    ranks = np.empty((tapes, width))
    winners = []
    for j, union in enumerate(unions):
        first, last = j * group, min((j + 1) * group, tapes)
        raced_symbols = union.nonzero()[0]
        best = np.take(table[j], pairs.codes[raced_symbols[0]], axis=0, mode="clip")
        cells = np.empty_like(best)
        for z in raced_symbols[1:]:
            np.take(table[j], pairs.codes[z], axis=0, out=cells, mode="clip")
            np.minimum(best, cells, out=best)
        best = best[:, : last - first]
        if count:
            found = np.bincount(best.ravel(), minlength=best.shape[1] * width)
            ranks[first:last] = found.reshape(-1, width)
        else:
            winners.append(owners[first:last].ravel()[best.T])
    if not count:
        return np.concatenate(winners)
    del table
    index = owners + np.arange(0, tapes * size, size)[:, None]
    counts = np.bincount(index.ravel(), weights=ranks.ravel(), minlength=tapes * size)
    return counts.astype(np.intp).reshape(tapes, size)


def _race_tape_blocks(seeds, weights: np.ndarray, count: bool):
    """Race each row of the (k, |Z|) `weights` on each seed's tape, a tape block at a time.

    The rows are laws, checked once by the caller (_race_weights, or the
    transform's _train_rows). Yields each block of _tapes_per_block(|Z|)
    seeds' rows in seed order: a tape's (k,) winners, or with `count` its
    (|Z|,) symbol counts, counted per group; a block's seeds are read as it
    is taken. The weight columns and each one's max and min are built once.
    A tape's candidates are the symbols z with E_z / max_z <= U =
    min_y E_y / min_y on its tape E. This is exact. IEEE division is
    monotone in the divisor, so every row's minimum quotient on tape E is
    at most U, and a symbol pruned on E has quotients of at least
    E_z / max_z > U: it can be neither a minimum nor tied with one. The
    symbol reaching U is always a candidate. When every column holds a
    zero weight, U is +inf and every symbol stays in the race; an
    unsmoothed learner on a law with a frequent symbol still prunes, as
    that symbol is in every shard. At prop1's shards about 4.6 of 8
    symbols stay in the race.

    Tapes are sorted by their candidate masks (_mask_order), so tapes that
    share a set are adjacent. The tournament races each run of equal masks
    in groups of up to _tapes_per_block(k) tapes over the run's own set
    (groups of that size without runs race unions, and were about twice as
    slow at |Z| = 50 and 31% slower on smoothed shards at |Z| = 200).
    The rank path races consecutive groups of the largest power of two of
    tapes up to that size, over their union (numpy takes rows of 2 to 32
    bytes by typed copies, wider rows by memmove); in the mask order
    neighbouring sets share most symbols. It ranks a chunk of groups at
    once: the most consecutive groups whose tapes by E pairs fit
    core._CELL_BUDGET, and always at least one. _ranks_pay chooses the kernel
    of each block; the weight pairs are built, once, for the first block
    that takes the rank path, and when there are too many of them every
    block keeps the tournament.
    """
    columns = _weight_columns(weights)
    size, k = columns.shape
    high = columns.max(axis=1)
    low = columns.min(axis=1)
    weight_rows = columns[:, None, :]
    seeds = iter(seeds)
    block = _tapes_per_block(size)
    group = _tapes_per_block(k)
    rank_group = 1 << (group.bit_length() - 1)
    weight_pairs = functools.cache(lambda: _weight_pairs(columns, rank_group))
    while block_seeds := [*islice(seeds, block)]:
        with _race_floats():
            variates = _exp_variates(block_seeds, size)
            bound = (variates / low).min(axis=1, keepdims=True)
            candidates = variates / high <= bound
            # a group starts at each run's first tape and every `group` tapes after it
            order, run_starts = _mask_order(candidates)
            position = np.arange(order.size)
            run_first = np.maximum.accumulate(np.where(run_starts, position, 0))
            candidates = candidates[order]
            firsts = np.flatnonzero((position - run_first) % group == 0).tolist()
            # a tournament group lies inside one run, so its set is its first tape's
            unions = candidates[firsts]
            rank_firsts = list(range(0, order.size, rank_group))
            rank_unions = np.logical_or.reduceat(candidates, rank_firsts, axis=0)
            ranked = _ranks_pay(
                k,
                int(np.count_nonzero(candidates)),
                int(np.count_nonzero(unions)),
                _symbol_tapes(rank_firsts, rank_unions, order.size),
            ) and weight_pairs() is not None
            variates = variates[order]
            groups = []
            if ranked:
                pairs = weight_pairs()
                chunk = max(1, _tapes_per_block(pairs.values.size) // rank_group)
                for j in range(0, len(rank_firsts), chunk):
                    tapes = variates[j * rank_group : (j + chunk) * rank_group]
                    chunk_unions = rank_unions[j : j + chunk]
                    groups.append(_rank_chunk(tapes, chunk_unions, pairs, rank_group, count))
            else:
                tapes = variates.T[:, :, None]
                for first, last, symbols in zip(firsts, firsts[1:] + [order.size], unions):
                    rows = tapes[:, first:last]
                    raced = ((z, rows[z]) for z in symbols.nonzero()[0])
                    winners = _tournament(raced, weight_rows)
                    groups.append(_row_counts(winners, size) if count else winners)
            # the inverse of `order` puts each tape's row back at its seed
            block_rows = np.concatenate(groups)[np.argsort(order)]
        yield block_rows


def race_tapes(
    domain: ContentDomain, seeds: Iterable[int], weight_matrix: np.ndarray
) -> np.ndarray:
    """Coupled sample index of every weight row on each seed's tape.

    Returns a (number of seeds, n_models) array whose entry (j, i) equals
    coupled_sample_index(new_tape(domain, seeds[j]), q_i), where q_i is
    weight row i: all rows share each tape, which is the point of the
    coupling. The tapes are made by the same counter-based hash, in blocks
    of at most core._CELL_BUDGET variates, and raced in groups that share their
    candidate symbols. `seeds` may be any iterable; the result is intp,
    (0, n_models) when there are no seeds.

    Before any seed is read, raises LengthMismatch unless the matrix is
    (n_models, |Z|), ValueError when it has no row, NegativeWeight for a
    weight that is negative or not finite, and NotNormalized for a row
    that does not sum to 1 (_race_weights).
    """
    weights = _race_weights(domain, weight_matrix)
    blocks = _race_tape_blocks(seeds, weights, count=False)
    # the empty intp tail fixes the dtype, and the shape when there are no seeds
    return np.concatenate([*blocks, np.empty((0, len(weights)), dtype=np.intp)])


def race_counts(
    domain: ContentDomain, seeds: Iterable[int], weight_matrix: np.ndarray
) -> np.ndarray:
    """(number of seeds, |Z|) symbol counts of each row of race_tapes.

    Row j counts how many weight rows won each symbol on seeds[j]'s tape.
    Only one group of tapes' winners exists at a time (at most about
    core._CELL_BUDGET), never the whole (len(seeds), n_models) matrix, and each
    group is counted in one call. The result is intp, (0, |Z|) when there
    are no seeds. Raises LengthMismatch, ValueError, NegativeWeight or
    NotNormalized as race_tapes does, before any seed is read.
    """
    blocks = _race_tape_blocks(seeds, _race_weights(domain, weight_matrix), count=True)
    return np.concatenate([*blocks, np.empty((0, domain.size), dtype=np.intp)])


def _streamed_winners(models, trials: int, seed: int):
    """(len(models), n) winners of each step of n <= _tapes_per_block(len(models)) tapes.

    The step's stream keys are those of _stream_keys(range(seed + start,
    seed + stop)): the uint64 sum of the seed's _seed_key and the trial
    offsets, which wraps mod 2**64 as _seed_key does.
    Symbol z's row is column z of the tape-major block, bit for bit,
    because its offset is a uint64 scalar.
    """
    _require_count("trials", trials)
    columns = _weight_columns(np.stack([q.weights for q in models]))
    offsets = np.arange(columns.shape[0], dtype=np.uint64)
    base = np.uint64(_seed_key(seed))
    step = _tapes_per_block(len(models))
    for start in range(0, trials, step):
        stop = min(start + step, trials)
        keys = _splitmix64(base + np.arange(start, stop, dtype=np.uint64))
        rows = ((z, _cell_variates(keys, offset)) for z, offset in enumerate(offsets))
        with _race_floats():
            winners = _tournament(rows, columns[:, :, None])
        yield winners


def disagreement_estimate(
    q1: DiscreteDistribution, q2: DiscreteDistribution, trials: int, seed: int
) -> float:
    """Fraction of fresh tapes on which q1's and q2's samples differ.

    Trial i uses the tape with seed `seed + i`, so batching the trials
    cannot change the estimate. The expected value is bounded by
    2*TV(q1,q2) / (1 + TV(q1,q2)).
    """
    _require_same_domain(q1, q2)
    disagreements = 0
    for x1, x2 in _streamed_winners((q1, q2), trials, seed):
        disagreements += int(np.count_nonzero(x1 != x2))
    return disagreements / trials


def coupled_marginal_counts(
    q: DiscreteDistribution, trials: int, seed: int
) -> np.ndarray:
    """Histogram of coupled samples over `trials` fresh tapes (seed + i)."""
    counts = np.zeros(q.domain.size, dtype=np.int64)
    for (winners,) in _streamed_winners((q,), trials, seed):
        counts += np.bincount(winners, minlength=q.domain.size)
    return counts
