"""Privacy divergences and the private heavy-hitter histogram.

Two layers live here. The first is the exact (alpha, beta) divergence
between two output laws on the same domain: the smallest additive slack
beta for which P(E) <= e^alpha * P'(E) holds for every event E, computed
in closed form and backed by a brute-force maximization over all events.

The second is a thresholded histogram with two-sided geometric noise. The
discrete noise keeps the output law countable, so the mechanism's
(epsilon, delta) guarantee can be audited exactly at micro scale by
enumerating neighboring datasets and their full output laws, instead of
being trusted from the analysis alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    Event,
    _max_event,
    _require_alpha,
    _require_count,
    _require_same_domain,
    _require_size,
)
from .errors import EmptyDataset, SizeMismatch

# Multiplier on the log term in the histogram size rule. The theory fixes
# the size only up to a constant; 8 keeps the Monte Carlo accuracy target
# comfortably satisfied without inflating sample demands.
HIST_SIZE_CONSTANT = 8.0

# The most atoms in one joint output law or noise values in one coordinate
# law, and the most cells (atoms x |Z|) in all the laws of one audit.
OUTPUT_LAW_MAX = 10**6


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """Read-only (calls + 1, 1) uint32 column init * mult^i mod 2^32."""
    column = np.array(
        [init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in range(calls + 1)], dtype=np.uint32
    )[:, None]
    column.flags.writeable = False
    return column


# numpy's SeedSequence (O'Neill's seed_seq) steps its hash multiplier once per
# call, whatever the data: 16 calls mix a pool of 4 words, then 8 give
# generate_state(4, uint64).
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
# PCG64's 128-bit LCG multiplier M: each step is state = state * M + inc mod 2^128.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's geometric(p) searches its CDF from p = this literal of its C source
# up, and inverts it below.
_GEOMETRIC_SEARCH = 0.333333333333333333333333
# The most variates per row that _release_rows draws as arrays. A row's
# Generator costs a few microseconds whatever it draws, and each variate
# about 15 ns more, while each variate of the array draw costs about 45 ns:
# on a 2-vCPU Xeon with numpy 2.4, 128-row releases took 0.78 of the
# Generators' time at 32 variates a row and broke even at 64.
_ARRAY_STEPS = 32


@dataclass(frozen=True)
class DpParams:
    """Privacy/accuracy parameter bundle: epsilon, delta, eta, beta."""

    epsilon: float
    delta: float
    eta: float
    beta: float

    def __post_init__(self):
        _check_privacy(self.epsilon, self.delta)
        for name in ("eta", "beta"):
            if not 0 < getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in (0, 1)")


def _check_privacy(epsilon: float, delta: float) -> None:
    """The one (epsilon, delta) rule: a finite epsilon > 0 and 0 < delta < 1; NaN fails."""
    if not (0 < epsilon < math.inf and 0 < delta < 1):
        raise ValueError(f"need 0 < epsilon < inf and 0 < delta < 1, got {epsilon!r}, {delta!r}")


def _geometric_p(epsilon: float) -> float:
    """The one noise rule: the histogram's geometric parameter p = 1 -
    e^(-epsilon/2), which numpy's geometric needs > 0. Raises ValueError
    where it is not: epsilon <= 0, NaN, or so small (<= 1.1e-16) that p
    rounds to 0."""
    p = 1.0 - math.exp(-epsilon / 2.0)
    if not p > 0:
        raise ValueError(f"need 1 - e^(-epsilon/2) > 0, got epsilon = {epsilon!r}")
    return p


def freq(dataset: Dataset, symbol: str) -> float:
    """Empirical frequency of `symbol` in the dataset."""
    if dataset.size == 0:
        raise EmptyDataset("frequency of an empty dataset is undefined")
    idx = dataset.domain.index_of(symbol)
    return int(np.count_nonzero(dataset.indices == idx)) / dataset.size


def dp_beta(
    p: DiscreteDistribution, p_prime: DiscreteDistribution, alpha: float
) -> float:
    """Smallest beta with p(E) <= e^alpha * p_prime(E) + beta for all events.

    Closed form: sum_z max(p(z) - e^alpha * p_prime(z), 0). At alpha = 0
    this is the total variation distance.
    """
    _require_same_domain(p, p_prime)
    _require_alpha(alpha)
    return float(np.maximum(p.weights - math.exp(alpha) * p_prime.weights, 0.0).sum())


def dp_beta_event_form(
    p: DiscreteDistribution, p_prime: DiscreteDistribution, alpha: float
) -> tuple[float, Event]:
    """Max over all events of p(E) - e^alpha * p_prime(E), with a maximizer:
    E+ = {z : p(z) > e^alpha * p_prime(z)}, the value summed over it in
    index order (core._max_event)."""
    _require_same_domain(p, p_prime)
    _require_alpha(alpha)
    return _max_event(p.domain, p.weights - math.exp(alpha) * p_prime.weights)


def symmetric_dp_beta(
    p: DiscreteDistribution, p_prime: DiscreteDistribution, alpha: float
) -> float:
    """max of dp_beta in both directions; the two-sided privacy slack."""
    return max(dp_beta(p, p_prime, alpha), dp_beta(p_prime, p, alpha))


def required_k(params: DpParams) -> int:
    """Histogram input size for l_inf accuracy eta with failure beta.

    ceil(C * ln(1 / (eta * beta * delta)) / (eta * epsilon)) with
    C = HIST_SIZE_CONSTANT.
    """
    numerator = HIST_SIZE_CONSTANT * math.log(
        1.0 / (params.eta * params.beta * params.delta)
    )
    return math.ceil(numerator / (params.eta * params.epsilon))


def histogram_threshold(epsilon: float, delta: float, k):
    """Frequency cutoff tau = 2*ln(2/delta)/(epsilon*k) + 1/k (elementwise
    for an array of k).

    Counts whose noisy frequency lands below tau are reported as zero;
    that is what pays the delta for symbols present in one dataset and
    absent from its neighbor. Raises ValueError unless epsilon is finite
    and > 0, 0 < delta < 1 and every k is at least 1.
    """
    _check_privacy(epsilon, delta)
    if (np.asarray(k) < 1).any():
        raise ValueError("histogram size k must be at least 1")
    return 2.0 * math.log(2.0 / delta) / (epsilon * k) + 1.0 / k


def _threshold_clamp(noisy_counts: np.ndarray, k, tau) -> np.ndarray:
    """The release rule: noisy_counts / k, zero below tau, else clamped to
    [0, 1]; k and tau are scalars or arrays that broadcast against the counts."""
    # np.minimum and np.maximum cost less than np.clip or np.where here.
    noisy = noisy_counts / k
    released = np.minimum(np.maximum(noisy, 0.0), 1.0)
    released[noisy < tau] = 0.0
    return released


def _seed_hash(values: np.ndarray, consts: np.ndarray, first: int, calls: int) -> np.ndarray:
    """seed_seq's hashmix: hash call first + i on row i of values (uint32
    arrays wrap silently)."""
    values = (values ^ consts[first:first + calls]) * consts[first + 1:first + calls + 1]
    return values ^ (values >> 16)


def _pcg64_words(seeds) -> np.ndarray | None:
    """(4, n) uint64 rows s_lo, s_hi, inc_lo, inc_hi of the PCG64 of
    default_rng(seed) before its seeding step, for each seed, or None where
    the batch does not apply.

    Two or more integer seeds in [0, 2^128) take one pass of SeedSequence's
    pool mixing and generate_state(4, uint64) over a (4, n) uint32 array.
    PCG64 takes the first two of those words as its seed s and the last two
    as its stream i, high word first, and steps its LCG once from s + inc
    with inc = 2i + 1: the seeded state is s * M + inc * (M + 1) mod 2^128,
    which _noise_generators and _pcg64_doubles compute. Other seeds (one
    seed, a float, a negative or wider int) give None.
    """
    ints = [int(s) for s in seeds if isinstance(s, (int, np.integer))]
    if len(ints) < 2 or len(ints) < len(seeds) or min(ints) < 0 or max(ints) >= 1 << 128:
        return None
    # A seed is its 32-bit words, low first; the words past its top one are
    # zero, and hashing a zero word is what SeedSequence pads the pool with.
    pool = np.frombuffer(b"".join(s.to_bytes(16, "little") for s in ints), dtype="<u4")
    pool = _seed_hash(pool.reshape(-1, 4).T, _POOL_HASH, 0, 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _seed_hash(pool[src], _POOL_HASH, 4 + 3 * src, 3)
        mixed = pool[dst] * 0xCA01F9DD - hashed * 0x4973F715
        pool[dst] = mixed ^ (mixed >> 16)
    words = _seed_hash(np.tile(pool, (2, 1)), _STATE_HASH, 0, 8).astype(np.uint64)
    # generate_state(4, uint64) packs the words as w0 | w1 << 32, w2 | w3 << 32, ...
    hi_s, lo_s, hi_i, lo_i = words[0::2] | words[1::2] << 32
    return np.stack((lo_s, hi_s, lo_i << 1 | 1, hi_i << 1 | lo_i >> 63))


def _noise_generators(seeds):
    """One np.random.Generator per seed, in the state of default_rng(seed).

    Where _pcg64_words seeds the batch, each row's seeded state is made as
    a Python int, and one Generator is pointed at it in turn through one
    reused state dict, so use each before drawing the next. Other seeds
    take default_rng, errors and all.
    """
    words = _pcg64_words(seeds)
    if words is None:
        yield from map(np.random.default_rng, seeds)
        return
    bits = np.random.PCG64(0)
    generator = np.random.Generator(bits)
    fields = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": fields, "has_uint32": 0, "uinteger": 0}
    for s_lo, s_hi, i_lo, i_hi in zip(*words.tolist()):
        inc = i_hi << 64 | i_lo
        fields["state"] = ((s_hi << 64 | s_lo) * _PCG_MULT + inc * (_PCG_MULT + 1)) & _MASK128
        fields["inc"] = inc
        bits.state = full
        yield generator


def _mul128(a_lo, a_hi, b_lo, b_hi) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) uint64 halves of a * b mod 2^128, for a and b given as uint64
    halves that broadcast. The high half of a_lo * b_lo is summed from the
    32-bit halves' products: no partial sum passes 2^64."""
    a0, a1 = a_lo & _MASK32, a_lo >> 32
    b0, b1 = b_lo & _MASK32, b_lo >> 32
    low = a0 * b0
    low >>= 32
    mid = a1 * b0
    mid += low
    cross = mid & _MASK32
    cross += a0 * b1
    hi = a1 * b1
    mid >>= 32
    hi += mid
    cross >>= 32
    hi += cross
    hi += a_hi * b_lo
    hi += a_lo * b_hi
    return a_lo * b_lo, hi


def _pcg64_doubles(words: np.ndarray, steps: int) -> np.ndarray:
    """(steps, n) float64: row j holds draw j of Generator.random() from each
    of the n PCG64 streams in _pcg64_words' layout, before seeding.

    PCG64 (O'Neill 2014) steps its 128-bit LCG, state = state * M + inc mod
    2^128, then outputs the XSL-RR of the new state: its two 64-bit halves
    xored, rotated right by the state's top 6 bits. numpy's next_double is
    (x >> 11) * 2^-53. Seeding is the LCG's first step from s + inc, so the
    state t steps on is A * s + C * inc with A = M^t and C = 1 + M + ... +
    M^t: t = 1 is the seeded state, and draw j reads t = j + 2. Every row's
    states are made at once from the steps x 1 columns of A and C.
    """
    jumps: list[int] = []
    a, c = _PCG_MULT, 1 + _PCG_MULT
    for _ in range(steps):
        a = a * _PCG_MULT & _MASK128
        c = (c * _PCG_MULT + 1) & _MASK128
        jumps += (a, c)
    table = np.array([[x & _MASK64, x >> 64] for x in jumps], dtype=np.uint64)
    a_lo, a_hi, c_lo, c_hi = table.reshape(steps, 4, 1).transpose(1, 0, 2)
    s_lo, s_hi, i_lo, i_hi = words
    lo, hi = _mul128(a_lo, a_hi, s_lo, s_hi)
    inc_lo, inc_hi = _mul128(c_lo, c_hi, i_lo, i_hi)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    rot = hi >> 58
    hi ^= lo
    out = hi >> rot
    np.subtract(64, rot, out=rot)
    rot &= 63
    hi <<= rot
    out |= hi
    out >>= 11
    return out * (1.0 / (1 << 53))


def _geometric_search(uniforms: np.ndarray, p: float) -> np.ndarray:
    """numpy's geometric(p) variate of each uniform, for p >= _GEOMETRIC_SEARCH.

    numpy's search returns 1 + the number of its running sums, sum = prod =
    p, then prod *= 1 - p; sum += prod, that lie below the uniform: one
    searchsorted into those sums, made with the same float steps until the
    sum stops changing. Raises RuntimeError for a uniform above the last
    sum, where numpy's loop would never return.
    """
    sums = [p]
    prod, q = p, 1.0 - p
    while True:
        prod *= q
        total = sums[-1] + prod
        if total == sums[-1]:
            break
        sums.append(total)
    draws = np.searchsorted(np.array(sums), uniforms)
    if draws.size and draws.max() == len(sums):
        raise RuntimeError(f"a uniform lies above every running sum of geometric({p!r})")
    draws += 1
    return draws


@dataclass(frozen=True, eq=False)
class NoisyHistogram:
    """Released mapping a: Z -> [0, 1] plus the parameters that produced it.

    Symbols absent from the input sample are exactly zero, and every
    released value sits in [0, 1]. The threshold tau is derived from
    (epsilon, delta, k) by histogram_threshold, never set.
    """

    domain: ContentDomain
    values: np.ndarray
    epsilon: float
    delta: float
    k: int
    tau: float = field(init=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.domain.size,):
            raise ValueError("histogram needs one value per symbol")
        _check_unit_interval(v)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "k", _require_count("k", self.k))
        object.__setattr__(self, "tau", histogram_threshold(self.epsilon, self.delta, self.k))

    def value(self, symbol: str) -> float:
        return float(self.values[self.domain.index_of(symbol)])

    def to_json_obj(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "k": self.k,
            "tau": self.tau,
            "values": {
                s: v for s, v in zip(self.domain.symbols, self.values.tolist()) if v > 0
            },
        }


def _check_unit_interval(values: np.ndarray) -> None:
    # Written so that NaN fails too; -0.0 passes, as it compares equal to 0.
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError("histogram values must be finite and lie in [0, 1]")


def _release_rows(
    counts: np.ndarray, epsilon: float, delta: float, seeds
) -> np.ndarray:
    """Released values of every row of an (n, |Z|) count matrix.

    Row i is the release of that row alone, with k_i its sum: its present
    symbols, in index order, get the noise of default_rng(seeds[i]). Where
    _pcg64_words seeds the batch (two or more integer seeds in [0, 2^128)),
    numpy's geometric searches (p >= _GEOMETRIC_SEARCH) and no row draws
    more than _ARRAY_STEPS variates, every row's variates come from one
    _pcg64_doubles and one _geometric_search call, with no Python loop per
    row: the seeding step is the first of the LCG jumps it makes from each
    row's unseeded (s, inc). Otherwise _noise_generators points a Generator
    at each row, or builds default_rng for one seed or any other. Either
    way the bytes rest on numpy's SeedSequence hash, PCG64 and geometric.
    The threshold, clamp and range check then run once over the matrix.
    Raises SizeMismatch unless there is one seed per row, then EmptyDataset
    for a row with no counts, then histogram_threshold's ValueError for an
    (epsilon, delta) it refuses and _geometric_p's for an epsilon whose p
    rounds to 0, all before any noise is drawn.
    """
    if len(seeds) != counts.shape[0]:
        raise SizeMismatch(f"{len(seeds)} noise seeds for {counts.shape[0]} histogram rows")
    k = counts.sum(axis=1)
    if (k < 1).any():
        raise EmptyDataset("every histogram row needs a non-empty sample")
    tau = histogram_threshold(epsilon, delta, k)
    rows, cols = np.nonzero(counts)
    q = _geometric_p(epsilon)
    sizes = np.bincount(rows, minlength=k.size)
    # Row i draws a (2, sizes[i]) block of geometrics, filled one variate at
    # a time in C order: its first sizes[i] variates are the first halves of
    # its present symbols' noise, the next sizes[i] the second halves. Their
    # difference is the two-sided geometric noise, P(G = g) proportional to
    # exp(-epsilon / 2)^|g|.
    steps = 2 * int(sizes.max(initial=0))
    words = _pcg64_words(seeds) if q >= _GEOMETRIC_SEARCH and steps <= _ARRAY_STEPS else None
    if words is None:
        generators = _noise_generators(seeds)
        draws = np.concatenate(
            [rng.geometric(q, (2, size)) for rng, size in zip(generators, sizes.tolist())], axis=1
        )
        noise = draws[0] - draws[1]
    else:
        # Variate j of row i is entry j * n + i of the (steps, n) uniforms;
        # the present symbols' first halves are each row's variates 0, 1,
        # ..., and their second halves lie sizes[i] variates further on.
        first = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows]
        first *= k.size
        first += rows
        uniforms = _pcg64_doubles(words, steps).ravel()
        picked = uniforms[np.concatenate((first, first + sizes[rows] * k.size))]
        draws = _geometric_search(picked, q)
        noise = draws[:rows.size] - draws[rows.size:]
    values = np.zeros(counts.shape)
    values[rows, cols] = _threshold_clamp(counts[rows, cols] + noise, k[rows], tau[rows])
    _check_unit_interval(values)
    return values


def private_histogram(
    dataset: Dataset, epsilon: float, delta: float, seed: int
) -> NoisyHistogram:
    """(epsilon, delta)-DP frequency estimate with thresholded support.

    Each symbol that occurs in the sample gets two-sided geometric noise
    with ratio parameter exp(-epsilon/2) added to its count; the noisy
    frequency is released if it clears the threshold tau and is clamped
    to [0, 1], otherwise zero. Absent symbols are untouched (exactly
    zero), so the mechanism never reports a false positive. Privacy is
    with respect to replacing one element of the input sample. The values
    are one row of _release_rows.
    """
    values = _release_rows(dataset.counts()[None, :], epsilon, delta, [seed])[0]
    return NoisyHistogram(dataset.domain, values, epsilon, delta, dataset.size)


# --- exact micro-scale audit ------------------------------------------------
#
# The geometric noise makes each released coordinate a countable atom law,
# so for tiny k and |Z| the full output law of the mechanism fits in a
# dict and the privacy slack can be computed exactly (up to a truncated
# tail whose mass is accounted for conservatively).


def coordinate_output_law(
    count: int, k: int, epsilon: float, delta: float, tail: float = 1e-12
) -> dict[float, float]:
    """Exact atom law of one released coordinate with true count `count`.

    Noise values are enumerated until the remaining two-sided tail mass
    drops below `tail`; the returned probabilities then sum to at least
    1 - tail. Each atom is the release rule _threshold_clamp applied to
    count + g, keyed in order of the noise value g. Raises ValueError for
    a count or k that is not an integer (a bool is not), k < 1, a count
    outside [0, k], tail outside (0, 1) or an (epsilon, delta) that
    histogram_threshold refuses, and DomainTooLarge when the enumeration
    would pass OUTPUT_LAW_MAX noise values.
    """
    _require_count("k", k)
    _require_count("count", count, 0)
    if not 0 < tail < 1:
        raise ValueError("tail must lie in (0, 1)")
    if count > k:
        raise ValueError(f"count must lie in [0, k], got {count!r} with k={k}")
    tau = histogram_threshold(epsilon, delta, k)
    if count == 0:
        return {0.0: 1.0}
    p = math.exp(-epsilon / 2.0)
    span = 1
    while 2.0 * p ** (span + 1) / (1.0 + p) > tail:
        span += 1
        _require_size("noise values", 2 * span + 1, OUTPUT_LAW_MAX)
    norm = (1.0 - p) / (1.0 + p)
    # (count + g) / k in int64 -> float64 is Python's int division below 2**53.
    atoms = _threshold_clamp(count + np.arange(-span, span + 1), k, tau).tolist()
    law: dict[float, float] = {}
    for g, v in zip(range(-span, span + 1), atoms):
        law[v] = law.get(v, 0.0) + norm * p ** abs(g)
    return law


def _joint_law(marginals: list[dict[float, float]]) -> dict[tuple[float, ...], float]:
    """Product of independent coordinate laws, keyed by the tuple of atoms.

    Raises DomainTooLarge before building anything when the product of the
    marginal sizes exceeds OUTPUT_LAW_MAX.
    """
    _require_size("joint output law atoms", math.prod(map(len, marginals)), OUTPUT_LAW_MAX)
    joint: dict[tuple[float, ...], float] = {(): 1.0}
    for marginal in marginals:
        joint = {
            key + (v,): pk * pv
            for key, pk in joint.items()
            for v, pv in marginal.items()
        }
    return joint


def histogram_output_law(
    counts: tuple[int, ...], epsilon: float, delta: float, tail: float = 1e-12
) -> dict[tuple[float, ...], float]:
    """Joint output law over all coordinates (noise is independent per symbol).

    k is the sum of the counts, so no counts is refused as k < 1. The joint
    has one atom per combination of coordinate atoms; when that product
    exceeds OUTPUT_LAW_MAX, DomainTooLarge is raised before any of it is built.
    """
    k = sum(counts)
    _require_count("k", k)
    return _joint_law([coordinate_output_law(c, k, epsilon, delta, tail) for c in counts])


def dp_beta_over_laws(law: dict, law_prime: dict, alpha: float) -> float:
    """dp_beta for countable laws given as atom -> probability dicts.

    One pass over `law` in dict order adds each atom's mass to the total
    and its excess over e^alpha * law_prime to beta. Mass missing from
    `law` (the truncated tail) is then charged to beta in full, so the
    result is an upper bound on the exact slack. The explicit loop fixes
    the order of every float addition, which the builtin sum() does not
    on every interpreter.
    """
    _require_alpha(alpha)
    scale = math.exp(alpha)
    total = excess = 0.0
    for atom, mass in law.items():
        total += mass
        gap = mass - scale * law_prime.get(atom, 0.0)
        if gap > 0:
            excess += gap
    return excess + max(0.0, 1.0 - total)


def _replacement_neighbors(k: int, size: int):
    """Ordered pairs of count vectors that differ by replacing one element.

    For each composition a (in lexicographic order) the neighbours
    a - e_i + e_j, i with a[i] > 0 and j != i, are yielded in lexicographic
    order too, so the pairs come out sorted by (a, b).
    """
    for a in _compositions(k, size):
        neighbors = []
        for i in range(size):
            if a[i] == 0:
                continue
            for j in range(size):
                if j != i:
                    b = list(a)
                    b[i] -= 1
                    b[j] += 1
                    neighbors.append(tuple(b))
        neighbors.sort()
        for b in neighbors:
            yield a, b


def _compositions(total: int, parts: int):
    """Tuples of `parts` non-negative ints summing to `total`, in lexicographic
    order: the gaps between `parts - 1` bars in `total + parts - 1` slots."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1, *bars, slots)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@dataclass(frozen=True)
class HistogramDpAudit:
    """Result of exhaustively auditing the histogram at micro scale."""

    epsilon: float
    delta: float
    k: int
    domain_size: int
    worst_beta: float
    worst_pair: tuple[tuple[int, ...], tuple[int, ...]]
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.worst_beta <= self.delta


def audit_histogram_dp(
    k: int, domain_size: int, epsilon: float, delta: float, tail: float = 1e-12
) -> HistogramDpAudit:
    """Enumerate every replacement-neighbor pair and bound the privacy slack.

    Each count vector's full (truncated) output law is built once, and
    each ordered neighbor pair's slack is dp_beta_over_laws at level
    epsilon; the audit passes when the worst slack is at most delta.
    The cost is one joint law per count vector and
    |bins| x (non-zero counts) x (domain_size - 1) pair checks, where
    |bins| = C(k + domain_size - 1, domain_size - 1). Raises ValueError for
    a k or domain_size that is not an integer (a bool is not), k < 1,
    domain_size < 1, epsilon outside (0, ln(DBL_MAX)] (the alpha rule,
    so e^epsilon is finite), tail outside (0, 1) or delta outside (0, 1),
    and DomainTooLarge, before any law is built, above OUTPUT_LAW_MAX cells.
    """
    k = _require_count("k", k)
    domain_size = _require_count("domain_size", domain_size)
    _require_alpha(epsilon, "epsilon")
    # Every count vector sums to k, so only k + 1 coordinate laws exist.
    coordinate_laws = [
        coordinate_output_law(c, k, epsilon, delta, tail) for c in range(k + 1)
    ]
    cells = 0
    for c in _compositions(k, domain_size):
        cells += math.prod(len(coordinate_laws[x]) for x in c) * domain_size
        _require_size("audit output law cells", cells, OUTPUT_LAW_MAX)
    # Count vector -> its joint law, each built once.
    laws = {
        c: _joint_law([coordinate_laws[x] for x in c])
        for c in _compositions(k, domain_size)
    }
    worst = -1.0
    worst_pair = None
    checked = 0
    for a, b in _replacement_neighbors(k, domain_size):
        beta = dp_beta_over_laws(laws[a], laws[b], epsilon)
        checked += 1
        if beta > worst:
            worst, worst_pair = beta, (a, b)
    if worst_pair is None:
        raise ValueError("no neighboring datasets exist for these sizes")
    return HistogramDpAudit(
        epsilon=epsilon,
        delta=delta,
        k=k,
        domain_size=domain_size,
        worst_beta=worst,
        worst_pair=worst_pair,
        pairs_checked=checked,
    )
