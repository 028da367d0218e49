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
from .coupling import _cell_variates, _splitmix64, _tape_key
from .errors import EmptyDataset, SizeMismatch

# Multiplier on the log term in the histogram size rule. The theory fixes
# the size only up to a constant; 8 keeps the Monte Carlo accuracy target
# comfortably satisfied without inflating sample demands.
HIST_SIZE_CONSTANT = 8.0

# The most atoms in one joint output law or noise values in one coordinate
# law, and the most cells (atoms x |Z|) in all the laws of one audit. The
# audits at (k, |Z|) = (10, 5) and (20, 3) hold 70,010 and 68,445 cells;
# (30, 3) would hold 4.2 M, which took 3.8 s and a 218 MB peak to audit
# (2 vCPUs), and is refused.
OUTPUT_LAW_MAX = 10**6

# Noise cells sit at symbol offsets from 2^63 up: a tape reads its cells from
# offset 0, so no noise variate is a tape variate, even where a noise seed
# equals a tape seed.
_NOISE_OFFSET = np.uint64(1 << 63)


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
    e^(-epsilon/2) must be > 0. Raises ValueError where it is not: epsilon
    <= 0, NaN, or so small (<= 1.1e-16) that p rounds to 0. An epsilon it
    passes keeps every draw ceil(2 E / epsilon) of _release_rows, with E
    at most 37.5, below 2^63, so the draws' int64 cast is exact."""
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

    Row i is the release of that row alone, with k_i its sum. Its present
    symbol j, in index order, gets the noise ceil(2 E_2j / epsilon) -
    ceil(2 E_2j+1 / epsilon), where E_v is coupling._cell_variates' unit
    exponential of the cell (splitmix64(_tape_key(seeds[i])), 2^63 + v):
    the seed is read as a tape seed is, and _NOISE_OFFSET keeps its cells
    apart from the tape's. P(ceil(2 E / epsilon) > g) = e^(-g epsilon / 2),
    so each draw is geometric with p = 1 - e^(-epsilon/2), and the noise is
    two-sided geometric, P(G = g) proportional to e^(-epsilon |g| / 2).
    Every row's cells are hashed in one array pass, and the threshold,
    clamp and range check run once over the matrix. Raises SizeMismatch
    unless there is one seed per row, then EmptyDataset for a row with no
    counts, then _geometric_p's ValueError for an epsilon whose p is not >
    0, histogram_threshold's for an (epsilon, delta) it refuses and
    TypeError for a seed that is not an integer, all before any noise is
    drawn.
    """
    if len(seeds) != counts.shape[0]:
        raise SizeMismatch(f"{len(seeds)} noise seeds for {counts.shape[0]} histogram rows")
    k = counts.sum(axis=1)
    if (k < 1).any():
        raise EmptyDataset("every histogram row needs a non-empty sample")
    _geometric_p(epsilon)
    tau = histogram_threshold(epsilon, delta, k)
    keys = _splitmix64(np.array([_tape_key(s) for s in seeds], dtype=np.uint64))
    rows, cols = np.nonzero(counts)
    # np.nonzero lists each row's present symbols together and in index
    # order, so symbol j of its row is j places after the row's first.
    sizes = np.bincount(rows, minlength=k.size)
    j = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows]
    cells = (2 * j)[:, None] + np.arange(2)
    draws = _cell_variates(keys[rows, None], cells.astype(np.uint64) + _NOISE_OFFSET)
    draws *= 2.0
    draws /= epsilon
    draws = np.ceil(draws, out=draws).astype(np.int64)
    noise = draws[:, 0] - draws[:, 1]
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
    are one row of _release_rows, whose noise stream the seed keys as a
    tape seed (any integer, read mod 2^64).
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
    on every interpreter (it compensates since Python 3.12), so an audit's
    bits and worst_pair are the same on 3.10 to 3.13.
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
    order: the gaps between `parts - 1` bars in `total + parts - 1` slots,
    without recursion, so a wide domain is no deeper than a narrow one."""
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
    epsilon; the audit passes when the worst slack is at most delta, and
    worst_pair is the first pair, in lexicographic order of (a, b), with
    the largest slack. The cost is one joint law per count vector and
    |bins| x (non-zero counts) x (domain_size - 1) pair checks, where
    |bins| = C(k + domain_size - 1, domain_size - 1): the neighbours are
    enumerated, not filtered from all |bins|^2 pairs (at k = 10 and
    domain_size = 5, 14,300 of 1,002,001). Raises ValueError for
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
