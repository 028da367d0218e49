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

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    Event,
    _max_event,
    _require_same_domain,
)
from .errors import DomainTooLarge, EmptyDataset

# Multiplier on the log term in the histogram size rule. The theory fixes
# the size only up to a constant; 8 keeps the Monte Carlo accuracy target
# comfortably satisfied without inflating sample demands.
HIST_SIZE_CONSTANT = 8.0

# Largest joint output law (in atoms) that histogram_output_law will build.
OUTPUT_LAW_MAX = 10**6


@dataclass(frozen=True)
class DpParams:
    """Privacy/accuracy parameter bundle: epsilon, delta, eta, beta."""

    epsilon: float
    delta: float
    eta: float
    beta: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        for name in ("delta", "eta", "beta"):
            v = getattr(self, name)
            if not 0 < v < 1:
                raise ValueError(f"{name} must lie in (0, 1)")


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
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return float(
        np.maximum(p.weights - math.exp(alpha) * p_prime.weights, 0.0).sum()
    )


def dp_beta_event_form(
    p: DiscreteDistribution, p_prime: DiscreteDistribution, alpha: float
) -> tuple[float, Event]:
    """Brute-force max over all 2^|Z| events of p(E) - e^alpha * p_prime(E)."""
    _require_same_domain(p, p_prime)
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
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


def histogram_threshold(epsilon: float, delta: float, k: int) -> float:
    """Frequency cutoff tau = 2*ln(2/delta)/(epsilon*k) + 1/k.

    Counts whose noisy frequency lands below tau are reported as zero;
    that is what pays the delta for symbols present in one dataset and
    absent from its neighbor.
    """
    return 2.0 * math.log(2.0 / delta) / (epsilon * k) + 1.0 / k


def _noisy_value(count: int, noise: int, k: int, tau: float) -> float:
    """Released value for a raw count: threshold, then clamp to [0, 1]."""
    noisy = (count + noise) / k
    if noisy >= tau:
        return min(max(noisy, 0.0), 1.0)
    return 0.0


def _two_sided_geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Difference of two i.i.d. geometrics: P(G = g) proportional to p^|g|."""
    return (rng.geometric(1.0 - p, size=size) - rng.geometric(1.0 - p, size=size)).astype(
        np.int64
    )


@dataclass(frozen=True, eq=False)
class NoisyHistogram:
    """Released mapping a: Z -> [0, 1] plus the parameters that produced it.

    Symbols absent from the input sample are exactly zero, and every
    released value sits in [0, 1].
    """

    domain: ContentDomain
    values: np.ndarray
    epsilon: float
    delta: float
    k: int
    tau: float

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.shape != (self.domain.size,):
            raise ValueError("histogram needs one value per symbol")
        # Written so that NaN fails too; -0.0 passes, as it compares equal to 0.
        if not ((v >= 0.0) & (v <= 1.0)).all():
            raise ValueError("histogram values must be finite and lie in [0, 1]")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def value(self, symbol: str) -> float:
        return float(self.values[self.domain.index_of(symbol)])

    def to_json_obj(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "k": self.k,
            "tau": self.tau,
            "values": {
                s: float(v)
                for s, v in zip(self.domain.symbols, self.values)
                if v > 0
            },
        }


def _histogram_from_counts(
    domain: ContentDomain,
    counts: np.ndarray,
    epsilon: float,
    delta: float,
    seed: int,
) -> NoisyHistogram:
    k = int(counts.sum())
    tau = histogram_threshold(epsilon, delta, k)
    present = np.flatnonzero(counts)
    rng = np.random.default_rng(seed)
    noise = _two_sided_geometric(rng, math.exp(-epsilon / 2.0), present.size)
    # Vector form of _noisy_value over the present symbols. np.minimum and
    # np.maximum cost less than np.clip or np.where on the few-symbol
    # histograms of the transform.
    noisy = (counts[present] + noise) / k
    released = np.minimum(np.maximum(noisy, 0.0), 1.0)
    released[noisy < tau] = 0.0
    values = np.zeros(domain.size)
    values[present] = released
    return NoisyHistogram(
        domain=domain, values=values, epsilon=epsilon, delta=delta, k=k, tau=tau
    )


def private_histogram(
    dataset: Dataset, epsilon: float, delta: float, seed: int
) -> NoisyHistogram:
    """(epsilon, delta)-DP frequency estimate with thresholded support.

    Each symbol that occurs in the sample gets two-sided geometric noise
    with ratio parameter exp(-epsilon/2) added to its count; the noisy
    frequency is released if it clears the threshold tau and is clamped
    to [0, 1], otherwise zero. Absent symbols are untouched (exactly
    zero), so the mechanism never reports a false positive. Privacy is
    with respect to replacing one element of the input sample.
    """
    if dataset.size == 0:
        raise EmptyDataset("the histogram needs a non-empty sample")
    return _histogram_from_counts(
        dataset.domain, dataset.counts(), epsilon, delta, seed
    )


# --- exact micro-scale audit ------------------------------------------------
#
# The geometric noise makes each released coordinate a countable atom law,
# so for tiny k and |Z| the full output law of the mechanism fits in a
# dict and the privacy slack can be computed exactly (up to a truncated
# tail whose mass is accounted for conservatively).


def _check_law_args(k: int, epsilon: float, tail: float) -> None:
    if k < 1:
        raise ValueError("k must be at least 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not 0 < tail < 1:
        raise ValueError("tail must lie in (0, 1)")


def coordinate_output_law(
    count: int, k: int, epsilon: float, delta: float, tail: float = 1e-12
) -> dict[float, float]:
    """Exact atom law of one released coordinate with true count `count`.

    Noise values are enumerated until the remaining two-sided tail mass
    drops below `tail`; the returned probabilities then sum to at least
    1 - tail. Raises ValueError for k < 1, epsilon <= 0 or tail outside
    (0, 1), and DomainTooLarge when the enumeration would pass
    OUTPUT_LAW_MAX noise values.
    """
    _check_law_args(k, epsilon, tail)
    if count == 0:
        return {0.0: 1.0}
    tau = histogram_threshold(epsilon, delta, k)
    p = math.exp(-epsilon / 2.0)
    span = 1
    while 2.0 * p ** (span + 1) / (1.0 + p) > tail:
        span += 1
        if 2 * span + 1 > OUTPUT_LAW_MAX:
            raise DomainTooLarge(
                f"noise enumeration needs more than {OUTPUT_LAW_MAX} values "
                f"at epsilon={epsilon}, tail={tail}"
            )
    norm = (1.0 - p) / (1.0 + p)
    law: dict[float, float] = {}
    for g in range(-span, span + 1):
        v = _noisy_value(count, g, k, tau)
        law[v] = law.get(v, 0.0) + norm * p ** abs(g)
    return law


def _joint_law(marginals: list[dict[float, float]]) -> dict[tuple[float, ...], float]:
    """Product of independent coordinate laws, keyed by the tuple of atoms.

    Raises DomainTooLarge before building anything when the product of the
    marginal sizes exceeds OUTPUT_LAW_MAX.
    """
    atoms = math.prod(len(marginal) for marginal in marginals)
    if atoms > OUTPUT_LAW_MAX:
        raise DomainTooLarge(
            f"joint output law has {atoms} atoms, above the cap {OUTPUT_LAW_MAX}"
        )
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

    The joint has one atom per combination of coordinate atoms; when that
    product exceeds OUTPUT_LAW_MAX, DomainTooLarge is raised before any of
    it is built.
    """
    k = sum(counts)
    return _joint_law(
        [coordinate_output_law(c, k, epsilon, delta, tail) for c in counts]
    )


def dp_beta_over_laws(
    law: dict, law_prime: dict, alpha: float
) -> float:
    """dp_beta for countable laws given as atom -> probability dicts.

    Mass missing from `law` (the truncated tail) is charged to beta in
    full, so the result is an upper bound on the exact slack.
    """
    return _beta_over_laws(law, _missing_mass(law), law_prime, math.exp(alpha))


def _missing_mass(law: dict) -> float:
    """Probability mass a truncated law lacks, max(0, 1 - total)."""
    return max(0.0, 1.0 - sum(law.values()))


def _beta_over_laws(law: dict, missing: float, law_prime: dict, scale: float) -> float:
    """sum over atoms of max(law - scale * law_prime, 0), plus law's missing mass."""
    beta = sum(
        max(mass - scale * law_prime.get(atom, 0.0), 0.0)
        for atom, mass in law.items()
    )
    return beta + missing


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
    """Tuples of `parts` non-negative ints summing to `total`, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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

    For each ordered neighbor pair of count vectors the full (truncated)
    output laws are built and the exact additive slack at e^epsilon is
    computed; the audit passes when the worst slack is at most delta.
    The cost is one joint law per count vector and
    |bins| x (non-zero counts) x (domain_size - 1) pair checks, where
    |bins| = C(k + domain_size - 1, domain_size - 1). Raises ValueError for
    k < 1, domain_size < 1, epsilon <= 0 or tail outside (0, 1), and
    DomainTooLarge when one joint law would pass OUTPUT_LAW_MAX atoms.
    """
    _check_law_args(k, epsilon, tail)
    if domain_size < 1:
        raise ValueError("domain_size must be at least 1")
    # Every count vector sums to k, so only k + 1 coordinate laws exist.
    coordinate_laws = [
        coordinate_output_law(c, k, epsilon, delta, tail) for c in range(k + 1)
    ]
    scale = math.exp(epsilon)
    worst = -1.0
    worst_pair = None
    checked = 0
    # Count vector -> (joint law, its missing mass), each built once.
    laws: dict[tuple[int, ...], tuple[dict, float]] = {}
    for a, b in _replacement_neighbors(k, domain_size):
        for c in (a, b):
            if c not in laws:
                joint = _joint_law([coordinate_laws[x] for x in c])
                laws[c] = (joint, _missing_mass(joint))
        law, missing = laws[a]
        beta = _beta_over_laws(law, missing, laws[b][0], scale)
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
