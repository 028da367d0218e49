"""Near-access-freeness: safe models, the alpha check, and its limits.

A safe assignment maps each protected content item c to a model q_c that
is considered non-infringing for c. A model p is alpha-NAF when
p(z) <= e^alpha * q_c(z) for every protected c and every symbol z; the
check, the smallest achievable alpha, the pointwise-minimum envelope that
lower-bounds any achievable alpha, the censored probability mass, and the
no-free-lunch witness for far-apart safe models are all computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    _require_alpha,
    _require_same_domain,
    min_envelope,
    tv_distance,
)
from .errors import (
    DatasetTooSmall,
    DegenerateTV,
    EmptySafeAssignment,
)
from .util import _seed_key


class Violation(NamedTuple):
    """One exceeded constraint: p(z) > e^alpha * q_c(z)."""

    content_id: str
    symbol: str
    log_ratio: float


class NflWitness(NamedTuple):
    """Symbol certifying the lower bound p(z) >= min(q1(z), q2(z)) / (2(1-a))."""

    symbol: str
    p_value: float
    threshold: float

    @property
    def satisfied(self) -> bool:
        """The nfl-check verdict: p meets the threshold at the witness, to 1e-12."""
        return self.p_value >= self.threshold - 1e-12


@dataclass(frozen=True, eq=False)
class SafeAssignment:
    """Mapping from protected content identifiers to their safe models."""

    entries: tuple[tuple[str, DiscreteDistribution], ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        ids = [cid for cid, _ in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("protected content identifiers must be unique")
        for _, q in self.entries[1:]:
            _require_same_domain(self.entries[0][1], q)

    @classmethod
    def from_models(cls, models: Iterable[DiscreteDistribution]) -> "SafeAssignment":
        return cls(tuple((f"c{i}", q) for i, q in enumerate(models)))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(cid for cid, _ in self.entries)

    @property
    def models(self) -> tuple[DiscreteDistribution, ...]:
        return tuple(q for _, q in self.entries)

    @property
    def domain(self) -> ContentDomain:
        self._require_nonempty()
        return self.entries[0][1].domain

    def envelope(self) -> np.ndarray:
        """Pointwise minimum over the safe models, min_c q_c(z)."""
        self._require_nonempty()
        return min_envelope(self.models)

    def _require_nonempty(self):
        if not self.entries:
            raise EmptySafeAssignment("the safe assignment has no entries")


def _first_occurrences(indices: np.ndarray) -> np.ndarray:
    """Positions of each distinct index's first occurrence, in input order."""
    return np.sort(np.unique(indices, return_index=True)[1])


def safe_leave_one_out(learner, dataset: Dataset, seed: int) -> SafeAssignment:
    """One safe model per distinct item: retrain without one occurrence of it.

    Entries follow first-occurrence order; the removed occurrence is the
    first one.
    """
    if dataset.size < 2:
        raise DatasetTooSmall("leave-one-out needs at least two items")
    entries = []
    for pos in _first_occurrences(dataset.indices):
        reduced = Dataset._from_owned(dataset.domain, np.delete(dataset.indices, pos))
        symbol = dataset.domain.symbols[int(dataset.indices[pos])]
        entries.append((symbol, learner.train(reduced, seed)))
    return SafeAssignment(tuple(entries))


def safe_sharded(learner, dataset: Dataset, seed: int) -> SafeAssignment:
    """Two-shard safety: each item's safe model is trained on the other half.

    The dataset is split in two by the permutation of
    default_rng(util._seed_key(seed)). An item occurring
    in both halves has no occurrence-free half; the tie goes to the model
    of shard 0.
    """
    if dataset.size < 2:
        raise DatasetTooSmall("sharded safety needs at least two items")
    perm = np.random.default_rng(_seed_key(seed)).permutation(dataset.size)
    half = dataset.size // 2
    shards = [
        Dataset._from_owned(dataset.domain, dataset.indices[np.sort(perm[:half])]),
        Dataset._from_owned(dataset.domain, dataset.indices[np.sort(perm[half:])]),
    ]
    models = [learner.train(shard, seed) for shard in shards]
    # Every item is in some shard, so shard 1's model goes exactly to the
    # items that shard 1 lacks.
    in_shard1 = set(shards[1].indices.tolist())
    firsts = dataset.indices[_first_occurrences(dataset.indices)].tolist()
    return SafeAssignment(tuple(
        (dataset.domain.symbols[i], models[0 if i in in_shard1 else 1]) for i in firsts
    ))


def _log_ratios(
    p: DiscreteDistribution, safes: SafeAssignment
) -> tuple[np.ndarray, np.ndarray]:
    """p's support and the (safe model, support symbol) table of
    ln p(z) - ln q_c(z), +inf where q_c(z) = 0."""
    _require_same_domain(p, safes)
    support = np.flatnonzero(p.weights > 0)
    safe_weights = np.stack([q.weights[support] for q in safes.models])
    with np.errstate(divide="ignore"):
        return support, np.log(p.weights[support]) - np.log(safe_weights)


def naf_alpha(p: DiscreteDistribution, safes: SafeAssignment) -> float:
    """Smallest alpha >= 0 with p(z) <= e^alpha * q_c(z) for all c, z.

    Equals the largest log-ratio ln(p(z)/q_c(z)) over symbols in p's
    support; +inf when some safe model puts zero mass where p does not.
    Symbols with p(z) = 0 impose no constraint. An assignment with no
    entries raises EmptySafeAssignment, here and in is_naf.
    """
    return max(0.0, float(_log_ratios(p, safes)[1].max()))


def is_naf(
    p: DiscreteDistribution, safes: SafeAssignment, alpha: float
) -> tuple[bool, list[Violation]]:
    """Check p against every safe model at level alpha.

    Returns (ok, violations): ok is True when no constraint is exceeded,
    and the list names every (c, z) whose log-ratio exceeds alpha, so a
    failed check doubles as a soft flag report rather than a bare verdict.
    """
    support, table = _log_ratios(p, safes)
    _require_alpha("alpha", alpha)
    ids, symbols = safes.ids, p.domain.symbols
    violations = [
        Violation(ids[c], symbols[int(support[pos])], float(table[c, pos]))
        for c, pos in zip(*np.nonzero(table > alpha))
    ]
    return (not violations), violations


def feasibility_alpha(safes: SafeAssignment) -> float:
    """Smallest alpha any NAF model could possibly achieve for these safes.

    p <= e^alpha * min_c q_c pointwise and sum(p) = 1 force alpha >=
    -ln(sum_z min_c q_c(z)), clamped at 0 as naf_alpha is; +inf for no mass.
    """
    mass = float(safes.envelope().sum())
    if mass == 0.0:
        return math.inf
    return max(0.0, -math.log(mass))


def nfl_thresholds(q1: DiscreteDistribution, q2: DiscreteDistribution) -> np.ndarray:
    """Per-symbol no-free-lunch threshold min(q1, q2) / (2 * (1 - TV(q1, q2))).

    At TV = 1 the denominator vanishes and the bound is uninformative,
    which is reported as DegenerateTV instead of a vacuous threshold.
    """
    alpha = tv_distance(q1, q2)
    if alpha >= 1.0 - 1e-12:
        raise DegenerateTV("safe models are at total variation 1")
    return np.minimum(q1.weights, q2.weights) / (2.0 * (1.0 - alpha))


def nfl_witness(
    p: DiscreteDistribution,
    q1: DiscreteDistribution,
    q2: DiscreteDistribution,
) -> NflWitness:
    """Symbol where p meets its no-free-lunch threshold (see nfl_thresholds).

    Whatever p is, some symbol meets the threshold; the returned symbol
    maximizes the slack p(z) - threshold(z).
    """
    _require_same_domain(p, q1)
    _require_same_domain(p, q2)
    thresholds = nfl_thresholds(q1, q2)
    w = p.weights
    # ndarray.argmax keeps np.argmax's first-maximum rule without its wrapper.
    best = int((w - thresholds).argmax())
    return NflWitness(p.domain.symbols[best], w.item(best), thresholds.item(best))


@dataclass(frozen=True, eq=False)
class CensorshipReport:
    """How much probability mass the safe models force any NAF model to drop.

    bounds[z] = min(1, e^alpha * min_c q_c(z)) caps what an alpha-NAF
    model may put on z; the deficit is the mass that cannot be placed
    anywhere, max(0, 1 - sum(bounds)). Both totals are derived from the
    bounds, never set.
    """

    alpha: float
    domain: ContentDomain
    bounds: np.ndarray
    allowed_mass: float = field(init=False)
    deficit: float = field(init=False)

    def __post_init__(self):
        allowed = float(self.bounds.sum())
        object.__setattr__(self, "allowed_mass", allowed)
        object.__setattr__(self, "deficit", max(0.0, 1.0 - allowed))

    def to_json_obj(self) -> dict:
        return {
            "alpha": self.alpha,
            "allowed_mass": self.allowed_mass,
            "deficit": self.deficit,
            "bounds": {
                s: float(b) for s, b in zip(self.domain.symbols, self.bounds)
            },
        }


def censorship_report(safes: SafeAssignment, alpha: float) -> CensorshipReport:
    """Per-symbol allowed-mass caps and the total withheld mass at level alpha."""
    _require_alpha("alpha", alpha)
    bounds = np.minimum(math.exp(alpha) * safes.envelope(), 1.0)
    return CensorshipReport(alpha=alpha, domain=safes.domain, bounds=bounds)


@dataclass(frozen=True, eq=False)
class NafReport:
    """Full diagnostic for one model against one safe assignment."""

    alpha: float
    alpha_star: float
    violations: tuple[Violation, ...]
    feasibility_alpha: float
    censorship: CensorshipReport

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "alpha": self.alpha,
            "alpha_star": self.alpha_star,
            "ok": self.ok,
            "violations": [v._asdict() for v in self.violations],
            "feasibility_alpha": self.feasibility_alpha,
            "censorship": self.censorship.to_json_obj(),
        }


def naf_report(
    p: DiscreteDistribution, safes: SafeAssignment, alpha: float
) -> NafReport:
    """Bundle the alpha check, achievable alpha, feasibility, and censorship."""
    _, violations = is_naf(p, safes, alpha)
    return NafReport(
        alpha=alpha,
        alpha_star=naf_alpha(p, safes),
        violations=tuple(violations),
        feasibility_alpha=feasibility_alpha(safes),
        censorship=censorship_report(safes, alpha),
    )
