"""Turning an output-stable learner into a differentially private one.

The pipeline: split the private sample into k shards, train the base
learner on each, draw one coupled sample per shard model from a single
shared tape, release a private histogram of those k samples, and project
the histogram back onto the simplex within an l_inf box. Each input item
influences exactly one shard, hence one coupled sample, so the histogram's
(epsilon, delta) guarantee covers the whole pipeline; everything after the
histogram is data-independent post-processing.

If the base learner maps same-distribution samples to models at expected
total variation alpha, the averaged output model stays within
2*alpha/(1+alpha) + O(eta) of a freshly trained base model, and
`transform_bound_experiment` measures that end to end.
"""

from __future__ import annotations

import operator
from dataclasses import asdict, dataclass, field
from itertools import islice
from typing import Callable

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    _check_probability_rows,
    _require_count,
    _require_domain,
    _require_shape,
    _sample_rows,
    _tv_rows,
    make_distribution,
    sample_dataset,
    tv_distance,
)
from .coupling import _race_tape_blocks, _tapes_per_block
from .dp import DpParams, NoisyHistogram, _release_rows, required_k
from .errors import SizeMismatch
from .util import _derive_seeds, _seed_key, derive_seed

# Coefficient on eta in the reported deviation bound: the accuracy chain
# contributes 3*eta, the histogram failure event at most eta more, and the
# projection slack eta again; 5 covers the sum with headroom.
ETA_COEFFICIENT = 5.0


@dataclass(frozen=True)
class Learner:
    """Deterministic map from (dataset, seed) to an output distribution.

    `train_shards`, when given, is the batched form used by the transform:
    `train_shards(domain, shard_indices, train_seed)` takes the (k, m)
    index matrix of k shards and returns a (k, |Z|) weight matrix whose
    row i equals `train(shard_i, derive_seed(train_seed, "shard-train",
    i)).weights` bit for bit. Without it the transform trains shard by
    shard through `train`, which stays the reference.
    """

    name: str
    train: Callable[[Dataset, int], DiscreteDistribution]
    train_shards: Callable[[ContentDomain, np.ndarray, int], np.ndarray] | None = None


@dataclass(frozen=True)
class TransformConfig:
    """Shard layout and privacy parameters for the transform.

    The histogram failure probability is tied to eta, which fixes the
    shard count k and hence the private sample size m_priv = k * m; both
    are derived here, never set.
    """

    epsilon: float
    delta: float
    eta: float
    m: int
    k: int = field(init=False)
    m_priv: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _require_count("m", self.m))
        k = required_k(self.params)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "m_priv", k * self.m)

    @property
    def params(self) -> DpParams:
        return DpParams(epsilon=self.epsilon, delta=self.delta, eta=self.eta, beta=self.eta)

    @classmethod
    def from_params(
        cls, epsilon: float, delta: float, eta: float, m: int
    ) -> "TransformConfig":
        return cls(epsilon, delta, eta, m)

    def to_json_obj(self) -> dict:
        """The payload fields epsilon, delta, eta, m, k and m_priv, in that order."""
        return asdict(self)


def estimate_premise_alpha(
    learner: Learner,
    data_dist: DiscreteDistribution,
    m: int,
    trials: int,
    seed: int,
) -> float:
    """Mean TV between models trained on two independent m-samples.

    This is the output-stability level the transform's bound is stated
    against; constant learners score exactly zero. Trial t's samples a and
    b are sample_dataset(data_dist, m, s) for its seeds s from the
    "premise-sample-a" and "-b" streams. The trials run in blocks of
    _tapes_per_block(max(m, |Z|)) rows, so a block's uniforms and models
    fit the race's cell budget: each block draws each side's rows in one
    core._sample_rows call, sample_dataset's own sampler, and trains each
    side once through _train_rows, side s of block b with train seed
    derive_seed(seed, "premise-train-s", b). The row TVs are
    core._tv_rows, tv_distance's own sum, and are added in trial order. A
    learner that ignores its seed, as both built-in ones do, so gets the
    per-trial loop's estimate bit for bit; a seeded learner sees the block
    train seeds. Raises ValueError for trials < 1 or m < 0
    (a bool or float is not a count) before any seed is drawn.
    """
    trials = _require_count("trials", trials)
    m = _require_count("m", m, minimum=0)
    domain = data_dist.domain
    block = _tapes_per_block(max(m, domain.size))
    streams = [_derive_seeds(seed, f"premise-sample-{side}", range(trials)) for side in "ab"]
    total = 0.0
    for b in range(-(-trials // block)):
        samples = (_sample_rows(data_dist, m, [*islice(stream, block)]) for stream in streams)
        models = [
            _train_rows(learner, domain, rows, derive_seed(seed, f"premise-train-{side}", b))
            for side, rows in zip("ab", samples)
        ]
        for tv in _tv_rows(*models).tolist():
            total += tv
    return total / trials


def simplex_project_linf(
    domain: ContentDomain, values: np.ndarray, eta: float
) -> DiscreteDistribution | None:
    """A distribution within eta of `values` in l_inf, or None if none exists.

    The box [max(0, a-eta), min(1, a+eta)] meets the simplex exactly when
    no coordinate's interval is empty (lower <= upper), the lower bounds
    sum to at most 1 and the upper bounds to at least 1.
    Construction: clip the input into [0, 1], then push the mass surplus
    or deficit through the coordinates in index order within each
    coordinate's remaining slack. This is one row of _project_rows.
    Non-finite values raise ValueError before any projection.
    """
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    rows, feasible = _project_rows(values[None, :], eta)
    return make_distribution(domain, rows[0]) if feasible[0] else None


def _project_rows(values: np.ndarray, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Project each row of an (n, |Z|) matrix as simplex_project_linf does.

    Returns (projected rows, feasible mask); an infeasible row gets the
    uniform distribution, the neutral choice when its box misses the
    simplex. Each row equals the sequential push loop bit for bit. The
    loop's step is the residual clipped to [min(s_i, 0), max(s_i, 0)] for
    the coordinate's slack s_i: min(residual, s_i) on a surplus, max on a
    deficit. While each step takes its full slack, the residual before
    step i is r_0 - s_0 - ... - s_{i-1}, subtracted in that order by
    np.subtract.accumulate. The first step whose slack covers it takes it
    whole, leaving exactly 0; later sums have crossed 0 and clip to 0, as
    the loop's zero residual does. np.clip, np.minimum and np.maximum each
    return one of their operands, and no residual or slack is -0.0, so
    adding a zero step turns -0.0 into 0.0 as the loop's + 0.0 does.
    Raises ValueError unless eta > 0 (NaN fails). This is not the (0, 1)
    rule of DpParams' eta: any positive box radius is a valid projection,
    and eta >= 1 only makes every box reach both ends of [0, 1].
    """
    if not eta > 0:  # NaN fails too
        raise ValueError("eta must be positive")
    lower = np.maximum(values - eta, 0.0)
    upper = np.minimum(values + eta, 1.0)
    feasible = ~(
        (upper < lower).any(axis=1)
        | (lower.sum(axis=1) > 1.0)
        | (upper.sum(axis=1) < 1.0)
    )
    out = np.full(values.shape, 1.0 / values.shape[1])
    x = np.clip(values[feasible], 0.0, 1.0)
    residual = 1.0 - x.sum(axis=1)
    surplus = (residual > 0)[:, None]
    # Slack in the residual's direction; lower <= x <= upper on a
    # feasible row, so a zero residual stops at the first step.
    slack = np.where(surplus, upper[feasible] - x, lower[feasible] - x)
    before = np.empty_like(x)
    before[:, 0] = residual
    before[:, 1:] = slack[:, :-1]
    np.subtract.accumulate(before, axis=1, out=before)
    x += np.clip(before, np.minimum(slack, 0.0), np.maximum(slack, 0.0))
    out[feasible] = x
    _check_probability_rows(out)
    return out, feasible


@dataclass(frozen=True, eq=False)
class TransformTrace:
    """Intermediates of one transform run; coupled_counts is what the histogram released.

    The run never holds the coupled indices; race_tapes on shard_weights
    gives them."""

    shard_weights: np.ndarray
    coupled_counts: np.ndarray
    histogram: NoisyHistogram
    fallback_used: bool
    output: DiscreteDistribution


def _train_rows(
    learner: Learner, domain: ContentDomain, samples: np.ndarray, train_seed: int
) -> np.ndarray:
    """(n, |Z|) weights of the models trained on each row of an (n, m) index
    matrix, validated once as n distributions on `domain`.

    The train seed is read once, as its util._seed_key, whether or not the
    learner uses it. A batched `train_shards` takes the matrix whole;
    otherwise row i trains through `train` with seed derive_seed(train_seed,
    "shard-train", i).
    """
    train_seed = _seed_key(train_seed)
    n = samples.shape[0]
    if learner.train_shards is not None:
        weights = learner.train_shards(domain, samples, train_seed)
    else:
        rows = []
        for i, row in enumerate(samples):
            shard = Dataset.from_indices(domain, row)
            q = learner.train(shard, derive_seed(train_seed, "shard-train", i))
            _require_domain(domain, q)
            rows.append(q.weights)
        weights = np.stack(rows)
    weights = _require_shape(np.asarray(weights, dtype=np.float64), (n, domain.size))
    _check_probability_rows(weights)
    return weights


def _shard_weight_matrix(
    learner: Learner, sample: Dataset, config: TransformConfig, train_seed: int
) -> np.ndarray:
    """Train the k shard models; rows are their weight vectors.

    Shard i is row i of the (k, m) sample matrix, trained by _train_rows.
    """
    if sample.size != config.m_priv:
        raise SizeMismatch(f"expected k*m = {config.m_priv} items, got {sample.size}")
    return _train_rows(
        learner, sample.domain, sample.indices.reshape(config.k, config.m), train_seed
    )


def _release_chain(
    domain: ContentDomain, weights: np.ndarray, tape_seeds, noise_seeds, config: TransformConfig
):
    """Race, release and project the shard models on (tape, noise) seed pairs.

    Yields (counts, values, outputs, feasible) per tape block of its one
    race, in seed order: each block of counts is released and projected as
    it is raced, so the chain holds one block, never the whole chain. The
    seeds may be any iterables, and each block draws its own tape and noise
    seeds when it is taken, so no seed list grows with the chain. Everything
    after the histogram is data-independent post-processing, so releasing
    the rows together leaves the (epsilon, delta) argument as it is."""
    noise = iter(noise_seeds)
    for counts in _race_tape_blocks(domain, tape_seeds, weights, count=True):
        values = _release_rows(counts, config.epsilon, config.delta, [*islice(noise, len(counts))])
        yield (counts, values, *_project_rows(values, config.eta))


def dp_transform_trace(
    learner: Learner,
    sample: Dataset,
    config: TransformConfig,
    tape_seed: int,
    noise_seed: int,
    train_seed: int = 0,
) -> TransformTrace:
    """dp_transform plus all intermediates: one (tape, noise) pair of _release_chain.

    The histogram is the NoisyHistogram of the released count row with
    k = config.k, bit for bit what private_histogram releases, on the same
    noise seed, from a dataset with those counts."""
    weights = _shard_weight_matrix(learner, sample, config, train_seed)
    domain = sample.domain
    [(counts, values, outputs, feasible)] = _release_chain(
        domain, weights, [tape_seed], [noise_seed], config
    )
    return TransformTrace(
        shard_weights=weights,
        coupled_counts=counts[0],
        histogram=NoisyHistogram(domain, values[0], config.epsilon, config.delta, config.k),
        fallback_used=not feasible[0],
        output=make_distribution(domain, outputs[0]),
    )


def dp_transform(
    learner: Learner,
    sample: Dataset,
    config: TransformConfig,
    tape_seed: int,
    noise_seed: int,
    train_seed: int = 0,
) -> DiscreteDistribution:
    """(epsilon, delta)-DP output model from a sample of k*m items.

    Steps: shard the sample in input order, train per shard, draw one
    coupled sample per shard model from a single tape, release the private
    histogram of those samples, and project it onto the simplex within
    eta per coordinate (uniform fallback if the projection is infeasible).

    tape_seed drives the shared tape, noise_seed the histogram noise, and
    train_seed the learner's own randomness; keeping the three apart lets
    callers average over fresh (tape, noise) pairs while holding the
    trained shards fixed.
    """
    return dp_transform_trace(learner, sample, config, tape_seed, noise_seed, train_seed).output


@dataclass(frozen=True, eq=False)
class BoundExperimentReport:
    """Measured deviation of the transformed learner against its bound; the
    outer_trials, grand_mean_tv and bound fields are derived, never set."""

    config: TransformConfig
    outer_trials: int = field(init=False)
    inner_trials: int
    premise_trials: int
    seed: int
    alpha_hat: float
    per_trial_tv: tuple[float, ...]
    grand_mean_tv: float = field(init=False)
    bound: float = field(init=False)

    def __post_init__(self):
        if not self.per_trial_tv:
            raise ValueError("a report needs at least one outer trial")
        object.__setattr__(self, "outer_trials", len(self.per_trial_tv))
        object.__setattr__(self, "grand_mean_tv", float(np.mean(self.per_trial_tv)))
        object.__setattr__(self, "bound", deviation_bound(self.alpha_hat, self.config.eta))

    def within_bound(self, margin: float = 0.0) -> bool:
        return self.grand_mean_tv <= self.bound + margin

    def to_json_obj(self) -> dict:
        fields = asdict(self)
        return {
            **fields.pop("config"),
            **fields,
            "per_trial_tv": list(self.per_trial_tv),
            "eta_coefficient": ETA_COEFFICIENT,
        }


def deviation_bound(alpha: float, eta: float) -> float:
    """2*alpha/(1+alpha) + ETA_COEFFICIENT * eta, monotone in alpha."""
    return 2.0 * alpha / (1.0 + alpha) + ETA_COEFFICIENT * eta


def transform_bound_experiment(
    learner: Learner,
    data_dist: DiscreteDistribution,
    config: TransformConfig,
    outer_trials: int,
    inner_trials: int,
    seed: int,
    premise_trials: int = 200,
) -> BoundExperimentReport:
    """Measure E[TV(mean transformed model, fresh base model)] vs the bound.

    Each outer trial draws a base sample and a private sample, trains the
    base model, and averages `inner_trials` transform outputs over fresh
    (tape, noise) seeds with the shard models held fixed (the shards are
    a deterministic function of the private sample, so this matches
    re-running dp_transform with the same train seed). The premise level
    alpha_hat is estimated on the side and turned into the reported bound.
    Trial i of the inner trials, numbered across the outer trials, races on
    derive_seed(seed, "tape", i) and releases on derive_seed(seed, "noise",
    i), both read from lazy _derive_seeds streams; the outputs are added to
    the running sum in trial order.
    """
    _require_count("outer_trials", outer_trials)
    inner_trials = _require_count("inner_trials", inner_trials)
    premise_trials = _require_count("premise_trials", premise_trials)
    seed = operator.index(seed)
    alpha_hat = estimate_premise_alpha(
        learner, data_dist, config.m, premise_trials, derive_seed(seed, "premise")
    )
    domain = data_dist.domain

    def one_outer(t: int) -> float:
        base_sample = sample_dataset(data_dist, config.m, derive_seed(seed, "base-sample", t))
        priv_sample = sample_dataset(
            data_dist, config.m_priv, derive_seed(seed, "private-sample", t)
        )
        base_model = learner.train(base_sample, derive_seed(seed, "base-train", t))
        weights = _shard_weight_matrix(
            learner, priv_sample, config, derive_seed(seed, "transform-train", t)
        )
        trials = range(t * inner_trials, (t + 1) * inner_trials)
        tapes = _derive_seeds(seed, "tape", trials)
        noise_seeds = _derive_seeds(seed, "noise", trials)
        # The rounding of the sum depends on its order: an axis-0 add.reduce
        # adds acc and then the outputs row by row, in trial order.
        acc = np.zeros(domain.size)
        for _, _, outputs, _ in _release_chain(domain, weights, tapes, noise_seeds, config):
            acc = np.add.reduce(np.vstack((acc, outputs)))
        mean_model = make_distribution(domain, acc / inner_trials)
        return tv_distance(mean_model, base_model)

    return BoundExperimentReport(
        config=config,
        inner_trials=inner_trials,
        premise_trials=premise_trials,
        seed=seed,
        alpha_hat=alpha_hat,
        per_trial_tv=tuple(one_outer(t) for t in range(outer_trials)),
    )
