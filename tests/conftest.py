"""Shared helpers for the test suite."""

from __future__ import annotations

import math
import operator

import numpy as np

from stability_lab import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    Event,
    make_distribution,
    sample_dataset,
    tv_distance,
)
from stability_lab.dp import histogram_threshold
from stability_lab.util import _derive_seeds

_DOMAINS: dict[int, ContentDomain] = {}


def domain(size: int) -> ContentDomain:
    """Cached domain z0..z{size-1}."""
    if size not in _DOMAINS:
        _DOMAINS[size] = ContentDomain(tuple(f"z{i}" for i in range(size)))
    return _DOMAINS[size]


def dist(weights) -> DiscreteDistribution:
    return make_distribution(domain(len(weights)), weights)


def random_distribution(
    rng: np.random.Generator, size: int, sparsify: float = 0.0
) -> DiscreteDistribution:
    """Dirichlet(1,..,1) draw; optionally zero out coordinates and renormalize."""
    w = rng.dirichlet(np.ones(size))
    if sparsify > 0:
        keep = rng.random(size) >= sparsify
        if not keep.any():
            keep[rng.integers(size)] = True
        w = np.where(keep, w, 0.0)
        w = w / w.sum()
    return make_distribution(domain(size), w)


def random_pair(rng: np.random.Generator, size: int, sparsify: float = 0.0):
    return (
        random_distribution(rng, size, sparsify),
        random_distribution(rng, size, sparsify),
    )


def event_form_pair(rng: np.random.Generator, size: int, kind: str):
    """A random pair of laws over `size` symbols for the event-form oracle.

    "dirichlet" is Dirichlet(1,..,1), "sparse" Dirichlet(0.1,..,0.1), whose
    tiny weights give gaps below an ulp of a running sum, and "near-integer"
    integer counts over one total, the second law with a few units moved
    and scaled by the reciprocal of the total, so most gaps are 0 or an ulp.
    """
    if kind == "near-integer":
        counts = rng.integers(1, 2 ** int(rng.integers(1, 12)), size).astype(np.float64)
        total = counts.sum()
        moved = counts.copy()
        src, dst = rng.integers(size, size=2)
        units = min(moved[src], float(rng.integers(1, 8)))
        moved[src] -= units
        moved[dst] += units
        return dist(counts / total), dist(moved * (1.0 / total))
    concentration = {"dirichlet": 1.0, "sparse": 0.1}[kind]
    return tuple(dist(rng.dirichlet(np.full(size, concentration))) for _ in range(2))


# --- event enumeration oracle --------------------------------------------------
#
# Verbatim copies of core._all_event_gaps and of the body of core._max_event
# before the closed form (its 20-symbol size check left out): every one of
# the 2^|Z| events summed in index order, and the first maximum, the lowest
# bitmask. The closed form's value must equal its maximum bit for bit, and
# its event, E+, must contain the enumerated one. Keep to about 20 symbols.


def all_event_gaps(diff: np.ndarray) -> np.ndarray:
    """Sum of `diff` over every subset; entry m is the subset with bitmask m.

    Doubling construction: after processing symbol j, the array holds all
    2^(j+1) subset sums of the first j+1 coordinates.
    """
    sums = np.zeros(1)
    for d in diff:
        sums = np.concatenate([sums, sums + d])
    return sums


def enumerated_max_event(domain: ContentDomain, diff: np.ndarray) -> tuple[float, Event]:
    """Max over all events E of sum_{z in E} diff(z), with a maximizer."""
    gaps = all_event_gaps(diff)
    best = int(np.argmax(gaps))
    return float(gaps[best]), Event(domain, best)


# --- binary-search sampler oracle --------------------------------------------
#
# Verbatim copy of the body of core.sample_indices before the bucket table:
# one binary search per draw. The table must give the same indices, byte
# for byte, from the same random stream.


def searchsorted_sample_indices(q: DiscreteDistribution, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(q.weights)
    cdf /= cdf[-1]
    u = rng.random(n)
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


# --- per-trial premise oracle ------------------------------------------------
#
# The body of transform.estimate_premise_alpha before its block passes: two
# seeded samples, two trainings and one tv_distance per trial, added in
# trial order. Trial t trains with its seeds from the "premise-train-a" and
# "-b" streams, or with train_seeds[0][t] and train_seeds[1][t] when given.


def per_trial_premise_alpha(learner, data_dist, m, trials, seed, train_seeds=None) -> float:
    labels = ("premise-sample-a", "premise-sample-b")
    if train_seeds is None:
        train_seeds = [_derive_seeds(seed, f"premise-train-{x}", range(trials)) for x in "ab"]
    total = 0.0
    for a, b, train_a, train_b in zip(
        *(_derive_seeds(seed, x, range(trials)) for x in labels), *train_seeds
    ):
        s1 = sample_dataset(data_dist, m, a)
        s2 = sample_dataset(data_dist, m, b)
        total += tv_distance(learner.train(s1, train_a), learner.train(s2, train_b))
    return total / trials


# --- scalar oracles ---------------------------------------------------------
#
# Verbatim copies of the scalar and one-vector bodies that the row forms
# dp._release_rows, dp._threshold_clamp and transform._project_rows
# replaced, and a scalar form of the histogram's noise draw: pure-Python
# splitmix64 and math.log, one variate at a time. The row forms must match
# them bit for bit.

_M64 = (1 << 64) - 1


def scalar_splitmix64(x: int) -> int:
    """splitmix64 of one 64-bit integer: the golden-ratio step, then the finalizer."""
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def noise_variate(seed, v: int) -> float:
    """Unit exponential of cell v of a noise seed's stream: the hash of the
    seed's key (seed mod 2^64) plus 2^63 + v, its top 53 bits a uniform
    in (0, 1), at most 1 - 2^-53, mapped through -log."""
    key = scalar_splitmix64(operator.index(seed) & _M64)
    bits = scalar_splitmix64((key + (1 << 63) + v) & _M64) >> 11
    return -math.log(min((bits + 0.5) * 2.0**-53, 1.0 - 2.0**-53))


def noise_geometric(seed, v: int, epsilon: float) -> int:
    """ceil(2 E_v / epsilon): geometric with P(G > g) = e^(-g epsilon / 2)."""
    return math.ceil(2.0 * noise_variate(seed, v) / epsilon)


def two_call_geometric(seed, epsilon: float, size: int) -> np.ndarray:
    """Noise of a row's `size` present symbols, P(G = g) proportional to
    e^(-epsilon |g| / 2): symbol j's first geometric reads cell 2j and its
    second cell 2j + 1, drawn as two lists."""
    first = [noise_geometric(seed, 2 * j, epsilon) for j in range(size)]
    second = [noise_geometric(seed, 2 * j + 1, epsilon) for j in range(size)]
    return np.array(first, dtype=np.int64) - np.array(second, dtype=np.int64)


def two_sided_geometric(seed, epsilon: float, size: int) -> np.ndarray:
    """two_call_geometric's noise from one walk over cells 0, ..., 2 size - 1."""
    draws = [noise_geometric(seed, v, epsilon) for v in range(2 * size)]
    return np.array(draws[0::2], dtype=np.int64) - np.array(draws[1::2], dtype=np.int64)


def per_row_release(counts: np.ndarray, epsilon: float, delta: float, seeds) -> np.ndarray:
    """The released values of dp._release_rows, drawn row by row."""
    k = counts.sum(axis=1)
    tau = histogram_threshold(epsilon, delta, k)
    rows, cols = np.nonzero(counts)
    sizes = np.bincount(rows, minlength=k.size).tolist()
    noise = np.concatenate([
        two_sided_geometric(seed, epsilon, size) for seed, size in zip(seeds, sizes)
    ])
    noisy = (counts[rows, cols] + noise) / k[rows]
    released = np.minimum(np.maximum(noisy, 0.0), 1.0)
    released[noisy < tau[rows]] = 0.0
    values = np.zeros(counts.shape)
    values[rows, cols] = released
    return values


def scalar_noisy_value(count: int, noise: int, k: int, tau: float) -> float:
    """Released value for a raw count: threshold, then clamp to [0, 1]."""
    noisy = (count + noise) / k
    if noisy >= tau:
        return min(max(noisy, 0.0), 1.0)
    return 0.0


def scalar_histogram_values(counts, epsilon, delta, seed):
    """The released values of dp.private_histogram before the row form."""
    k = int(counts.sum())
    tau = histogram_threshold(epsilon, delta, k)
    present = np.flatnonzero(counts)
    noise = two_call_geometric(seed, epsilon, present.size)
    noisy = (counts[present] + noise) / k
    released = np.minimum(np.maximum(noisy, 0.0), 1.0)
    released[noisy < tau] = 0.0
    values = np.zeros(counts.size)
    values[present] = released
    return values


def scalar_project(values, eta):
    """The weights of simplex_project_linf before the row form, or None."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    a = np.asarray(values, dtype=np.float64)
    lower = np.maximum(a - eta, 0.0)
    upper = np.minimum(a + eta, 1.0)
    if (upper < lower).any() or lower.sum() > 1.0 or upper.sum() < 1.0:
        return None
    x = np.clip(a, 0.0, 1.0)
    residual = 1.0 - float(x.sum())
    for i in range(x.size):
        if residual == 0.0:
            x[i:] += 0.0
            break
        if residual > 0:
            step = min(residual, float(upper[i] - x[i]))
        else:
            step = max(residual, float(lower[i] - x[i]))
        x[i] += step
        residual -= step
    return x


# --- argmin race oracle ----------------------------------------------------
#
# Verbatim copy of the argmin body that race_tapes, race_counts and the
# Monte Carlo helpers raced with before the symbol-major tournament. The
# tape races and the helpers, which stream symbol rows through the
# tournament, must match it bit for bit; coupled_sample_index, which races
# one explicit tape, is still an argmin.


def argmin_race(variates: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """argmin_z variates[..., z] / weights[..., z], zero weights excluded.

    Broadcasting covers one tape against one weight vector, a (n, |Z|)
    block of tapes against one weight vector, and a (n, 1, |Z|) block of
    tapes against a (k, |Z|) matrix. Weights that are not > 0 are
    replaced by +0.0 before the division, so they give +inf (variates are
    strictly positive and finite) and never win; a -0.0 weight left as it
    is would give -inf and win. A quotient past DBL_MAX (a subnormal
    weight) is +inf too; neither division warns. Masking the weights rather than the
    quotient does the mask once per weight cell, not once per broadcast
    cell. np.argmin takes the first minimum, which implements the
    lowest-index tie rule.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.argmin(variates / np.where(weights > 0, weights, 0.0), axis=-1)


# --- loop oracles for the NAF table, the first-occurrence walk and the
# empirical learner ----------------------------------------------------------
#
# Verbatim copies of the per-model loops that naf's envelope ratios,
# naf._first_occurrences and the one-row learner_empirical.train replaced
# (their domain checks left out); the rewritten forms must match them bit
# for bit.


def loop_naf_alpha(p, safes) -> float:
    support = p.weights > 0
    log_p = np.log(p.weights[support])
    worst = 0.0
    for _, q in safes:
        qw = q.weights[support]
        if np.any(qw == 0):
            return math.inf
        worst = max(worst, float((log_p - np.log(qw)).max()))
    return worst


def loop_is_naf(p, safes, alpha):
    """(ok, violations) with each violation a (content_id, symbol, log_ratio)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    support = np.flatnonzero(p.weights > 0)
    log_p = np.log(p.weights[support])
    symbols = p.domain.symbols
    violations = []
    for cid, q in safes:
        qw = q.weights[support]
        with np.errstate(divide="ignore"):
            ratios = log_p - np.log(qw)
        for pos in np.flatnonzero(ratios > alpha):
            violations.append(
                (cid, symbols[int(support[pos])], float(ratios[pos]))
            )
    return (not violations), violations


def seen_set_leave_one_out(learner, dataset, seed):
    """safe_leave_one_out's entries, as a tuple of (symbol, model)."""
    entries = []
    seen = set()
    for pos, idx in enumerate(dataset.indices):
        if int(idx) in seen:
            continue
        seen.add(int(idx))
        reduced = Dataset.from_indices(
            dataset.domain, np.delete(dataset.indices, pos)
        )
        symbol = dataset.domain.symbols[int(idx)]
        entries.append((symbol, learner.train(reduced, seed)))
    return tuple(entries)


def seen_set_sharded(learner, dataset, seed):
    """safe_sharded's entries, as a tuple of (symbol, model)."""
    perm = np.random.default_rng(seed).permutation(dataset.size)
    half = dataset.size // 2
    shards = [
        Dataset.from_indices(dataset.domain, dataset.indices[np.sort(perm[:half])]),
        Dataset.from_indices(dataset.domain, dataset.indices[np.sort(perm[half:])]),
    ]
    models = [learner.train(shard, seed) for shard in shards]
    in_shard = [set(int(i) for i in shard.indices) for shard in shards]
    entries = []
    seen = set()
    for idx in dataset.indices:
        idx = int(idx)
        if idx in seen:
            continue
        seen.add(idx)
        symbol = dataset.domain.symbols[idx]
        if idx in in_shard[0] and idx in in_shard[1]:
            entries.append((symbol, models[0]))
        elif idx in in_shard[0]:
            entries.append((symbol, models[1]))
        else:
            entries.append((symbol, models[0]))
    return tuple(entries)


def direct_empirical_weights(dataset, smoothing: float) -> np.ndarray:
    """learner_empirical(smoothing).train(dataset, seed).weights, one vector."""
    counts = dataset.counts().astype(np.float64) + smoothing
    return counts / counts.sum()


# --- generator oracles for string ingest -------------------------------------
#
# Verbatim copies of the generator bodies that the C-level map form of
# Dataset.__init__ and the chunked corpus indexer core._index_corpus
# replaced; they must give the same indices, domains and errors.


def generator_indices(domain: ContentDomain, items) -> np.ndarray:
    """The index array of Dataset(domain, items) before the map form."""
    return np.fromiter((domain.index_of(s) for s in items), dtype=np.int64)


def generator_line_tokens(text: str) -> list[str]:
    """The line tokens of a corpus text before the map form and the
    chunked indexer."""
    return [t for t in (line.strip() for line in text.splitlines()) if t]
