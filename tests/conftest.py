"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from stability_lab import ContentDomain, DiscreteDistribution, make_distribution
from stability_lab.dp import _two_sided_geometric, histogram_threshold

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


# --- scalar oracles ---------------------------------------------------------
#
# Verbatim copies of the scalar and one-vector bodies that the row forms
# dp._release_rows, dp._threshold_clamp and transform._project_rows
# replaced; the row forms must match them bit for bit.


def scalar_noisy_value(count: int, noise: int, k: int, tau: float) -> float:
    """Released value for a raw count: threshold, then clamp to [0, 1]."""
    noisy = (count + noise) / k
    if noisy >= tau:
        return min(max(noisy, 0.0), 1.0)
    return 0.0


def scalar_histogram_values(counts, epsilon, delta, seed):
    """The released values of dp._histogram_from_counts before the row form."""
    k = int(counts.sum())
    tau = histogram_threshold(epsilon, delta, k)
    present = np.flatnonzero(counts)
    rng = np.random.default_rng(seed)
    noise = _two_sided_geometric(rng, math.exp(-epsilon / 2.0), present.size)
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
