"""Acceptance suite: every criterion at its stated tolerance and scale.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on
failure) and asserts both the tolerance and the runtime budget.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import dist, domain, enumerated_max_event, random_distribution, random_pair
from stability_lab import (
    Dataset,
    DpParams,
    SafeAssignment,
    TransformConfig,
    audit_histogram_dp,
    coupled_sample,
    derive_seed,
    disagreement_estimate,
    dp_beta,
    dp_beta_event_form,
    feasibility_alpha,
    learner_constant,
    learner_empirical,
    make_distribution,
    naf_alpha,
    nfl_witness,
    private_histogram,
    required_k,
    safe_leave_one_out,
    sample_dataset,
    transform_bound_experiment,
    tv_distance,
    tv_event_form,
)
from stability_lab.coupling import coupled_marginal_counts

D8 = dist([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])


class Stopwatch:
    def __init__(self, budget_s: float):
        self.budget = budget_s
        self.started = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def report(name: str, ok: bool, detail: str, watch: Stopwatch) -> None:
    verdict = "PASS" if ok and watch.elapsed < watch.budget else "FAIL"
    print(
        f"ACCEPTANCE {name}: {verdict} ({detail}; {watch.elapsed:.2f}s "
        f"of {watch.budget:.0f}s budget)"
    )


def test_criterion_1_tv_event_form_equivalence():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(1001)
    worst = 0.0
    off_oracle = 0
    for i in range(200):
        size = int(rng.integers(2, 13))
        q1, q2 = random_pair(rng, size, sparsify=0.25 if i % 4 == 0 else 0.0)
        value, event = tv_event_form(q1, q2)
        gap = abs(value - tv_distance(q1, q2))
        worst = max(worst, gap)
        off_oracle += value != enumerated_max_event(q1.domain, q1.weights - q2.weights)[0]
    ok = worst <= 1e-12 and off_oracle == 0
    report(
        "1 tv-event-form-equivalence",
        ok,
        f"max gap {worst:.2e}, {off_oracle} values off the enumerated maximum",
        watch,
    )
    assert ok
    assert watch.elapsed < 10.0


def test_criterion_2_coupling_bound_and_marginals():
    watch = Stopwatch(60.0)
    rng = np.random.default_rng(1002)
    n = 10**5
    worst_excess = -1.0
    for i in range(50):
        size = int(rng.integers(2, 9))
        q1, q2 = random_pair(rng, size, sparsify=0.2 if i % 5 == 0 else 0.0)
        est = disagreement_estimate(q1, q2, n, seed=derive_seed(1002, "pair", i))
        tv = tv_distance(q1, q2)
        bound = 2.0 * tv / (1.0 + tv)
        margin = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / n)
        worst_excess = max(worst_excess, est - (bound + margin))
    bound_ok = worst_excess <= 1e-12
    # marginal correctness of the coupled sampler, chi-square at 0.001
    min_p = 1.0
    for j in range(5):
        size = int(rng.integers(2, 9))
        q = random_distribution(rng, size)
        counts = coupled_marginal_counts(q, n, seed=derive_seed(1002, "marginal", j))
        min_p = min(min_p, chisquare(counts, q.weights * n).pvalue)
    chi_ok = min_p > 0.001
    ok = bound_ok and chi_ok
    report(
        "2 coupling-bound",
        ok,
        f"max excess over bound {worst_excess:.2e}, min chi2 p {min_p:.4f}",
        watch,
    )
    assert bound_ok
    assert chi_ok
    assert watch.elapsed < 60.0


def _simplex_grid_step_20(size: int):
    """Every distribution with weights i/20 on `size` coordinates."""
    assert size == 4
    grid = []
    for i in range(21):
        for j in range(21 - i):
            for k in range(21 - i - j):
                grid.append((i, j, k, 20 - i - j - k))
    return [make_distribution(domain(4), np.array(g, dtype=float) / 20.0) for g in grid]


def test_criterion_3_no_free_lunch_exhaustive():
    watch = Stopwatch(60.0)
    grid = _simplex_grid_step_20(4)
    assert len(grid) == 1771
    rng = np.random.default_rng(1003)
    worst_shortfall = -1.0
    for _ in range(100):
        q1, q2 = random_pair(rng, 4)  # full support, so TV < 1
        for p in grid:
            w = nfl_witness(p, q1, q2)
            worst_shortfall = max(worst_shortfall, w.threshold - w.p_value)
    ok = worst_shortfall <= 1e-12
    report(
        "3 no-free-lunch-exhaustive",
        ok,
        f"100 pairs x {len(grid)} grid points, worst shortfall {worst_shortfall:.2e}",
        watch,
    )
    assert ok
    assert watch.elapsed < 60.0


def test_criterion_4_histogram_exact_dp():
    watch = Stopwatch(10.0)
    audit = audit_histogram_dp(k=3, domain_size=2, epsilon=1.0, delta=1e-3, tail=1e-12)
    ok = audit.worst_beta <= audit.delta
    report(
        "4 histogram-exact-dp",
        ok,
        f"worst beta {audit.worst_beta:.3e} <= delta {audit.delta:.0e} "
        f"over {audit.pairs_checked} neighbor pairs",
        watch,
    )
    assert ok
    assert watch.elapsed < 10.0


def test_criterion_5_histogram_accuracy():
    watch = Stopwatch(30.0)
    params = DpParams(epsilon=1.0, delta=1e-6, eta=0.1, beta=0.1)
    k = required_k(params)
    assert k == 1474
    sample = sample_dataset(D8, k, seed=derive_seed(1005, "sample"))
    freqs = sample.counts() / k
    runs = 1000
    hits = 0
    for i in range(runs):
        hist = private_histogram(
            sample, params.epsilon, params.delta, seed=derive_seed(1005, "run", i)
        )
        if np.abs(hist.values - freqs).max() <= params.eta:
            hits += 1
    ok = hits >= 0.88 * runs
    report(
        "5 histogram-accuracy",
        ok,
        f"l_inf error <= {params.eta} in {hits}/{runs} runs (need >= 880)",
        watch,
    )
    assert ok
    assert watch.elapsed < 30.0


def test_criterion_6_transform_end_to_end():
    watch = Stopwatch(300.0)
    config = TransformConfig.from_params(epsilon=1.0, delta=1e-6, eta=0.05, m=50)
    learner = learner_empirical(1.0)
    result = transform_bound_experiment(
        learner,
        D8,
        config,
        outer_trials=20,
        inner_trials=300,
        seed=1006,
        premise_trials=200,
    )
    limit = result.bound + 0.02
    ok = result.grand_mean_tv <= limit
    report(
        "6 transform-end-to-end",
        ok,
        f"grand mean TV {result.grand_mean_tv:.4f} <= "
        f"2a/(1+a)+5eta+0.02 = {limit:.4f} (alpha_hat {result.alpha_hat:.4f}, "
        f"k {config.k})",
        watch,
    )
    assert ok
    assert watch.elapsed < 300.0


def test_criterion_7_naf_identities():
    watch = Stopwatch(5.0)
    # self-safety is exactly zero
    p = dist([0.3, 0.3, 0.2, 0.2])
    self_alpha = naf_alpha(p, SafeAssignment((("c", p),)))
    # envelope identity on 200 random pairs
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(200):
        q1, q2 = random_pair(rng, int(rng.integers(2, 13)))
        fa = feasibility_alpha(SafeAssignment((("a", q1), ("b", q2))))
        worst = max(worst, abs(fa - (-math.log(1.0 - tv_distance(q1, q2)))))
    # a data-oblivious learner emitting fully original content still fails
    corpus = Dataset(domain(3), ["z0", "z0", "z1"])
    safes = safe_leave_one_out(learner_empirical(0.0), corpus, seed=0)
    oblivious = learner_constant(dist([0.0, 0.0, 1.0]))
    inf_alpha = naf_alpha(oblivious.train(corpus, 0), safes)
    ok = self_alpha == 0.0 and worst <= 1e-12 and inf_alpha == math.inf
    report(
        "7 naf-identities",
        ok,
        f"self alpha {self_alpha}, max envelope-identity gap {worst:.2e}, "
        f"oblivious learner alpha {inf_alpha}",
        watch,
    )
    assert self_alpha == 0.0
    assert worst <= 1e-12
    assert inf_alpha == math.inf
    assert watch.elapsed < 5.0


def test_criterion_8_dp_beta_identities():
    watch = Stopwatch(10.0)
    rng = np.random.default_rng(1008)
    worst_tv = 0.0
    worst_event = 0.0
    off_oracle = 0
    for i in range(200):
        size = int(rng.integers(2, 13))
        q1, q2 = random_pair(rng, size, sparsify=0.25 if i % 4 == 0 else 0.0)
        worst_tv = max(worst_tv, abs(dp_beta(q1, q2, 0.0) - tv_distance(q1, q2)))
        alpha = float(rng.uniform(0.0, 3.0))
        closed = dp_beta(q1, q2, alpha)
        event_value, _ = dp_beta_event_form(q1, q2, alpha)
        worst_event = max(worst_event, abs(closed - event_value))
        diff = q1.weights - math.exp(alpha) * q2.weights
        off_oracle += event_value != enumerated_max_event(q1.domain, diff)[0]
    ok = worst_tv <= 1e-12 and worst_event <= 1e-12 and off_oracle == 0
    report(
        "8 dp-beta-identities",
        ok,
        f"max |beta(0)-TV| {worst_tv:.2e}, max closed-vs-event gap {worst_event:.2e}, "
        f"{off_oracle} event values off the enumerated maximum",
        watch,
    )
    assert worst_tv <= 1e-12
    assert worst_event <= 1e-12
    assert off_oracle == 0
    assert watch.elapsed < 10.0
