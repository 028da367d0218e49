import builtins
import dataclasses
import itertools
import json
import functools
import math
import time
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from conftest import (
    dist,
    domain,
    enumerated_max_event,
    event_form_pair,
    noise_variate,
    per_row_release,
    random_distribution,
    random_pair,
    scalar_histogram_values,
    scalar_noisy_value,
    two_call_geometric,
    two_sided_geometric,
)
from stability_lab import (
    Dataset,
    DpParams,
    NoisyHistogram,
    SafeAssignment,
    TransformConfig,
    audit_histogram_dp,
    censorship_report,
    dp_beta,
    dp_beta_event_form,
    freq,
    histogram_output_law,
    histogram_threshold,
    new_tape,
    private_histogram,
    required_k,
    sample_dataset,
    symmetric_dp_beta,
    tv_distance,
)
from stability_lab import core, dp
from stability_lab.coupling import _stream_keys
from stability_lab.dp import (
    _compositions,
    _joint_law,
    _release_rows,
    _replacement_neighbors,
    coordinate_output_law,
    dp_beta_over_laws,
)
from stability_lab.errors import (
    DomainMismatch,
    DomainTooLarge,
    EmptyDataset,
    LengthMismatch,
    SizeMismatch,
)

# ln(DBL_MAX): the largest alpha whose e^alpha is a finite float.
ALPHA_MAX = 709.782712893384


class TestFreq:
    def test_counts_by_hand(self):
        s = Dataset(domain(3), ["z0", "z0", "z1"])
        assert freq(s, "z0") == pytest.approx(2 / 3)

    def test_absent_symbol(self):
        s = Dataset(domain(3), ["z0", "z0", "z1"])
        assert freq(s, "z2") == 0.0

    def test_singleton(self):
        assert freq(Dataset(domain(2), ["z0"]), "z0") == 1.0

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            freq(Dataset(domain(2), []), "z0")


class TestDpBeta:
    def test_identical_laws(self):
        q = dist([0.3, 0.7])
        for alpha in (0.0, 0.5, 2.0):
            assert dp_beta(q, q, alpha) == 0.0

    def test_equals_tv_at_alpha_zero(self):
        p = dist([0.75, 0.25])
        p2 = dist([0.25, 0.75])
        assert dp_beta(p, p2, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_vanishes_at_log_ratio(self):
        p = dist([0.75, 0.25])
        p2 = dist([0.25, 0.75])
        assert dp_beta(p, p2, math.log(3)) == 0.0

    def test_alpha_zero_is_tv_random(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            q1, q2 = random_pair(rng, int(rng.integers(2, 10)), sparsify=0.2)
            assert abs(dp_beta(q1, q2, 0.0) - tv_distance(q1, q2)) <= 1e-12

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(41)
        alphas = np.linspace(0.0, 4.0, 17)
        for _ in range(20):
            q1, q2 = random_pair(rng, 5)
            betas = [dp_beta(q1, q2, a) for a in alphas]
            assert all(b1 >= b2 - 1e-15 for b1, b2 in zip(betas, betas[1:]))

    def test_zero_beyond_max_log_ratio(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            q1, q2 = random_pair(rng, 4)  # full supports
            alpha_max = float(np.log(q1.weights / q2.weights).max())
            assert dp_beta(q1, q2, max(alpha_max, 0.0)) <= 1e-15

    def test_negative_alpha_rejected(self):
        q = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            dp_beta(q, q, -0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # +inf would compute inf * 0 on a zero weight; NaN would return NaN
        p, q = dist([0.8, 0.2, 0.0]), dist([0.1, 0.0, 0.9])
        for beta in (dp_beta, symmetric_dp_beta, dp_beta_event_form):
            with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
                beta(p, q, alpha)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            dp_beta(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]), 0.0)


def test_largest_finite_exp_alpha_accepted():
    p, q = dist([0.8, 0.2, 0.0]), dist([0.1, 0.0, 0.9])
    assert math.exp(ALPHA_MAX) < math.inf
    assert dp_beta(p, q, ALPHA_MAX) == 0.2 and dp_beta(q, p, ALPHA_MAX) == 0.9
    assert symmetric_dp_beta(p, q, ALPHA_MAX) == 0.9
    assert dp_beta_event_form(p, q, ALPHA_MAX)[0] == 0.2
    assert censorship_report(SafeAssignment((("c", q),)), ALPHA_MAX).bounds.tolist() == [
        1.0, 0.0, 1.0
    ]
    law = histogram_output_law((2, 1), 1.0, 1e-3)
    assert dp_beta_over_laws(law, law, ALPHA_MAX) == dp_beta_over_laws(law, law, 0.0)
    assert audit_histogram_dp(3, 2, ALPHA_MAX, 1e-3).pairs_checked == 6


@pytest.mark.parametrize("alpha", [math.nextafter(ALPHA_MAX, math.inf), 1000.0, math.inf])
def test_alpha_with_overflowing_exp_rejected(alpha):
    # e^alpha overflows: math.exp raised a bare OverflowError, and the audit
    # at epsilon = inf got NaN slacks and said no neighbours exist
    p, q = dist([0.8, 0.2, 0.0]), dist([0.1, 0.0, 0.9])
    law = histogram_output_law((2, 1), 1.0, 1e-3)
    calls = [
        lambda: dp_beta(p, q, alpha),
        lambda: symmetric_dp_beta(p, q, alpha),
        lambda: dp_beta_event_form(p, q, alpha),
        lambda: censorship_report(SafeAssignment((("c", q),)), alpha),
        lambda: dp_beta_over_laws(law, law, alpha),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            call()
    with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
        audit_histogram_dp(3, 2, alpha, 1e-3)


class TestDpBetaEventForm:
    @pytest.mark.parametrize("alpha", [-1e-12, -1.0])
    def test_negative_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            dp_beta_event_form(dist([0.4, 0.6]), dist([0.5, 0.5]), alpha)

    def test_identical_laws(self):
        q = dist([0.4, 0.6])
        value, _ = dp_beta_event_form(q, q, 0.3)
        assert value == 0.0

    def test_disjoint(self):
        value, event = dp_beta_event_form(dist([1.0, 0.0]), dist([0.0, 1.0]), 1.0)
        assert value == 1.0
        assert event.symbols == ("z0",)

    def test_hand_value(self):
        value, event = dp_beta_event_form(dist([0.75, 0.25]), dist([0.25, 0.75]), 0.0)
        assert value == pytest.approx(0.5, abs=1e-15)
        assert event.symbols == ("z0",)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            size = int(rng.integers(2, 13))
            q1, q2 = random_pair(rng, size, sparsify=0.2)
            alpha = float(rng.uniform(0.0, 3.0))
            value, event = dp_beta_event_form(q1, q2, alpha)
            assert abs(value - dp_beta(q1, q2, alpha)) <= 1e-12
            attained = event.probability(q1) - math.exp(alpha) * event.probability(q2)
            assert attained == pytest.approx(value, abs=1e-12)

    def test_domain_cap(self):
        # no domain cap: at 21 and 25 symbols the event is E+, the symbols
        # with p > e^alpha * p', and the value is dp_beta's
        for size, alpha, first in ((21, 0.0, 11), (25, 0.2, 14)):
            ramp = np.arange(1, size + 1) / (size * (size + 1) / 2)
            p, p_prime = dist(ramp), dist(ramp[::-1])
            value, event = dp_beta_event_form(p, p_prime, alpha)
            assert event.symbols == domain(size).symbols[first:]
            assert abs(value - dp_beta(p, p_prime, alpha)) <= 1e-12

    def test_matches_the_enumeration(self):
        # the value is the enumerated maximum bit for bit; the event is E+
        # and contains the enumerated (lowest-bitmask) maximizer
        rng = np.random.default_rng(31)
        differing = 0
        for i in range(2000):
            size = int(rng.integers(1, 21))
            p, p_prime = event_form_pair(rng, size, ("dirichlet", "sparse", "near-integer")[i % 3])
            alpha = (0.0, 0.5, 1.0, float(rng.uniform(0.0, 3.0)))[i % 4]
            diff = p.weights - math.exp(alpha) * p_prime.weights
            value, event = dp_beta_event_form(p, p_prime, alpha)
            best, enumerated = enumerated_max_event(p.domain, diff)
            assert value == best
            assert np.array_equal(event.indicator(), diff > 0)
            assert enumerated.mask & ~event.mask == 0
            differing += enumerated != event
        assert differing > 0


class TestSymmetricDpBeta:
    def test_swap_invariant(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            q1, q2 = random_pair(rng, 4)
            a = float(rng.uniform(0, 2))
            assert symmetric_dp_beta(q1, q2, a) == symmetric_dp_beta(q2, q1, a)

    def test_identical(self):
        q = dist([0.2, 0.8])
        assert symmetric_dp_beta(q, q, 0.7) == 0.0

    def test_symmetric_pair(self):
        p = dist([0.75, 0.25])
        p2 = dist([0.25, 0.75])
        assert symmetric_dp_beta(p, p2, 0.0) == pytest.approx(0.5, abs=1e-15)


class TestRequiredK:
    def test_reference_value(self):
        assert required_k(DpParams(epsilon=1.0, delta=1e-6, eta=0.1, beta=0.1)) == 1474

    def test_halving_eta_at_least_doubles(self):
        k1 = required_k(DpParams(epsilon=1.0, delta=1e-4, eta=0.2, beta=0.2))
        k2 = required_k(DpParams(epsilon=1.0, delta=1e-4, eta=0.1, beta=0.2))
        assert k2 >= 2 * k1

    def test_doubling_epsilon_halves_up_to_rounding(self):
        k1 = required_k(DpParams(epsilon=1.0, delta=1e-5, eta=0.1, beta=0.1))
        k2 = required_k(DpParams(epsilon=2.0, delta=1e-5, eta=0.1, beta=0.1))
        assert abs(k2 - k1 / 2) <= 1.0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DpParams(epsilon=0.0, delta=1e-5, eta=0.1, beta=0.1)
        with pytest.raises(ValueError):
            DpParams(epsilon=1.0, delta=0.0, eta=0.1, beta=0.1)
        with pytest.raises(ValueError):
            DpParams(epsilon=1.0, delta=1e-5, eta=1.0, beta=0.1)


@pytest.mark.parametrize(
    "epsilon, delta",
    [(1.0, 0.0), (1.0, 1.0), (1.0, 1.5), (0.0, 0.1), (-1.0, 0.1),
     (float("nan"), 0.1), (1.0, float("nan")), (math.inf, 0.1),
     # 1 - e^(-epsilon/2) rounds to 0: no geometric noise exists
     (1e-17, 0.1), (1.1e-16, 0.1), (5e-324, 0.1), (1e-300, 0.1)],
)
def test_privacy_parameters_rejected_everywhere(epsilon, delta):
    sample = Dataset(domain(2), ["z0", "z0", "z1"])
    calls = [
        lambda: histogram_threshold(epsilon, delta, 3),
        lambda: private_histogram(sample, epsilon, delta, seed=0),
        lambda: private_histogram(
            Dataset.from_indices(domain(2), np.repeat(np.arange(2), [2, 1])), epsilon, delta, 0
        ),
        lambda: coordinate_output_law(0, 3, epsilon, delta),
        lambda: coordinate_output_law(2, 3, epsilon, delta),
        lambda: audit_histogram_dp(3, 2, epsilon, delta),
        lambda: DpParams(epsilon=epsilon, delta=delta, eta=0.1, beta=0.1),
        lambda: TransformConfig(epsilon, delta, 0.05, 50),
        lambda: NoisyHistogram(domain(2), [0.5, 0.5], epsilon, delta, 3),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


class TestPrivateHistogram:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            private_histogram(Dataset(domain(2), []), 1.0, 1e-3, seed=0)

    def test_epsilon_whose_geometric_p_rounds_to_zero(self, monkeypatch):
        # 1 - e^(-epsilon/2) is 0 in floats up to epsilon = 1.1e-16, and
        # _require_epsilon refuses such an epsilon before any noise is drawn.
        sample = Dataset(domain(2), ["z0", "z0", "z1"])
        released = private_histogram(sample, 1.2e-16, 0.05, 7)
        assert released.values.tolist() == [0.0, 0.0]  # tau is huge at this epsilon
        counts = np.array([[2, 1], [0, 3]])
        assert _release_rows(counts, 1.2e-16, 0.05, [1, 2]).shape == (2, 2)

        def no_noise(keys, cells):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(dp, "_cell_variates", no_noise)
        for epsilon in (1e-16, 1.1e-16, 5e-324):
            with pytest.raises(ValueError, match=r"1 - e\^\(-epsilon/2\) > 0"):
                private_histogram(sample, epsilon, 0.05, 7)
            with pytest.raises(ValueError, match=r"1 - e\^\(-epsilon/2\) > 0"):
                _release_rows(counts, epsilon, 0.05, [1, 2])

    def test_subnormal_epsilon_refused_before_any_warning(self, monkeypatch):
        # At epsilon = 5e-324 the threshold's division by epsilon * k would
        # overflow; _require_epsilon refuses the epsilon first.
        def no_noise(keys, cells):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(dp, "_cell_variates", no_noise)
        sample = Dataset(domain(3), ["z0", "z1", "z1", "z2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"1 - e\^\(-epsilon/2\) > 0"):
                private_histogram(sample, 5e-324, 0.05, 7)
            with pytest.raises(ValueError, match=r"1 - e\^\(-epsilon/2\) > 0"):
                _release_rows(np.array([[2, 1], [0, 3]]), 5e-324, 0.05, [1, 2])

    def test_tiny_epsilon_releases_finite_values(self):
        # ceil(2 E / epsilon) reaches about 6.2e17 here, still exact in int64;
        # a noise of that size clamps or is suppressed, never overflows.
        rng = np.random.default_rng(61)
        counts = rng.integers(0, 50, size=(40, 20)) * (rng.random((40, 20)) < 0.5)
        counts[:, 0] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values = _release_rows(counts, 1.2e-16, 0.05, list(range(40)))
        assert np.isfinite(values).all() and values.shape == counts.shape
        assert values.tobytes() == per_row_release(counts, 1.2e-16, 0.05, range(40)).tobytes()

    def test_absent_symbols_exact_zero(self):
        s = Dataset(domain(4), ["z1"] * 30)
        for seed in range(50):
            h = private_histogram(s, 1.0, 1e-3, seed)
            assert h.values[0] == 0.0 and h.values[2] == 0.0 and h.values[3] == 0.0

    def test_noiseless_limit(self):
        # huge epsilon: noise is 0 and tau is low, so a == empirical exactly
        s = Dataset(domain(3), ["z2"] * 20)
        h = private_histogram(s, 50.0, 1e-6, seed=7)
        assert h.value("z2") == 1.0
        assert h.values.sum() == 1.0

    def test_no_false_positives(self):
        rng = np.random.default_rng(45)
        for trial in range(30):
            q = random_distribution(rng, 5, sparsify=0.4)
            s = sample_dataset(q, 40, seed=500 + trial)
            h = private_histogram(s, 0.5, 1e-3, seed=900 + trial)
            counts = s.counts()
            assert np.all(counts[h.values > 0] > 0)

    def test_deterministic_given_seed(self):
        s = Dataset(domain(3), ["z0"] * 5 + ["z1"] * 5)
        a = private_histogram(s, 1.0, 1e-4, seed=3)
        b = private_histogram(s, 1.0, 1e-4, seed=3)
        assert np.array_equal(a.values, b.values)
        assert a.tau == b.tau == histogram_threshold(1.0, 1e-4, 10)

    def test_accuracy_monte_carlo(self):
        # quick version of the accuracy criterion: eta = beta = 0.1
        params = DpParams(epsilon=1.0, delta=1e-6, eta=0.1, beta=0.1)
        k = required_k(params)
        data_dist = dist([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])
        s = sample_dataset(data_dist, k, seed=77)
        freqs = s.counts() / k
        hits = 0
        runs = 100
        for i in range(runs):
            h = private_histogram(s, params.epsilon, params.delta, seed=1000 + i)
            if np.abs(h.values - freqs).max() <= params.eta:
                hits += 1
        assert hits >= 0.88 * runs

    @staticmethod
    def _scalar_values(counts, epsilon, delta, seed):
        """Reference: scalar_noisy_value applied symbol by symbol."""
        k = int(counts.sum())
        tau = histogram_threshold(epsilon, delta, k)
        present = np.flatnonzero(counts)
        noise = two_call_geometric(seed, epsilon, present.size)
        values = np.zeros(counts.size)
        for z, g in zip(present, noise):
            values[z] = scalar_noisy_value(int(counts[z]), int(g), k, tau)
        return values

    def test_vector_release_equals_scalar_loop(self):
        # tau * k = 2 ln(2 / delta) / epsilon + 1 does not depend on k; this
        # delta makes it 17, and at k = 85 the float tau is exactly 17 / 85,
        # so a noisy count of 17 lands on the threshold itself.
        epsilon, delta = 1.0, 2.0 * math.exp(-8.0)
        at_tau = 17
        assert histogram_threshold(epsilon, delta, 85) == at_tau / 85
        rng = np.random.default_rng(47)
        count_vectors = [
            np.array([1]),
            np.array([40]),  # one symbol: positive noise clips to 1
            np.array([at_tau - 2, at_tau - 1, at_tau, at_tau + 1, at_tau + 2]),
            np.array([at_tau - 2, at_tau - 1, at_tau, at_tau + 1, at_tau + 2, 0, 1, 3]),
            np.array([at_tau] * 8),
            np.array([0, 0, 0, 0, 0, 0, 0, at_tau + 1]),  # clips to 1
            rng.integers(0, 3 * at_tau, size=5000) * (rng.random(5000) < 0.5),
        ]
        clipped = suppressed = released = on_threshold = 0
        for counts in count_vectors:
            for seed in range(25):
                sample = Dataset.from_indices(
                    domain(counts.size), np.repeat(np.arange(counts.size), counts)
                )
                h = private_histogram(sample, epsilon, delta, seed)
                expected = self._scalar_values(counts, epsilon, delta, seed)
                assert h.values.tobytes() == expected.tobytes()
                clipped += int(np.count_nonzero(h.values == 1.0))
                suppressed += int(np.count_nonzero((counts > 0) & (h.values == 0.0)))
                released += int(np.count_nonzero((h.values > 0) & (h.values < 1)))
                on_threshold += int(np.count_nonzero(h.values == h.tau))
        assert clipped > 0 and suppressed > 0 and released > 0 and on_threshold > 0

    def test_json_report(self):
        s = Dataset(domain(3), ["z0"] * 9 + ["z2"])
        h = private_histogram(s, 2.0, 1e-4, seed=5)
        obj = h.to_json_obj()
        assert obj["k"] == 10 and obj["epsilon"] == 2.0
        assert set(obj["values"]) <= {"z0", "z2"}

    @pytest.mark.parametrize("values", [[0.5], [0.5, 0.25, 0.25], [[0.5, 0.5]]])
    def test_histogram_needs_one_value_per_symbol(self, values):
        with pytest.raises(LengthMismatch, match=r"needs shape \(2,\)"):
            NoisyHistogram(
                domain=domain(2), values=np.array(values), epsilon=1.0, delta=1e-3, k=3
            )

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            NoisyHistogram(
                domain=domain(2),
                values=np.array([1.5, 0.0]),
                epsilon=1.0,
                delta=1e-3,
                k=3,
            )

    @staticmethod
    def _histogram(values):
        return NoisyHistogram(
            domain=domain(len(values)),
            values=np.array(values),
            epsilon=1.0,
            delta=1e-3,
            k=3,
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300, 1.0 + 2**-52])
    def test_histogram_rejects_non_finite_and_out_of_range(self, bad):
        # NaN compares false both ways, so only a check written as
        # "inside [0, 1]" rejects it; to_json_obj would drop it silently.
        with pytest.raises(ValueError):
            self._histogram([bad, 0.5])
        with pytest.raises(ValueError):
            self._histogram([0.25, 0.25, bad])

    def test_histogram_accepts_closed_interval(self):
        h = self._histogram([-0.0, 0.0, 1.0, 0.5])
        assert h.values.tolist() == [0.0, 0.0, 1.0, 0.5]
        assert math.copysign(1.0, h.values[0]) == -1.0
        assert h.to_json_obj()["values"] == {"z2": 1.0, "z3": 0.5}


class TestDerivedThreshold:
    def test_tau_is_computed(self):
        h = NoisyHistogram(domain(2), np.array([0.5, 0.0]), epsilon=2.0, delta=1e-3, k=7)
        assert h.tau == histogram_threshold(2.0, 1e-3, 7)
        assert h.to_json_obj()["tau"] == h.tau

    def test_numpy_integer_k_serializes(self):
        values = np.array([0.5, 0.0])
        typed = NoisyHistogram(domain(2), values, epsilon=2.0, delta=1e-3, k=np.int64(7))
        plain = NoisyHistogram(domain(2), values, epsilon=2.0, delta=1e-3, k=7)
        assert json.dumps(typed.to_json_obj()) == json.dumps(plain.to_json_obj())

    def test_tau_cannot_be_passed(self):
        with pytest.raises(TypeError):
            NoisyHistogram(
                domain(2), np.array([0.5, 0.0]), epsilon=1.0, delta=1e-3, k=3, tau=0.1
            )

    @pytest.mark.parametrize(
        "epsilon, delta",
        [(0.0, 0.1), (-1.0, 0.1), (float("nan"), 0.1), (1.0, 0.0), (1.0, 1.0), (1.0, 2.0)],
    )
    def test_histogram_privacy_parameters_rejected(self, epsilon, delta):
        with pytest.raises(ValueError):
            NoisyHistogram(domain(2), np.array([0.5, 0.0]), epsilon=epsilon, delta=delta, k=3)

    @pytest.mark.parametrize(
        "k",
        [0, -1, np.int64(0), np.array([3, 0]), np.array([-2]), 2.5, 2.0, True, np.array([2.5])],
    )
    def test_threshold_needs_k_at_least_one(self, k):
        with pytest.raises(ValueError, match="k"):
            histogram_threshold(1.0, 0.1, k)

    @pytest.mark.parametrize(
        "apply",
        [
            lambda k: core._require_count("k", k),
            lambda k: histogram_threshold(1.0, 0.1, k),
            lambda k: NoisyHistogram(domain(2), np.array([0.5, 0.0]), epsilon=1.0, delta=0.1, k=k),
            lambda k: coordinate_output_law(1, k, 1.0, 0.1),
        ],
        ids=["_require_count", "histogram_threshold", "NoisyHistogram", "coordinate_output_law"],
    )
    def test_one_count_rule_for_k(self, apply):
        # A Python int of 2^64 or more has no numpy integer dtype, so every
        # k is refused as too large with one text; np.uint64(2**63) is a count.
        with pytest.raises(ValueError) as info:
            apply(2**70)
        assert str(info.value) == f"k must be below 2**64, got {2**70}: too large"
        apply(np.uint64(2**63))

    @pytest.mark.parametrize("k", [0, -3, 2.0, True])
    def test_histogram_rejects_bad_k(self, k):
        with pytest.raises(ValueError, match="k"):
            NoisyHistogram(domain(2), np.array([0.5, 0.0]), epsilon=1.0, delta=1e-3, k=k)


class TestReleaseRows:
    def test_rows_equal_scalar_release(self):
        # tau * k = 17 at this (epsilon, delta) whatever k is, so rows of
        # k = 85 have noisy counts on the threshold itself.
        epsilon, delta = 1.0, 2.0 * math.exp(-8.0)
        rng = np.random.default_rng(73)
        matrices = []
        for size in (1, 2, 8, 40):
            m = rng.integers(0, 30, size=(30, size)) * (rng.random((30, size)) < 0.6)
            m[:, 0] += 1  # no empty row; row sums (k) differ row to row
            lone = np.zeros((4, size), dtype=m.dtype)
            lone[:, -1] = [1, 17, 40, 85]  # one present symbol
            matrices += [m, lone]
        on_tau = np.zeros((6, 5), dtype=np.int64)
        on_tau[:] = [15, 16, 17, 18, 19]
        on_tau[:, 0] += 85 - on_tau.sum(axis=1)  # k = 85 in every row
        matrices.append(on_tau)
        clipped = suppressed = lone_rows = 0
        for counts in matrices:
            seeds = [int(s) for s in rng.integers(0, 2**63, size=counts.shape[0])]
            values = _release_rows(counts, epsilon, delta, seeds)
            assert values.shape == counts.shape
            for row, got, seed in zip(counts, values, seeds):
                expected = scalar_histogram_values(row, epsilon, delta, seed)
                assert got.tobytes() == expected.tobytes()
                clipped += int(np.count_nonzero(got == 1.0))
                suppressed += int(np.count_nonzero((row > 0) & (got == 0.0)))
                lone_rows += int(np.count_nonzero(row) == 1)
        assert clipped > 0 and suppressed > 0 and lone_rows >= 16

    def test_histogram_from_counts_is_one_row(self):
        counts = np.array([0, 5, 1, 9])
        h = private_histogram(
            Dataset.from_indices(domain(4), np.repeat(np.arange(4), counts)), 2.0, 1e-3, seed=11
        )
        assert h.values.tobytes() == _release_rows(counts[None, :], 2.0, 1e-3, [11])[0].tobytes()
        assert h.k == 15 and h.tau == histogram_threshold(2.0, 1e-3, 15)

    def test_empty_row_rejected(self):
        with pytest.raises(EmptyDataset):
            _release_rows(np.array([[1, 2], [0, 0]]), 1.0, 1e-3, [1, 2])
        with pytest.raises(ValueError):
            _release_rows(np.array([[1, 2]]), 1.0, 1.0, [1])

    @staticmethod
    def check_rows_equal_scalar(counts, epsilon, delta, seeds):
        values = _release_rows(counts, epsilon, delta, seeds)
        assert values.shape == counts.shape
        for row, got, seed in zip(counts, values, seeds):
            assert got.tobytes() == scalar_histogram_values(row, epsilon, delta, seed).tobytes()
        return values

    def test_inversion_branch_rows_equal_scalar_release(self):
        # epsilon = 0.5, where numpy's geometric inverted its CDF (success
        # probability below 1/3): noise wide enough to suppress and clip.
        epsilon, delta = 0.5, 1e-3
        rng = np.random.default_rng(29)
        clipped = suppressed = released = 0
        for size in (1, 3, 8, 40):
            counts = rng.integers(0, 60, size=(25, size)) * (rng.random((25, size)) < 0.7)
            counts[:, 0] += 1
            counts[:3] = 0
            counts[:3, -1] = [1, 30, 200]  # one present symbol, suppressed to clipped
            seeds = [int(s) for s in rng.integers(0, 2**63, size=counts.shape[0])]
            values = self.check_rows_equal_scalar(counts, epsilon, delta, seeds)
            clipped += int(np.count_nonzero(values == 1.0))
            suppressed += int(np.count_nonzero((counts > 0) & (values == 0.0)))
            released += int(np.count_nonzero((values > 0.0) & (values < 1.0)))
        assert clipped > 0 and suppressed > 0 and released > 0

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_edge_seeds_equal_scalar_release(self, epsilon):
        # Seeds at the edges of their 64-bit key; wider and negative seeds
        # are read mod 2^64, as tape seeds are.
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**128 - 1, 2**128, -1]
        counts = np.random.default_rng(31).integers(1, 9, size=(len(edges), 6))
        self.check_rows_equal_scalar(counts, epsilon, 1e-3, edges)
        for cast in (np.uint64, np.int64):
            seeds = [cast(s) for s in (0, 1, 2**32 - 1, 2**32, 2**62, 2**63 - 1)]
            self.check_rows_equal_scalar(counts[:6], epsilon, 1e-3, seeds)
        for seed in (0, 2**64 - 1, 2**128 - 1, 2**128, np.uint64(5), True):
            self.check_rows_equal_scalar(counts[:1], epsilon, 1e-3, [seed])

    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 0.8109302162163288, 0.8109302162163287])
    def test_rows_equal_per_row_loop(self, epsilon):
        rng = np.random.default_rng(43)
        for size in (1, 8, 1000):
            counts = rng.integers(0, 40, size=(30, size)) * (rng.random((30, size)) < 0.3)
            counts[:, 0] += 1
            counts[:4] = 0
            counts[:4, rng.integers(size)] = [1, 2, 25, 300]  # one present symbol
            seeds = [int(s) for s in rng.integers(0, 2**64, size=30, dtype=np.uint64)]
            values = _release_rows(counts, epsilon, 1e-3, seeds)
            assert values.tobytes() == per_row_release(counts, epsilon, 1e-3, seeds).tobytes()
            lone = _release_rows(counts[:1], epsilon, 1e-3, seeds[:1])
            assert lone.tobytes() == per_row_release(counts[:1], epsilon, 1e-3, seeds[:1]).tobytes()

    @pytest.mark.parametrize("steps", [1, 2, 5, 32])
    def test_noise_variates_equal_scalar_hash(self, steps):
        # np.log and math.log may differ in the last bit; the draws may not.
        rng = np.random.default_rng(47)
        seeds = [int(s) for s in rng.integers(0, 2**64, size=200, dtype=np.uint64)]
        seeds += [0, 1, 2**32 - 1, 2**63, 2**64 - 1, 2**127, 2**128 - 1, -1]
        keys = _stream_keys(seeds)
        cells = np.arange(steps, dtype=np.uint64) + dp._NOISE_OFFSET
        got = dp._cell_variates(keys[:, None], cells)
        expected = np.array([[noise_variate(s, v) for v in range(steps)] for s in seeds])
        np.testing.assert_array_max_ulp(got, expected, maxulp=1)
        for epsilon in (0.05, 1.0, 5.0):
            assert (np.ceil(2.0 * got / epsilon) == np.ceil(2.0 * expected / epsilon)).all()

    @pytest.mark.parametrize(
        "rows, present, epsilon",
        [(2, 8, 1.0), (1, 8, 1.0), (2, 8, 0.5), (2, 16, 1.0), (2, 17, 1.0)],
    )
    def test_one_noise_path(self, monkeypatch, rows, present, epsilon):
        calls = []
        variates = dp._cell_variates

        def spy(keys, cells):
            calls.append(cells.shape)
            return variates(keys, cells)

        monkeypatch.setattr(dp, "_cell_variates", spy)
        counts = np.ones((rows, present + 3), dtype=np.int64)
        counts[:, :3] = 0
        seeds = list(range(5, 5 + rows))
        values = _release_rows(counts, epsilon, 1e-3, seeds)
        assert calls == [(rows * present, 2)]
        assert values.tobytes() == per_row_release(counts, epsilon, 1e-3, seeds).tobytes()

    def test_noise_never_reads_tape_cells(self, monkeypatch):
        # A noise seed equal to a tape seed keys the same stream, and the
        # 2^63 offset keeps the two sets of cells apart.
        drawn = []
        variates = dp._cell_variates

        def keep(keys, cells):
            out = variates(keys, cells)
            drawn.append(out.copy())
            return out

        monkeypatch.setattr(dp, "_cell_variates", keep)
        counts = np.ones((1, 64), dtype=np.int64)
        for seed in (0, 1, 7, 2**63, 2**64 - 1):
            _release_rows(counts, 1.0, 1e-3, [seed])
            tape = new_tape(domain(128), seed).variates
            assert drawn[-1].size == 128
            assert np.intersect1d(tape, drawn[-1]).size == 0

    @pytest.mark.parametrize("epsilon", [0.5, 2.0])
    def test_one_draw_equals_two(self, epsilon):
        for size in (0, 1, 7, 200):
            one = two_sided_geometric(size, epsilon, size)
            two = two_call_geometric(size, epsilon, size)
            assert one.dtype == np.int64 and one.tobytes() == two.tobytes()

    def test_negative_and_wide_seeds_wrap(self):
        counts = np.array([[1, 2, 0, 4], [3, 0, 5, 1], [2, 2, 2, 2]])
        wrapped = _release_rows(counts, 1.0, 1e-3, [-1, 2**64, 2**128 + 3])
        assert wrapped.tobytes() == _release_rows(counts, 1.0, 1e-3, [2**64 - 1, 0, 3]).tobytes()
        typed = _release_rows(counts, 1.0, 1e-3, [np.uint64(2**64 - 1), np.int64(0), True])
        assert typed.tobytes() == _release_rows(counts, 1.0, 1e-3, [2**64 - 1, 0, 1]).tobytes()

    @pytest.mark.parametrize("seeds", [[1, 2.5], [1.0, 2], [1, "2"]])
    def test_non_integer_seeds_raise_type_error(self, monkeypatch, seeds):
        def no_noise(keys, cells):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(dp, "_cell_variates", no_noise)
        with pytest.raises(TypeError):
            _release_rows(np.array([[1, 2], [3, 0]]), 1.0, 1e-3, seeds)

    @pytest.mark.parametrize("seeds", [[1, 2, 3], [1]])
    def test_one_seed_per_row(self, monkeypatch, seeds):
        def no_noise(keys, cells):
            raise AssertionError("noise drawn")

        monkeypatch.setattr(dp, "_cell_variates", no_noise)
        with pytest.raises(SizeMismatch, match=rf"{len(seeds)} noise seeds for 2 histogram rows"):
            _release_rows(np.array([[1, 2], [3, 0]]), 1.0, 1e-3, seeds)


def _binned(values: np.ndarray, law: dict) -> tuple[np.ndarray, np.ndarray]:
    """Observed and expected counts of released values over their law's
    atoms, in value order, merged into bins that each expect at least 20
    draws (the remainder joins the last bin); the truncated law is
    renormalized. Every value must be one of the law's atoms."""
    atoms = np.array(sorted(law))
    masses = np.array([law[a] for a in atoms.tolist()])
    index = np.searchsorted(atoms, values)
    assert (atoms[np.minimum(index, atoms.size - 1)] == values).all()
    expected = values.size * masses / masses.sum()
    edges = [0]
    total = 0.0
    for i, e in enumerate(expected.tolist()):
        total += e
        if total >= 20:
            edges.append(i + 1)
            total = 0.0
    starts = edges[:-1]
    observed = np.bincount(index, minlength=atoms.size)
    return np.add.reduceat(observed, starts), np.add.reduceat(expected, starts)


class TestNoiseLaw:
    """The released values follow coordinate_output_law, the audited law."""

    DELTA = 0.5

    @pytest.mark.parametrize("epsilon", [0.05, 0.5, 0.8109302162163287, 1.0, 5.0])
    def test_released_values_follow_the_law(self, epsilon):
        # Each present count c sits at ceil(tau * k), so about half the
        # draws are suppressed; a row's lone symbol clamps at 1 above it.
        c = math.ceil(2.0 * math.log(2.0 / self.DELTA) / epsilon + 1.0)
        law = functools.partial(coordinate_output_law, epsilon=epsilon, delta=self.DELTA)
        rng = np.random.default_rng(83)
        # 100,000 rows: every tenth has 20 present symbols of 24, the rest one.
        rows = 100_000
        wide = np.arange(rows) % 10 == 0
        counts = np.zeros((rows, 24), dtype=np.int64)
        counts[~wide, rng.integers(24, size=rows - wide.sum())] = c
        keep = np.argsort(rng.random((wide.sum(), 24)), axis=1)[:, :20]
        counts[np.flatnonzero(wide)[:, None], keep] = c
        seeds = [int(s) for s in rng.integers(0, 2**64, size=rows, dtype=np.uint64)]
        values = _release_rows(counts, epsilon, self.DELTA, seeds)
        present = counts > 0
        # one row of 100,000 present symbols
        lone = _release_rows(np.full((1, 100_000), c), epsilon, self.DELTA, [seeds[0]])
        observed, expected = zip(
            _binned(values[~wide][present[~wide]], law(c, c)),
            _binned(values[wide][present[wide]], law(c, 20 * c)),
            _binned(lone[0], law(c, 100_000 * c)),
        )
        # one degree of freedom less for each of the three laws' totals
        fit = chisquare(np.concatenate(observed), np.concatenate(expected), ddof=2)
        assert fit.pvalue > 1e-4


class TestExactAudit:
    def test_coordinate_law_mass(self):
        law = coordinate_output_law(2, 3, 1.0, 1e-3)
        total = sum(law.values())
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_coordinate_law_atoms_equal_scalar_rule(self):
        # tau * k = 17 at this (epsilon, delta), and at k = 85 the float tau
        # is exactly 17 / 85: some noisy count lands on the threshold.
        epsilon, delta, k = 1.0, 2.0 * math.exp(-8.0), 85
        tau = histogram_threshold(epsilon, delta, k)
        assert tau == 17 / k
        p = math.exp(-epsilon / 2.0)
        norm = (1.0 - p) / (1.0 + p)
        span = 1  # the default tail 1e-12, as coordinate_output_law enumerates it
        while 2.0 * p ** (span + 1) / (1.0 + p) > 1e-12:
            span += 1
        assert coordinate_output_law(0, k, epsilon, delta) == {0.0: 1.0}
        on_tau = 0
        for c in range(1, k + 1):
            expected: dict[float, float] = {}
            for g in range(-span, span + 1):
                v = scalar_noisy_value(c, g, k, tau)
                expected[v] = expected.get(v, 0.0) + norm * p ** abs(g)
            law = coordinate_output_law(c, k, epsilon, delta)
            assert list(law.items()) == list(expected.items())
            on_tau += tau in law
        assert on_tau > 0

    @pytest.mark.parametrize("count", [-2, -1, 4, 7])
    def test_count_outside_zero_to_k_rejected(self, count):
        with pytest.raises(ValueError, match="count"):
            coordinate_output_law(count, 3, 1.0, 1e-3)
        with pytest.raises(ValueError, match="count"):
            histogram_output_law((count, 3 - count), 1.0, 1e-3)

    @pytest.mark.parametrize("count, k", [
        (1.5, 3), (1.0, 3), (True, 3), (np.float64(1.0), 3), (1, 3.0), (1, True),
    ])
    def test_non_integer_count_or_k_rejected(self, count, k):
        with pytest.raises(ValueError, match="integers"):
            coordinate_output_law(count, k, 1.0, 1e-3)

    @pytest.mark.parametrize("counts", [(1.5, 1.5), (True, False), (1, 2.0)])
    def test_non_integer_counts_rejected_by_joint_law(self, counts):
        with pytest.raises(ValueError, match="integers"):
            histogram_output_law(counts, 1.0, 1e-3)

    @pytest.mark.parametrize("k", [2.0, True])
    def test_audit_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="integers"):
            audit_histogram_dp(k, 2, 1.0, 1e-3)

    def test_numpy_integer_counts_accepted(self):
        assert coordinate_output_law(np.int64(2), np.int64(3), 1.0, 1e-3) == (
            coordinate_output_law(2, 3, 1.0, 1e-3)
        )
        counts = np.array([1, 2], dtype=np.int32)
        assert histogram_output_law(tuple(counts), 1.0, 1e-3) == (
            histogram_output_law((1, 2), 1.0, 1e-3)
        )

    def test_numpy_integer_audit_serializes(self):
        typed = audit_histogram_dp(np.int64(3), np.int64(2), 1.0, 1e-3)
        plain = audit_histogram_dp(3, 2, 1.0, 1e-3)
        assert json.dumps(dataclasses.asdict(typed)) == json.dumps(dataclasses.asdict(plain))

    @pytest.mark.parametrize("k", [1, 4])
    def test_audit_without_neighbours_rejected(self, k):
        with pytest.raises(ValueError, match="no neighboring datasets"):
            audit_histogram_dp(k, 1, 1.0, 1e-3)

    def test_joint_law_factorizes(self):
        joint = histogram_output_law((1, 2), 1.0, 1e-3)
        a = coordinate_output_law(1, 3, 1.0, 1e-3)
        b = coordinate_output_law(2, 3, 1.0, 1e-3)
        for (va, vb), mass in joint.items():
            assert mass == pytest.approx(a[va] * b[vb], rel=1e-12)

    @pytest.mark.parametrize("epsilon, delta", [(1.0, 1e-3), (-1.0, 5.0)])
    def test_empty_joint_law_rejected(self, epsilon, delta):
        # no counts is k = 0, refused by the k >= 1 rule before any law
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            histogram_output_law((), epsilon, delta)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan, math.inf])
    def test_law_slack_alpha_rule(self, alpha):
        # the same rule as dp_beta: before it, NaN gave NaN and -1 gave 0.99
        law = histogram_output_law((2, 1), 1.0, 1e-3)
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            dp_beta_over_laws(law, law, alpha)

    def test_joint_law_size_cap(self):
        # 111 atoms per coordinate: 111**4 ~ 1.5e8 joint atoms, over the cap
        assert len(coordinate_output_law(250, 1000, 1.0, 1e-3)) == 111
        with pytest.raises(DomainTooLarge):
            histogram_output_law((250,) * 4, 1.0, 1e-3)

    def test_micro_audit_passes(self):
        audit = audit_histogram_dp(3, 2, epsilon=1.0, delta=1e-3)
        assert audit.passed
        assert audit.pairs_checked == 6
        assert audit.worst_beta <= 1e-3

    def test_audit_machinery_is_not_vacuous(self):
        # the same output laws audited at alpha = 0 (a perfect-secrecy claim)
        # show substantial slack, so passing at e^epsilon means something
        from stability_lab.dp import dp_beta_over_laws

        law_a = histogram_output_law((10, 0), 1.0, 0.5)
        law_b = histogram_output_law((9, 1), 1.0, 0.5)
        assert dp_beta_over_laws(law_a, law_b, 0.0) > 0.05

    def test_audit_at_benchmark_scale(self):
        audit = audit_histogram_dp(10, 5, epsilon=1.0, delta=1e-3)
        assert audit.pairs_checked == 14300
        assert audit.worst_pair == ((1, 1, 5, 1, 2), (0, 1, 5, 1, 3))
        assert audit.passed

    PINNED_AUDITS = [
        (10, 5, "0x1.b5e901b5315c2p-13", ((1, 1, 5, 1, 2), (0, 1, 5, 1, 3)), 14300),
        (4, 3, "0x1.b5e901789f991p-13", ((1, 1, 2), (0, 1, 3)), 60),
        (6, 3, "0x1.b5e901789f990p-13", ((1, 1, 4), (0, 1, 5)), 126),
        (5, 4, "0x1.b5e90196e3fa9p-13", ((1, 1, 2, 1), (0, 1, 2, 2)), 420),
    ]

    @pytest.mark.parametrize("k, size, beta_hex, pair, pairs", PINNED_AUDITS)
    def test_audit_pinned_bits(self, k, size, beta_hex, pair, pairs):
        # Values of the audit that summed with the builtin sum() on Python
        # 3.11; its fixed-order loop must not move a bit.
        audit = audit_histogram_dp(k, size, epsilon=1.0, delta=1e-3)
        assert (audit.worst_beta.hex(), audit.worst_pair, audit.pairs_checked) == (
            beta_hex,
            pair,
            pairs,
        )

    @pytest.mark.parametrize("k, size, beta_hex, pair, pairs", PINNED_AUDITS)
    def test_audit_bits_do_not_depend_on_builtin_sum(
        self, monkeypatch, k, size, beta_hex, pair, pairs
    ):
        # Since Python 3.12 sum() over floats is compensated (Neumaier). An
        # audit whose totals went through sum() gave other bits there, and
        # at (10, 5) another worst pair.
        real_sum = builtins.sum

        def compensated_sum(iterable, /, start=0):
            items = list(iterable)
            if type(start) is not int or not all(type(x) is float for x in items):
                return real_sum(items, start)
            total, c = float(start), 0.0
            for x in items:
                t = total + x
                c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
                total = t
            return total + c if c and math.isfinite(c) else total

        assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0  # 0.0 uncompensated
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        self.test_audit_pinned_bits(k, size, beta_hex, pair, pairs)

    def test_beta_over_laws_charges_missing_mass(self):
        from stability_lab.dp import dp_beta_over_laws

        law = {0.0: 0.5, 0.25: 0.25}
        law_prime = {0.0: 0.5, 0.25: 0.5}
        assert dp_beta_over_laws(law, law_prime, 0.0) == 0.25
        assert dp_beta_over_laws(law_prime, law, 0.0) == 0.25
        assert dp_beta_over_laws(law, law, 0.0) == 0.25

    @pytest.mark.parametrize("k, size", [(0, 3), (3, 1), (3, 2), (6, 4), (10, 5)])
    def test_replacement_neighbors_match_brute_force(self, k, size):
        # Reference: every ordered pair of compositions, filtered to L1 distance 2.
        bins = [c for c in itertools.product(range(k + 1), repeat=size) if sum(c) == k]
        expected = [
            (a, b)
            for a, b in itertools.product(bins, bins)
            if a != b and sum(abs(x - y) for x, y in zip(a, b)) == 2
        ]
        assert list(_replacement_neighbors(k, size)) == expected

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tail": -1e-12},
            {"tail": 0.0},
            {"tail": 1.0},
            {"tail": float("nan")},
            {"epsilon": 0.0},
            {"epsilon": -1.0},
            {"epsilon": float("nan")},
            {"k": 0},
            {"domain_size": 0},
            {"domain_size": -1},
            {"domain_size": 2.0},
            {"domain_size": True},
        ],
    )
    def test_audit_input_validation(self, kwargs):
        args = {"k": 3, "domain_size": 2, "epsilon": 1.0, "delta": 1e-3, **kwargs}
        with pytest.raises(ValueError):
            audit_histogram_dp(**args)
        if "domain_size" not in kwargs:
            del args["domain_size"]
            with pytest.raises(ValueError):
                coordinate_output_law(1, **args)

    @pytest.mark.parametrize("epsilon", [1e-6])
    def test_noise_enumeration_cap(self, epsilon):
        # ~5.5e7 noise values at epsilon = 1e-6. An epsilon whose ratio
        # exp(-epsilon / 2) rounds to 1, so that the tail never shrinks, is
        # refused as invalid (test_privacy_parameters_rejected_everywhere).
        with pytest.raises(DomainTooLarge):
            coordinate_output_law(2, 3, epsilon, 1e-3)
        with pytest.raises(DomainTooLarge):
            audit_histogram_dp(3, 2, epsilon, 1e-3)


def unreachable(*args):
    raise AssertionError("built above the cap")


class TestSizeCaps:
    """Each exact enumeration runs at its cap and raises DomainTooLarge one
    past it, before anything is built."""

    def test_noise_values_cap(self, monkeypatch):
        # the release rule runs once, on the enumerated noise values
        clamp = dp._threshold_clamp
        values = []

        def spy(noisy_counts, k, tau):
            values.append(len(noisy_counts))
            return clamp(noisy_counts, k, tau)

        monkeypatch.setattr(dp, "_threshold_clamp", spy)
        law = coordinate_output_law(2, 3, 1.0, 1e-3)
        [n] = values
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", n)
        assert coordinate_output_law(2, 3, 1.0, 1e-3) == law
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", n - 1)
        monkeypatch.setattr(dp, "_threshold_clamp", unreachable)
        with pytest.raises(DomainTooLarge, match=f"noise values: {n} is above the cap {n - 1}"):
            coordinate_output_law(2, 3, 1.0, 1e-3)

    def test_joint_law_atoms_cap(self, monkeypatch):
        class Unread(dict):
            items = unreachable

        marginals = [{0.0: 0.5, 1.0: 0.5}, {0.0: 0.25, 0.5: 0.25, 1.0: 0.5}]
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", 6)
        assert len(_joint_law(marginals)) == 6
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", 5)
        with pytest.raises(DomainTooLarge, match="6 is above the cap 5"):
            _joint_law([Unread(m) for m in marginals])

    def test_audit_cells_cap(self, monkeypatch):
        # the laws of the (10, 5) audit hold 70,010 cells (atoms x |Z|) in all
        expected = audit_histogram_dp(10, 5, 1.0, 1e-3)
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", 70_010)
        assert audit_histogram_dp(10, 5, 1.0, 1e-3) == expected
        monkeypatch.setattr(dp, "OUTPUT_LAW_MAX", 70_009)
        monkeypatch.setattr(dp, "_joint_law", unreachable)
        with pytest.raises(DomainTooLarge, match="audit output law cells"):
            audit_histogram_dp(10, 5, 1.0, 1e-3)

    @pytest.mark.parametrize("k, size", [(60, 4), (1, 1100)])
    def test_audit_refuses_wide_inputs_before_any_law(self, monkeypatch, k, size):
        # (60, 4) would build 1,952 laws holding ~1.6e8 atoms before one
        # passed the per-law cap; (1, 1100) recursed past Python's limit
        monkeypatch.setattr(dp, "_joint_law", unreachable)
        with pytest.raises(DomainTooLarge):
            audit_histogram_dp(k, size, 1.0, 1e-3)


def loop_noise_span(p: float, tail: float, most: int) -> int:
    """The loop coordinate_output_law once stepped, one span at a time,
    stopped one past `most` as its cap check stopped it."""
    span = 1
    while 2.0 * p ** (span + 1) / (1.0 + p) > tail and span <= most:
        span += 1
    return span


class TestNoiseSpan:
    """The closed-form noise span is the loop's span, and a span above the
    cap is refused before any noise value is stepped or enumerated."""

    MOST = (dp.OUTPUT_LAW_MAX - 1) // 2
    # subnormal tails (1e-320, 5e-324) round the tail rule's last steps
    TAILS = [5e-324, 1e-320, 1e-300, 1e-30, 1e-12, 1e-6, 0.01, 0.3, 0.5, 0.98]

    @pytest.mark.parametrize(
        "epsilon", [*np.geomspace(0.03, 316, 12).tolist(), 1489.0, 1491.0, 1e308]
    )
    def test_closed_form_equals_the_loop(self, monkeypatch, epsilon):
        # from epsilon 1491 on, p = e^(-epsilon/2) is 0.0; the law enumerates
        # the span's 2 * span + 1 noise values
        clamp = dp._threshold_clamp
        sizes = []

        def spy(noisy_counts, k, tau):
            sizes.append(len(noisy_counts))
            return clamp(noisy_counts, k, tau)

        monkeypatch.setattr(dp, "_threshold_clamp", spy)
        p = math.exp(-epsilon / 2.0)
        for tail in self.TAILS:
            span = loop_noise_span(p, tail, self.MOST)
            assert dp._noise_span(p, tail, self.MOST) == span
            coordinate_output_law(2, 3, epsilon, 1e-3, tail)
            assert sizes.pop() == 2 * span + 1

    @pytest.mark.parametrize("epsilon", [1e-3, 2e-3, 2.8e-3, 3e-3])
    def test_spans_at_the_cap_equal_the_loop(self, epsilon):
        # the three least tails put the span near the cap or past it; at
        # epsilon = 3e-3 the subnormal tail's span, 496,023, is just below it
        p = math.exp(-epsilon / 2.0)
        spans = [dp._noise_span(p, tail, self.MOST) for tail in self.TAILS]
        assert spans == [loop_noise_span(p, tail, self.MOST) for tail in self.TAILS]
        assert (self.MOST + 1 in spans) == (epsilon < 3e-3) and min(spans) < self.MOST

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-4, 2.3e-16])
    def test_refused_before_stepping(self, epsilon):
        # spans of about 13.8 / epsilon, all above the cap of 499,999
        times = []
        for _ in range(3):
            start = time.perf_counter()
            with pytest.raises(DomainTooLarge, match="noise values: 1000001 is above the cap"):
                coordinate_output_law(2, 3, epsilon, 1e-3)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.01


class TestCompositions:
    @pytest.mark.parametrize("parts", range(1, 6))
    def test_lexicographic_like_brute_force(self, parts):
        for total in range(9):
            expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                        if sum(c) == total]
            assert list(_compositions(total, parts)) == expected

    def test_many_parts_do_not_recurse(self):
        wide = _compositions(1, 5000)
        assert next(wide) == (0,) * 4999 + (1,)
        assert sum(1 for _ in wide) == 4999
