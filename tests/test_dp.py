import itertools
import math

import numpy as np
import pytest

from conftest import dist, domain, random_distribution, random_pair
from stability_lab import (
    Dataset,
    DpParams,
    NoisyHistogram,
    audit_histogram_dp,
    dp_beta,
    dp_beta_event_form,
    freq,
    histogram_output_law,
    histogram_threshold,
    make_distribution,
    private_histogram,
    required_k,
    sample_dataset,
    symmetric_dp_beta,
    tv_distance,
)
from stability_lab.dp import (
    _histogram_from_counts,
    _noisy_value,
    _replacement_neighbors,
    _two_sided_geometric,
    coordinate_output_law,
)
from stability_lab.errors import DomainMismatch, DomainTooLarge, EmptyDataset


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

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            dp_beta(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]), 0.0)


class TestDpBetaEventForm:
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
        big = make_distribution(domain(21), np.ones(21) / 21)
        with pytest.raises(DomainTooLarge):
            dp_beta_event_form(big, big, 0.0)


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


class TestPrivateHistogram:
    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            private_histogram(Dataset(domain(2), []), 1.0, 1e-3, seed=0)

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
        """Reference: _noisy_value applied symbol by symbol."""
        k = int(counts.sum())
        tau = histogram_threshold(epsilon, delta, k)
        present = np.flatnonzero(counts)
        rng = np.random.default_rng(seed)
        noise = _two_sided_geometric(rng, math.exp(-epsilon / 2.0), present.size)
        values = np.zeros(counts.size)
        for z, g in zip(present, noise):
            values[z] = _noisy_value(int(counts[z]), int(g), k, tau)
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
                h = _histogram_from_counts(domain(counts.size), counts, epsilon, delta, seed)
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

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            NoisyHistogram(
                domain=domain(2),
                values=np.array([1.5, 0.0]),
                epsilon=1.0,
                delta=1e-3,
                k=3,
                tau=0.1,
            )

    @staticmethod
    def _histogram(values):
        return NoisyHistogram(
            domain=domain(len(values)),
            values=np.array(values),
            epsilon=1.0,
            delta=1e-3,
            k=3,
            tau=0.1,
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


class TestExactAudit:
    def test_coordinate_law_mass(self):
        law = coordinate_output_law(2, 3, 1.0, 1e-3)
        total = sum(law.values())
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_joint_law_factorizes(self):
        joint = histogram_output_law((1, 2), 1.0, 1e-3)
        a = coordinate_output_law(1, 3, 1.0, 1e-3)
        b = coordinate_output_law(2, 3, 1.0, 1e-3)
        for (va, vb), mass in joint.items():
            assert mass == pytest.approx(a[va] * b[vb], rel=1e-12)

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

    @pytest.mark.parametrize(
        "k, size, beta_hex, pair, pairs",
        [
            (10, 5, "0x1.b5e901b5315c2p-13", ((1, 1, 5, 1, 2), (0, 1, 5, 1, 3)), 14300),
            (4, 3, "0x1.b5e901789f991p-13", ((1, 1, 2), (0, 1, 3)), 60),
            (6, 3, "0x1.b5e901789f990p-13", ((1, 1, 4), (0, 1, 5)), 126),
            (5, 4, "0x1.b5e90196e3fa9p-13", ((1, 1, 2, 1), (0, 1, 2, 2)), 420),
        ],
    )
    def test_audit_pinned_bits(self, k, size, beta_hex, pair, pairs):
        # Values of the audit that charged each law's missing mass per pair;
        # computing it once per count vector must not move a bit.
        audit = audit_histogram_dp(k, size, epsilon=1.0, delta=1e-3)
        assert (audit.worst_beta.hex(), audit.worst_pair, audit.pairs_checked) == (
            beta_hex,
            pair,
            pairs,
        )

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

    @pytest.mark.parametrize("epsilon", [1e-6, 1e-300])
    def test_noise_enumeration_cap(self, epsilon):
        # ~5.5e7 noise values at epsilon = 1e-6; at 1e-300 the ratio
        # exp(-epsilon / 2) rounds to 1 and the tail never shrinks.
        with pytest.raises(DomainTooLarge):
            coordinate_output_law(2, 3, epsilon, 1e-3)
        with pytest.raises(DomainTooLarge):
            audit_histogram_dp(3, 2, epsilon, 1e-3)
