import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    dist,
    domain,
    loop_is_naf,
    loop_naf_alpha,
    random_distribution,
    random_pair,
    seen_set_leave_one_out,
    seen_set_sharded,
)
from stability_lab import (
    ContentDomain,
    Dataset,
    SafeAssignment,
    censorship_report,
    feasibility_alpha,
    is_naf,
    learner_constant,
    learner_empirical,
    make_distribution,
    min_envelope,
    naf_alpha,
    naf_report,
    nfl_witness,
    safe_leave_one_out,
    safe_sharded,
    tv_distance,
)
from stability_lab.errors import (
    DatasetTooSmall,
    DegenerateTV,
    DomainMismatch,
    EmptySafeAssignment,
)
from stability_lab.naf import CensorshipReport, NflWitness


def _reference_nfl_witness(p, q1, q2):
    """The NFL witness written through numpy's wrappers: the oracle for the
    trimmed path. Returns (symbol, p_value, threshold)."""
    alpha = 0.5 * float(np.abs(q1.weights - q2.weights).sum())
    thresholds = np.minimum(q1.weights, q2.weights) / (2.0 * (1.0 - alpha))
    best = int(np.argmax(p.weights - thresholds))
    return p.domain.symbols[best], float(p.weights[best]), float(thresholds[best])


def _bits(witness):
    symbol, p_value, threshold = witness
    return symbol, p_value.hex(), threshold.hex()


def safes(*weight_rows) -> SafeAssignment:
    return SafeAssignment.from_models([dist(w) for w in weight_rows])


class TestSafeAssignment:
    def test_unique_ids(self):
        q = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            SafeAssignment((("c", q), ("c", q)))

    def test_common_domain(self):
        with pytest.raises(DomainMismatch):
            SafeAssignment((("a", dist([0.5, 0.5])), ("b", dist([0.4, 0.3, 0.3]))))

    def test_empty_operations_raise(self):
        empty = SafeAssignment(())
        with pytest.raises(EmptySafeAssignment):
            feasibility_alpha(empty)
        with pytest.raises(EmptySafeAssignment):
            censorship_report(empty, 0.5)
        with pytest.raises(EmptySafeAssignment):
            naf_alpha(dist([0.5, 0.5]), empty)

    def test_envelope(self):
        s = safes([0.8, 0.2], [0.2, 0.8])
        assert np.allclose(s.envelope(), [0.2, 0.2], atol=0)


class TestSafeLeaveOneOut:
    def test_constant_learner_all_identical(self):
        q = dist([0.25, 0.75])
        s = Dataset(domain(2), ["z0", "z1", "z0"])
        assignment = safe_leave_one_out(learner_constant(q), s, seed=0)
        assert all(model == q for _, model in assignment)

    def test_empirical_by_hand(self):
        # S = {a, a, b}: dropping b trains on {a, a} -> point mass on a
        s = Dataset(domain(2), ["z0", "z0", "z1"])
        assignment = safe_leave_one_out(learner_empirical(0.0), s, seed=0)
        models = dict(assignment.entries)
        assert np.allclose(models["z1"].weights, [1.0, 0.0], atol=0)
        assert np.allclose(models["z0"].weights, [0.5, 0.5], atol=0)

    def test_one_entry_per_distinct_item(self):
        s = Dataset(domain(3), ["z1", "z0", "z1", "z0", "z1"])
        assignment = safe_leave_one_out(learner_empirical(1.0), s, seed=0)
        assert assignment.ids == ("z1", "z0")  # first-occurrence order

    def test_too_small(self):
        with pytest.raises(DatasetTooSmall):
            safe_leave_one_out(learner_empirical(0.0), Dataset(domain(2), ["z0"]), 0)


class TestSafeSharded:
    def test_constant_learner_all_identical(self):
        q = dist([0.5, 0.5])
        s = Dataset(domain(2), ["z0", "z1", "z0", "z1"])
        assignment = safe_sharded(learner_constant(q), s, seed=3)
        assert all(model == q for _, model in assignment)

    def test_distinct_items_use_opposite_half(self):
        d = domain(4)
        s = Dataset(d, ["z0", "z1", "z2", "z3"])
        seed = 11
        assignment = safe_sharded(learner_empirical(0.0), s, seed=seed)
        perm = np.random.default_rng(seed).permutation(4)
        halves = [set(perm[:2].tolist()), set(perm[2:].tolist())]
        models = dict(assignment.entries)
        for idx, symbol in enumerate(d.symbols):
            other = 1 if idx in halves[0] else 0
            expected = np.zeros(4)
            for j in sorted(halves[other]):
                expected[j] += 0.5
            assert np.allclose(models[symbol].weights, expected, atol=0)

    def test_item_in_both_halves_gets_shard_zero_model(self):
        d = domain(2)
        s = Dataset(d, ["z0", "z0", "z1", "z1"])
        learner = learner_empirical(0.0)
        for seed in range(40):
            perm = np.random.default_rng(seed).permutation(4)
            first = {int(s.indices[i]) for i in perm[:2]}
            second = {int(s.indices[i]) for i in perm[2:]}
            if 0 in first and 0 in second:
                assignment = safe_sharded(learner, s, seed=seed)
                shard0 = Dataset.from_indices(d, s.indices[np.sort(perm[:2])])
                expected = learner.train(shard0, seed)
                assert dict(assignment.entries)["z0"] == expected
                return
        pytest.fail("no seed split z0 across both halves")

    def test_too_small(self):
        with pytest.raises(DatasetTooSmall):
            safe_sharded(learner_empirical(0.0), Dataset(domain(2), ["z0"]), 0)


class TestNafAlpha:
    def test_self_is_zero(self):
        p = dist([0.3, 0.7])
        assert naf_alpha(p, SafeAssignment((("c", p),))) == 0.0
        repeated = SafeAssignment((("c1", p), ("c2", p), ("c3", p)))
        assert naf_alpha(p, repeated) == 0.0

    def test_log_two(self):
        p = dist([0.5, 0.5])
        assert naf_alpha(p, safes([0.25, 0.75])) == pytest.approx(
            math.log(2), abs=1e-12
        )

    def test_infinite_off_support(self):
        # a learner oblivious to its data can output fully original content
        # and still fail the check when no safe model covers that content
        p = dist([0.0, 0.0, 1.0])
        oblivious = learner_constant(p)
        s = Dataset(domain(3), ["z0", "z0", "z1"])
        assignment = safe_leave_one_out(learner_empirical(0.0), s, seed=0)
        assert naf_alpha(oblivious.train(s, 0), assignment) == math.inf

    def test_max_over_models(self):
        p = dist([0.5, 0.5])
        a = naf_alpha(p, safes([0.25, 0.75], [0.4, 0.6]))
        assert a == pytest.approx(math.log(2), abs=1e-12)

    def test_zero_p_imposes_no_constraint(self):
        p = dist([1.0, 0.0])
        assert naf_alpha(p, safes([1.0, 0.0])) == 0.0
        assert naf_alpha(p, safes([0.5, 0.5])) == pytest.approx(math.log(2))


class TestIsNaf:
    def test_self_at_zero(self):
        p = dist([0.3, 0.7])
        ok, violations = is_naf(p, SafeAssignment((("c", p),)), 0.0)
        assert ok and violations == []

    def test_violation_listed(self):
        p = dist([0.5, 0.5])
        ok, violations = is_naf(p, safes([0.25, 0.75]), 0.5)
        assert not ok
        assert len(violations) == 1
        c, z, ratio = violations[0]
        assert (c, z) == ("c0", "z0")
        assert ratio == pytest.approx(math.log(2), abs=1e-12)

    def test_passes_above_log_two(self):
        p = dist([0.5, 0.5])
        ok, violations = is_naf(p, safes([0.25, 0.75]), 0.7)
        assert ok and not violations

    def test_soundness(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            p = random_distribution(rng, 4, sparsify=0.3)
            assignment = safes(
                *[random_distribution(rng, 4).weights for _ in range(3)]
            )
            alpha = float(rng.uniform(0, 2))
            ok, _ = is_naf(p, assignment, alpha)
            if ok:
                for _, q in assignment:
                    assert np.all(
                        p.weights <= math.exp(alpha) * q.weights + 1e-12
                    )

    def test_agrees_with_naf_alpha(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            p = random_distribution(rng, 5, sparsify=0.2)
            assignment = safes(
                *[random_distribution(rng, 5, sparsify=0.2).weights for _ in range(2)]
            )
            alpha = float(rng.uniform(0, 1.5))
            ok, _ = is_naf(p, assignment, alpha)
            assert ok == (naf_alpha(p, assignment) <= alpha)

    def test_negative_alpha_rejected(self):
        p = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            is_naf(p, safes([0.5, 0.5]), -0.1)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # a model that copies the protected symbol fails at alpha = 0; at
        # NaN every log-ratio comparison was False, so it passed
        p, assignment = dist([0.8, 0.1, 0.1]), safes([0.1, 0.1, 0.8])
        assert not is_naf(p, assignment, 0.0)[0]
        for check in (is_naf, naf_report):
            with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
                check(p, assignment, alpha)


class TestFeasibilityAlpha:
    def test_single_model_zero(self):
        assert feasibility_alpha(safes([0.5, 0.5])) == 0.0

    def test_disjoint_infinite(self):
        assert feasibility_alpha(safes([1.0, 0.0], [0.0, 1.0])) == math.inf

    def test_never_negative(self):
        # one safe model whose weights sum to 1 + 4e-10, within
        # NORMALIZATION_ATOL: -ln of its envelope mass is -4e-10
        assignment = safes([0.5, 0.5 + 4e-10])
        got = feasibility_alpha(assignment)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        report = naf_report(dist([0.5, 0.5]), assignment, 1.0).to_json_obj()
        assert report["feasibility_alpha"] == 0.0

    def test_hand_value(self):
        got = feasibility_alpha(safes([0.8, 0.2], [0.2, 0.8]))
        assert got == pytest.approx(-math.log(0.4), abs=1e-12)

    def test_envelope_identity(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            q1, q2 = random_pair(rng, int(rng.integers(2, 10)))
            fa = feasibility_alpha(SafeAssignment((("a", q1), ("b", q2))))
            assert fa == pytest.approx(
                -math.log(1.0 - tv_distance(q1, q2)), abs=1e-12
            )

    def test_monotone_in_models(self):
        rng = np.random.default_rng(53)
        for _ in range(20):
            models = [random_distribution(rng, 5) for _ in range(3)]
            p = random_distribution(rng, 5)
            small = SafeAssignment.from_models(models[:2])
            large = SafeAssignment.from_models(models)
            assert feasibility_alpha(large) >= feasibility_alpha(small) - 1e-12
            assert naf_alpha(p, large) >= naf_alpha(p, small) - 1e-12

    def test_never_beats_envelope(self):
        rng = np.random.default_rng(54)
        for _ in range(20):
            assignment = safes(
                *[random_distribution(rng, 4).weights for _ in range(3)]
            )
            p = random_distribution(rng, 4)
            assert feasibility_alpha(assignment) <= naf_alpha(p, assignment) + 1e-9


class TestNflWitness:
    def test_equal_models(self):
        q = dist([0.6, 0.4])
        p = dist([0.1, 0.9])
        w = nfl_witness(p, q, q)
        assert w.satisfied
        assert w.threshold == pytest.approx(q.prob(w.symbol) / 2)

    def test_hand_pair(self):
        q1, q2 = dist([0.8, 0.2]), dist([0.2, 0.8])
        p = dist([0.5, 0.5])
        w = nfl_witness(p, q1, q2)
        assert w.threshold == pytest.approx(0.2 / (2 * 0.4), abs=1e-12)
        assert w.p_value == 0.5 >= w.threshold

    def test_any_p_has_witness(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            q1, q2 = random_pair(rng, 3)
            step = 10
            for i in range(step + 1):
                for j in range(step + 1 - i):
                    p = dist(np.array([i, j, step - i - j], dtype=float) / step)
                    w = nfl_witness(p, q1, q2)
                    assert w.satisfied

    def test_satisfied_to_1e_12(self):
        assert NflWitness("z0", 0.25, 0.25).satisfied
        assert NflWitness("z0", 0.25 - 0.9e-12, 0.25).satisfied
        assert not NflWitness("z0", 0.25 - 1.1e-12, 0.25).satisfied

    def test_degenerate_tv(self):
        with pytest.raises(DegenerateTV):
            nfl_witness(dist([0.5, 0.5]), dist([1.0, 0.0]), dist([0.0, 1.0]))

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            nfl_witness(dist([0.5, 0.5]), dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))

    def test_bits_match_reference_on_grid(self):
        # The benchmark's 1,771-point grid on 4 symbols, against random pairs
        # and pairs with +0.0 / -0.0 weights; every field must match bit for bit.
        rng = np.random.default_rng(4242)
        grid = [
            dist(np.array((a, b, c, 20 - a - b - c), dtype=float) / 20.0)
            for a in range(21)
            for b in range(21 - a)
            for c in range(21 - a - b)
        ]
        assert len(grid) == 1771
        pairs = [random_pair(rng, 4) for _ in range(8)]
        pairs += [random_pair(rng, 4, sparsify=0.25) for _ in range(6)]
        pairs.append((dist([0.5, -0.0, 0.5, 0.0]), dist([-0.0, 0.25, 0.5, 0.25])))
        pairs.append((dist([0.0, -0.0, 1.0, 0.0]), dist([0.1, 0.2, 0.3, 0.4])))
        extra_p = [dist([-0.0, 0.5, 0.5, -0.0]), dist([0.25, 0.25, 0.25, 0.25])]
        for q1, q2 in pairs:
            if tv_distance(q1, q2) >= 1.0 - 1e-12:
                # disjoint sparse draws: no threshold to compare
                with pytest.raises(DegenerateTV):
                    nfl_witness(grid[0], q1, q2)
                continue
            for p in grid + extra_p:
                assert _bits(nfl_witness(p, q1, q2)) == _bits(
                    _reference_nfl_witness(p, q1, q2)
                )

    def test_slack_tie_goes_to_first_index(self):
        q = dist([0.25, 0.25, 0.25, 0.25])
        # slack 0.375 at z1 and z2, -0.125 elsewhere
        w = nfl_witness(dist([0.0, 0.5, 0.5, 0.0]), q, q)
        assert (w.symbol, w.p_value, w.threshold) == ("z1", 0.5, 0.125)
        w = nfl_witness(dist([-0.0, 0.5, 0.5, -0.0]), q, q)
        assert w.symbol == "z1"
        # every slack equal: z0
        assert nfl_witness(q, q, q).symbol == "z0"

    def test_equal_but_distinct_domains_accepted(self):
        def on(symbols, weights):
            return make_distribution(ContentDomain(tuple(symbols)), weights)

        p = on("abc", [0.2, 0.3, 0.5])
        q1 = on("abc", [0.6, 0.2, 0.2])
        q2 = on("abc", [0.1, 0.1, 0.8])
        assert p.domain is not q1.domain and p.domain == q1.domain
        shared = [make_distribution(p.domain, q.weights) for q in (q1, q2)]
        assert tv_distance(q1, q2).hex() == tv_distance(*shared).hex()
        assert _bits(nfl_witness(p, q1, q2)) == _bits(nfl_witness(p, *shared))

    def test_different_domains_rejected(self):
        def on(symbols):
            return make_distribution(ContentDomain(tuple(symbols)), [0.2, 0.3, 0.5])

        base, other = on("abc"), on("abd")
        with pytest.raises(DomainMismatch):
            tv_distance(base, other)
        for args in ((other, base, base), (base, other, base), (base, base, other)):
            with pytest.raises(DomainMismatch):
                nfl_witness(*args)

    def test_tv_distance_bits_match_sum(self):
        rng = np.random.default_rng(9)
        for size in (2, 4, 8, 9, 100, 1000):
            for _ in range(5):
                q1, q2 = random_pair(rng, size, sparsify=0.3)
                expected = 0.5 * float(np.abs(q1.weights - q2.weights).sum())
                assert tv_distance(q1, q2).hex() == expected.hex()


class TestCensorship:
    def test_single_model_no_deficit(self):
        for alpha in (0.0, 0.5, 3.0):
            report = censorship_report(safes([0.3, 0.7]), alpha)
            assert report.deficit == 0.0

    def test_disjoint_full_deficit(self):
        report = censorship_report(safes([1.0, 0.0], [0.0, 1.0]), 5.0)
        assert report.deficit == 1.0

    def test_hand_value(self):
        report = censorship_report(safes([0.8, 0.2], [0.2, 0.8]), 0.5)
        expected_mass = math.exp(0.5) * 0.4
        assert report.allowed_mass == pytest.approx(expected_mass, abs=1e-12)
        assert report.deficit == pytest.approx(1.0 - expected_mass, abs=1e-12)

    def test_bounds_clamped(self):
        report = censorship_report(safes([0.5, 0.5]), 3.0)
        assert np.all(report.bounds <= 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            censorship_report(safes([0.5, 0.5]), -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        # +inf would compute inf * 0 on the envelope's zero
        with pytest.raises(ValueError, match="alpha must be a finite number >= 0"):
            censorship_report(safes([1.0, 0.0], [0.5, 0.5]), alpha)

    @pytest.mark.parametrize("name", ["allowed_mass", "deficit"])
    def test_totals_cannot_be_passed(self, name):
        bounds = dict(alpha=0.5, domain=domain(2), bounds=np.array([0.5, 0.25]))
        assert CensorshipReport(**bounds).deficit == 0.25
        with pytest.raises(TypeError):
            CensorshipReport(**bounds, **{name: 0.5})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(censorship_report(safes([0.5, 0.5]), 0.5), **{name: 0.5})

    def test_replace_recomputes_totals(self):
        report = censorship_report(safes([0.8, 0.2], [0.2, 0.8]), 0.5)
        assert report.allowed_mass == float(report.bounds.sum())
        changed = dataclasses.replace(report, bounds=np.array([0.25, 0.5]))
        assert (changed.allowed_mass, changed.deficit) == (0.75, 0.25)
        full = dataclasses.replace(report, bounds=np.array([1.0, 0.5]))
        assert (full.allowed_mass, full.deficit) == (1.5, 0.0)


class TestNafReport:
    def test_fields_consistent(self):
        p = dist([0.5, 0.5])
        assignment = safes([0.25, 0.75], [0.4, 0.6])
        report = naf_report(p, assignment, alpha=0.5)
        assert report.alpha_star == pytest.approx(math.log(2), abs=1e-12)
        assert not report.ok
        # alpha_star equals the worst violating log-ratio when finite
        assert max(v.log_ratio for v in report.violations) == pytest.approx(
            report.alpha_star, abs=1e-12
        )
        env_mass = float(min_envelope(assignment.models).sum())
        assert report.censorship.deficit == pytest.approx(
            max(0.0, 1.0 - math.exp(0.5) * env_mass), abs=1e-12
        )

    def test_json_round_trip_types(self):
        p = dist([0.0, 1.0])
        assignment = safes([1.0, 0.0])  # forces alpha_star = inf
        report = naf_report(p, assignment, alpha=1.0)
        obj = report.to_json_obj()
        assert obj["alpha_star"] == math.inf
        assert obj["violations"][0]["log_ratio"] == math.inf
        assert obj["ok"] is False


def _entry_bits(entries):
    return [(cid, model.weights.tobytes()) for cid, model in entries]


class TestLoopOracles:
    """The shared log-ratio table and first-occurrence walk against the
    per-model loops they replaced (tests/conftest.py), bit for bit."""

    def random_case(self, rng):
        size = int(rng.integers(1, 9))
        p = random_distribution(rng, size, sparsify=float(rng.choice([0.0, 0.4])))
        models = [
            random_distribution(rng, size, sparsify=float(rng.choice([0.0, 0.3, 0.6])))
            for _ in range(int(rng.integers(1, 5)))
        ]
        if rng.random() < 0.2:
            models.append(p)  # ratios of exactly 0
        return p, SafeAssignment.from_models(models)

    def test_naf_alpha_bits(self):
        rng = np.random.default_rng(901)
        infinite = zero = 0
        for _ in range(600):
            p, s = self.random_case(rng)
            got, expected = naf_alpha(p, s), loop_naf_alpha(p, s)
            assert type(got) is float
            assert got.hex() == expected.hex()
            infinite += math.isinf(got)
            zero += got == 0.0
        assert infinite > 0 and zero > 0

    def test_is_naf_bits_and_order(self):
        rng = np.random.default_rng(902)
        flagged = 0
        for _ in range(600):
            p, s = self.random_case(rng)
            alphas = [0.0, float(rng.random() * 2.0)]
            worst = loop_naf_alpha(p, s)
            if math.isfinite(worst):
                alphas.append(worst)  # an exact ratio, which is not exceeded
            for alpha in alphas:
                ok, violations = is_naf(p, s, alpha)
                expected_ok, expected = loop_is_naf(p, s, alpha)
                assert ok == expected_ok
                assert [(c, z, r.hex()) for c, z, r in violations] == [
                    (c, z, r.hex()) for c, z, r in expected
                ]
                flagged += len(violations) > 1
        assert flagged > 0

    def test_safe_constructions_bits(self):
        rng = np.random.default_rng(903)
        where = {"both": 0, "first only": 0, "second only": 0}
        for case in range(300):
            size = int(rng.integers(1, 9))
            n = int(rng.integers(2, 41))
            q = random_distribution(rng, size, sparsify=0.3)
            data = Dataset.from_indices(q.domain, rng.choice(size, n, p=q.weights))
            learner = learner_empirical(float(rng.choice([0.0, 1.0])))
            seed = case
            got = safe_leave_one_out(learner, data, seed)
            assert _entry_bits(got) == _entry_bits(seen_set_leave_one_out(learner, data, seed))
            got = safe_sharded(learner, data, seed)
            assert _entry_bits(got) == _entry_bits(seen_set_sharded(learner, data, seed))
            perm = np.random.default_rng(seed).permutation(n)
            first = set(data.indices[perm[: n // 2]].tolist())
            second = set(data.indices[perm[n // 2 :]].tolist())
            where["both"] += len(first & second)
            where["first only"] += len(first - second)
            where["second only"] += len(second - first)
        assert min(where.values()) > 0, where
