import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dist,
    domain,
    per_trial_premise_alpha,
    random_distribution,
    scalar_histogram_values,
    scalar_project,
)
import stability_lab.core as core_mod
import stability_lab.coupling as coupling_mod
import stability_lab.transform as transform_mod
from stability_lab import (
    ContentDomain,
    Dataset,
    Learner,
    TransformConfig,
    derive_seed,
    deviation_bound,
    dp_transform,
    dp_transform_trace,
    estimate_premise_alpha,
    learner_constant,
    learner_empirical,
    make_distribution,
    private_histogram,
    race_tapes,
    required_k,
    sample_dataset,
    simplex_project_linf,
    transform_bound_experiment,
    tv_distance,
)
from stability_lab.errors import (
    DomainMismatch,
    EmptyDataset,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
    SizeMismatch,
)
from stability_lab.transform import BoundExperimentReport, _shard_weight_matrix

# small-k config: epsilon large enough that a handful of shards suffice
TINY = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=3)


class TestTransformConfig:
    def test_derived_fields(self):
        assert TINY.m_priv == TINY.k * TINY.m
        assert TINY.k >= 1

    def test_replace_rederives_k(self):
        wider = dataclasses.replace(TINY, eta=0.2)
        assert wider.k == required_k(wider.params) > TINY.k
        assert wider.m_priv == wider.k * TINY.m
        assert wider == TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.2, m=3)
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, k=TINY.k + 1)

    def test_beta_is_tied_to_eta(self):
        assert TINY.params.beta == TINY.params.eta

    @pytest.mark.parametrize("m", [0, -3])
    def test_base_sample_size_below_one_rejected(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            TransformConfig(epsilon=2.0, delta=0.05, eta=0.3, m=m)

    @pytest.mark.parametrize("m", [2.5, 3.0, True, "3", None])
    def test_base_sample_size_must_be_an_integer(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            TransformConfig(epsilon=2.0, delta=0.05, eta=0.3, m=m)

    def test_numpy_integer_base_sample_size_accepted(self):
        config = TransformConfig(epsilon=2.0, delta=0.05, eta=0.3, m=np.int64(3))
        assert config.m_priv == TINY.m_priv
        assert json.dumps(config.to_json_obj()) == json.dumps(TINY.to_json_obj())

    def test_payload_fields(self):
        obj = TINY.to_json_obj()
        assert list(obj) == ["epsilon", "delta", "eta", "m", "k", "m_priv"]
        assert obj == {
            "epsilon": 2.0, "delta": 0.05, "eta": 0.3, "m": 3, "k": TINY.k, "m_priv": TINY.m_priv,
        }


class TestEstimatePremiseAlpha:
    def test_constant_learner_exactly_zero(self):
        q = dist([0.25, 0.75])
        got = estimate_premise_alpha(learner_constant(q), q, m=5, trials=50, seed=1)
        assert got == 0.0

    def test_memorizer_single_sample(self):
        # m = 1 on a fair coin: the two singleton models differ with
        # probability 1/2 and are then at TV 1, so the mean is 0.5
        data = dist([0.5, 0.5])
        trials = 2000
        got = estimate_premise_alpha(
            learner_empirical(0.0), data, m=1, trials=trials, seed=2
        )
        sigma = 0.5 / math.sqrt(trials)
        assert abs(got - 0.5) <= 3 * sigma

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, trials):
        q = dist([0.25, 0.75])
        with pytest.raises(ValueError, match="trials"):
            estimate_premise_alpha(learner_constant(q), q, m=5, trials=trials, seed=1)

    @pytest.mark.parametrize("trials", [True, 2.0, 2.5, np.float64(3.0)])
    def test_non_integer_trials_rejected(self, trials):
        q = dist([0.25, 0.75])
        with pytest.raises(ValueError, match="trials"):
            estimate_premise_alpha(learner_constant(q), q, m=5, trials=trials, seed=1)

    def test_seed_read_as_an_integer(self):
        # True and 1.0 once derived other streams than 1 (0.190 against 0.238).
        learner = learner_empirical(1.0)
        q = dist([0.5, 0.5])
        assert estimate_premise_alpha(learner, q, 5, 3, True) == estimate_premise_alpha(
            learner, q, 5, 3, 1
        )
        with pytest.raises(TypeError):
            estimate_premise_alpha(learner, q, 5, 3, 1.0)

    def test_range(self):
        rng = np.random.default_rng(60)
        data = random_distribution(rng, 4)
        got = estimate_premise_alpha(
            learner_empirical(1.0), data, m=3, trials=40, seed=3
        )
        assert 0.0 <= got <= 1.0

    @pytest.mark.parametrize("m", [True, False, 2.0, np.float64(3.0), -1])
    def test_bad_m_rejected_before_any_seed(self, m):
        # A float root seed raises TypeError when the first seed is drawn.
        q = dist([0.25, 0.75])
        with pytest.raises(ValueError, match="^m must"):
            estimate_premise_alpha(learner_empirical(1.0), q, m=m, trials=3, seed=1.0)

    def test_no_items(self):
        # Smoothed models of empty samples are all uniform; the unsmoothed
        # learner refuses an empty sample.
        q = dist([0.25, 0.75])
        assert estimate_premise_alpha(learner_empirical(1.0), q, 0, 5, 1) == 0.0
        assert estimate_premise_alpha(learner_constant(q), q, 0, 5, 1) == 0.0
        with pytest.raises(EmptyDataset):
            estimate_premise_alpha(learner_empirical(0.0), q, 0, 5, 1)

    PREMISE_LEARNERS = ["empirical-0", "empirical-0.5", "empirical-1", "constant", "train-only"]

    @staticmethod
    def premise_learner(kind, data):
        if kind == "constant":
            return learner_constant(data)
        if kind == "train-only":
            # No train_shards: the blocks train row by row through train.
            return Learner("train-only", learner_empirical(0.5).train)
        return learner_empirical(float(kind.split("-")[1]))

    @pytest.mark.parametrize("kind", PREMISE_LEARNERS)
    @pytest.mark.parametrize("size", [1, 2, 8, 9, 200, 1000])
    @pytest.mark.parametrize("m", [1, 5, 50, 3000])
    def test_equals_per_trial_loop(self, monkeypatch, kind, size, m):
        # The trials straddle a block edge wherever a block holds fewer than
        # 37 rows: every m = 3000 case and every |Z| = 1000 case.
        data = random_distribution(np.random.default_rng(size * 10_000 + m), size)
        learner = self.premise_learner(kind, data)
        trials = min(transform_mod._tapes_per_block(max(m, size)) + 3, 40)
        tables = []
        bucket_table = core_mod._bucket_table

        def table_spy(*args):
            tables.append(args)
            return bucket_table(*args)

        monkeypatch.setattr(core_mod, "_bucket_table", table_spy)
        got = estimate_premise_alpha(learner, data, m, trials, seed=size + m)
        assert got.hex() == per_trial_premise_alpha(learner, data, m, trials, size + m).hex()
        if m == 3000 and size <= 200:
            assert tables  # the blocks' uniforms go through the bucket table
        if kind == "constant":
            assert got == 0.0

    @pytest.mark.parametrize("kind", PREMISE_LEARNERS)
    def test_blocks_straddle_trials(self, monkeypatch, kind):
        # A 64-cell budget makes blocks of 8 rows at |Z| = 8 and m = 5.
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 64)
        data = random_distribution(np.random.default_rng(71), 8)
        learner = self.premise_learner(kind, data)
        for trials in (1, 7, 8, 9, 16, 25):
            got = estimate_premise_alpha(learner, data, 5, trials, seed=trials)
            assert got.hex() == per_trial_premise_alpha(learner, data, 5, trials, trials).hex()

    def test_seeded_learner_takes_block_train_seeds(self, monkeypatch):
        # Side s of block b trains with derive_seed(seed, "premise-train-s",
        # b), so row i of that block trains as shard i of _train_rows.
        def train(dataset, seed):
            return learner_empirical(seed % 5 / 2).train(dataset, seed)

        learner = Learner("seeded", train)
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 64)
        data = random_distribution(np.random.default_rng(72), 8)
        m, trials, seed = 5, 19, 17
        block = transform_mod._tapes_per_block(max(m, 8))
        assert block == 8
        block_seeds = [
            [derive_seed(seed, f"premise-train-{side}", t // block) for t in range(trials)]
            for side in "ab"
        ]
        train_seeds = [
            [derive_seed(s, "shard-train", t % block) for t, s in enumerate(side)]
            for side in block_seeds
        ]
        got = estimate_premise_alpha(learner, data, m, trials, seed)
        expected = per_trial_premise_alpha(learner, data, m, trials, seed, train_seeds)
        assert got.hex() == expected.hex()
        # The per-trial seeds of the loop give another estimate.
        assert got != per_trial_premise_alpha(learner, data, m, trials, seed)

    @pytest.mark.parametrize("size", [1, 2, 7, 8, 9, 16, 17, 127, 128, 129, 200, 1000])
    def test_row_tvs_equal_tv_distance(self, size):
        # numpy sums each row of an axis-1 add.reduce as it sums one vector:
        # pairwise, unrolled by 8, in blocks of 128.
        rng = np.random.default_rng(size)
        a = rng.dirichlet(np.ones(size), size=30)
        b = rng.dirichlet(np.ones(size), size=30)
        rows = 0.5 * np.add.reduce(np.abs(a - b), axis=1)
        for x, y, got in zip(a, b, rows.tolist()):
            q1, q2 = make_distribution(domain(size), x), make_distribution(domain(size), y)
            assert got == tv_distance(q1, q2)

    @pytest.mark.parametrize(
        "size, m, trials", [(8, 500, 200), (1000, 1, 70), (4, 0, 3), (2, 40_000, 3)]
    )
    def test_blocks_fit_the_budget(self, monkeypatch, size, m, trials):
        sampled, trained = [], []
        sample_rows, train_rows = transform_mod._sample_rows, transform_mod._train_rows

        def sample_spy(q, size, seeds):
            samples = sample_rows(q, size, seeds)
            sampled.append(samples.shape)
            return samples

        monkeypatch.setattr(transform_mod, "_sample_rows", sample_spy)

        def spy(learner, domain, samples, train_seed):
            weights = train_rows(learner, domain, samples, train_seed)
            trained.append(weights.shape[0])
            return weights

        monkeypatch.setattr(transform_mod, "_train_rows", spy)
        data = random_distribution(np.random.default_rng(size), size)
        estimate_premise_alpha(learner_empirical(1.0), data, m, trials, seed=3)
        budget = coupling_mod._CELL_BUDGET
        assert sum(trained) == 2 * trials and len(sampled) == len(trained)
        for shape, rows in zip(sampled, trained):
            assert shape == (rows, m)
            assert rows == 1 or rows * max(m, size) <= budget


class TestSimplexProjectLinf:
    def test_already_feasible_unchanged(self):
        d = domain(2)
        p = simplex_project_linf(d, np.array([0.5, 0.5]), eta=0.2)
        assert np.array_equal(p.weights, [0.5, 0.5])

    def test_noisy_uniform_pulled_back(self):
        d = domain(2)
        p = simplex_project_linf(d, np.array([0.6, 0.6]), eta=0.1)
        assert np.allclose(p.weights, [0.5, 0.5], atol=1e-12)

    def test_infeasible_returns_none(self):
        assert simplex_project_linf(domain(2), np.array([0.0, 0.0]), eta=0.3) is None

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            simplex_project_linf(domain(2), np.array([0.5, 0.5]), eta=0.0)

    def test_nan_eta_rejected(self):
        # every comparison with NaN is False, so `eta <= 0` let it through
        # and the input came back as its own projection
        with pytest.raises(ValueError, match="eta must be positive"):
            simplex_project_linf(domain(3), np.array([0.5, 0.3, 0.2]), eta=math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        # NaN raised NegativeWeight from the projection's own output check,
        # and +-inf returned None as an infeasible box
        with pytest.raises(ValueError, match="^values must be finite$"):
            simplex_project_linf(domain(3), np.array([0.5, bad, 0.2]), eta=0.3)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=8),
        st.floats(min_value=0.01, max_value=0.9),
    )
    def test_box_and_simplex_property(self, values, eta):
        a = np.asarray(values)
        lower, upper = np.maximum(a - eta, 0.0), np.minimum(a + eta, 1.0)
        feasible = lower.sum() <= 1.0 <= upper.sum()
        p = simplex_project_linf(domain(len(values)), a, eta)
        if not feasible:
            assert p is None
        else:
            assert p is not None
            assert np.abs(p.weights - a).max() <= eta + 1e-9
            assert p.weights.sum() == pytest.approx(1.0, abs=1e-9)

    @staticmethod
    def _full_loop(values, eta):
        """Reference: the push loop walked over every coordinate, no early exit."""
        a = np.asarray(values, dtype=np.float64)
        lower = np.maximum(a - eta, 0.0)
        upper = np.minimum(a + eta, 1.0)
        if lower.sum() > 1.0 or upper.sum() < 1.0:
            return None
        x = np.clip(a, 0.0, 1.0)
        residual = 1.0 - float(x.sum())
        for i in range(x.size):
            if residual > 0:
                step = min(residual, float(upper[i] - x[i]))
            else:
                step = max(residual, float(lower[i] - x[i]))
            x[i] += step
            residual -= step
        return x

    def test_early_exit_matches_full_loop(self):
        rng = np.random.default_rng(46)
        cases = [
            ([0.0, 0.0, 0.5, 0.5], 0.1),  # exact mass: residual 0 from the start
            ([-0.0, 0.0, 1.0, -0.0], 0.2),  # -0.0 left behind the exit
            ([1.0, 1.0, 0.0], 0.6),  # values at 1, surplus
            ([1.0, 0.0, 0.0, -0.0], 0.3),
            ([0.3, 0.0, 0.2, 0.0, -0.0], 0.4),  # deficit
            ([0.7, 0.6, 0.0, -0.0], 0.2),  # surplus
            ([1.2, -0.1, 0.0], 0.3),  # outside [0, 1] before the clip
            ([0.0, 0.0], 0.3),  # infeasible: upper bounds sum below 1
            ([0.9, 0.9, 0.0], 0.1),  # infeasible: lower bounds sum above 1
        ]
        for _ in range(200):
            size = int(rng.integers(2, 12))
            v = np.where(rng.random(size) < 0.3, 0.0, rng.random(size) * 0.6)
            v[rng.random(size) < 0.1] = 1.0
            v[(v == 0.0) & (rng.random(size) < 0.5)] = -0.0
            cases.append((v, float(rng.uniform(0.01, 0.5))))
        big = rng.dirichlet(np.ones(5000)) + rng.normal(0.0, 1e-4, 5000)
        big[rng.random(5000) < 0.2] = 0.0
        cases += [(big, 1e-3), (big, 1e-5), (np.zeros(5000), 1e-3)]
        nones = 0
        for values, eta in cases:
            expected = self._full_loop(values, eta)
            p = simplex_project_linf(domain(len(values)), np.asarray(values), eta)
            if expected is None:
                nones += 1
                assert p is None
            else:
                assert p.weights.tobytes() == expected.tobytes()
        assert 3 <= nones < len(cases) - 3

    def test_empty_coordinate_box_is_infeasible(self):
        # The sums alone pass, but a value below -eta leaves its coordinate
        # the empty box [0, a + eta]. (A value above 1 + eta cannot slip
        # through: its lower bound alone exceeds 1.)
        cases = [([0.9107, -0.0569, 0.0387], 0.05), ([0.5, -0.2, 0.6, 0.1], 0.1)]
        for values, eta in cases:
            a = np.asarray(values)
            assert np.maximum(a - eta, 0.0).sum() <= 1.0 <= np.minimum(a + eta, 1.0).sum()
            assert simplex_project_linf(domain(a.size), a, eta) is None


class TestProjectRows:
    @staticmethod
    def rows_for(size, rng):
        """Rows at one |Z|: surplus, deficit, exact, -0.0, rounded and infeasible."""
        rows = [np.zeros(size), np.full(size, 1.0 / size), np.full(size, 1.0)]
        for _ in range(12):
            v = rng.dirichlet(np.ones(size)) + rng.normal(0.0, 0.3 / size, size)
            v[rng.random(size) < 0.25] = 0.0
            v[(v == 0.0) & (rng.random(size) < 0.5)] = -0.0
            v[rng.random(size) < 0.05] = 1.0
            rows += [v, np.round(v, 2), np.round(rng.dirichlet(np.ones(size)), 3)]
        return np.array(rows)

    def test_rows_match_scalar_loop(self):
        rng = np.random.default_rng(71)
        seen = dict.fromkeys(["surplus", "deficit", "exact", "infeasible"], 0)
        cases = [
            (np.array([[0.9107, -0.0569, 0.0387]]), 0.05),  # empty box
            # the residual before step 1 (1/8) equals that slack exactly
            (np.array([[0.25, 0.25, 0.25, 0.0]]), 0.125),
        ]
        for size in range(1, 51):
            values = self.rows_for(size, rng)
            cases += [(values, eta) for eta in (0.5 / size, 2.0 / size, 0.3)]
        wide = self.rows_for(1000, rng)
        cases += [(wide, eta) for eta in (1e-9, 1.0 / 1000, 1.0, 2.0)]
        cases += [(self.rows_for(5, rng), eta) for eta in (1e-9, 1.0, 2.0)]
        # Sixteenths with eta = 1/8: slacks and residuals are exact multiples
        # of 1/16, so a residual often equals a coordinate's slack.
        for size in (4, 8, 16):
            cases.append((rng.integers(-1, 6, (40, size)) / 16.0 * (8 / size), 0.125))
        for values, eta in cases:
            out, feasible = transform_mod._project_rows(values, eta)
            assert out.shape == values.shape and feasible.shape == (values.shape[0],)
            for row, got, ok in zip(values, out, feasible):
                expected = scalar_project(row, eta)
                public = simplex_project_linf(domain(row.size), row, eta)
                if expected is None:
                    seen["infeasible"] += 1
                    assert not ok and public is None
                    assert got.tobytes() == np.full(row.size, 1.0 / row.size).tobytes()
                    continue
                residual = 1.0 - float(np.clip(row, 0.0, 1.0).sum())
                seen["surplus" if residual > 0 else "deficit" if residual < 0 else "exact"] += 1
                assert ok
                assert got.tobytes() == expected.tobytes()
                assert public.weights.tobytes() == expected.tobytes()
        assert min(seen.values()) >= 20, seen
        assert transform_mod._project_rows(cases[0][0], 0.05)[1].tolist() == [False]

    def test_keeps_negative_zero_like_the_loop(self):
        # An exact row exits at once: every coordinate gets + 0.0, so -0.0
        # becomes 0.0; a surplus row keeps -0.0 only where the loop does.
        values = np.array([[-0.0, 0.0, 1.0, -0.0], [0.5, -0.0, 0.2, -0.0]])
        out, _ = transform_mod._project_rows(values, 0.2)
        for row, got in zip(values, out):
            assert got.tobytes() == scalar_project(row, 0.2).tobytes()

    def test_row_sums_match_vector_sums(self):
        # The feasibility tests and the residual sum each row with
        # x.sum(axis=1); the scalar form summed the 1-D row.
        rng = np.random.default_rng(72)
        for size in (1, 7, 8, 9, 16, 50, 129, 5000):
            x = rng.random((6, size)) * rng.choice([1e-8, 1.0, 1e8], (6, size))
            assert x.sum(axis=1).tobytes() == np.array([r.sum() for r in x]).tobytes()

    def test_eta_validation(self):
        for eta in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError):
                transform_mod._project_rows(np.full((2, 2), 0.5), eta)


D8 =dist([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])


class TestDpTransform:
    def test_size_mismatch(self):
        sample = sample_dataset(D8, TINY.m_priv - 1, seed=4)
        with pytest.raises(SizeMismatch):
            dp_transform(learner_empirical(1.0), sample, TINY, 1, 2)

    def test_reproducible_bit_for_bit(self):
        sample = sample_dataset(D8, TINY.m_priv, seed=5)
        learner = learner_empirical(1.0)
        a = dp_transform(learner, sample, TINY, tape_seed=10, noise_seed=20)
        b = dp_transform(learner, sample, TINY, tape_seed=10, noise_seed=20)
        assert np.array_equal(a.weights, b.weights)

    def test_constant_learner_concentrates(self):
        q = dist([0.1, 0.2, 0.3, 0.25, 0.05, 0.04, 0.03, 0.03])
        sample = sample_dataset(D8, TINY.m_priv, seed=6)
        trace = dp_transform_trace(
            learner_constant(q), sample, TINY, tape_seed=11, noise_seed=21
        )
        # identical shard models share one tape, so every coupled sample agrees
        assert np.count_nonzero(trace.coupled_counts) == 1
        winner = int(np.argmax(trace.coupled_counts))
        assert trace.coupled_counts[winner] == TINY.k
        assert trace.output.weights[winner] >= 1.0 - 2 * TINY.eta

    def test_trace_histogram_is_private_histogram_of_coupled_samples(self):
        learner = learner_empirical(1.0)
        for seed in range(5):
            sample = sample_dataset(D8, TINY.m_priv, seed=30 + seed)
            trace = dp_transform_trace(learner, sample, TINY, tape_seed=seed, noise_seed=40 + seed)
            coupled = Dataset.from_indices(
                D8.domain, np.repeat(np.arange(8), trace.coupled_counts)
            )
            expected = private_histogram(coupled, TINY.epsilon, TINY.delta, 40 + seed)
            assert trace.histogram.values.tobytes() == expected.values.tobytes()
            assert trace.histogram.to_json_obj() == expected.to_json_obj()
            assert trace.histogram.k == TINY.k

    def test_k_equals_one_edge(self):
        config = TransformConfig.from_params(epsilon=100.0, delta=0.5, eta=0.3, m=4)
        assert config.k == 1
        sample = sample_dataset(D8, config.m_priv, seed=7)
        out = dp_transform(learner_empirical(1.0), sample, config, 1, 2)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_record_influence(self):
        learner = learner_empirical(1.0)
        sample = sample_dataset(D8, TINY.m_priv, seed=8)
        indices = sample.indices.copy()
        indices[0] = (indices[0] + 1) % 8  # perturb one record
        perturbed = Dataset.from_indices(sample.domain, indices)
        t1 = dp_transform_trace(learner, sample, TINY, 12, 22)
        t2 = dp_transform_trace(learner, perturbed, TINY, 12, 22)
        changed_rows = np.flatnonzero(
            np.any(t1.shard_weights != t2.shard_weights, axis=1)
        )
        assert changed_rows.size == 1  # only the shard holding the record
        # so at most one coupled sample moves, and the counts the histogram
        # releases are equal or differ by one replacement c - e_i + e_j
        c1, c2 = (race_tapes(D8.domain, [12], t.shard_weights)[0] for t in (t1, t2))
        assert np.count_nonzero(c1 != c2) <= 1
        diff = t1.coupled_counts - t2.coupled_counts
        assert diff.sum() == 0 and np.abs(diff).sum() in (0, 2)

    def test_output_depends_on_data_only_through_histogram(self):
        # a data-oblivious learner erases all dataset influence before the
        # histogram, so any two inputs give identical downstream results
        q = dist([0.3, 0.3, 0.1, 0.1, 0.05, 0.05, 0.05, 0.05])
        learner = learner_constant(q)
        s1 = sample_dataset(D8, TINY.m_priv, seed=9)
        s2 = sample_dataset(D8, TINY.m_priv, seed=10)
        t1 = dp_transform_trace(learner, s1, TINY, 13, 23)
        t2 = dp_transform_trace(learner, s2, TINY, 13, 23)
        assert np.array_equal(t1.histogram.values, t2.histogram.values)
        assert t1.output == t2.output

    @pytest.mark.parametrize(
        "learner",
        [
            learner_empirical(0.5),
            learner_constant(dist([0.5, 0.0, 0.2, 0.1, 0.1, 0.05, 0.03, 0.02])),
        ],
        ids=["empirical", "constant"],
    )
    def test_shard_matrix_batched_equals_per_shard(self, learner):
        sample = sample_dataset(D8, TINY.m_priv, seed=12)
        per_shard = Learner(learner.name, train=learner.train)
        assert np.array_equal(
            _shard_weight_matrix(learner, sample, TINY, train_seed=78),
            _shard_weight_matrix(per_shard, sample, TINY, train_seed=78),
        )

    def test_per_shard_train_seed_read_as_an_integer(self):
        def train(dataset, seed):
            w = np.random.default_rng(seed).dirichlet(np.ones(dataset.domain.size))
            return make_distribution(dataset.domain, w)

        learner = Learner("seeded", train=train)
        sample = sample_dataset(D8, TINY.m_priv, seed=15)
        assert dp_transform(learner, sample, TINY, 1, 2, train_seed=True) == dp_transform(
            learner, sample, TINY, 1, 2, train_seed=1
        )
        with pytest.raises(TypeError):
            dp_transform(learner, sample, TINY, 1, 2, train_seed=1.0)

    def test_shard_matrix_validated_once(self):
        sample = sample_dataset(D8, TINY.m_priv, seed=13)
        good = learner_empirical(1.0)

        def batch_with(row, value):
            def train_shards(d, shard_indices, train_seed):
                w = good.train_shards(d, shard_indices, train_seed).copy()
                w[row] = value
                return w

            return Learner("bad", train=good.train, train_shards=train_shards)

        last = TINY.k - 1
        with pytest.raises(NegativeWeight):
            _shard_weight_matrix(batch_with(last, [-0.1, 1.1] + [0.0] * 6), sample, TINY, 0)
        with pytest.raises(NotNormalized):
            _shard_weight_matrix(batch_with(last, [0.2] * 8), sample, TINY, 0)
        narrow = Learner(
            "narrow", train=good.train,
            train_shards=lambda d, idx, seed: np.full((idx.shape[0], 7), 1 / 7),
        )
        with pytest.raises(LengthMismatch):
            _shard_weight_matrix(narrow, sample, TINY, 0)

    def test_foreign_domain_model_rejected(self, monkeypatch):
        # same width, different symbols: both training paths must refuse it
        # before any race
        data = make_distribution(ContentDomain(("a", "b")), [0.5, 0.5])
        q = make_distribution(ContentDomain(("x", "y")), [0.3, 0.7])
        sample = sample_dataset(data, TINY.m_priv, seed=14)

        def no_race(*args, **kwargs):
            raise AssertionError("raced a foreign-domain model")

        # the one name through which the release chain races
        monkeypatch.setattr(transform_mod, "_race_tape_blocks", no_race)
        constant = learner_constant(q)
        for learner in (constant, Learner(constant.name, train=constant.train)):
            with pytest.raises(DomainMismatch):
                dp_transform(learner, sample, TINY, 1, 2)
            with pytest.raises(DomainMismatch):
                transform_bound_experiment(
                    learner, data, TINY, outer_trials=1, inner_trials=2, seed=3,
                    premise_trials=2,
                )


class TestDeviationBound:
    def test_formula(self):
        assert deviation_bound(0.0, 0.1) == pytest.approx(0.5)
        assert deviation_bound(1.0, 0.0) == pytest.approx(1.0)

    def test_monotone_concave_on_unit_interval(self):
        xs = np.linspace(0.0, 1.0, 101)
        ys = 2 * xs / (1 + xs)
        diffs = np.diff(ys)
        assert np.all(diffs > 0)  # strictly increasing
        assert np.all(np.diff(diffs) <= 1e-12)  # concave


class TestBoundExperiment:
    def test_constant_learner_within_noise_budget(self):
        q = dist([0.30, 0.25, 0.15, 0.10, 0.08, 0.06, 0.04, 0.02])
        report = transform_bound_experiment(
            learner_constant(q),
            D8,
            TINY,
            outer_trials=2,
            inner_trials=30,
            seed=15,
            premise_trials=20,
        )
        assert report.alpha_hat == 0.0
        assert report.bound == pytest.approx(5 * TINY.eta)
        assert report.grand_mean_tv <= report.bound + 0.02
        assert report.within_bound(0.02)

    def test_report_shape_and_mean(self):
        report = transform_bound_experiment(
            learner_empirical(1.0),
            D8,
            TINY,
            outer_trials=3,
            inner_trials=5,
            seed=16,
            premise_trials=10,
        )
        assert len(report.per_trial_tv) == 3
        assert 0.0 <= report.grand_mean_tv <= 1.0
        assert report.grand_mean_tv == pytest.approx(
            float(np.mean(report.per_trial_tv))
        )
        assert report.bound == pytest.approx(
            deviation_bound(report.alpha_hat, TINY.eta)
        )
        obj = report.to_json_obj()
        assert obj["k"] == TINY.k and len(obj["per_trial_tv"]) == 3

    @staticmethod
    def check_inner_average(inner_trials, config=TINY):
        # the experiment's averaged model must be exactly the average of
        # dp_transform runs with the same derived seeds, here trained shard
        # by shard through the scalar train; each run's histogram and
        # output must equal the scalar release and projection of its
        # coupled counts. Returns (fallback trials, suppressed symbols).
        learner = learner_empirical(1.0)
        per_shard = Learner(learner.name, train=learner.train)
        seed = 17
        report = transform_bound_experiment(
            learner, D8, config, outer_trials=2, inner_trials=inner_trials, seed=seed,
            premise_trials=5,
        )
        fallbacks = suppressed = 0
        for t in range(2):
            sample = sample_dataset(
                D8, config.m_priv, derive_seed(seed, "private-sample", t)
            )
            base = sample_dataset(D8, config.m, derive_seed(seed, "base-sample", t))
            base_model = learner.train(base, derive_seed(seed, "base-train", t))
            acc = np.zeros(8)
            for j in range(t * inner_trials, (t + 1) * inner_trials):
                noise_seed = derive_seed(seed, "noise", j)
                trace = dp_transform_trace(
                    per_shard,
                    sample,
                    config,
                    tape_seed=derive_seed(seed, "tape", j),
                    noise_seed=noise_seed,
                    train_seed=derive_seed(seed, "transform-train", t),
                )
                coupled = race_tapes(
                    D8.domain, [derive_seed(seed, "tape", j)], trace.shard_weights
                )[0]
                counts = np.bincount(coupled, minlength=8)
                assert trace.coupled_counts.tobytes() == counts.tobytes()
                values = scalar_histogram_values(
                    counts, config.epsilon, config.delta, noise_seed
                )
                projected = scalar_project(values, config.eta)
                if projected is None:
                    projected = np.full(8, 1.0 / 8)
                assert trace.histogram.values.tobytes() == values.tobytes()
                assert trace.output.weights.tobytes() == projected.tobytes()
                assert trace.fallback_used == (scalar_project(values, config.eta) is None)
                fallbacks += trace.fallback_used
                suppressed += int(np.count_nonzero((counts > 0) & (values == 0.0)))
                acc += trace.output.weights
            mean_model = make_distribution(D8.domain, acc / inner_trials)
            assert report.per_trial_tv[t] == tv_distance(mean_model, base_model)
        return fallbacks, suppressed

    def test_inner_average_equals_repeated_dp_transform(self):
        self.check_inner_average(4)

    def test_inner_average_spans_race_blocks(self, monkeypatch):
        # 16 cells: the chain's race makes the 7 inner trials' tapes in
        # blocks of 2, 2, 2 and 1 tapes of |Z| = 8 variates, and
        # _release_chain releases each block as it is raced
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 2 * 8)
        self.check_inner_average(7)

    def test_inner_average_spans_release_chunks(self, monkeypatch):
        # 24 cells: _release_chain releases the 7 inner trials as count
        # matrices of 3, 3 and 1 rows of |Z| = 8 counts
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 3 * 8)
        self.check_inner_average(7)

    def test_inner_average_adds_rows_in_trial_order(self):
        # With 40 rows the rounding of the sum depends on its order: the
        # same rows added in reverse give a different per_trial_tv here.
        self.check_inner_average(40)

    def test_inner_average_covers_fallback_and_suppression(self):
        # k = 2 and eta < 1/8: two distinct coupled samples both fall below
        # tau, the all-zero histogram's box misses the simplex, and that
        # trial takes the uniform fallback inside a batch of feasible ones.
        config = TransformConfig.from_params(epsilon=200.0, delta=0.9, eta=0.1, m=2)
        assert config.k == 2
        fallbacks, suppressed = self.check_inner_average(7, config)
        assert 1 <= fallbacks < 14 and suppressed >= 1
        assert self.check_inner_average(4)[1] >= 1

    def test_trial_count_validation(self):
        with pytest.raises(ValueError):
            transform_bound_experiment(
                learner_empirical(1.0), D8, TINY, outer_trials=0, inner_trials=1, seed=0
            )

    @pytest.mark.parametrize(
        "kwargs",
        [{"outer_trials": True}, {"inner_trials": 2.0}, {"premise_trials": 2.5},
         {"outer_trials": np.float64(1.0)}, {"inner_trials": False}],
    )
    def test_non_integer_trial_counts_rejected(self, kwargs):
        args = {"outer_trials": 1, "inner_trials": 1, "premise_trials": 2, **kwargs}
        with pytest.raises(ValueError, match="trials must be an integer"):
            transform_bound_experiment(learner_empirical(1.0), D8, TINY, seed=0, **args)

    def test_numpy_integer_trial_counts_accepted(self):
        plain = transform_bound_experiment(
            learner_empirical(1.0), D8, TINY, outer_trials=2, inner_trials=3, seed=4,
            premise_trials=3,
        )
        typed = transform_bound_experiment(
            learner_empirical(1.0), D8, TINY, outer_trials=np.int64(2), inner_trials=np.int32(3),
            seed=np.int64(4), premise_trials=np.int64(3),
        )
        assert typed.per_trial_tv == plain.per_trial_tv
        # the payload holds Python ints, so it serializes as the plain one does
        assert json.dumps(typed.to_json_obj()) == json.dumps(plain.to_json_obj())


class TestDerivedReportTotals:
    @pytest.fixture(scope="class")
    def report(self):
        return transform_bound_experiment(
            learner_empirical(1.0), D8, TINY, outer_trials=3, inner_trials=4, seed=21,
            premise_trials=6,
        )

    @pytest.mark.parametrize("name", ["outer_trials", "grand_mean_tv", "bound"])
    def test_totals_cannot_be_passed(self, report, name):
        measured = dict(
            config=TINY, inner_trials=4, premise_trials=6, seed=21, alpha_hat=0.0,
            per_trial_tv=(0.5,),
        )
        assert BoundExperimentReport(**measured).grand_mean_tv == 0.5
        with pytest.raises(TypeError):
            BoundExperimentReport(**measured, **{name: 1})
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(report, **{name: 1})

    def test_replace_recomputes_totals(self, report):
        changed = dataclasses.replace(report, per_trial_tv=(0.25, 0.75), alpha_hat=1.0)
        assert changed.outer_trials == 2
        assert changed.grand_mean_tv == 0.5
        assert changed.bound == deviation_bound(1.0, TINY.eta)
        payload = changed.to_json_obj()
        assert (payload["outer_trials"], payload["grand_mean_tv"]) == (2, 0.5)
        assert payload["bound"] == changed.bound

    def test_payload_fields(self, report):
        payload = report.to_json_obj()
        assert set(payload) == {
            "epsilon", "delta", "eta", "m", "k", "m_priv", "outer_trials", "inner_trials",
            "premise_trials", "seed", "alpha_hat", "per_trial_tv", "grand_mean_tv", "bound",
            "eta_coefficient",
        }
        assert type(payload["per_trial_tv"]) is list
        assert payload["per_trial_tv"] == list(report.per_trial_tv)

    def test_report_needs_a_trial(self, report):
        with pytest.raises(ValueError):
            dataclasses.replace(report, per_trial_tv=())


class TestReleaseChain:
    """dp_transform_trace and transform_bound_experiment release through one
    chain, which races, releases and projects by its module's names."""

    @pytest.fixture
    def chains(self, monkeypatch):
        # one (tape seeds, noise seeds, rows per chunk) entry per chain call
        chains = []
        chain = transform_mod._release_chain

        def spy(domain, weights, tape_seeds, noise_seeds, config):
            # the chain consumes its seeds, so they are read before it runs
            tape_seeds, noise_seeds = list(tape_seeds), list(noise_seeds)
            chunks = list(chain(domain, weights, tape_seeds, noise_seeds, config))
            chains.append((tape_seeds, noise_seeds, [c[0].shape[0] for c in chunks]))
            yield from chunks

        monkeypatch.setattr(transform_mod, "_release_chain", spy)
        return chains

    @staticmethod
    def stage_rows(monkeypatch):
        # rows per call of each stage the chain looks up by name: the rows
        # that _race_tape_blocks yields, the first argument of the other two
        rows = {}
        for name in ("_release_rows", "_project_rows"):
            def spy(*args, stage=getattr(transform_mod, name), seen=rows.setdefault(name, []),
                    **kwargs):
                seen.append(len(args[0]))
                return stage(*args, **kwargs)

            monkeypatch.setattr(transform_mod, name, spy)

        def race_spy(*args, race=transform_mod._race_tape_blocks,
                     seen=rows.setdefault("_race_tape_blocks", []), **kwargs):
            seen.append(0)
            for block in race(*args, **kwargs):
                seen[-1] += len(block)
                yield block

        monkeypatch.setattr(transform_mod, "_race_tape_blocks", race_spy)
        return rows

    def test_trace_is_one_single_tape_call(self, chains, monkeypatch):
        rows = self.stage_rows(monkeypatch)
        sample = sample_dataset(D8, TINY.m_priv, seed=31)
        for seed in range(3):
            trace = dp_transform_trace(
                learner_empirical(1.0), sample, TINY, tape_seed=seed, noise_seed=50 + seed
            )
            assert chains.pop() == ([seed], [50 + seed], [1]) and not chains
            assert trace.coupled_counts.shape == (8,) and trace.coupled_counts.sum() == TINY.k
        assert rows == {name: [1, 1, 1] for name in rows}

    def test_experiment_releases_each_outer_trial_in_chunks(self, chains, monkeypatch):
        # 24 cells: each outer trial's 7 inner trials are one chain call,
        # which races all 7 tapes in one call and releases and projects them
        # in its tape blocks of 3, 3 and 1
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 3 * 8)
        rows = self.stage_rows(monkeypatch)
        seed = 17
        transform_bound_experiment(
            learner_empirical(1.0), D8, TINY, outer_trials=2, inner_trials=7, seed=seed,
            premise_trials=2,
        )
        assert [chunks for _, _, chunks in chains] == [[3, 3, 1]] * 2
        for t, (tapes, noise, _) in enumerate(chains):
            trials = range(7 * t, 7 * (t + 1))
            assert tapes == [derive_seed(seed, "tape", i) for i in trials]
            assert noise == [derive_seed(seed, "noise", i) for i in trials]
        assert rows == {"_race_tape_blocks": [7, 7], "_release_rows": [3, 3, 1] * 2,
                        "_project_rows": [3, 3, 1] * 2}

    def test_weight_columns_built_once_per_chain(self, chains, monkeypatch):
        # a release of 7 inner trials spans chunks of 3, 3 and 1 rows, and
        # its one race builds the masked, symbol-major weight columns once
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 3 * 8)
        weight_columns = coupling_mod._weight_columns
        built = []

        def spy(domain, weight_matrix):
            built.append(np.shape(weight_matrix))
            return weight_columns(domain, weight_matrix)

        monkeypatch.setattr(coupling_mod, "_weight_columns", spy)
        transform_bound_experiment(
            learner_empirical(1.0), D8, TINY, outer_trials=2, inner_trials=7, seed=17,
            premise_trials=2,
        )
        assert [chunks for _, _, chunks in chains] == [[3, 3, 1]] * 2
        assert built == [(TINY.k, 8)] * 2

    def test_chain_races_a_block_only_when_it_is_taken(self, monkeypatch):
        # 24 cells: the first chunk of a chain of 7 seeds races the first
        # tape block of 3 tapes, not all 7, and each later chunk its own
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 3 * 8)
        exp_variates = coupling_mod._exp_variates
        raced = []

        def spy(seeds, size):
            raced.append(len(seeds))
            return exp_variates(seeds, size)

        monkeypatch.setattr(coupling_mod, "_exp_variates", spy)
        weights = np.full((TINY.k, 8), 1 / 8)
        chain = transform_mod._release_chain(D8.domain, weights, range(7), range(100, 107), TINY)
        counts, *_ = next(chain)
        assert counts.shape == (3, 8) and raced == [3]
        assert [counts.shape[0] for counts, *_ in chain] == [3, 1] and raced == [3, 3, 1]

    def test_chain_draws_seeds_a_block_at_a_time(self, monkeypatch):
        # 24 cells: the first chunk of a chain fed 7 seeds from generators
        # draws the 3 tape seeds and 3 noise seeds of its block, not all 7
        monkeypatch.setattr(coupling_mod, "_CELL_BUDGET", 3 * 8)
        drawn = {"tape": 0, "noise": 0}

        def seeds(name, start):
            for seed in range(start, start + 7):
                drawn[name] += 1
                yield seed

        weights = np.full((TINY.k, 8), 1 / 8)
        chain = transform_mod._release_chain(
            D8.domain, weights, seeds("tape", 0), seeds("noise", 100), TINY
        )
        counts, *_ = next(chain)
        assert counts.shape == (3, 8) and drawn == {"tape": 3, "noise": 3}
        assert [counts.shape[0] for counts, *_ in chain] == [3, 1]
        assert drawn == {"tape": 7, "noise": 7}
