import inspect
import warnings

import numpy as np
import pytest

import stability_lab.core as core_mod
import stability_lab.coupling as coupling_mod
import stability_lab.transform as transform_mod
from conftest import (
    argmin_race,
    dist,
    domain,
    random_distribution,
    random_pair,
    record_bincounts,
    scalar_splitmix64,
)
from stability_lab import (
    CouplingTape,
    Dataset,
    TransformConfig,
    coupled_marginal_counts,
    coupled_sample,
    coupled_sample_index,
    disagreement_estimate,
    dp_transform,
    dp_transform_trace,
    learner_constant,
    make_distribution,
    new_tape,
    transform_bound_experiment,
    tv_distance,
)
from stability_lab.coupling import (
    _GOLD,
    _MIX1,
    _MIX2,
    _exp_variates,
    _stream_keys,
    race_counts,
    race_tapes,
)
from stability_lab.errors import DomainMismatch, LengthMismatch, NegativeWeight, NotNormalized
from stability_lab.learners import learner_empirical
from stability_lab.util import _U64_MASK


def _out_of_place_exp_variates(seeds, size):
    """The tape hash written with a fresh array at every step: the oracle
    for the in-place form in stability_lab.coupling."""

    def splitmix64(x):
        z = x + _GOLD
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))

    keys = splitmix64(np.asarray(seeds, dtype=np.uint64))[:, None]
    cells = splitmix64(keys + np.arange(size, dtype=np.uint64)[None, :])
    u = ((cells >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return -np.log(np.minimum(u, 1.0 - 2.0**-53))


def _unxorshift(z, shift):
    """The x with x ^ (x >> shift) == z, for a 64-bit z."""
    x = z
    for _ in range(64 // shift):
        x = z ^ (x >> shift)
    return x


def inverse_splitmix64(h):
    """The 64-bit x whose splitmix64 is h: each step of the finalizer undone."""
    z = _unxorshift(h, 31)
    z = _unxorshift(z * pow(int(_MIX2), -1, 1 << 64) & _U64_MASK, 27)
    z = _unxorshift(z * pow(int(_MIX1), -1, 1 << 64) & _U64_MASK, 30)
    return (z - int(_GOLD)) & _U64_MASK


class TestNewTape:
    def test_deterministic(self):
        d = domain(5)
        t1, t2 = new_tape(d, 42), new_tape(d, 42)
        assert np.array_equal(t1.variates, t2.variates)

    def test_seeds_differ(self):
        d = domain(5)
        assert not np.array_equal(new_tape(d, 1).variates, new_tape(d, 2).variates)

    def test_variates_positive_finite(self):
        t = new_tape(domain(100), 7)
        assert np.all(t.variates > 0) and np.all(np.isfinite(t.variates))

    def test_exponential_mean(self):
        # Exp(1) mean over 1e4 variates: 1 within 3 sigma = 3/sqrt(1e4)
        t = new_tape(domain(10_000), 2024)
        assert abs(t.variates.mean() - 1.0) <= 0.03

    def test_no_dataset_enters_tape_creation(self):
        assert "dataset" not in inspect.signature(new_tape).parameters

    def test_validation(self):
        d = domain(3)
        with pytest.raises(LengthMismatch):
            CouplingTape(domain=d, variates=np.array([1.0, 2.0]), seed=0)
        with pytest.raises(ValueError):
            CouplingTape(domain=d, variates=np.array([1.0, 0.0, 2.0]), seed=0)

    def test_batch_matches_single_tapes(self):
        # trial i of the Monte Carlo helpers uses exactly new_tape(seed + i)
        d = domain(6)
        seeds = np.arange(50, dtype=np.uint64) + np.uint64(123)
        batch = _exp_variates(seeds, 6)
        for i in range(50):
            assert np.array_equal(batch[i], new_tape(d, 123 + i).variates)


class TestTapeHashBits:
    # new_tape(domain(8), seed).variates as float.hex(), recorded from the
    # out-of-place hash; any change to the hash's arithmetic shows here.
    GOLDEN = {
        0: [
            "0x1.b5458a89b6fa9p-2", "0x1.cb1b17abfb0b1p+0", "0x1.58dfb7f29d7c5p-1",
            "0x1.9533f0c093e29p-6", "0x1.fcc2f7f45bf7fp-1", "0x1.82f9fcb156032p+1",
            "0x1.624148a263c64p-5", "0x1.536dd13b25f9cp+1",
        ],
        1: [
            "0x1.ff9191e4e4296p-1", "0x1.483cf25b08afep-1", "0x1.378533210c5aap-2",
            "0x1.7858a2f866cacp-2", "0x1.1b0f09d4799f0p-3", "0x1.87d5efefb7a39p-1",
            "0x1.a93c7e187bfc1p+0", "0x1.9c8c2df8808aep+0",
        ],
        2**63: [
            "0x1.482b8b6c82e87p-1", "0x1.47ca915c03c8cp-1", "0x1.61e72744608e5p-1",
            "0x1.6acb01cc9994cp+1", "0x1.ba06b528b2b3fp+1", "0x1.5e8ee71cc98aap+0",
            "0x1.5f6c8c9b56d55p-2", "0x1.6fd08a4807dfcp+0",
        ],
        2**64 - 1: [
            "0x1.0124566401933p+0", "0x1.cb4cd93f4a12dp-1", "0x1.246bdee07a8fcp+0",
            "0x1.1e71b94d5f2e7p+2", "0x1.266c3bdd22082p+2", "0x1.9153ae4767624p+0",
            "0x1.92b31b06f9c73p-4", "0x1.2503dbbe57843p+1",
        ],
    }

    @staticmethod
    def seeds():
        rng = np.random.default_rng(2718)
        fixed = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
        drawn = rng.integers(0, 2**64 - 1, size=40, dtype=np.uint64, endpoint=True)
        return np.concatenate([fixed, drawn])

    @pytest.mark.parametrize("seed", sorted(GOLDEN))
    def test_golden_variates(self, seed):
        variates = new_tape(domain(8), seed).variates.tolist()
        assert [v.hex() for v in variates] == self.GOLDEN[seed]

    @pytest.mark.parametrize("size", [1, 5000])
    def test_matches_out_of_place_hash(self, size):
        seeds = self.seeds()
        got = _exp_variates(seeds, size)
        assert got.dtype == np.float64 and got.shape == (seeds.size, size)
        assert got.tobytes() == _out_of_place_exp_variates(seeds, size).tobytes()

    def test_seed_array_not_written(self):
        seeds = self.seeds()
        before = seeds.copy()
        _exp_variates(seeds, 7)
        assert np.array_equal(seeds, before)
        race_tapes(domain(7), seeds, np.full((3, 7), 1.0 / 7.0))
        assert np.array_equal(seeds, before)


class TestTopCell:
    """A cell whose hash is all ones: its top 53 bits m = 2**53 - 1 make
    (m + 0.5) 2**-53 round to 1.0, and the clamp to 1 - 2**-53 keeps its
    variate strictly positive."""

    # The tape seed whose symbol 0 hashes to all ones, found by undoing
    # both hashes (seed -> stream key -> cell 0).
    SEED = inverse_splitmix64(inverse_splitmix64(_U64_MASK))

    def test_variate_is_the_least_one(self):
        assert self.SEED == 2295574122455614247
        assert scalar_splitmix64(scalar_splitmix64(self.SEED)) == _U64_MASK
        variates = new_tape(domain(3), self.SEED).variates
        assert 0 < variates[0] < 2.0**-52  # -log(1 - 2**-53), about 1.1e-16
        assert variates.tobytes() == _out_of_place_exp_variates([self.SEED], 3)[0].tobytes()

    @pytest.mark.parametrize("row", [(0.0, 0.5, 0.5), (0.2, 0.4, 0.4)], ids=["zero", "positive"])
    def test_races_equal_argmin(self, row):
        d = domain(3)
        weights = np.array([row, (0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
        got = assert_races_match_argmin(d, [self.SEED - 1, self.SEED, self.SEED + 1], weights)
        # symbol 0 wins on its least variate wherever its weight is > 0
        assert (got[1] == 0).tolist() == [row[0] > 0, True, True, False]
        q1, q2 = dist(row), dist([1 / 3] * 3)
        assert_monte_carlo_matches_argmin(q1, q2, 3, self.SEED - 1)


class TestNumpyIntegerSeeds:
    """A numpy integer tape seed acts as the Python int of equal value, mod 2**64."""

    @pytest.mark.parametrize(
        "seed", [np.int64(3), np.int64(-5), np.uint64(2**64 - 1), np.uint8(200)]
    )
    def test_every_tape_path(self, seed):
        d, plain = domain(6), int(seed)
        q1, q2 = random_pair(np.random.default_rng(5), 6)
        w = np.stack([q1.weights, q2.weights])
        assert new_tape(d, seed).variates.tobytes() == new_tape(d, plain).variates.tobytes()
        for seeds in ([seed, seed], np.array([seed, seed])):
            assert np.array_equal(race_tapes(d, seeds, w), race_tapes(d, [plain] * 2, w))
            assert np.array_equal(race_counts(d, seeds, w), race_counts(d, [plain] * 2, w))
        assert disagreement_estimate(q1, q2, 50, seed) == disagreement_estimate(q1, q2, 50, plain)
        counts = [coupled_marginal_counts(q1, 50, s) for s in (seed, plain)]
        assert np.array_equal(*counts)
        config = TransformConfig(2.0, 0.05, 0.3, 3)
        sample = Dataset.from_indices(d, np.arange(config.m_priv) % d.size)
        traces = [
            dp_transform_trace(learner_empirical(1.0), sample, config, tape_seed=s, noise_seed=1)
            for s in (seed, plain)
        ]
        assert np.array_equal(traces[0].coupled_counts, traces[1].coupled_counts)
        assert np.array_equal(traces[0].output.weights, traces[1].output.weights)

    def test_non_integer_seed_refused(self):
        for seed in (3.0, np.float64(3.0), "3", None):
            with pytest.raises(TypeError):
                new_tape(domain(3), seed)
            with pytest.raises(TypeError):
                race_tapes(domain(3), [seed], np.full((1, 3), 1 / 3))
        assert np.array_equal(new_tape(domain(3), True).variates, new_tape(domain(3), 1).variates)


class TestCoupledSample:
    def test_point_mass(self):
        q = dist([0.0, 0.0, 1.0])
        for seed in range(20):
            assert coupled_sample(new_tape(domain(3), seed), q) == "z2"

    def test_equal_inputs_equal_outputs(self):
        tape = new_tape(domain(4), 9)
        q = dist([0.1, 0.2, 0.3, 0.4])
        q_clone = dist([0.1, 0.2, 0.3, 0.4])
        assert coupled_sample(tape, q) == coupled_sample(tape, q_clone)

    def test_pure_function(self):
        tape = new_tape(domain(4), 11)
        q = dist([0.4, 0.3, 0.2, 0.1])
        assert coupled_sample(tape, q) == coupled_sample(tape, q)

    def test_zero_weight_never_wins(self):
        # v / -0.0 is -inf, so a signed zero must be masked like a plain one
        for zero in (0.0, -0.0):
            q = dist([0.5, zero, 0.5])
            for seed in range(200):
                assert coupled_sample(new_tape(domain(3), seed), q) != "z1"
            assert coupled_marginal_counts(q, 1000, seed=4)[1] == 0
            assert not np.any(race_tapes(domain(3), range(200), q.weights[None, :]) == 1)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            coupled_sample(new_tape(domain(3), 0), dist([0.5, 0.5]))

    def test_marginal_uniform(self):
        q = dist([0.25, 0.25, 0.25, 0.25])
        n = 10**5
        freqs = coupled_marginal_counts(q, n, seed=31) / n
        assert np.all(np.abs(freqs - 0.25) <= 0.01)

    def test_marginal_chi_square(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(3)
        for trial in range(3):
            size = int(rng.integers(2, 9))
            q = random_distribution(rng, size)
            counts = coupled_marginal_counts(q, 10**5, seed=100 + trial)
            assert chisquare(counts, q.weights * 10**5).pvalue > 0.001

    def test_race_tapes_matches_scalar(self):
        rng = np.random.default_rng(8)
        tape = new_tape(domain(5), 77)
        models = [random_distribution(rng, 5, sparsify=0.3) for _ in range(20)]
        stacked = np.stack([m.weights for m in models])
        batch = race_tapes(domain(5), [77], stacked)[0]
        for i, m in enumerate(models):
            assert batch[i] == coupled_sample_index(tape, m)
        # many tapes against one model: trial i of the Monte Carlo helpers is
        # the race on new_tape(seed + i)
        d = domain(5)
        q1, q2 = models[0], models[1]
        seed, n = 500, 40
        winners = [coupled_sample_index(new_tape(d, seed + i), q1) for i in range(n)]
        assert np.array_equal(
            coupled_marginal_counts(q1, n, seed), np.bincount(winners, minlength=5)
        )
        for i in range(n):
            tape = new_tape(d, seed + i)
            differ = coupled_sample_index(tape, q1) != coupled_sample_index(tape, q2)
            assert disagreement_estimate(q1, q2, 1, seed + i) == float(differ)
            assert coupled_marginal_counts(q1, 1, seed + i)[winners[i]] == 1


class TestDisagreementEstimate:
    def test_identical_is_zero(self):
        q = dist([0.3, 0.7])
        assert disagreement_estimate(q, q, 5000, seed=1) == 0.0

    def test_disjoint_is_one(self):
        est = disagreement_estimate(dist([1.0, 0.0]), dist([0.0, 1.0]), 5000, seed=2)
        assert est == 1.0  # bound 2*1/(1+1) = 1 is tight here

    def test_hand_pair_against_bound(self):
        # TV = 0.25, bound 2*0.25/1.25 = 0.4 (true disagreement is 0.25)
        n = 10**5
        est = disagreement_estimate(dist([0.5, 0.5]), dist([0.25, 0.75]), n, seed=5)
        assert est <= 0.4 + 3 * np.sqrt(0.4 * 0.6 / n)
        assert abs(est - 0.25) <= 0.02

    def test_pairwise_bound_random_pairs(self):
        rng = np.random.default_rng(23)
        n = 20_000
        for trial in range(10):
            q1, q2 = random_pair(rng, int(rng.integers(2, 9)), sparsify=0.2)
            est = disagreement_estimate(q1, q2, n, seed=1000 + trial)
            tv = tv_distance(q1, q2)
            bound = 2 * tv / (1 + tv)
            assert est <= bound + 3 * np.sqrt(max(bound * (1 - bound), 1e-12) / n) + 1e-12

    def test_independent_of_chunking(self, monkeypatch):
        q1, q2 = dist([0.6, 0.4]), dist([0.2, 0.8])
        full = disagreement_estimate(q1, q2, 3000, seed=9)
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 1)
        assert disagreement_estimate(q1, q2, 3000, seed=9) == full

    def test_trials_validation(self):
        q = dist([0.5, 0.5])
        for trials in (0, -3, np.int64(0), 2.5, 3.0, np.float64(3.0), True, False, "3", None):
            with pytest.raises(ValueError):
                disagreement_estimate(q, q, trials, seed=0)
            with pytest.raises(ValueError):
                coupled_marginal_counts(q, trials, seed=0)
        assert coupled_marginal_counts(q, np.int64(3), seed=0).sum() == 3
        assert disagreement_estimate(q, q, np.uint8(3), seed=0) == 0.0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            disagreement_estimate(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]), 10, seed=0)


class TestRaceTapes:
    SEEDS = [0, 2**64 - 1, 1, 12345, 2**63, 0x9E3779B97F4A7C15, 2**64 - 2]

    def weights(self):
        rng = np.random.default_rng(41)
        rows = [random_distribution(rng, 6, sparsify=0.4).weights for _ in range(9)]
        # signed zeros must be masked exactly as coupled_sample_index masks them
        rows.append(np.array([0.5, 0.0, -0.0, 0.25, 0.25, 0.0]))
        rows.append(np.array([-0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        return np.stack(rows)

    @pytest.mark.parametrize("tapes_per_block", [None, 1, 3])
    def test_matches_per_tape_races(self, monkeypatch, tapes_per_block):
        self.check_per_tape_races(monkeypatch, tapes_per_block, None)

    @pytest.mark.parametrize("tapes_per_block, tapes_per_group", [(None, 1), (None, 2), (3, 2)])
    def test_tape_groups_match_per_tape_races(self, monkeypatch, tapes_per_block, tapes_per_group):
        self.check_per_tape_races(monkeypatch, tapes_per_block, tapes_per_group)

    def check_per_tape_races(self, monkeypatch, tapes_per_block, tapes_per_group):
        # Blocks of |Z| = 6 variates per tape and groups of k = 11 weight
        # columns per tape share one budget: take the largest that gives each
        # size asked for. Blocks of 1 hold one tape; blocks of 3 leave a
        # ragged last block of the 7 seeds, and groups of 2 (budget 23) a
        # ragged last group inside each block.
        d, w = domain(6), self.weights()
        sizes = {w.shape[1]: tapes_per_block, w.shape[0]: tapes_per_group}
        limits = [(n + 1) * cells - 1 for cells, n in sizes.items() if n is not None]
        if limits:
            monkeypatch.setattr(core_mod, "_CELL_BUDGET", min(limits))
        for cells, n in sizes.items():
            assert n is None or coupling_mod._tapes_per_block(cells) == n
        got = race_tapes(d, self.SEEDS, w)
        assert got.shape == (len(self.SEEDS), w.shape[0])
        for row, seed in zip(got, self.SEEDS):
            tape = new_tape(d, seed)
            scalar = [coupled_sample_index(tape, make_distribution(d, r)) for r in w]
            assert np.array_equal(row, scalar)
        assert np.all(got[:, -1] == 5)
        assert not np.any(np.isin(got[:, -2], (1, 2, 5)))
        counts = [np.bincount(row, minlength=6) for row in got]
        assert np.array_equal(race_counts(d, self.SEEDS, w), counts)

    def test_intp_rows_even_without_seeds(self):
        # both races stack their tape blocks; no seeds still checks the
        # weights and gives an empty intp matrix of the right width
        d, w = domain(6), self.weights()
        for race, width in ((race_tapes, w.shape[0]), (race_counts, 6)):
            assert race(d, self.SEEDS, w).dtype == np.intp
            got = race(d, [], w)
            assert got.shape == (0, width) and got.dtype == np.intp
            with pytest.raises(LengthMismatch):
                race(domain(5), [], w)

    def test_width_mismatch(self):
        for race in (race_tapes, race_counts):
            with pytest.raises(LengthMismatch):
                race(domain(5), [1, 2], self.weights())

    @pytest.mark.parametrize("race", [race_tapes, race_counts])
    def test_needs_a_row(self, race):
        with pytest.raises(ValueError):
            race(domain(5), [1, 2], np.empty((0, 5)))


def unread_seeds():
    """Seeds that fail the test if one is read."""
    raise AssertionError("a seed was read")
    yield


class TestRaceRule:
    """race_tapes and race_counts race laws only: the width rule, then the
    distribution rule, checked once before any seed is read or tape drawn."""

    LAWS = [[0.2, 0.3, 0.5], [1 / 3, 1 / 3, 1 / 3]]
    BAD_ROWS = {
        "nan": ([np.nan, 0.5, 0.5], NegativeWeight),
        "+inf": ([np.inf, 0.5, 0.5], NegativeWeight),
        "-inf": ([-np.inf, 0.5, 0.5], NegativeWeight),
        "negative": ([-0.5, 1.0, 0.5], NegativeWeight),
        "all-zero": ([0.0, 0.0, 0.0], NotNormalized),
        "sum-1.1": ([0.5, 0.3, 0.3], NotNormalized),
    }

    @staticmethod
    def no_tapes(monkeypatch):
        def no_variates(*args):
            raise AssertionError("a tape was drawn")

        monkeypatch.setattr(coupling_mod, "_exp_variates", no_variates)

    @pytest.mark.parametrize("race", [race_tapes, race_counts])
    @pytest.mark.parametrize("name", BAD_ROWS)
    def test_a_row_that_is_no_law_is_refused(self, monkeypatch, race, name):
        row, error = self.BAD_ROWS[name]
        self.no_tapes(monkeypatch)
        with pytest.raises(error):
            race(domain(3), unread_seeds(), np.array([self.LAWS[0], row, self.LAWS[1]]))

    @pytest.mark.parametrize("race", [race_tapes, race_counts])
    def test_width_comes_first(self, monkeypatch, race):
        self.no_tapes(monkeypatch)
        with pytest.raises(LengthMismatch):
            race(domain(3), unread_seeds(), np.full((2, 4), np.nan))

    def test_rule_runs_once_per_call(self, monkeypatch):
        # 6 cells: 7 seeds make tape blocks of 2 tapes; one check a public
        # call, and none in the Monte Carlo helpers, whose models are laws
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 6)
        checked = []
        check = coupling_mod._check_probability_rows

        def spy(w):
            checked.append(np.shape(w))
            return check(w)

        monkeypatch.setattr(coupling_mod, "_check_probability_rows", spy)
        d, w = domain(3), np.array(self.LAWS * 2)
        assert_races_match_argmin(d, range(7), w)
        assert checked == [(4, 3), (4, 3)]
        assert_monte_carlo_matches_argmin(dist(self.LAWS[0]), dist(self.LAWS[1]), 7, 0)
        assert checked == [(4, 3), (4, 3)]

    def test_transform_checks_its_shards_once(self, monkeypatch):
        # the chain races the matrix that _train_rows has checked, so no
        # check of the distribution rule runs in the coupling module
        callers = []
        for module in (core_mod, coupling_mod, transform_mod):
            def spy(w, check=module._check_probability_rows):
                frame = inspect.currentframe().f_back
                callers.append((frame.f_globals["__name__"], frame.f_code.co_name, np.shape(w)))
                return check(w)

            monkeypatch.setattr(module, "_check_probability_rows", spy)
        config = TransformConfig(2.0, 0.05, 0.3, 3)
        law = dist([0.1, 0.2, 0.3, 0.4])
        sample = Dataset.from_indices(law.domain, np.arange(config.m_priv) % 4)
        dp_transform_trace(learner_empirical(1.0), sample, config, 5, 7)
        shard_checks = [caller for caller in callers if caller[2] == (config.k, 4)]
        assert shard_checks == [("stability_lab.transform", "_train_rows", (config.k, 4))]
        assert not [caller for caller in callers if caller[0] == "stability_lab.coupling"]


def _argmin_tapes(d, seeds):
    """Tape-major variates of each seed's tape, as the races draw them."""
    return coupling_mod._exp_variates(seeds, d.size)


def assert_races_match_argmin(d, seeds, weights):
    """race_tapes and race_counts equal the argmin race of every tape."""
    expected = np.stack([argmin_race(v, weights) for v in _argmin_tapes(d, seeds)])
    got = race_tapes(d, seeds, weights)
    assert got.dtype == np.intp and got.shape == expected.shape
    assert np.array_equal(got, expected)
    counts = race_counts(d, seeds, weights)
    assert counts.shape == (len(seeds), d.size)
    assert np.array_equal(counts, [np.bincount(row, minlength=d.size) for row in expected])
    return expected


def assert_monte_carlo_matches_argmin(q1, q2, trials, seed):
    """Both Monte Carlo helpers and coupled_sample_index equal the argmin race."""
    d = q1.domain
    variates = _argmin_tapes(d, range(seed, seed + trials))
    x1, x2 = argmin_race(variates, q1.weights), argmin_race(variates, q2.weights)
    counts = np.bincount(x1, minlength=d.size)
    assert np.array_equal(coupled_marginal_counts(q1, trials, seed), counts)
    assert disagreement_estimate(q1, q2, trials, seed) == np.count_nonzero(x1 != x2) / trials
    for i in range(min(trials, 5)):
        assert coupled_sample_index(new_tape(d, seed + i), q2) == x2[i]


class TestTournamentMatchesArgmin:
    """The symbol-major tournament, with and without pruning, is the argmin race."""

    # Quotients E_z / w_z that tie exactly: every value is a power of two.
    TIED_TAPES = np.array([
        [0.5, 1.0, 0.5, 2.0],
        [1.0, 0.5, 0.5, 1.0],
        [2.0, 1.0, 0.5, 0.25],
        [1.0, 1.0, 1.0, 1.0],
    ])
    TIED_WEIGHTS = np.array([
        [0.125, 0.25, 0.125, 0.5],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 0.5, 0.25, 0.25],
        [-0.0, 0.25, 0.25, 0.5],
        [0.5, 0.0, 0.5, 0.0],
    ])

    def test_exact_ties_go_to_the_lowest_index(self, monkeypatch):
        # the cell hash is patched, so every race reads the tied tapes: the
        # tape-major blocks of race_tapes and race_counts, and the symbol
        # rows the Monte Carlo helpers stream; seed j reads tape j % 4
        tapes = self.TIED_TAPES
        stream_keys = coupling_mod._splitmix64(np.arange(8, dtype=np.uint64))

        def tied_cells(keys, symbols):
            seed = (keys[..., None] == stream_keys).argmax(axis=-1)
            return tapes[seed % len(tapes), np.asarray(symbols, dtype=np.intp)]

        monkeypatch.setattr(coupling_mod, "_cell_variates", tied_cells)
        d, w = domain(4), self.TIED_WEIGHTS
        got = assert_races_match_argmin(d, range(8), w)
        # tape 0 ties all four quotients of row 0, and symbols 1 and 2 of
        # row 2 (whose symbol 0 has weight 0); tape 1 ties symbols 1 and 2
        # of row 1; tape 3 ties all four of row 1
        assert got[0, 0] == 0 and got[0, 2] == 1 and got[1, 1] == 1 and got[3, 1] == 0
        # rows 0 and 1 alone have no zero weight, so the bound is finite:
        # tape 1, raced alone, prunes symbol 0 and still ties symbols 1 and 2
        # of row 1; a group races only tapes whose candidate sets hash alike,
        # so it races other tapes' candidates only under a key collision
        assert assert_races_match_argmin(d, range(8), w[:2])[1, 1] == 1
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 1)
        assert assert_races_match_argmin(d, range(8), w[:2])[1, 1] == 1
        models = [make_distribution(d, row) for row in w]
        for q1, q2 in zip(models, models[1:]):
            assert_monte_carlo_matches_argmin(q1, q2, 8, 0)

    def test_signed_zero_weights(self):
        rng = np.random.default_rng(5)
        rows = [random_distribution(rng, 6, sparsify=0.5).weights for _ in range(20)]
        rows += [[0.5, 0.0, -0.0, 0.25, 0.25, 0.0], [-0.0, 0.0, 0.0, 0.0, 0.0, 1.0]]
        w = np.array(rows)
        got = assert_races_match_argmin(domain(6), TestRaceTapes.SEEDS + list(range(40)), w)
        assert np.all(got[:, -1] == 5)
        q1, q2 = make_distribution(domain(6), rows[-2]), make_distribution(domain(6), rows[-1])
        assert_monte_carlo_matches_argmin(q1, q2, 300, 9)

    def test_all_zero_column(self):
        rng = np.random.default_rng(6)
        w = rng.dirichlet(np.ones(5), size=40)
        w[:, 3] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        got = assert_races_match_argmin(domain(5), range(100, 160), w)
        assert not np.any(got == 3)
        q1, q2 = make_distribution(domain(5), w[0]), make_distribution(domain(5), w[1])
        assert_monte_carlo_matches_argmin(q1, q2, 500, 11)

    def test_unsmoothed_wide_domain(self):
        # zero weights everywhere make the pruning bound +inf: no pruning
        d = domain(1000)
        rng = np.random.default_rng(7)
        shards = rng.integers(0, 1000, size=(64, 30))
        w = learner_empirical(0.0).train_shards(d, shards, 0)
        assert np.all((w == 0).any(axis=0))
        assert_races_match_argmin(d, [3, 2**64 - 1, *range(20)], w)
        q1, q2 = make_distribution(d, w[0]), make_distribution(d, w[1])
        assert_monte_carlo_matches_argmin(q1, q2, 60, 13)

    def test_single_symbol(self):
        d = domain(1)
        got = assert_races_match_argmin(d, range(5), np.ones((3, 1)))
        assert not got.any()
        assert_monte_carlo_matches_argmin(dist([1.0]), dist([1.0]), 50, 17)

    def test_prop1_shape(self):
        # k = 3170 smoothed shards of 20 items on 8 symbols, 300 tapes: every
        # weight is > 0, so the bound is finite and symbols are pruned
        d = domain(8)
        rng = np.random.default_rng(8)
        law = rng.dirichlet(np.ones(8))
        shards = rng.choice(8, size=(3170, 20), p=law)
        w = learner_empirical(1.0).train_shards(d, shards, 0)
        assert np.all(w > 0)
        draws = rng.integers(0, 2**64 - 1, size=300, dtype=np.uint64, endpoint=True)
        seeds = [int(s) for s in draws]
        assert_races_match_argmin(d, seeds, w)
        q1, q2 = make_distribution(d, w[0]), make_distribution(d, w[1])
        assert_monte_carlo_matches_argmin(q1, q2, 3000, 19)

    @pytest.mark.parametrize("size", [1, 255, 256, 257])
    def test_winner_width_boundary(self, size):
        # winners are held in uint8 up to 256 symbols and in uint16 above;
        # the last symbol carries half of some rows, so it wins and must come
        # back as itself, not wrapped
        d = domain(size)
        rng = np.random.default_rng(size)
        w = rng.dirichlet(np.ones(size), size=12)
        w[:4, -1] += 1.0
        w /= w.sum(axis=1, keepdims=True)
        got = assert_races_match_argmin(d, range(40), w)
        assert np.any(got == size - 1)
        q1, q2 = make_distribution(d, w[0]), make_distribution(d, w[5])
        assert_monte_carlo_matches_argmin(q1, q2, 200, 23)
        counts = coupled_marginal_counts(q1, 200, 23)
        assert counts.dtype == np.int64 and counts[-1] > 0


class TestCandidateBuckets:
    """Tapes race in groups of one candidate set each, in the order of their
    candidate masks; every tape's winners land in its own row, whatever
    group it raced in."""

    SEEDS = range(300, 340)

    @staticmethod
    def weights():
        # every weight > 0, so the pruning bound is finite and tapes differ
        # in their candidate sets; 14 copies of 9 laws give k = 126 columns,
        # so a budget of 2k or 3k cells races groups of 2 or 3 tapes in one
        # block of all 40 tapes (2k / |Z| = 42). Each cell is scaled by its
        # own 1 + j * 1e-12, so every column holds 126 distinct weights and
        # a rank table (756 pairs by 2 tapes) would pass either budget: the
        # blocks keep the tournament.
        tiled = np.tile(np.random.default_rng(12).dirichlet(np.ones(6), size=9), (14, 1))
        return tiled * (1 + 1e-12 * np.arange(tiled.size).reshape(tiled.shape))

    @staticmethod
    def candidate_sets(d, seeds, w):
        """Each tape's candidate symbols under the pruning rule."""
        v = _argmin_tapes(d, seeds)
        masked = np.where(w > 0, w, 0.0)
        bound = (v / masked.min(axis=0)).min(axis=1, keepdims=True)
        return [tuple(np.flatnonzero(row)) for row in v / masked.max(axis=0) <= bound]

    @staticmethod
    def record_groups(monkeypatch):
        """(raced symbols, tapes) of every tournament the races run."""
        tournament = coupling_mod._tournament
        groups = []

        def recording(rows, columns):
            rows = list(rows)
            winners = tournament(iter(rows), columns)
            groups.append((tuple(int(z) for z, _ in rows), winners.shape[0]))
            return winners

        monkeypatch.setattr(coupling_mod, "_tournament", recording)
        return groups

    def test_buckets_race_their_own_set(self, monkeypatch):
        # one block of 40 tapes; groups of 2 leave a ragged group of 1 in
        # every bucket of odd size, and no group races a symbol that is not
        # a candidate of each of its tapes
        d, w = domain(6), self.weights()
        sets = self.candidate_sets(d, self.SEEDS, w)
        sizes = {s: sets.count(s) for s in sets}
        assert len(sizes) >= 3 and any(n >= 3 and n % 2 for n in sizes.values())
        groups = self.record_groups(monkeypatch)
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 2 * w.shape[0])
        assert_races_match_argmin(d, self.SEEDS, w)
        expected = [(s, 2) for s, n in sizes.items() for _ in range(n // 2)]
        expected += [(s, 1) for s, n in sizes.items() if n % 2]
        assert sorted(groups) == sorted(2 * expected)

    def test_equal_sets_race_in_one_group(self, monkeypatch):
        # groups of up to 40 tapes in one block of all 40: equal candidate
        # sets are adjacent in the mask order, so each set races once, as
        # one group of all its tapes, over exactly its own symbols
        d, w = domain(6), self.weights()
        sets = self.candidate_sets(d, self.SEEDS, w)
        groups = self.record_groups(monkeypatch)
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 40 * w.shape[0])
        assert_races_match_argmin(d, self.SEEDS, w)
        expected = [(s, sets.count(s)) for s in set(sets)]
        assert len(expected) >= 3 and any(n > 1 for _, n in expected)
        assert sorted(groups) == sorted(2 * expected)

    def test_rank_groups_race_their_members_union(self, monkeypatch):
        # the rank path races consecutive groups of 2 tapes in the mask
        # order: each group's raced symbols are exactly the union of its
        # members' sets, and equal sets are adjacent, the highest symbol
        # most significant
        d = domain(6)
        w = np.tile(np.random.default_rng(12).dirichlet(np.ones(6), size=9), (14, 1))
        masked = np.where(w > 0, w, 0.0)
        chunk, seen = coupling_mod._rank_chunk, []

        def recording(variates, unions, pairs, group, count):
            bound = (variates / masked.min(axis=0)).min(axis=1, keepdims=True)
            members = variates / masked.max(axis=0) <= bound
            for j, union in enumerate(unions):
                assert np.array_equal(union, members[j * group : (j + 1) * group].any(axis=0))
            assert group == 2 and len(unions) == -(-len(variates) // group)
            seen.extend(map(tuple, members))
            return chunk(variates, unions, pairs, group, count)

        monkeypatch.setattr(coupling_mod, "_rank_chunk", recording)
        monkeypatch.setattr(coupling_mod, "_ranks_pay", lambda *args: True)
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 3 * w.shape[0])
        assert_races_match_argmin(d, self.SEEDS, w)
        tapes = len(self.SEEDS)
        for race in (seen[:tapes], seen[tapes:]):
            assert sorted(race, key=lambda mask: mask[::-1]) == race
            assert len(set(race)) >= 3 and len(race) == tapes


class TestMaskOrder:
    """_mask_order is np.lexsort over the candidate masks, the highest
    symbol most significant, with a run starting at each new mask."""

    @pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 130, 1000])
    def test_packed_words_sort_as_lexsort(self, size):
        rng = np.random.default_rng(size)
        masks = rng.random((5, size)) < 0.5
        # 60 tapes drawn from 5 masks, and masks that differ in one symbol
        candidates = masks[rng.integers(0, 5, size=60)]
        candidates[:3] = False
        candidates[:3, [0, size // 2, size - 1]] = np.eye(3, dtype=bool)
        order, starts = coupling_mod._mask_order(candidates)
        assert np.array_equal(order, np.lexsort(candidates.T))
        ordered = candidates[order]
        assert np.array_equal(starts, np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])


def kernel_calls(monkeypatch, rule=None):
    """Calls of each race kernel, by name; `rule` replaces _ranks_pay."""
    calls = {"_rank_chunk": 0, "_tournament": 0}
    for name in calls:
        kernel = getattr(coupling_mod, name)

        def spy(*args, kernel=kernel, name=name):
            calls[name] += 1
            return kernel(*args)

        monkeypatch.setattr(coupling_mod, name, spy)
    if rule is not None:
        monkeypatch.setattr(coupling_mod, "_ranks_pay", rule)
    return calls


def rank_path(monkeypatch):
    """Every block whose weight pairs fit the budget races in rank space."""
    return kernel_calls(monkeypatch, rule=lambda *args: True)


def tied_rows(monkeypatch):
    """How many rows each rank chunk sorts again, stably, for exact ties."""
    found, tied = [], coupling_mod._tied_rows

    def spy(ranked):
        rows = tied(ranked)
        found.append(rows.size)
        return rows

    monkeypatch.setattr(coupling_mod, "_tied_rows", spy)
    return found


def dyadic_law(rng, size):
    """A law of `size` powers of two: the leaf masses of a random binary tree,
    which sum to 1 exactly."""
    law = [1.0]
    while len(law) < size:
        i = int(rng.integers(len(law)))
        law[i : i + 1] = [law[i] / 2] * 2
    return rng.permutation(law)


class TestRankRace:
    """The rank path races each block where _ranks_pay says so and the
    weight pairs fit the cell budget; it is the argmin race, bit for bit."""

    @staticmethod
    def empirical(size, k, smoothing, seed=0):
        d = domain(size)
        rng = np.random.default_rng(seed + size)
        shards = rng.choice(size, size=(k, 20), p=rng.dirichlet(np.ones(size)))
        return d, learner_empirical(smoothing).train_shards(d, shards, 0)

    @staticmethod
    def chunks(d, w, groups, group):
        """_rank_chunk calls of one race of `groups` rank groups of `group`
        tapes: a chunk holds the most groups whose tapes by E pairs fit the
        cell budget, and at least one."""
        pairs = coupling_mod._weight_pairs(coupling_mod._weight_columns(w), group)
        return -(-groups // max(1, core_mod._CELL_BUDGET // len(pairs.values) // group))

    @pytest.mark.parametrize("smoothing", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("size", [1, 2, 8, 32])
    def test_learner_empirical(self, monkeypatch, size, smoothing):
        # k = 1000: rank groups of 32 tapes, so 100 tapes make 4 groups and
        # end in a ragged one of 4; at most 21 weights per column fit 1024
        # pairs, and E <= 153 makes the 4 groups one chunk
        d, w = self.empirical(size, 1000, smoothing)
        calls = rank_path(monkeypatch)
        assert_races_match_argmin(d, [2**64 - 1, *range(99)], w)
        assert calls["_rank_chunk"] == 2 * self.chunks(d, w, 4, 32) == 2
        assert calls["_tournament"] == 0

    @pytest.mark.parametrize("size", [1, 3, 8])
    def test_tiled_and_constant_rows(self, monkeypatch, size):
        rng = np.random.default_rng(size)
        laws = rng.dirichlet(np.ones(size), size=3)
        calls = rank_path(monkeypatch)
        for w in (np.tile(laws, (90, 1)), np.tile(laws[0], (270, 1))):
            got = assert_races_match_argmin(domain(size), range(300), w)
            assert np.all(got[:, :3] == got[:, 3:6])
        assert calls["_tournament"] == 0 and calls["_rank_chunk"] > 0

    def test_constant_rows_win_one_symbol(self, monkeypatch):
        # every shard holds the same row, so each tape gives all k to one
        # symbol, and it is the symbol argmin picks for that row
        law = dist([0.1, 0.0, 0.4, 0.2, 0.3])
        calls = rank_path(monkeypatch)
        counts = race_counts(domain(5), range(200), np.tile(law.weights, (64, 1)))
        tapes = [new_tape(domain(5), seed) for seed in range(200)]
        winners = [coupled_sample_index(tape, law) for tape in tapes]
        assert np.array_equal(counts, 64 * np.eye(5, dtype=np.intp)[winners])
        assert calls["_rank_chunk"] > 0 and calls["_tournament"] == 0

    def test_exact_ties_go_to_the_lowest_symbol(self, monkeypatch):
        # dyadic tapes and weights: many (quotient, symbol) pairs of a tape
        # tie exactly across symbols, so those rows are sorted again, stably,
        # and the rank puts the lower symbol first, as np.argmin does
        tapes = TestTournamentMatchesArgmin.TIED_TAPES
        stream_keys = coupling_mod._splitmix64(np.arange(8, dtype=np.uint64))

        def tied_cells(keys, symbols):
            seed = (keys[..., None] == stream_keys).argmax(axis=-1)
            return tapes[seed % len(tapes), np.asarray(symbols, dtype=np.intp)]

        monkeypatch.setattr(coupling_mod, "_cell_variates", tied_cells)
        calls, resorted = rank_path(monkeypatch), tied_rows(monkeypatch)
        w = np.tile(TestTournamentMatchesArgmin.TIED_WEIGHTS, (3, 1))
        got = assert_races_match_argmin(domain(4), range(8), w)
        assert got[0, 0] == 0 and got[0, 2] == 1 and got[1, 1] == 1 and got[3, 1] == 0
        assert calls["_rank_chunk"] > 0 and calls["_tournament"] == 0
        assert sum(resorted) > 0

    def test_many_exact_ties(self, monkeypatch):
        # powers of two only: every quotient is a power of two, so a tape's
        # 30 or more pairs fall on a few values and tie across symbols; each
        # weight row is a dyadic law
        rng = np.random.default_rng(11)
        tapes = 2.0 ** rng.integers(-2, 3, size=(6, 8))
        stream_keys = coupling_mod._splitmix64(np.arange(6, dtype=np.uint64))

        def dyadic_cells(keys, symbols):
            seed = (keys[..., None] == stream_keys).argmax(axis=-1)
            return tapes[seed, np.asarray(symbols, dtype=np.intp)]

        monkeypatch.setattr(coupling_mod, "_cell_variates", dyadic_cells)
        w = np.stack([dyadic_law(rng, 8) for _ in range(64)])
        calls, resorted = rank_path(monkeypatch), tied_rows(monkeypatch)
        got = assert_races_match_argmin(domain(8), range(6), w)
        quotients = tapes[:, None, :] / w
        ties = (quotients == quotients.min(axis=-1, keepdims=True)).sum(axis=-1)
        assert (ties > 1).mean() > 0.25
        assert calls["_rank_chunk"] > 0 and calls["_tournament"] == 0
        assert sum(resorted) > 0

    @pytest.mark.parametrize("size", [8, 32])
    def test_masked_zeros_take_no_fallback(self, monkeypatch, size):
        # unsmoothed shards hold many zero weights, whose +inf quotients
        # would tie; a +0.0 pair is left out of the ranks (it never wins),
        # so no row is sorted again
        d, w = self.empirical(size, 1000, 0.0)
        assert (w == 0).mean() > 0.1
        calls, resorted = rank_path(monkeypatch), tied_rows(monkeypatch)
        assert_races_match_argmin(d, range(100), w)
        assert calls["_rank_chunk"] > 0 and resorted and not any(resorted)

    def test_a_row_of_zeros_is_refused(self, monkeypatch):
        # every quotient of a row of zeros is +inf, so no rank could decide
        # it; it is no law, and both races refuse it before either kernel runs
        d, w = self.empirical(8, 300, 1.0)
        w[7], w[11] = 0.0, -0.0
        calls = rank_path(monkeypatch)
        for race in (race_tapes, race_counts):
            with pytest.raises(NotNormalized):
                race(d, range(60), w)
        assert calls == {"_rank_chunk": 0, "_tournament": 0}

    @pytest.mark.parametrize(
        "row", [(0.0, 5e-324, 5e-324), (0.0, 1e-310, 1e-310)], ids=["5e-324", "1e-310"]
    )
    def test_rows_of_subnormal_weights_are_refused(self, monkeypatch, row):
        # E / 5e-324 passes DBL_MAX unless E is below about 8.9e-16, and
        # E / 1e-310 unless E is below about 0.018: on most tapes every
        # quotient of such a row is +inf and no rank could decide it; the
        # row sums to far below 1, so both races refuse it first
        d, w = domain(3), np.tile([row, (0.5, 0.25, 0.25)], (32, 1))
        calls = rank_path(monkeypatch)
        for race in (race_tapes, race_counts):
            with pytest.raises(NotNormalized):
                race(d, range(200), w)
        assert calls == {"_rank_chunk": 0, "_tournament": 0}

    def test_signed_zeros_and_a_zero_column(self, monkeypatch):
        rng = np.random.default_rng(9)
        w = np.tile(rng.dirichlet(np.ones(6), size=4), (10, 1))
        w[:, 3] = 0.0
        w[1::4, 1] = 0.0
        w /= w.sum(axis=1, keepdims=True)
        w[::3, 3] = -0.0
        w[1::4, 1] = -0.0
        w[5] = [-0.0, 0.0, 0.0, -0.0, 0.0, 1.0]
        calls = rank_path(monkeypatch)
        got = assert_races_match_argmin(domain(6), TestRaceTapes.SEEDS + list(range(60)), w)
        assert not np.any(got[:, 3] == 3) and np.all(got[:, 5] == 5)
        assert not np.any(got[:, 1::4] == 1)
        assert calls["_rank_chunk"] > 0 and calls["_tournament"] == 0

    @pytest.mark.parametrize("size", [1, 3])
    def test_one_weight_row(self, monkeypatch, size):
        # k = 1 makes a group of _CELL_BUDGET tapes, so only a single
        # weight fits the rank table: |Z| = 1 races in rank space, wider
        # domains keep the tournament
        calls = rank_path(monkeypatch)
        w = np.random.default_rng(1).dirichlet(np.ones(size))[None, :]
        assert_races_match_argmin(domain(size), range(50), w)
        assert (calls["_rank_chunk"] > 0) == (size == 1)
        assert (calls["_tournament"] > 0) == (size > 1)

    @pytest.mark.parametrize("tapes_per_group", [1, 2, 3, 5])
    def test_ragged_groups(self, monkeypatch, tapes_per_group):
        # a budget of n * k + k - 1 cells makes groups of n tapes, and rank
        # groups of the largest power of two up to n (1, 2, 2 and 4); 23
        # tapes end in a ragged group
        d, w = self.empirical(5, 40, 1.0)
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", tapes_per_group * 40 + 39)
        calls = rank_path(monkeypatch)
        pairs = coupling_mod._weight_pairs(np.ascontiguousarray(w.T), 1)
        assert len(pairs.values) <= 40
        assert_races_match_argmin(d, range(23), w)
        group = 1 << (tapes_per_group.bit_length() - 1)
        chunks = self.chunks(d, w, -(-23 // group), group)
        assert calls["_rank_chunk"] == 2 * chunks and calls["_tournament"] == 0

    def test_rule_takes_the_rank_path(self, monkeypatch):
        # prop1's kind of shard matrix: smoothed models of 20 items over 8
        # symbols, where each raced union holds most of the symbols
        d, w = self.empirical(8, 300, 1.0)
        calls = kernel_calls(monkeypatch)
        assert_races_match_argmin(d, range(60), w)
        assert calls["_rank_chunk"] > 0 and calls["_tournament"] == 0

    def test_rule_keeps_the_tournament(self, monkeypatch):
        # constant rows over 64 symbols: one candidate per tape, so the
        # tournament races one symbol a group, where a rank group of 8
        # tapes would gather several
        law = np.random.default_rng(64).dirichlet(np.ones(64))
        calls = kernel_calls(monkeypatch)
        assert_races_match_argmin(domain(64), range(60), np.tile(law, (300, 1)))
        assert calls["_tournament"] > 0 and calls["_rank_chunk"] == 0

    def test_rule_boundary(self):
        # a gathered cell costs half a raced one, a symbol pass 5,000 cells
        k, raced, passes = 3170, 1200, 150
        limit = 2 * (raced * k + 5000 * passes)
        assert coupling_mod._ranks_pay(k, raced, passes, limit // k)
        assert not coupling_mod._ranks_pay(k, raced, passes, limit // k + 1)

    def test_too_many_pairs_keep_the_tournament(self, monkeypatch):
        # 1000 distinct rows over 32 symbols: 32,000 pairs by 32 tapes pass
        # the budget, and |Z| x 4096 tapes passes it before any sort
        rng = np.random.default_rng(3)
        w = rng.dirichlet(np.ones(32), size=1000)
        assert coupling_mod._weight_pairs(np.ascontiguousarray(w.T), 32) is None
        assert coupling_mod._weight_pairs(np.ascontiguousarray(w[:, :9].T), 4096) is None
        calls = rank_path(monkeypatch)
        assert_races_match_argmin(domain(32), range(20), w)
        assert calls["_tournament"] > 0 and calls["_rank_chunk"] == 0

    def test_weight_pairs(self):
        # symbol-major pairs, ascending within a symbol; -0.0 is masked to
        # +0.0, and each cell's code is its weight's pair
        w = np.array([[0.5, -0.0, 0.5], [0.25, 0.0, 0.75], [0.5, 0.5, 0.0]])
        columns = coupling_mod._weight_columns(w)
        pairs = coupling_mod._weight_pairs(columns, 1)
        assert pairs.values.tolist() == [0.25, 0.5, 0.0, 0.5, 0.0, 0.5, 0.75]
        assert pairs.owners.tolist() == [0, 0, 1, 1, 2, 2, 2]
        assert pairs.codes.dtype == np.uint16
        assert np.array_equal(pairs.values[pairs.codes], columns)
        assert np.array_equal(pairs.owners[pairs.codes], np.repeat([[0], [1], [2]], 3, axis=1))


def code_calls(monkeypatch):
    """The keys of each np.searchsorted call and the size of each np.take
    table, spied on while the weight codes are built."""
    calls = {"searched": [], "tables": []}
    searchsorted, take = np.searchsorted, np.take

    def search_spy(a, v, *args, **kwargs):
        calls["searched"].append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    def take_spy(a, *args, **kwargs):
        calls["tables"].append(np.size(a))
        return take(a, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", search_spy)
    monkeypatch.setattr(np, "take", take_spy)
    return calls


class TestWeightCodes:
    """coupling._weight_codes reads each cell's pair from one bucket table,
    and its codes are those of one np.searchsorted per column over the
    column's distinct weights, on every input."""

    @staticmethod
    def check(weights, monkeypatch):
        """The pairs of the masked `weights`, held to the per-column search,
        and the spied calls that built them."""
        weights = np.asarray(weights, dtype=np.float64)
        columns = coupling_mod._weight_columns(weights)
        calls = code_calls(monkeypatch)
        pairs = coupling_mod._weight_pairs(columns, 1)
        monkeypatch.undo()
        first = 0
        for z, column in enumerate(columns):
            values = np.unique(column)
            assert np.array_equal(pairs.values[first : first + values.size], values)
            assert np.array_equal(pairs.codes[z], np.searchsorted(values, column) + first)
            first += values.size
        assert first == pairs.values.size
        return pairs, calls

    @staticmethod
    def shuffled(rows, k, seed=0):
        """k weight rows drawn from `rows`, in a random order."""
        rows = np.asarray(rows, dtype=np.float64)
        return rows[np.random.default_rng(seed).integers(0, len(rows), k)]

    @staticmethod
    def table_cells(size):
        """|Z| (B + 1) cells, B the largest power of two that fits the budget."""
        width = core_mod._CELL_BUDGET // size
        return size * (1 + (1 << ((width - 1).bit_length() - 1)))

    def test_shards_are_hits(self, monkeypatch):
        # smoothed shards of 50 items: each column's weights are (c + 1) / 58,
        # far apart next to a bucket, so every key is a hit and none is searched
        d = domain(8)
        rng = np.random.default_rng(8)
        shards = rng.choice(8, size=(300, 50), p=rng.dirichlet(np.ones(8)))
        _, calls = self.check(learner_empirical(1.0).train_shards(d, shards, 0), monkeypatch)
        assert calls == {"searched": [], "tables": [self.table_cells(8)]}

    def test_point_masses(self, monkeypatch):
        # a weight of 1.0 is its column's S and lands in the extra bucket B
        rows = np.r_[np.eye(4), [[0.25] * 4, [0.5, 0.5, 0.0, 0.0]]]
        _, calls = self.check(self.shuffled(rows, 1024), monkeypatch)
        assert calls["tables"] == [self.table_cells(4)] and not calls["searched"]

    def test_weights_above_one_and_infinite(self, monkeypatch):
        # a column's largest weight sets its S, above 1 as below, and the
        # spread-out weights are all hits; an +inf weight never reaches the
        # table, as both races refuse its row (NegativeWeight)
        rows = [[2.0, 3.0, 0.5], [4.0, 0.25, 1.0], [0.5, 1.0, 3.0]]
        _, calls = self.check(self.shuffled(rows, 1024), monkeypatch)
        assert calls["tables"] == [self.table_cells(3)] and not calls["searched"]
        for race in (race_tapes, race_counts):
            with pytest.raises(NegativeWeight):
                race(domain(3), [1], [[0.5, 0.5, 0.0], [np.inf, 0.0, 0.0]])

    def test_subnormal_weights(self, monkeypatch):
        # the 2^-1016 edge and subnormals: column 1's largest weight is
        # 2^-1016, so its S is raised to keep B / S a double, and only its
        # three least weights share a bucket; in column 0 (S = 0.5) every
        # weight below 0.5 falls in bucket 0
        edge = 2.0**-1016
        tiny = [edge, np.nextafter(edge, 0.0), 2.0**-1022, 1e-310, 5e-324, 0.0]
        rows = [[0.5, w, 0.5] for w in tiny] + [[w, 0.0, 1.0 - w] for w in tiny]
        weights = self.shuffled(rows, 1024)
        _, calls = self.check(weights, monkeypatch)
        shared = np.count_nonzero(weights[:, 0] < 0.5) + np.count_nonzero(weights[:, 1] <= 1e-310)
        assert sum(calls["searched"]) == shared

    def test_masked_signed_zeros(self, monkeypatch):
        rows = [[-0.0, 0.5, 0.5], [0.0, -0.0, 1.0], [0.5, 0.25, 0.25], [-1.0, 0.5, 0.5]]
        pairs, calls = self.check(self.shuffled(rows, 1024), monkeypatch)
        assert not np.signbit(pairs.values).any() and not calls["searched"]

    def test_two_weights_in_one_bucket(self, monkeypatch):
        # w and the next double share a bucket: only their keys are searched
        w = 0.3
        rows = [[w, 1.0 - w], [np.nextafter(w, 1.0), 1.0 - np.nextafter(w, 1.0)], [0.1, 0.9]]
        weights = self.shuffled(rows, 2048)
        _, calls = self.check(weights, monkeypatch)
        shared = np.count_nonzero(weights[:, 0] != 0.1)
        assert calls["searched"] == [shared]

    def test_one_symbol(self, monkeypatch):
        _, calls = self.check(self.shuffled([[0.25], [0.5], [1.0], [3.0]], 4096), monkeypatch)
        assert calls["tables"] == [self.table_cells(1)] and not calls["searched"]

    def test_budget_caps_the_table(self, monkeypatch):
        # 10 pairs fit a budget of 10 cells: B = 4 buckets and the extra
        # one for each of the 2 columns; 0.5 and 0.7 share bucket 2
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 10)
        rows = [[0.1, 0.9], [0.3, 0.7], [0.5, 0.5], [0.7, 0.3], [0.9, 0.1]]
        weights = self.shuffled(rows, 1024)
        with monkeypatch.context() as patch:
            _, calls = self.check(weights, patch)
        assert calls["tables"] == [10]
        assert sum(calls["searched"]) == np.count_nonzero((weights == 0.5) | (weights == 0.7))

    def test_budget_below_two_cells_a_column(self, monkeypatch):
        # 7 cells for 4 columns hold no table of two buckets a column, so
        # there are no weight pairs and every block keeps the tournament
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 7)
        w = self.shuffled([[0.1, 0.2, 0.3, 0.4], [0.2, 0.3, 0.1, 0.4]], 1024)
        assert coupling_mod._weight_pairs(coupling_mod._weight_columns(w), 1) is None
        calls = rank_path(monkeypatch)
        assert_races_match_argmin(domain(4), range(20), w)
        assert calls["_tournament"] > 0 and calls["_rank_chunk"] == 0

    def test_any_key_count_builds_the_table(self, monkeypatch):
        # the table is built whatever the key count, down to one weight row
        rows = [[0.1, 0.9], [0.3, 0.7], [0.6, 0.4]]
        for k in (1, 1023):
            _, calls = self.check(self.shuffled(rows, k), monkeypatch)
            assert calls == {"searched": [], "tables": [self.table_cells(2)]}


def _argmin_monte_carlo(q1, q2, trials, seed, tapes_per_chunk=1024):
    """Argmin winners of q1 and q2 on the tapes seed + i (mod 2**64).

    The oracle draws its tape-major blocks a chunk of tapes at a time, so a
    wide domain never holds every tape at once.
    """
    x1, x2 = [], []
    for start in range(0, trials, tapes_per_chunk):
        stop = min(start + tapes_per_chunk, trials)
        variates = _argmin_tapes(q1.domain, range(seed + start, seed + stop))
        x1.append(argmin_race(variates, q1.weights))
        x2.append(argmin_race(variates, q2.weights))
    return np.concatenate(x1), np.concatenate(x2)


class TestStreamedMonteCarlo:
    """The Monte Carlo helpers stream symbol rows from the cell hash through
    the tournament; every estimate and count equals the argmin race."""

    def test_symbol_rows_are_tape_columns(self, monkeypatch):
        # the offsets must stay uint64: uint64 + int64 promotes to float64
        seeds = np.arange(45, dtype=np.uint64) + np.uint64(2**64 - 20)
        block = _exp_variates(seeds, 5000)
        tournament = coupling_mod._tournament
        symbols = []

        def recording(rows, columns):
            def checked():
                for z, row in rows:
                    assert row.dtype == np.float64
                    assert row.tobytes() == np.ascontiguousarray(block[:, z]).tobytes()
                    symbols.append(z)
                    yield z, row

            return tournament(checked(), columns)

        monkeypatch.setattr(coupling_mod, "_tournament", recording)
        coupled_marginal_counts(dist(np.full(5000, 1 / 5000)), seeds.size, 2**64 - 20)
        assert symbols == list(range(5000))

    @pytest.mark.parametrize("seed", [2**64 - 5, -5], ids=["below-2**64", "negative"])
    def test_stream_keys_wrap_as_the_tape_keys_do(self, monkeypatch, seed):
        # the helpers key a step's tapes as one uint64 sum, base + arange,
        # which wraps past 2**64 - 1 as util._seed_key's mod 2**64 does
        cell_variates = coupling_mod._cell_variates
        keys = []

        def spy(step_keys, symbols):
            keys.append(step_keys.copy())
            return cell_variates(step_keys, symbols)

        monkeypatch.setattr(coupling_mod, "_cell_variates", spy)
        coupled_marginal_counts(dist([0.5, 0.25, 0.25]), 10, seed)
        expected = _stream_keys(range(seed, seed + 10)).tobytes()
        assert len(keys) == 3 and all(k.tobytes() == expected for k in keys)

    @staticmethod
    def models(size):
        """A pair with signed-zero weights and, from |Z| = 3, an all-zero column."""
        if size == 1:
            return dist([1.0]), dist([1.0])
        if size == 2:
            return dist([-0.0, 1.0]), dist([0.25, 0.75])
        rng = np.random.default_rng(size)
        w1, w2 = rng.dirichlet(np.ones(size), size=2)
        w1[size // 2 :: 3] = 0.0
        w1[:2], w2[0] = -0.0, -0.0
        return dist(w1 / w1.sum()), dist(w2 / w2.sum())

    @pytest.mark.parametrize("size", [1, 2, 8, 1000])
    @pytest.mark.parametrize("edge", [-1, 0, 1])
    def test_block_edges_match_argmin(self, size, edge):
        # one tape short of a step, a whole step and one tape over it, for
        # each helper's own step: 2**15 tapes of one model, 2**14 of a pair;
        # the root seed sits so close to 2**64 - 1 that seed + i wraps midway
        # through the pair's tapes
        one, two = (coupling_mod._tapes_per_block(models) + edge for models in (1, 2))
        seed = 2**64 - 1 - two // 2
        q1, q2 = self.models(size)
        x1, x2 = _argmin_monte_carlo(q1, q2, one, seed)
        counts = coupled_marginal_counts(q1, one, seed)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(x1, minlength=size))
        disagreements = np.count_nonzero(x1[:two] != x2[:two])
        assert disagreement_estimate(q1, q2, two, seed) == disagreements / two
        if size > 1:
            assert counts[0] == 0  # q1's -0.0 weight
        if size > 2:
            # q1's -0.0 at symbol 1, and column 0 zero in both models
            assert counts[1] == 0 and not np.any(x2 == 0)

    def test_rows_span_one_block_of_tapes(self, monkeypatch):
        # no (tapes x |Z|) block: each hash call makes one symbol's row
        cell_variates = coupling_mod._cell_variates
        widths = []

        def one_row(keys, symbols):
            assert keys.ndim == 1 and np.ndim(symbols) == 0
            widths.append(keys.size)
            return cell_variates(keys, symbols)

        q1, q2 = self.models(8)
        x1, x2 = _argmin_monte_carlo(q1, q2, 30, 5)
        monkeypatch.setattr(coupling_mod, "_cell_variates", one_row)
        # 14 cells: steps of 7 tapes for the pair, of 14 for one model
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 14)
        assert disagreement_estimate(q1, q2, 30, 5) == np.count_nonzero(x1 != x2) / 30
        assert np.array_equal(coupled_marginal_counts(q1, 30, 5), np.bincount(x1, minlength=8))
        assert widths == [7] * 8 * 4 + [2] * 8 + [14] * 8 * 2 + [2] * 8


class TestCellBudget:
    """_tapes_per_block sizes every tape block and tournament step by the one
    cell budget, or holds one tape when a tape alone is larger."""

    @pytest.mark.parametrize(
        "size, k, laws",
        [
            pytest.param(6, 11, None, id="6-11"),
            pytest.param(30, 25, None, id="30-25"),
            pytest.param(6, 8, 1, id="6-8-one-law"),
            pytest.param(2, 8, 1, id="2-8-one-law"),
        ],
    )
    def test_blocks_fit_the_budget(self, monkeypatch, size, k, laws):
        # distinct rows keep the tournament; 8 copies of one law hold |Z|
        # weight pairs, so groups of 2 tapes race in rank space, in chunks
        # of one group (6 pairs) or of five (2 pairs)
        d = domain(size)
        w = np.random.default_rng(size).dirichlet(np.ones(size), size=laws or k)
        if laws:
            w = np.tile(w, (k // laws, 1))
        seeds = range(50)
        expected = np.stack([argmin_race(v, w) for v in _argmin_tapes(d, seeds)])
        q1, q2 = make_distribution(d, w[0]), make_distribution(d, w[1])
        x1, x2 = _argmin_monte_carlo(q1, q2, 50, 3)
        # (cells, cells of one tape) of every tape block and tournament step;
        # of each rank chunk's quotients and their order (tapes x E_C, the
        # chunk's raced pairs), its table (groups x E x group tapes) and each
        # group's gathered ranks (group x k); and the groups of each chunk
        blocks, steps, ranks, chunks = [], [], [], []
        exp_variates, tournament = coupling_mod._exp_variates, coupling_mod._tournament
        rank_chunk = coupling_mod._rank_chunk

        def recording_variates(keys, width):
            blocks.append((len(keys) * width, width))
            return exp_variates(keys, width)

        def recording_tournament(rows, columns):
            def recorded():
                for z, values in rows:
                    shape = np.broadcast_shapes(values.shape, columns[z].shape)
                    steps.append((int(np.prod(shape)), columns[z].size))
                    yield z, values

            return tournament(recorded(), columns)

        def recording_rank_chunk(variates, unions, pairs, group, count):
            tapes, pair_count, k = len(variates), len(pairs.values), pairs.codes.shape[1]
            raced = np.logical_or.reduce(unions)[pairs.owners] & (pairs.values > 0)
            width = int(np.count_nonzero(raced))
            ranks.extend([(tapes * width, width)] * 2)
            ranks.append((len(unions) * pair_count * group, pair_count))
            ranks.extend([(group * k, k)] * len(unions))
            chunks.append(max(1, budget // pair_count // group) - len(unions))
            return rank_chunk(variates, unions, pairs, group, count)

        budget = 20
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", budget)
        monkeypatch.setattr(coupling_mod, "_exp_variates", recording_variates)
        monkeypatch.setattr(coupling_mod, "_tournament", recording_tournament)
        monkeypatch.setattr(coupling_mod, "_rank_chunk", recording_rank_chunk)
        assert np.array_equal(race_tapes(d, seeds, w), expected)
        counts = race_counts(d, seeds, w)
        assert np.array_equal(counts, [np.bincount(row, minlength=size) for row in expected])
        assert disagreement_estimate(q1, q2, 50, 3) == np.count_nonzero(x1 != x2) / 50
        assert np.array_equal(coupled_marginal_counts(q1, 50, 3), np.bincount(x1, minlength=size))
        assert blocks and steps and bool(ranks) == bool(laws)
        assert all(cells <= max(budget, tape) for cells, tape in blocks + steps + ranks)
        # the narrow domain fills its blocks and steps with several tapes
        assert (size < budget) == any(cells > tape for cells, tape in blocks)
        assert any(cells > tape for cells, tape in steps)
        assert bool(laws) == any(cells > tape for cells, tape in ranks)
        # a chunk holds the most groups that fit, short only at a block's end
        assert all(spare >= 0 for spare in chunks) and bool(laws) == (0 in chunks)

    def test_transform_samples_and_counts_shards_in_blocks(self, monkeypatch):
        # epsilon = 1, delta = 1e-6, eta = 0.2 and m = 50 give k = 682: the
        # private sample, one row of k * m = 34,100 draws, is drawn in two
        # slices, and its shard counts in two blocks of whole rows, 655 rows
        # of 50 and then 27
        config = TransformConfig.from_params(epsilon=1.0, delta=1e-6, eta=0.2, m=50)
        assert config.k == 682 and config.m_priv > core_mod._CELL_BUDGET
        law = dist([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])
        draws = []
        search_cdf = core_mod._search_cdf

        def recording_search(cdf, u, table, out):
            draws.append(u.size)
            return search_cdf(cdf, u, table, out)

        monkeypatch.setattr(core_mod, "_search_cdf", recording_search)
        counted = record_bincounts(monkeypatch, core_mod)
        transform_bound_experiment(learner_empirical(1.0), law, config, 1, 3, 9, premise_trials=2)
        monkeypatch.undo()
        budget = core_mod._CELL_BUDGET
        assert draws.count(budget) == 1 and draws.count(config.m_priv - budget) == 1
        assert (655 * 50, 655 * 8) in counted and (27 * 50, 27 * 8) in counted
        assert all(n <= budget for n in draws)
        assert all(max(cells, minlength) <= budget for cells, minlength in counted)


class TestFloatRule:
    """The race's float rule (coupling._race_floats): a quotient over a zero
    weight or past DBL_MAX is +inf, with no warning, and the rule is held
    only around the race's arithmetic, never across a yield."""

    # Weights of 5e-324 and 1e-310: E / 5e-324 passes DBL_MAX unless E is
    # below about 8.9e-16 (TestTopCell's least variate is 1.1e-16), and
    # E / 1e-310 unless E is below about 0.018.
    WEIGHTS = np.array([
        [0.5, 0.5, 5e-324, 0.0],
        [5e-324, 0.25, 0.75, 1e-310],
        [1e-310, 5e-324, 0.0, 1.0],
        [0.25, 0.25, 0.25, 0.25],
        [0.0, 1e-310, 0.6, 0.4],
    ])
    SEEDS = [TestTopCell.SEED, *range(300)]

    @pytest.mark.parametrize("ranks", [False, True], ids=["tournament", "rank-race"])
    def test_races_equal_argmin_without_warning(self, monkeypatch, ranks):
        # 60 rows: rank groups of 512 tapes, whose tables of 19 weight pairs fit the budget
        d, weights = domain(4), np.tile(self.WEIGHTS, (12, 1))
        calls = kernel_calls(monkeypatch, rule=lambda *args: ranks)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_races_match_argmin(d, self.SEEDS, weights)
        assert (calls["_rank_chunk"] > 0, calls["_tournament"] > 0) == (ranks, not ranks)
        # rows 1 and 2 lose symbol 0 to a weight of at least 1/4, and row 2
        # loses symbol 1 too, on every tape
        assert not np.any(got[:, 1:3] == 0) and not np.any(got[:, 2] == 1)

    def test_coupled_sample_index_equals_argmin(self):
        d = domain(4)
        tapes = [new_tape(d, seed) for seed in self.SEEDS[:50]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for row in self.WEIGHTS:
                q = dist(row)
                got = [coupled_sample_index(tape, q) for tape in tapes]
                assert got == [int(argmin_race(tape.variates, row)) for tape in tapes]

    def test_monte_carlo_equals_argmin(self):
        q1, q2 = dist(self.WEIGHTS[0]), dist(self.WEIGHTS[1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_monte_carlo_matches_argmin(q1, q2, 3000, TestTopCell.SEED - 1)

    def test_constant_learner_transform(self):
        # every shard is the law of row 2, so each tape gives all k shards
        # to the one symbol argmin picks for that row
        d, q = domain(4), dist(self.WEIGHTS[2])
        config = TransformConfig(2.0, 0.05, 0.3, 3)
        sample = Dataset.from_indices(d, np.arange(config.m_priv) % d.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in self.SEEDS[:20]:
                trace = dp_transform_trace(learner_constant(q), sample, config, seed, 7)
                winner = int(argmin_race(new_tape(d, seed).variates, q.weights))
                expected = config.k * np.eye(4, dtype=np.intp)[winner]
                assert np.array_equal(trace.coupled_counts, expected)
                output = dp_transform(learner_constant(q), sample, config, seed, 7)
                assert output.weights.tobytes() == trace.output.weights.tobytes()

    @staticmethod
    def chains(name):
        """One of the race's generators, which yields at least twice at a budget of 8 cells."""
        d = domain(4)
        weights = TestFloatRule.WEIGHTS
        if name == "race_tape_blocks":
            return coupling_mod._race_tape_blocks(range(7), weights, count=True)
        if name == "streamed_winners":
            return coupling_mod._streamed_winners((dist(weights[0]), dist(weights[1])), 7, 3)
        config = TransformConfig(2.0, 0.05, 0.3, 3)
        shards = np.resize(weights, (config.k, 4))
        return transform_mod._release_chain(shards, range(7), range(7, 14), config)

    @pytest.mark.parametrize("name", ["race_tape_blocks", "release_chain", "streamed_winners"])
    def test_callers_keep_their_settings_between_yields(self, monkeypatch, name):
        # 8 cells: tape blocks of 2 tapes, Monte Carlo steps of 4
        monkeypatch.setattr(core_mod, "_CELL_BUDGET", 8)
        settings = np.geterr()
        steps = 0
        for _ in self.chains(name):
            steps += 1
            assert np.geterr() == settings
            # the suite turns the RuntimeWarning of a division by zero into an error
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                np.float64(1.0) / 0.0
        assert steps >= 2 and np.geterr() == settings
