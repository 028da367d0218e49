import inspect

import numpy as np
import pytest

import stability_lab.coupling as coupling_mod
from conftest import dist, domain, random_distribution, random_pair
from stability_lab import (
    CouplingTape,
    coupled_sample,
    coupled_sample_index,
    disagreement_estimate,
    new_tape,
    tv_distance,
)
from stability_lab.coupling import (
    _GOLD,
    _MIX1,
    _MIX2,
    _exp_variates,
    coupled_marginal_counts,
    race_matrix,
    race_tapes,
)
from stability_lab.errors import DomainMismatch


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
    return -np.log(u)


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
        with pytest.raises(ValueError):
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
            assert race_matrix(new_tape(domain(3), 5), q.weights[None, :])[0] != 1

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

    def test_race_matrix_matches_scalar(self):
        rng = np.random.default_rng(8)
        tape = new_tape(domain(5), 77)
        models = [random_distribution(rng, 5, sparsify=0.3) for _ in range(20)]
        stacked = np.stack([m.weights for m in models])
        batch = race_matrix(tape, stacked)
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
        monkeypatch.setattr(coupling_mod, "_CHUNK_CELLS", 64)
        assert disagreement_estimate(q1, q2, 3000, seed=9) == full

    def test_trials_validation(self):
        q = dist([0.5, 0.5])
        for trials in (0, -3):
            with pytest.raises(ValueError):
                disagreement_estimate(q, q, trials, seed=0)
            with pytest.raises(ValueError):
                coupled_marginal_counts(q, trials, seed=0)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            disagreement_estimate(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]), 10, seed=0)


class TestRaceTapes:
    SEEDS = [0, 2**64 - 1, 1, 12345, 2**63, 0x9E3779B97F4A7C15, 2**64 - 2]

    def weights(self):
        rng = np.random.default_rng(41)
        rows = [random_distribution(rng, 6, sparsify=0.4).weights for _ in range(9)]
        # signed zeros must be masked exactly as race_matrix masks them
        rows.append(np.array([0.5, 0.0, -0.0, 0.25, 0.25, 0.0]))
        rows.append(np.array([-0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        return np.stack(rows)

    @pytest.mark.parametrize("tapes_per_block", [None, 1, 3])
    def test_matches_per_tape_races(self, monkeypatch, tapes_per_block):
        d, w = domain(6), self.weights()
        if tapes_per_block is not None:
            # 1: every block holds one tape; 3: 7 seeds leave a ragged last block
            monkeypatch.setattr(coupling_mod, "_CHUNK_CELLS", tapes_per_block * w.size)
        got = race_tapes(d, self.SEEDS, w)
        assert got.shape == (len(self.SEEDS), w.shape[0])
        for row, seed in zip(got, self.SEEDS):
            assert np.array_equal(row, race_matrix(new_tape(d, seed), w))
        assert np.all(got[:, -1] == 5)
        assert not np.any(np.isin(got[:, -2], (1, 2, 5)))

    def test_width_mismatch(self):
        with pytest.raises(DomainMismatch):
            race_tapes(domain(5), [1, 2], self.weights())
