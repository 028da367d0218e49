"""Every seed is read by util._seed_key: an integer taken mod 2**64.

At each seeded public entry point, seeds s and s + 2**64 give
byte-identical results, and so do -1 and 2**64 - 1; a numpy integer acts as
the Python int of equal value; and a float seed raises operator.index's
TypeError, with one text everywhere.
"""

import numpy as np
import pytest

from conftest import dist
from stability_lab import (
    Learner,
    TransformConfig,
    coupled_marginal_counts,
    derive_seed,
    disagreement_estimate,
    dp_transform,
    estimate_premise_alpha,
    learner_empirical,
    new_tape,
    private_histogram,
    race_counts,
    race_tapes,
    safe_sharded,
    sample,
    sample_dataset,
    sample_indices,
    transform_bound_experiment,
)

MESSAGE = "'float' object cannot be interpreted as an integer"

Q = dist([0.4, 0.3, 0.2, 0.1])
R = dist([0.1, 0.2, 0.3, 0.4])
WEIGHTS = np.stack([Q.weights, R.weights, np.full(4, 0.25)])
CONFIG = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=1)
PRIVATE = sample_dataset(Q, CONFIG.m_priv, 3)
SMALL = sample_dataset(Q, 20, 4)
EMPIRICAL = learner_empirical(1.0)
# A per-shard learner whose model is drawn from its train seed, so the seed
# shapes the output.
SEEDED = Learner(
    name="seeded", train=lambda dataset, seed: EMPIRICAL.train(sample_dataset(Q, 8, seed), 0)
)


def _transform(learner=EMPIRICAL, tape_seed=1, noise_seed=2, train_seed=0):
    output = dp_transform(learner, PRIVATE, CONFIG, tape_seed, noise_seed, train_seed)
    return output.weights.tobytes()


def _experiment(seed):
    """The report's measured fields; the report keeps the seed as given."""
    report = transform_bound_experiment(EMPIRICAL, Q, CONFIG, 2, 3, seed, premise_trials=3)
    return report.alpha_hat.hex(), np.array(report.per_trial_tv).tobytes()


def _safe_sharded(seed):
    entries = safe_sharded(EMPIRICAL, SMALL, seed).entries
    return tuple((cid, q.weights.tobytes()) for cid, q in entries)


SITES = {
    "sample": lambda s: sample(Q, s),
    "sample_indices": lambda s: sample_indices(Q, 40, s).tobytes(),
    "sample_dataset": lambda s: sample_dataset(Q, 40, s).indices.tobytes(),
    "new_tape": lambda s: new_tape(Q.domain, s).variates.tobytes(),
    "race_tapes": lambda s: race_tapes(Q.domain, [s, 7], WEIGHTS).tobytes(),
    "race_counts": lambda s: race_counts(Q.domain, [7, s], WEIGHTS).tobytes(),
    "disagreement_estimate": lambda s: disagreement_estimate(Q, R, 50, s).hex(),
    "coupled_marginal_counts": lambda s: coupled_marginal_counts(Q, 50, s).tobytes(),
    "private_histogram": lambda s: private_histogram(PRIVATE, 2.0, 0.05, s).values.tobytes(),
    "dp_transform tape_seed": lambda s: _transform(tape_seed=s),
    "dp_transform noise_seed": lambda s: _transform(noise_seed=s),
    "dp_transform train_seed": lambda s: _transform(SEEDED, train_seed=s),
    "dp_transform train_seed, built-in learner": lambda s: _transform(train_seed=s),
    "estimate_premise_alpha": lambda s: estimate_premise_alpha(EMPIRICAL, Q, 3, 4, s).hex(),
    "transform_bound_experiment": _experiment,
    "safe_sharded": _safe_sharded,
    "derive_seed": lambda s: derive_seed(s, "x", 3),
}

# A built-in learner ignores its train seed, so only the float case applies.
IGNORED = {"dp_transform train_seed, built-in learner"}


@pytest.mark.parametrize("site", SITES)
def test_seed_is_taken_mod_2_64(site):
    call = SITES[site]
    for s in (0, 5, 2**63):
        assert call(s + 2**64) == call(s)
    assert call(-1) == call(2**64 - 1)
    assert call(-(2**64) + 5) == call(5)


@pytest.mark.parametrize("site", sorted(SITES.keys() - IGNORED))
def test_seed_shapes_the_result(site):
    # so the equalities above are not those of a seed that is never read
    assert len({SITES[site](s) for s in range(8)}) > 1


@pytest.mark.parametrize("site", SITES)
def test_numpy_integer_is_the_equal_int(site):
    call = SITES[site]
    assert call(np.int64(5)) == call(5)
    assert call(np.int64(-1)) == call(-1)
    assert call(np.uint64(2**64 - 1)) == call(2**64 - 1)
    assert call(np.uint8(200)) == call(200)


@pytest.mark.parametrize("site", SITES)
def test_float_seed_raises_one_type_error(site):
    with pytest.raises(TypeError) as info:
        SITES[site](1.5)
    assert str(info.value) == MESSAGE


@pytest.mark.parametrize("seed", [2**64 + 5, -3, np.int64(-3)])
def test_experiment_report_keeps_the_seed_as_given(seed):
    report = transform_bound_experiment(EMPIRICAL, Q, CONFIG, 1, 2, seed, premise_trials=2)
    assert report.seed == int(seed) and type(report.seed) is int
