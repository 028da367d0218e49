"""Every two-operand domain check goes through core._require_same_domain,
and every width check of an array over a domain through core._require_shape.

Each domain site must reject an operand on a foreign domain of the same
width (so no shape error can stand in for the check) with the one shared
message, and accept an equal but distinct copy of the domain. Each width
site must refuse an array of the wrong shape with LengthMismatch and the
one width message, which names the shape it needs and the shape it got.
"""

import numpy as np
import pytest

from conftest import dist, domain
from stability_lab import (
    ContentDomain,
    CouplingTape,
    Dataset,
    Event,
    Learner,
    NoisyHistogram,
    SafeAssignment,
    TransformConfig,
    coupled_sample,
    coupled_sample_index,
    disagreement_estimate,
    dp_transform,
    is_naf,
    learner_constant,
    make_distribution,
    naf_alpha,
    new_tape,
    nfl_witness,
    race_counts,
    race_tapes,
    simplex_project_linf,
)
from stability_lab.errors import DomainMismatch, EmptySafeAssignment, LengthMismatch

MESSAGE = "operands live on different content domains"

FOREIGN = ContentDomain(("y0", "y1", "y2"))
COPY = ContentDomain(("z0", "z1", "z2"))  # equal to domain(3), another object


def on(d):
    return make_distribution(d, [0.5, 0.25, 0.25])


CONFIG = TransformConfig.from_params(epsilon=2.0, delta=0.05, eta=0.3, m=1)


def _transform(learner):
    sample = Dataset.from_indices(domain(3), [0] * CONFIG.m_priv)
    return dp_transform(learner, sample, CONFIG, tape_seed=1, noise_seed=2)


def _transform_with_shard_model(q):
    """dp_transform whose per-shard `train` returns q (no train_shards)."""
    return _transform(Learner(name="fixed", train=lambda dataset, seed: q))


def _nfl(slot):
    def call(d):
        operands = [on(domain(3)), on(domain(3)), on(domain(3))]
        operands[slot] = on(d)
        return nfl_witness(*operands)
    return call


SITES = {
    "Event.probability": lambda d: Event(domain(3), 0b011).probability(on(d)),
    "coupled_sample_index": lambda d: coupled_sample_index(new_tape(domain(3), 5), on(d)),
    "coupled_sample": lambda d: coupled_sample(new_tape(d, 5), on(domain(3))),
    "disagreement_estimate": lambda d: disagreement_estimate(on(domain(3)), on(d), 10, 0),
    "naf_alpha": lambda d: naf_alpha(on(d), SafeAssignment.from_models([dist([0.2, 0.3, 0.5])])),
    "is_naf": lambda d: is_naf(on(d), SafeAssignment.from_models([dist([0.2, 0.3, 0.5])]), 0.1),
    "nfl_witness p": _nfl(0),
    "nfl_witness q1": _nfl(1),
    "nfl_witness q2": _nfl(2),
    "dp_transform per-shard model": lambda d: _transform_with_shard_model(on(d)),
    "learner_constant train": lambda d: learner_constant(on(d)).train(
        Dataset.from_indices(domain(3), [0, 1]), 0
    ),
    "learner_constant train_shards": lambda d: learner_constant(on(d)).train_shards(
        domain(3), np.zeros((2, 1), dtype=np.int64), 0
    ),
    "SafeAssignment": lambda d: SafeAssignment.from_models([on(domain(3)), on(d)]),
}


@pytest.mark.parametrize("site", SITES)
def test_foreign_domain_of_equal_width_rejected(site):
    with pytest.raises(DomainMismatch) as info:
        SITES[site](FOREIGN)
    assert str(info.value) == MESSAGE


@pytest.mark.parametrize("site", SITES)
def test_equal_copy_of_the_domain_accepted(site):
    SITES[site](COPY)


@pytest.mark.parametrize("check", [
    lambda p, s: naf_alpha(p, s),
    lambda p, s: is_naf(p, s, 0.5),
])
def test_empty_safe_assignment_rejected(check):
    with pytest.raises(EmptySafeAssignment):
        check(dist([0.5, 0.5]), SafeAssignment(()))


WIDTH_MESSAGE = "an array over the domain needs shape {}, got shape {}"

HALVES = np.full((2, 2), 0.5)
THIRDS = np.full(3, 1 / 3)

# site -> (call on domain(3), the shape it needs, the shape it is given)
WIDTH_SITES = {
    "make_distribution": (lambda: make_distribution(domain(3), [0.5, 0.5]), (3,), (2,)),
    "CouplingTape": (lambda: CouplingTape(domain(3), np.ones(2), 0), (3,), (2,)),
    "NoisyHistogram": (
        lambda: NoisyHistogram(domain(3), np.zeros(2), 1.0, 1e-3, 3), (3,), (2,)
    ),
    "race_tapes matrix": (lambda: race_tapes(domain(3), [1], HALVES), (2, 3), (2, 2)),
    "race_counts matrix": (lambda: race_counts(domain(3), [1], HALVES), (2, 3), (2, 2)),
    # a 1-D row is held to one row of the domain's width, not to a square
    "race_tapes row": (lambda: race_tapes(domain(3), [1], THIRDS), (1, 3), (3,)),
    "race_counts row": (lambda: race_counts(domain(3), [1], THIRDS), (1, 3), (3,)),
    "dp_transform train_shards": (
        lambda: _transform(Learner(
            "narrow", train=None, train_shards=lambda d, idx, seed: np.full((len(idx), 2), 0.5)
        )),
        (CONFIG.k, 3),
        (CONFIG.k, 2),
    ),
    "simplex_project_linf": (lambda: simplex_project_linf(domain(3), [0.5, 0.5], 0.3), (3,), (2,)),
}


@pytest.mark.parametrize("site", WIDTH_SITES)
def test_wrong_width_raises_the_one_length_mismatch(site):
    call, needed, given = WIDTH_SITES[site]
    with pytest.raises(LengthMismatch) as info:
        call()
    assert str(info.value) == WIDTH_MESSAGE.format(needed, given)
