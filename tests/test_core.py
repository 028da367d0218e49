import copy
import json
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dist,
    domain,
    enumerated_max_event,
    event_form_pair,
    generator_indices,
    generator_line_tokens,
    random_distribution,
    random_pair,
    searchsorted_sample_indices,
)
from stability_lab import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    Event,
    core,
    ingest_corpus,
    load_dataset,
    make_distribution,
    min_envelope,
    read_distribution,
    sample,
    sample_dataset,
    sample_indices,
    tv_distance,
    tv_event_form,
    write_distribution,
)
from stability_lab.core import _corpus_chunks
from stability_lab.errors import (
    ConfigError,
    DomainMismatch,
    EmptyCorpus,
    EmptyList,
    LengthMismatch,
    NegativeWeight,
    NotNormalized,
)


class TestContentDomain:
    def test_bijection(self):
        d = domain(3)
        assert d.size == 3
        for i, s in enumerate(d.symbols):
            assert d.index_of(s) == i
        assert "z1" in d and "w" not in d

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ContentDomain(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ContentDomain(())

    @pytest.mark.parametrize("symbols", ["abc", b"abc"], ids=["str", "bytes"])
    def test_rejects_a_bare_string(self, symbols):
        # As Dataset does: "abc" would otherwise be the symbols a, b and c.
        with pytest.raises(TypeError, match="not a bare"):
            ContentDomain(symbols)
        assert ContentDomain(["abc"]).symbols == ("abc",)

    @pytest.mark.parametrize(
        "symbols, error",
        [
            ((1, 2), "symbols[0]: expected a string, got 1"),
            (("a", 1), "symbols[1]: expected a string, got 1"),
            (("a", b"b"), "symbols[1]: expected a string, got b'b'"),
            (("a", None), "symbols[1]: expected a string, got None"),
        ],
        ids=["ints", "str-int", "str-bytes", "str-none"],
    )
    def test_rejects_a_symbol_that_is_not_a_string(self, symbols, error):
        # such a domain could be written but not read back; read from JSON,
        # its first bad entry is a value of the wrong JSON type
        with pytest.raises(TypeError, match="domain symbols must be strings"):
            ContentDomain(symbols)
        with pytest.raises(ConfigError) as info:
            ContentDomain.from_json_obj({"symbols": list(symbols)})
        assert str(info.value) == error
        assert ContentDomain((np.str_("a"), "b")).symbols == ("a", "b")

    def test_unknown_symbol(self):
        with pytest.raises(DomainMismatch):
            domain(2).index_of("nope")

    def test_every_lookup_raises_the_same_miss(self, tmp_path):
        d = domain(2)
        path = tmp_path / "data.txt"
        path.write_text("z0\nnope\n")
        lookups = [
            lambda: d.index_of("nope"),
            lambda: Dataset(d, ["z0", "nope"]),
            lambda: load_dataset(path, d),
            lambda: Event.from_symbols(d, ["z1", "nope"]),
        ]
        for lookup in lookups:
            with pytest.raises(DomainMismatch) as got:
                lookup()
            assert str(got.value) == "symbol 'nope' is not in the domain"

    @pytest.mark.parametrize(
        "clone",
        [lambda d: pickle.loads(pickle.dumps(d)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_clone_keeps_the_index(self, clone):
        d = clone(domain(3))
        assert d == domain(3)
        assert [d.index_of(s) for s in d.symbols] == [0, 1, 2] and "z1" in d
        assert Dataset(d, ["z2", "z0"]).indices.tolist() == [2, 0]
        with pytest.raises(DomainMismatch, match="symbol 'nope' is not in the domain"):
            d.index_of("nope")
        with pytest.raises(DomainMismatch, match="symbol 'nope' is not in the domain"):
            Dataset(d, ["z0", "nope"])


class TestMakeDistribution:
    def test_uniform(self):
        q = make_distribution(domain(2), [0.5, 0.5])
        assert np.array_equal(q.weights, [0.5, 0.5])

    def test_point_mass(self):
        q = make_distribution(domain(2), [1.0, 0.0])
        assert q.prob("z0") == 1.0 and q.prob("z1") == 0.0

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_distribution(domain(2), [0.6, 0.6])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            make_distribution(domain(2), [1.2, -0.2])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            make_distribution(domain(2), [1.0])

    def test_non_finite(self):
        with pytest.raises(NegativeWeight):
            make_distribution(domain(2), [np.nan, 1.0])

    def test_negative_zero_hashes_like_zero(self):
        q = make_distribution(domain(3), [0.5, 0.5, 0.0])
        r = make_distribution(domain(3), [0.5, 0.5, -0.0])
        assert q == r and hash(q) == hash(r) and len({q, r}) == 1

    def test_tolerance(self):
        make_distribution(domain(2), [0.5, 0.5 + 5e-10])
        with pytest.raises(NotNormalized):
            make_distribution(domain(2), [0.5, 0.5 + 5e-9])

    def test_immutable(self):
        q = dist([0.5, 0.5])
        with pytest.raises(ValueError):
            q.weights[0] = 0.9
        with pytest.raises(AttributeError):
            q.weights = np.array([1.0, 0.0])

    def test_zero_weights_keep_indices(self):
        q = dist([0.5, 0.0, 0.5])
        assert q.weights.shape == (3,)
        assert list(q.support_indices()) == [0, 2]


class TestTvDistance:
    def test_identity(self):
        q = dist([0.3, 0.7])
        assert tv_distance(q, q) == 0.0

    def test_disjoint(self):
        assert tv_distance(dist([1.0, 0.0]), dist([0.0, 1.0])) == 1.0

    def test_hand_value(self):
        assert tv_distance(dist([0.8, 0.2]), dist([0.2, 0.8])) == pytest.approx(
            0.6, abs=1e-15
        )

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            tv_distance(dist([0.5, 0.5]), dist([0.4, 0.3, 0.3]))


def _normalized(ws):
    w = np.asarray(ws)
    return w / w.sum()


weights_strategy = st.lists(
    st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=8
)


@settings(max_examples=120, deadline=None)
@given(weights_strategy, weights_strategy)
def test_tv_metric_symmetry_and_range(wa, wb):
    size = min(len(wa), len(wb))
    qa = dist(_normalized(wa[:size]))
    qb = dist(_normalized(wb[:size]))
    d_ab = tv_distance(qa, qb)
    assert 0.0 <= d_ab <= 1.0
    assert d_ab == tv_distance(qb, qa)
    assert tv_distance(qa, qa) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(weights_strategy, weights_strategy, weights_strategy)
def test_tv_triangle_inequality(wa, wb, wc):
    size = min(len(wa), len(wb), len(wc))
    qa = dist(_normalized(wa[:size]))
    qb = dist(_normalized(wb[:size]))
    qc = dist(_normalized(wc[:size]))
    assert tv_distance(qa, qc) <= tv_distance(qa, qb) + tv_distance(qb, qc) + 1e-12


class TestTvEventForm:
    def test_disjoint_supports(self):
        value, event = tv_event_form(dist([1.0, 0.0]), dist([0.0, 1.0]))
        assert value == 1.0
        assert event.symbols == ("z0",)

    def test_identity(self):
        value, _ = tv_event_form(dist([0.25, 0.75]), dist([0.25, 0.75]))
        assert value == 0.0

    def test_hand_value(self):
        value, event = tv_event_form(dist([0.8, 0.2]), dist([0.2, 0.8]))
        assert value == pytest.approx(0.6, abs=1e-15)
        assert event.symbols == ("z0",)

    def test_matches_summation_form(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            size = int(rng.integers(2, 13))
            q1, q2 = random_pair(rng, size, sparsify=0.2)
            value, event = tv_event_form(q1, q2)
            assert abs(value - tv_distance(q1, q2)) <= 1e-12
            # the returned event attains the value
            assert event.probability(q1) - event.probability(q2) == pytest.approx(
                value, abs=1e-12
            )

    def test_domain_cap_boundary(self):
        # 20 and 21 symbols, either side of the former enumeration cap: the
        # event is E+, and the value is the enumeration's maximum exactly
        for size, first in ((20, 10), (21, 11)):
            d = ContentDomain(tuple(f"s{i}" for i in range(size)))
            ramp = np.linspace(1, size, size)
            q1 = make_distribution(d, ramp / ramp.sum())
            q2 = make_distribution(d, np.ones(size) / size)
            value, event = tv_event_form(q1, q2)
            assert value == enumerated_max_event(d, q1.weights - q2.weights)[0]
            assert abs(value - tv_distance(q1, q2)) <= 1e-12
            assert event.symbols == d.symbols[first:]

    def test_domain_cap(self):
        # no domain cap: 100,000 symbols give E+ and its in-order sum
        rng = np.random.default_rng(11)
        q1, q2 = random_pair(rng, 100_000)
        value, event = tv_event_form(q1, q2)
        diff = q1.weights - q2.weights
        assert np.array_equal(event.indicator(), diff > 0)
        total = 0.0
        for gap in diff[diff > 0].tolist():
            total += gap
        assert value == total
        assert abs(value - tv_distance(q1, q2)) <= 1e-12

    def test_matches_the_enumeration(self):
        # the value is the enumerated maximum bit for bit; the event is E+
        # and contains the enumerated (lowest-bitmask) maximizer, which
        # leaves out a positive gap too small to move the running sum
        rng = np.random.default_rng(29)
        differing = 0
        for i in range(2000):
            size = int(rng.integers(1, 21))
            q1, q2 = event_form_pair(rng, size, ("dirichlet", "sparse", "near-integer")[i % 3])
            diff = q1.weights - q2.weights
            value, event = tv_event_form(q1, q2)
            best, enumerated = enumerated_max_event(q1.domain, diff)
            assert value == best
            assert np.array_equal(event.indicator(), diff > 0)
            assert enumerated.mask & ~event.mask == 0
            differing += enumerated != event
        assert differing > 0

    def test_gap_below_an_ulp(self):
        # 0.5 + 2^-54 rounds to 0.5, so {z0} ties with E+ = {z0, z1}
        q1 = dist([0.5, 0.25 + 2**-54, 0.25 - 2**-54])
        q2 = dist([0.0, 0.25, 0.75])
        value, event = tv_event_form(q1, q2)
        assert value == 0.5 and event.symbols == ("z0", "z1")
        best, enumerated = enumerated_max_event(q1.domain, q1.weights - q2.weights)
        assert best == 0.5 and enumerated.symbols == ("z0",)


class TestSample:
    def test_point_mass(self):
        q = dist([0.0, 0.0, 0.0, 1.0])
        assert all(sample(q, seed) == "z3" for seed in range(10))

    def test_deterministic(self):
        q = dist([0.3, 0.4, 0.3])
        assert sample(q, 42) == sample(q, 42)

    def test_zero_probability_never_emitted(self):
        q = dist([0.5, 0.0, 0.5])
        idx = sample_indices(q, 10**5, seed=3)
        assert not np.any(idx == 1)

    def test_uniform_frequencies(self):
        from scipy.stats import chisquare

        q = dist([0.25, 0.25, 0.25, 0.25])
        n = 10**5
        idx = sample_indices(q, n, seed=11)
        freqs = np.bincount(idx, minlength=4) / n
        assert np.all(np.abs(freqs - 0.25) <= 0.01)
        assert chisquare(np.bincount(idx, minlength=4)).pvalue > 0.001

    @pytest.mark.parametrize("size", [True, -1, 2.0, 2**70])
    def test_size_follows_the_count_rule(self, size):
        # numpy's own errors were TypeError for True and 2.0 and "negative
        # dimensions are not allowed" for -1; every sampler size is now a
        # count, refused by core._require_count's ValueError.
        q = dist([0.5, 0.5])
        for draw in (sample_indices, sample_dataset):
            with pytest.raises(ValueError, match="^size must be"):
                draw(q, size, 3)
        assert sample_indices(q, np.uint8(0), 3).shape == (0,)
        assert sample_dataset(q, np.int64(2), 3).size == 2

    def test_marginal_chi_square_nonuniform(self):
        from scipy.stats import chisquare

        rng = np.random.default_rng(5)
        q = random_distribution(rng, 6)
        n = 10**5
        counts = np.bincount(sample_indices(q, n, seed=13), minlength=6)
        assert chisquare(counts, q.weights * n).pvalue > 0.001


def _buckets(size: int) -> int:
    """The sampler's bucket count B: the smallest power of two >= 16 |Z|."""
    return 1 << (16 * size - 1).bit_length()


def _zipf(size: int, exponent: float = 1.1) -> DiscreteDistribution:
    w = np.arange(1, size + 1, dtype=np.float64) ** -exponent
    return dist(w / w.sum())


def _cdf(weights) -> np.ndarray:
    cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
    cdf /= cdf[-1]
    return cdf


def _around(values: np.ndarray) -> np.ndarray:
    """`values` and the doubles next to them on either side, kept in [0, 1)."""
    u = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


class TestSampleExact:
    """The bucket table gives the binary search's indices, byte for byte,
    from the same random stream."""

    @staticmethod
    def _check(q, seed, ns=None):
        b = _buckets(q.domain.size)
        for n in ns or (0, 1, 2, 50, b - 1, b, b + 1, 10**5):
            got = sample_indices(q, n, seed)
            want = searchsorted_sample_indices(q, n, seed)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), (q, n)

    @pytest.mark.parametrize("n", [0, 1, 300, 5000])
    def test_rows_are_the_draws_of_their_own_seeds(self, n):
        # one block of rows, searched in one call: a table for the larger n
        q = _zipf(8)
        seeds = [3, 2**64 - 1, 0, 3]
        rows = core._sample_rows(q, n, seeds)
        assert rows.dtype == np.int64 and rows.shape == (len(seeds), n)
        for row, seed in zip(rows, seeds):
            assert row.tobytes() == searchsorted_sample_indices(q, n, seed).tobytes()
        assert core._sample_rows(q, n, []).shape == (0, n)

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 17, 100, 1000, 1025, 5000])
    def test_dirichlet_and_zipf_laws(self, size):
        rng = np.random.default_rng(size)
        self._check(random_distribution(rng, size), seed=size)
        self._check(_zipf(size), seed=size + 1)

    @pytest.mark.parametrize(
        "weights",
        [
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.3, 0.0, 0.0, 0.7, 0.0],
            [0.0, 0.0, 0.2, 0.5, 0.3],
            [0.2, 0.5, 0.3, 0.0, 0.0],
            [0.1] * 10,
            [1 / 3] * 3,
        ],
    )
    def test_zero_weights_and_point_masses(self, weights):
        self._check(dist(weights), seed=len(weights))

    @pytest.mark.parametrize("size", [8, 1000])
    def test_point_mass_in_a_wide_domain(self, size):
        for at in (0, size // 2, size - 1):
            self._check(dist(np.eye(size)[at]), seed=at, ns=(_buckets(size) + 1,))

    @pytest.mark.parametrize("size", [4, 60, 1000])
    def test_sparse_dirichlet_laws(self, size):
        rng = np.random.default_rng(size)
        for seed in range(3):
            w = rng.dirichlet(np.full(size, 0.02))
            self._check(make_distribution(domain(size), w), seed=seed)

    @pytest.mark.parametrize("size", [2, 3, 8, 50])
    def test_dyadic_laws_on_bucket_edges(self, size):
        # Weights that are multiples of 1/B (and of 1/(2B), bucket midpoints)
        # sum exactly, so every cdf value lies on an edge or a midpoint.
        rng = np.random.default_rng(size)
        b = _buckets(size)
        for scale in (b, 2 * b, 16):
            w = rng.multinomial(scale, np.full(size, 1.0 / size)) / scale
            assert _cdf(w)[-1] == 1.0 and np.all(_cdf(w) * scale % 1 == 0)
            self._check(dist(w), seed=scale)

    @pytest.mark.parametrize(
        "cdf",
        [
            _cdf([0.5, 0.5]),
            _cdf([0.25, 0.0, 0.25, 0.5]),
            _cdf([1 / 3] * 3),
            _cdf([0.1] * 10),
            _cdf(np.random.default_rng(4).dirichlet(np.ones(30))),
            _cdf(_zipf(1000).weights),
        ]
        + [np.arange(1, m + 1) / m for m in (3, 5, 7, 10, 48, 100, 1000)],
    )
    def test_search_at_edges_and_cdf_values(self, cdf):
        # Every bucket edge b/B and every cdf value, with the doubles on
        # either side: more draws than buckets, so the table resolves them.
        b = _buckets(cdf.size)
        u = np.concatenate([_around(np.arange(b) / b), _around(cdf)])
        assert u.size > b
        got = core._search_cdf(cdf, u)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize(
        "weights", [[1.0], [0.5, 0.5], [0.25, 0.0, 0.25, 0.5], [1 / 3] * 3, [0.0, 0.1, 0.0, 0.9]]
    )
    def test_bucket_table_definition(self, weights):
        # Entry b is #{cdf <= b/B}, or -1 exactly where a cdf value lies
        # strictly inside the bucket [b/B, (b+1)/B).
        cdf = _cdf(weights)
        for b in (_buckets(cdf.size), 1024):
            edges = np.arange(b + 1) / b
            low = (cdf[None, :] <= edges[:-1, None]).sum(axis=1)
            inside = ((cdf[None, :] > edges[:-1, None]) & (cdf[None, :] < edges[1:, None])).any(axis=1)
            assert np.array_equal(core._bucket_table(cdf, b), np.where(inside, -1, low))

    def test_bucket_table_holds_two_bucket_arrays(self):
        # the B edges and the table; the -1 marks come from the |Z| cdf
        # values, not from a second B-long count (3.1 B-long arrays before)
        cdf = _cdf(np.random.default_rng(3).dirichlet(np.ones(5000)))
        b = _buckets(cdf.size)
        tracemalloc.start()
        try:
            core._bucket_table(cdf, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.1 * b * 8

    def test_sample_dataset_indices(self):
        q = _zipf(8)
        n = _buckets(8) * 10
        ds = sample_dataset(q, n, seed=9)
        assert ds.indices.dtype == np.int64 and not ds.indices.flags.writeable
        assert ds.indices.tobytes() == searchsorted_sample_indices(q, n, 9).tobytes()

    def test_sample_dataset_takes_the_draws_without_a_copy(self, monkeypatch):
        drawn = np.array([2, 0, 1], dtype=np.int64)
        monkeypatch.setattr(core, "sample_indices", lambda q, n, seed: drawn)
        ds = sample_dataset(dist([0.2, 0.3, 0.5]), 3, seed=0)
        assert ds.indices is drawn and not drawn.flags.writeable


class TestMinEnvelope:
    def test_single_model(self):
        q = dist([0.3, 0.7])
        assert np.array_equal(min_envelope([q]), q.weights)

    def test_disjoint(self):
        env = min_envelope([dist([1.0, 0.0]), dist([0.0, 1.0])])
        assert np.array_equal(env, [0.0, 0.0])

    def test_hand_value(self):
        env = min_envelope([dist([0.8, 0.2]), dist([0.2, 0.8])])
        assert np.allclose(env, [0.2, 0.2], atol=0)

    def test_empty(self):
        with pytest.raises(EmptyList):
            min_envelope([])

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            min_envelope([dist([0.5, 0.5]), dist([0.4, 0.3, 0.3])])

    def test_mass_identity_with_tv(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            q1, q2 = random_pair(rng, int(rng.integers(2, 10)))
            mass = float(min_envelope([q1, q2]).sum())
            assert abs(mass - (1.0 - tv_distance(q1, q2))) <= 1e-12


class TestDataset:
    def test_counts_and_items(self):
        d = domain(3)
        s = Dataset(d, ["z0", "z0", "z1"])
        assert s.size == 3
        assert s.items == ("z0", "z0", "z1")
        assert list(s.counts()) == [2, 1, 0]

    def test_membership_enforced(self):
        with pytest.raises(DomainMismatch):
            Dataset(domain(2), ["z0", "nope"])

    def test_from_indices_bounds(self):
        with pytest.raises(DomainMismatch):
            Dataset.from_indices(domain(2), [0, 2])

    @pytest.mark.parametrize(
        "indices",
        [np.array([0.9, 2.99]), [0.0], ["2", "0"], [True, True], np.array([1], dtype=object)],
    )
    def test_from_indices_refuses_non_integers(self, indices):
        # A cast would truncate 2.99 to 2, parse "2" and read True as 1.
        with pytest.raises(TypeError):
            Dataset.from_indices(domain(3), indices)

    def test_from_indices_takes_any_integer_dtype(self):
        for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.int64):
            ds = Dataset.from_indices(domain(3), np.array([2, 0], dtype=dtype))
            assert ds.indices.dtype == np.int64 and ds.indices.tolist() == [2, 0]
        assert Dataset.from_indices(domain(3), []).size == 0
        assert Dataset.from_indices(domain(3), np.array([])).size == 0
        with pytest.raises(DomainMismatch):  # wraps to -1 as int64
            Dataset.from_indices(domain(3), np.array([2**64 - 1], dtype=np.uint64))

    def test_from_indices_refuses_a_matrix(self):
        with pytest.raises(ValueError, match="^indices must be one-dimensional$"):
            Dataset.from_indices(domain(3), [[0, 1], [2, 0]])

    def test_from_indices_keeps_its_own_copy(self):
        idx = np.array([0, 1, 2], dtype=np.int64)
        ds = Dataset.from_indices(domain(3), idx)
        idx[0] = 2
        assert ds.indices.tolist() == [0, 1, 2] and idx.flags.writeable

    def test_slice(self):
        s = Dataset(domain(2), ["z0", "z1", "z0", "z0"])
        assert s.slice(1, 3).items == ("z1", "z0")

    def test_first_unknown_symbol_is_named(self):
        with pytest.raises(DomainMismatch, match="symbol 'x' is not in the domain"):
            Dataset(domain(2), ["z0", "x", "y"])

    def test_generator_input(self):
        s = Dataset(domain(3), (f"z{i % 3}" for i in range(5)))
        assert s.items == ("z0", "z1", "z2", "z0", "z1")

    @pytest.mark.parametrize(
        "err",
        [KeyError("z1"), KeyError("x"), KeyError(), KeyError("x", "y"), KeyError(["x"])],
        ids=["key-in-domain", "key-outside-domain", "no-key", "two-args", "unhashable-key"],
    )
    def test_key_error_from_the_iterable_propagates(self, err):
        def items():
            yield "z0"
            raise err

        for build in (Dataset, generator_indices):
            with pytest.raises(KeyError) as got:
                build(domain(2), items())
            assert got.value is err

    def test_unhashable_item(self):
        for build in (Dataset, generator_indices):
            with pytest.raises(TypeError):
                build(domain(2), ["z0", ["z1"]])

    def test_empty_input(self):
        for items in ([], iter(())):
            idx = Dataset(domain(2), items).indices
            assert idx.dtype == np.int64 and idx.size == 0 and not idx.flags.writeable

    @pytest.mark.parametrize("items", ["z0", "", b"z0"], ids=["str", "empty-str", "bytes"])
    def test_rejects_a_bare_string(self, items):
        with pytest.raises(TypeError, match="bare"):
            Dataset(ContentDomain(("z", "0")), items)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(["z0", "z1", "z2", "x", "", "z0 ", "Z0"]), max_size=12),
    st.booleans(),
)
def test_dataset_matches_generator_oracle(symbols, as_generator):
    """Same indices, or the same DomainMismatch, from a list or a generator."""
    d = domain(3)

    def items():
        return (s for s in symbols) if as_generator else symbols

    try:
        expected = generator_indices(d, items())
    except DomainMismatch as exc:
        with pytest.raises(DomainMismatch) as got:
            Dataset(d, items())
        assert str(got.value) == str(exc)
    else:
        idx = Dataset(d, items()).indices
        assert idx.dtype == np.int64 and idx.tobytes() == expected.tobytes()


def oracle_dataset(text, tokenization, domain=None):
    """The corpus path before the chunked indexer: the whole text's token
    list through Dataset.__init__; None where ingest raises EmptyCorpus."""
    tokens = generator_line_tokens(text) if tokenization == "line" else text.split()
    if domain is None:
        if not tokens:
            return None
        domain = ContentDomain(tuple(sorted(set(tokens))))
    return Dataset(domain, tokens)


def assert_indexes_like_oracle(path, tokenization, chunk_chars, domain=None):
    """ingest_corpus (no domain) or load_dataset (a domain) on `path`, with
    chunks of `chunk_chars`, gives the oracle's domain and index bytes, or
    its error."""
    text = path.read_text(encoding="utf-8-sig")

    def run():
        return ingest_corpus(path, tokenization)[1] if domain is None else load_dataset(path, domain)

    with mock.patch.object(core, "_CORPUS_CHUNK_CHARS", chunk_chars):
        try:
            expected = oracle_dataset(text, tokenization, domain)
        except DomainMismatch as exc:
            with pytest.raises(DomainMismatch) as got:
                run()
            assert str(got.value) == str(exc)
            return
        if expected is None:
            with pytest.raises(EmptyCorpus):
                run()
            return
        got = run()
    assert got.domain == expected.domain
    assert got.indices.dtype == np.int64
    assert got.indices.tobytes() == expected.indices.tobytes()


# Every str.splitlines boundary; \x1f, \xa0 and \t are whitespace that is not.
LINE_BOUNDARIES = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                   "\u2028", "\u2029"]
_LINE_PIECES = LINE_BOUNDARIES + [" ", "\t", "\x1f", "\xa0", "a", "b", "a b", "\u00e9"]
_CORPUS_TEXT = st.lists(st.sampled_from(_LINE_PIECES) | st.text(max_size=3), max_size=30)


class TestLineTokens:
    """The chunked corpus indexer against the whole-text token list, at
    chunk sizes of 1 to 16 characters."""

    @pytest.mark.parametrize("sep", LINE_BOUNDARIES, ids=repr)
    def test_every_boundary(self, tmp_path, sep):
        # blank and whitespace-only lines dropped, no final line end
        path = tmp_path / "corpus.txt"
        path.write_bytes(f"a{sep} b {sep}{sep} \t{sep}c".encode())
        for chunk_chars in range(1, 17):
            for tokenization in ("line", "whitespace"):
                assert_indexes_like_oracle(path, tokenization, chunk_chars)
            with mock.patch.object(core, "_CORPUS_CHUNK_CHARS", chunk_chars):
                assert ingest_corpus(path, "line")[1].items == ("a", "b", "c")

    @settings(max_examples=300, deadline=None)
    @given(_CORPUS_TEXT, st.integers(1, 16), st.data())
    def test_matches_generator_oracle(self, tmp_path_factory, pieces, chunk_chars, data):
        path = tmp_path_factory.getbasetemp() / "oracle_corpus.txt"
        path.write_bytes("".join(pieces).encode())
        for tokenization in ("line", "whitespace"):
            assert_indexes_like_oracle(path, tokenization, chunk_chars)
        # load_dataset over a domain that may miss some of the lines
        lines = sorted(set(generator_line_tokens(path.read_text(encoding="utf-8-sig"))))
        kept = data.draw(st.lists(st.sampled_from(lines), unique=True)) if lines else []
        domain = ContentDomain(tuple(kept) + ("\x00not a line",))
        assert_indexes_like_oracle(path, "line", chunk_chars, domain)

    @pytest.mark.parametrize("tokenization", ["line", "whitespace"])
    def test_line_longer_than_a_chunk(self, tmp_path, tokenization):
        path = tmp_path / "corpus.txt"
        path.write_text("x\n" + " ".join(["long"] * 20) + "\nx\ny z" * 3, encoding="utf-8")
        for chunk_chars in range(1, 17):
            assert_indexes_like_oracle(path, tokenization, chunk_chars)

    @pytest.mark.parametrize("text", ["", "\n", " \t\n\r\n  ", "\ufeff", "\n\u2028\x85"])
    def test_empty_or_blank_file(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_bytes(text.encode())
        for chunk_chars in (1, 2, 16):
            for tokenization in ("line", "whitespace"):
                assert_indexes_like_oracle(path, tokenization, chunk_chars)
            with mock.patch.object(core, "_CORPUS_CHUNK_CHARS", chunk_chars):
                assert load_dataset(path, domain(2)).size == 0

    def test_load_dataset_names_the_first_unknown_line(self, tmp_path):
        # Fifty unknown lines in reverse order: the error names the first in
        # file order, not the smallest.
        path = tmp_path / "data.txt"
        unknown = [f"u{i}" for i in range(50)]
        path.write_text("z0\n" + "\n".join(unknown[::-1] + ["z1"]) + "\n", encoding="utf-8")
        for chunk_chars in (1, 7, 16, 2**18):
            with mock.patch.object(core, "_CORPUS_CHUNK_CHARS", chunk_chars):
                with pytest.raises(DomainMismatch, match="'u49'"):
                    load_dataset(path, domain(2))

    @settings(max_examples=300, deadline=None)
    @given(_CORPUS_TEXT, st.integers(1, 16))
    def test_chunks_cut_after_a_newline(self, pieces, chunk_chars):
        text = "".join(pieces)
        with mock.patch.object(core, "_CORPUS_CHUNK_CHARS", chunk_chars):
            chunks = list(_corpus_chunks(text))
        assert "".join(chunks) == text
        assert all(c.endswith("\n") and len(c) > chunk_chars for c in chunks[:-1])
        assert [line for c in chunks for line in c.splitlines()] == text.splitlines()
        assert [word for c in chunks for word in c.split()] == text.split()


class TestEvent:
    def test_from_symbols_round_trip(self):
        d = domain(4)
        e = Event.from_symbols(d, ["z1", "z3"])
        assert e.symbols == ("z1", "z3")
        assert "z1" in e and "z0" not in e

    def test_probability(self):
        e = Event.from_symbols(domain(3), ["z0", "z2"])
        assert e.probability(dist([0.2, 0.3, 0.5])) == pytest.approx(0.7)

    def test_mask_range(self):
        with pytest.raises(ValueError):
            Event(domain(2), 4)

    @pytest.mark.parametrize("mask", [1.5, 1.0, "1", None])
    def test_mask_must_be_an_integer(self, mask):
        with pytest.raises(TypeError):
            Event(domain(2), mask)

    def test_numpy_integer_mask_becomes_an_int(self):
        e = Event(domain(3), np.int64(5))
        assert type(e.mask) is int and e.mask == 5 and e.symbols == ("z0", "z2")

    @pytest.mark.parametrize("size", [1, 64, 65, 130])
    def test_bits_round_trip(self, size):
        # symbols and indicator decode the mask as the per-bit forms do, and
        # from_symbols gives the mask back
        d = domain(size)
        rng = np.random.default_rng(size)
        full = (1 << size) - 1
        randoms = [int.from_bytes(rng.bytes(17), "little") & full for _ in range(20)]
        for mask in [0, full, 1, 1 << (size - 1), *randoms]:
            e = Event(d, mask)
            bits = [bool(mask >> i & 1) for i in range(size)]
            assert e.indicator().tolist() == bits
            assert e.symbols == tuple(s for s, bit in zip(d.symbols, bits) if bit)
            assert Event.from_symbols(d, e.symbols).mask == mask


class TestSerialization:
    def test_distribution_json_round_trip(self, tmp_path):
        q = dist([0.25, 0.75])
        path = tmp_path / "q.json"
        write_distribution(path, q)
        assert read_distribution(path) == q
        obj = json.loads(path.read_text())
        assert set(obj) == {"symbols", "weights"}

    def test_read_against_expected_domain(self, tmp_path):
        q = dist([0.25, 0.75])
        path = tmp_path / "q.json"
        write_distribution(path, q)
        with pytest.raises(DomainMismatch):
            read_distribution(path, domain(3))

    def test_read_drops_a_byte_order_mark(self, tmp_path):
        q = dist([0.25, 0.75])
        path = tmp_path / "q.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(q.to_json_obj()).encode())
        assert read_distribution(path) == q

    def test_domain_json_round_trip(self):
        d = domain(4)
        assert ContentDomain.from_json_obj(d.to_json_obj()) == d

    @pytest.mark.parametrize("symbols, at, reason", [
        ("ab", "symbols", "expected a list of strings, got 'ab'"),
        ([1, 2], "symbols[0]", "expected a string, got 1"),
        (["a", 2], "symbols[1]", "expected a string, got 2"),
        (("a", "b"), "symbols", "expected a list of strings, got ('a', 'b')"),
        ({"a": 1}, "symbols", "expected a list of strings, got {'a': 1}"),
    ], ids=["ab", "symbols1", "symbols2", "symbols3", "symbols4"])
    def test_symbols_must_be_a_list_of_strings(self, tmp_path, symbols, at, reason):
        # A JSON string used to be split into one-character symbols.
        obj = {"symbols": symbols, "weights": [0.5, 0.5]}
        reads = [
            lambda: ContentDomain.from_json_obj({"symbols": symbols}),
            lambda: DiscreteDistribution.from_json_obj(obj),
        ]
        if not isinstance(symbols, tuple):
            path = tmp_path / "q.json"
            path.write_text(json.dumps(obj))
            reads.append(lambda: read_distribution(path))
        for read in reads:
            with pytest.raises(ConfigError) as info:
                read()
            assert (info.value.path, info.value.reason) == (at, reason)

    @pytest.mark.parametrize("weights, at, reason", [
        (["0.5", "0.5"], "weights[0]", "expected a number, got '0.5'"),
        ([True, False], "weights[0]", "expected a number, got True"),
        ("0.5", "weights", "expected a list of numbers, got '0.5'"),
        ({"a": 1}, "weights", "expected a list of numbers, got {'a': 1}"),
        ([0.5, None], "weights[1]", "expected a number, got None"),
        ((0.5, 0.5), "weights", "expected a list of numbers, got (0.5, 0.5)"),
    ], ids=["weights0", "weights1", "0.5", "weights3", "weights4", "weights5"])
    def test_weights_must_be_a_list_of_numbers(self, tmp_path, weights, at, reason):
        # strings and bools used to be cast to floats
        obj = {"symbols": ["a", "b"], "weights": weights}
        reads = [lambda: DiscreteDistribution.from_json_obj(obj)]
        if not isinstance(weights, tuple):
            path = tmp_path / "q.json"
            path.write_text(json.dumps(obj))
            reads.append(lambda: read_distribution(path))
        for read in reads:
            with pytest.raises(ConfigError) as info:
                read()
            assert (info.value.path, info.value.reason) == (at, reason)

    def test_integer_weights_allowed(self):
        q = DiscreteDistribution.from_json_obj({"symbols": ["a", "b"], "weights": [1, 0]})
        assert q.weights.tolist() == [1.0, 0.0]

    def test_load_dataset(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("a\nb\n\na\n")
        d = ContentDomain(("a", "b"))
        assert load_dataset(path, d).items == ("a", "b", "a")

    def test_load_dataset_drops_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"\xef\xbb\xbfa\r\nb\r\n\r\na\r\n")
        assert load_dataset(path, ContentDomain(("a", "b"))).items == ("a", "b", "a")

    def test_load_dataset_rejects_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"\xff\xfea\n")
        with pytest.raises(ValueError):
            load_dataset(path, ContentDomain(("a",)))


class TestJsonKeyRule:
    """A domain and a distribution read from JSON refuse every key they do
    not read, and name a missing one, with ConfigError at that key; a file
    that read_distribution reads must hold a JSON object."""

    @pytest.mark.parametrize("obj, path, reason", [
        ({"symbols": ["a", "b"], "weights": [0.5, 0.5], "wieghts": [1, 0]}, "wieghts",
         "unknown field of a distribution; known fields: symbols, weights"),
        ({"symbols": ["a", "b"]}, "weights", "missing required field"),
        ({"weights": [0.5, 0.5]}, "symbols", "missing required field"),
    ])
    def test_distribution(self, tmp_path, obj, path, reason):
        file = tmp_path / "q.json"
        file.write_text(json.dumps(obj))
        for read in (lambda: DiscreteDistribution.from_json_obj(obj),
                     lambda: read_distribution(file)):
            with pytest.raises(ConfigError) as info:
                read()
            assert (info.value.path, info.value.reason) == (path, reason)
            assert str(info.value) == f"{path}: {reason}"

    @pytest.mark.parametrize("obj", [["symbols", "weights"], 5, "x"])
    def test_read_distribution_needs_an_object(self, tmp_path, obj):
        # a list and a number used to raise Python's own TypeError texts
        file = tmp_path / "q.json"
        file.write_text(json.dumps(obj))
        with pytest.raises(ConfigError) as info:
            read_distribution(file)
        assert (info.value.path, info.value.reason) == ("", f"expected a JSON object, got {obj!r}")
        assert str(info.value) == f"expected a JSON object, got {obj!r}"
        with pytest.raises(FileNotFoundError):
            read_distribution(tmp_path / "missing.json")

    def test_read_distribution_refuses_a_repeated_key(self, tmp_path):
        # json.load alone would keep the second list, ["b", "a"]
        file = tmp_path / "q.json"
        file.write_text('{"symbols": ["a", "b"], "weights": [0.5, 0.5], "symbols": ["b", "a"]}')
        with pytest.raises(ConfigError) as info:
            read_distribution(file)
        assert (info.value.path, info.value.reason) == ("symbols", "repeated field")

    def test_domain(self):
        with pytest.raises(ConfigError) as info:
            ContentDomain.from_json_obj({"symbols": ["a"], "weights": [1.0]})
        assert str(info.value) == "weights: unknown field of a domain; known fields: symbols"
        with pytest.raises(ConfigError, match="^symbols: missing required field$"):
            ContentDomain.from_json_obj({})
