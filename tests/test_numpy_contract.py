"""The numpy behaviours that the library's bytes rest on, one test each.

The batched and array forms (shard training, the tape races, the release,
the projection, the sampler's bucket table and the event forms) are tested
for bit-identity with their scalar forms elsewhere. Those equalities hold
only while numpy keeps each behaviour below, so each is asserted here on
its own, and each test's docstring names the library code that relies on
it. CI runs this file on the oldest numpy that pyproject.toml allows, and
in Python's development mode, where every warning is shown.
"""

import fractions
import functools
import math
import warnings

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20231)


def test_per_row_sum_equals_the_row_sum(rng):
    """transform._project_rows, learners.learner_empirical and
    core._tv_rows take x.sum(axis=1) (or add.reduce along the last axis)
    of a matrix and must get each row's own 1-D sum, pairwise blocks and
    all."""
    x = rng.random((7, 1000)) * 10.0 ** rng.integers(-8, 8, (7, 1000))
    rows = x.sum(axis=1)
    reduced = np.add.reduce(x, axis=-1)
    for i in range(x.shape[0]):
        assert rows[i] == x[i].sum() == reduced[i]


def test_axis_0_add_reduce_adds_rows_in_order(rng):
    """transform.transform_bound_experiment adds each chunk of outputs to
    the running sum with one axis-0 np.add.reduce, which must add the rows
    first to last, as a loop does."""
    x = rng.random((301, 9)) * 10.0 ** rng.integers(-8, 8, (301, 9))
    in_order = functools.reduce(lambda a, b: a + b, x)
    assert np.array_equal(np.add.reduce(x), in_order)
    assert np.array_equal(np.add.reduce(np.vstack((x[:1], x[1:]))), in_order)


def test_subtract_accumulate_subtracts_in_order(rng):
    """transform._project_rows takes the residual before each step from
    np.subtract.accumulate along a row: r_0 - s_0 - ... - s_(i-1), in
    that order."""
    x = rng.standard_normal((5, 40)) * 10.0 ** rng.integers(-6, 6, (5, 40))
    out = np.subtract.accumulate(x, axis=1)
    for row, acc in zip(x, out):
        running = row[0]
        assert acc[0] == running
        for i in range(1, row.size):
            running = running - row[i]
            assert acc[i] == running


def test_add_accumulate_adds_in_order(rng):
    """core._max_event sums the positive gaps with np.add.accumulate from a
    leading 0.0, which must add left to right (.sum() adds pairwise)."""
    x = rng.random(2000) * 10.0 ** rng.integers(-12, 0, 2000)
    running = 0.0
    for value in x:
        running += value
    assert np.add.accumulate(np.r_[0.0, x])[-1] == running


def test_addition_is_monotone(rng):
    """core._max_event: correctly rounded addition is monotone, so adding a
    positive term never lowers a partial sum, and no event sums above
    E+ = {z : diff(z) > 0}."""
    terms = rng.random(10000) * 10.0 ** rng.integers(-20, 0, 10000)
    partial = rng.random(10000)
    assert (partial + terms >= partial).all()
    ordered = np.sort(rng.random(10000) * 10.0 ** rng.integers(-20, 0, 10000))
    for shift in terms[:20]:
        assert (np.diff(ordered + shift) >= 0).all()


def test_clip_minimum_and_maximum_return_an_operand(rng):
    """transform._project_rows clips each step with np.clip between
    np.minimum(slack, 0) and np.maximum(slack, 0), and dp._threshold_clamp
    clamps with np.minimum and np.maximum: each must return one of its
    operands exactly, never a rounded value."""
    x = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    y = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    lower, upper = np.minimum(x, y), np.maximum(x, y)
    assert ((lower == x) | (lower == y)).all()
    assert ((upper == x) | (upper == y)).all()
    value = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    clipped = np.clip(value, lower, upper)
    assert ((clipped == value) | (clipped == lower) | (clipped == upper)).all()
    assert ((lower <= clipped) & (clipped <= upper)).all()


def test_strict_less_keeps_argmins_first_minimum(rng):
    """coupling._tournament folds symbols in with a strict `<` and
    np.minimum, and must pick np.argmin's winner: the first minimum of
    each column, ties included."""
    x = rng.integers(0, 4, (12, 500)).astype(np.float64)  # many exact ties
    x[3, :50] = -0.0
    x[5, :50] = 0.0
    best = x[0].copy()
    winner = np.zeros(x.shape[1], dtype=np.uint8)
    for z in range(1, x.shape[0]):
        np.maximum(winner, (x[z] < best) * np.uint8(z), out=winner)
        np.minimum(best, x[z], out=best)
    assert np.array_equal(winner, np.argmin(x, axis=0))
    assert np.array_equal(best, x.min(axis=0))


def test_division_is_correctly_rounded_and_monotone_in_its_divisor(rng):
    """coupling._race_tape_blocks prunes a symbol when E_z / max_z is above
    U = min_y E_y / min_y, which is exact only if a larger divisor never
    gives a larger quotient; the row forms of learners.learner_empirical
    and the release divide as Python does."""
    e = rng.exponential(size=(200, 1))
    w = np.sort(rng.random(300) * 10.0 ** rng.integers(-300, 0, 300))
    q = e / w
    assert (np.diff(q, axis=1) <= 0).all()
    assert q.tolist() == [[a / b for b in w.tolist()] for a in e[:, 0].tolist()]
    with np.errstate(divide="ignore"):
        assert (e / 0.0 == np.inf).all()


def test_default_argsort_sorts_each_row(rng):
    """coupling._rank_chunk ranks each tape's quotients with the default
    argsort: a sorting permutation of each row, which on a row with no two
    equal values is the one order, the stable one."""
    x = rng.random((300, 124))
    order = np.argsort(x, axis=1)
    assert (np.diff(np.take_along_axis(x, order, axis=1), axis=1) > 0).all()
    assert np.array_equal(order, np.argsort(x, axis=1, kind="stable"))
    assert np.array_equal(np.sort(order, axis=1), np.broadcast_to(np.arange(124), x.shape))


def test_stable_argsort_keeps_tied_keys_in_order(rng):
    """coupling._rank_chunk sorts a row that holds a tie again with a stable
    argsort: equal quotients keep their symbol-major order, so an exact tie
    ranks the lower symbol first, np.argmin's rule."""
    x = rng.integers(0, 5, (50, 60)).astype(np.float64)
    order = np.argsort(x, axis=1, kind="stable")
    ranked = np.take_along_axis(x, order, axis=1)
    assert (np.diff(ranked, axis=1) >= 0).all()
    tied = np.diff(ranked, axis=1) == 0
    assert (np.diff(order, axis=1)[tied] > 0).all()


def test_sort_and_not_equal_take_negative_zero_for_zero():
    """coupling._weight_pairs finds each column's distinct weights with
    np.sort and != between neighbours; -0.0 and +0.0 must be one value."""
    ordered = np.sort(np.array([0.5, -0.0, 0.25, 0.0, -0.0, 0.25]))
    distinct = np.r_[True, ordered[1:] != ordered[:-1]]
    assert ordered[distinct].tolist() == [0.0, 0.25, 0.5]
    assert not np.not_equal(-0.0, 0.0)


def test_packbits_and_unpackbits_little_bit_order(rng):
    """coupling._mask_order packs each tape's candidate mask with
    bitorder="little" and reads the bytes as little-endian uint64 words, and
    core._flags_mask and Event.indicator pack and unpack event masks: flag z
    is bit z % 8 of byte z // 8, so bit z % 64 of word z // 64."""
    flags = rng.random((20, 150)) < 0.3
    packed = np.packbits(flags, axis=1, bitorder="little")
    for row, data in zip(flags, packed):
        mask = sum(1 << int(z) for z in np.flatnonzero(row))
        assert int.from_bytes(data.tobytes(), "little") == mask
    padded = np.zeros((20, 24), dtype=np.uint8)
    padded[:, : packed.shape[1]] = packed
    words = padded.view("<u8")
    for row, word in zip(flags, words):
        for z in np.flatnonzero(row):
            assert int(word[z // 64]) >> (int(z) % 64) & 1
    unpacked = np.unpackbits(packed, axis=1, count=150, bitorder="little").view(bool)
    assert np.array_equal(unpacked, flags)


def test_lexsort_takes_its_last_key_as_most_significant(rng):
    """coupling._mask_order sorts the tapes with np.lexsort of the mask
    words' transpose: the last key (the highest word) is the primary one,
    and equal masks keep their input order, as np.lexsort of the boolean
    masks would."""
    keys = rng.integers(0, 3, (4, 400))
    order = np.lexsort(keys)
    expected = sorted(range(400), key=lambda t: (keys[3, t], keys[2, t], keys[1, t], keys[0, t], t))
    assert order.tolist() == expected


def test_take_clip_mode_gathers_whole_rows(rng):
    """coupling._rank_chunk gathers rows of a group's rank table with
    np.take along axis 0 in clip mode, into a reused `out`: the rows of
    the in-range indices, exactly."""
    table = rng.integers(0, 2**16, (124, 8), dtype=np.uint16)
    codes = rng.integers(0, 124, 3170)
    out = np.empty((3170, 8), dtype=np.uint16)
    np.take(table, codes, axis=0, out=out, mode="clip")
    assert np.array_equal(out, table[codes])
    assert np.array_equal(np.take(table, codes, axis=0, mode="clip"), table[codes])


def test_take_clip_mode_reads_each_index_before_writing_it(rng):
    """core._search_cdf maps each draw's bucket through the bucket table in
    place, np.take(table, out, out=out, mode="clip"): take must read each
    index before it writes that slot of an `out` that is the index array."""
    table = rng.integers(-1, 40, 1 << 12).astype(np.int64)
    index = rng.integers(0, 1 << 12, 100_000).astype(np.int64)
    expected = table[index]
    np.take(table, index, out=index, mode="clip")
    assert np.array_equal(index, expected)


def test_uint16_minimum_stays_uint16(rng):
    """coupling._rank_chunk keeps each weight row's least rank with a uint16
    np.minimum, in place."""
    a = rng.integers(0, 2**16, 5000, dtype=np.uint16)
    b = rng.integers(0, 2**16, 5000, dtype=np.uint16)
    expected = [min(x, y) for x, y in zip(a.tolist(), b.tolist())]
    np.minimum(a, b, out=a)
    assert a.dtype == np.uint16 and a.tolist() == expected


def test_bincount_of_uint16_ranks(rng):
    """coupling._rank_chunk counts a group's uint16 least ranks with a plain
    np.bincount."""
    ranks = rng.integers(0, 2**16, 20000, dtype=np.uint16)
    expected = [0] * 2**16
    for rank in ranks.tolist():
        expected[rank] += 1
    assert np.bincount(ranks, minlength=2**16).tolist() == expected


def test_weighted_bincount_adds_integer_counts_exactly(rng):
    """coupling._rank_chunk maps a chunk's rank counts to symbol counts with
    one weighted np.bincount, whose float sums of integer counts must be
    exact below 2**53."""
    index = rng.integers(0, 10, 5000)
    weights = rng.integers(0, 2**40, 5000).astype(np.float64)
    counts = np.bincount(index, weights=weights, minlength=10)
    exact = [sum(int(w) for w, i in zip(weights, index) if i == b) for b in range(10)]
    assert counts.tolist() == exact


def test_uint64_plus_uint64_stays_uint64():
    """coupling._splitmix64 adds uint64 offsets to uint64 keys, and
    coupling._streamed_winners adds an np.arange of uint64 to a uint64
    scalar: the sums must stay uint64 (NumPy 2 promotes uint64 + int64 to
    float64)."""
    keys = np.arange(4, dtype=np.uint64)
    assert (keys + np.uint64(1 << 63)).dtype == np.uint64
    assert (keys + keys).dtype == np.uint64
    assert (np.uint64(5) + keys).dtype == np.uint64
    assert (keys >> np.uint64(11)).dtype == np.uint64


def test_uint64_arrays_wrap_without_a_warning():
    """coupling._splitmix64 and dp._release_rows rely on uint64 array
    addition and multiplication wrapping mod 2**64, silently: the suite
    turns a RuntimeWarning into an error."""
    top = np.array([2**64 - 1, 2**63], dtype=np.uint64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (top + np.uint64(1)).tolist() == [0, 2**63 + 1]
        assert (top + top).tolist() == [2**64 - 2, 0]
        product = top * np.uint64(0xBF58476D1CE4E5B9)
        z = top.copy()
        z *= np.uint64(0xBF58476D1CE4E5B9)
    assert product.tolist() == z.tolist() == [
        (x * 0xBF58476D1CE4E5B9) % 2**64 for x in (2**64 - 1, 2**63)
    ]


def test_ceil_and_int64_cast_are_exact_below_2_63(rng):
    """dp._release_rows draws ceil(2 E / epsilon) with np.ceil and casts it
    to int64; below 2**63 (dp._require_epsilon's bound) both must be exact."""
    x = np.r_[0.5, 1.0, 1.5, 2.0**52 + 0.5, 2.0**53, 2.0**62 + 2.0**10, 9.2e18,
              rng.random(1000) * 10.0 ** rng.integers(-3, 18, 1000)]
    up = np.ceil(x)
    assert up.tolist() == [float(math.ceil(v)) for v in x.tolist()]
    assert up.astype(np.int64).tolist() == [math.ceil(v) for v in x.tolist()]


def test_log_is_within_one_ulp_of_math_log(rng):
    """coupling._cell_variates maps each uniform (m + 0.5) 2**-53, clamped
    to 1 - 2**-53, through np.log, and the scalar noise draw in
    tests/conftest.py through math.log: the two must agree to within one
    ulp. The clamp acts on m = 2**53 - 1 alone, whose sum rounds to even,
    so that u would be 1.0."""
    top = np.uint64(2**53 - 1)
    bits = np.r_[rng.integers(0, 2**53, 100_000, dtype=np.uint64), np.uint64(0), top]
    u = (bits.astype(np.float64) + 0.5) * 2.0**-53
    assert u[-1] == 1.0 and (u[:-1] < 1.0).all()
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    ours = np.log(u)
    reference = np.array([math.log(v) for v in u.tolist()])
    assert (np.abs(ours - reference) <= np.spacing(np.abs(reference))).all()
    assert (ours < 0).all()


def test_random_into_a_row_equals_a_fresh_draw():
    """core._sample_rows draws default_rng(s).random(out=row) into each row
    of a 2-D block of its buffer, for sample_indices (one row) and the
    premise estimate (many rows): each row must hold the doubles of
    default_rng(s).random(n)."""
    for rows, n in ((1, 1), (1, 1000), (5, 333), (3, 0)):
        block = np.empty((rows, n))
        for s, row in enumerate(block):
            np.random.default_rng(s).random(out=row)
        for s, row in enumerate(block):
            assert row.tobytes() == np.random.default_rng(s).random(n).tobytes()


@pytest.mark.parametrize("block", [1, 3, 77, 2**15 - 1, 2**15 + 1])
def test_random_in_consecutive_blocks_equals_one_call(block):
    """core._sample_rows draws a row longer than its buffer as consecutive
    blocks of one Generator, random(out=buffer[:n]) block after block: the
    blocks must hold, in order, the doubles of one random(size) call from
    the same seed, also where the last block is partial."""
    size = 3 * block + 2
    generator = np.random.default_rng(2**64 - 1)
    buffer = np.empty(block)
    drawn = []
    for start in range(0, size, block):
        part = buffer[: min(block, size - start)]
        generator.random(out=part)
        drawn.append(part.tobytes())
    assert b"".join(drawn) == np.random.default_rng(2**64 - 1).random(size).tobytes()


def test_searchsorted_side_rules(rng):
    """core._search_cdf and core._bucket_table read a non-decreasing cdf
    with searchsorted: side="right" counts the values <= the key. Side
    "left" counts those < it, the index of an equal value when there is
    one: coupling._weight_codes' fallback, which searches only the keys its
    bucket table leaves unresolved."""
    cdf = np.sort(rng.integers(0, 20, 50)).astype(np.float64) / 20.0
    keys = np.r_[cdf, rng.random(1000), 0.0, 1.0]
    right = np.searchsorted(cdf, keys, side="right")
    left = np.searchsorted(cdf, keys, side="left")
    assert right.tolist() == [int((cdf <= u).sum()) for u in keys]
    assert left.tolist() == [int((cdf < u).sum()) for u in keys]
    assert np.array_equal(np.searchsorted(cdf, keys), left)
    distinct = np.unique(cdf)
    assert np.array_equal(distinct[np.searchsorted(distinct, cdf)], cdf)


def test_power_of_two_scaling_and_the_truncating_cast(rng):
    """core._search_cdf finds a draw's bucket as u * B cast to int64, for B
    a power of two, and core._bucket_table scales the cdf by B: the product
    only shifts the exponent, so it is exact, and the unsafe float64 ->
    int64 cast truncates each value in [0, B). coupling._weight_codes
    scales a column's weights in [0, S] the same way, by B / S with S the
    least power of two at or above its largest weight (from np.frexp, whose
    mantissa is 0.5 exactly at a power of two) and B / S made by np.ldexp:
    every bucket floor(w B / S) is exact, subnormal weights included, and
    the top weight S lands in bucket B."""
    u = np.r_[rng.random(100_000), 0.0, np.nextafter(1.0, 0.0)]
    for buckets in (16, 1 << 17):
        scaled = u * buckets
        assert np.array_equal(scaled / buckets, u)
        shifted = [math.ldexp(v, buckets.bit_length() - 1) for v in u[:100].tolist()]
        assert shifted == scaled[:100].tolist()
        out = np.multiply(u, buckets, out=np.empty(u.size, np.int64), casting="unsafe")
        assert np.array_equal(out, np.floor(scaled).astype(np.int64))
        assert out.tolist()[:100] == [int(v) for v in scaled[:100].tolist()]
        assert 0 <= out.min() and out.max() < buckets
    # the codes' keys: weights w in [0, S], S = 2^e >= the top weight,
    # scaled by 2^(b - e), with e raised to b - 1023 at most so that B / S
    # is a double
    for top in (1.0, 0.3, 3.0, 2.0**-1016, 1e-310, 5e-324, 2.0**1000):
        mantissa, exponent = np.frexp(top)
        exponent -= mantissa == 0.5
        assert math.ldexp(1.0, int(exponent)) >= top > math.ldexp(1.0, int(exponent) - 1)
        for buckets in (2, 128, 2048):
            shift = buckets.bit_length() - 1
            exponent = max(int(exponent), shift - 1023)
            scale = np.ldexp(1.0, shift - exponent)
            tiny = [w for w in (2.0**-1016, 2.0**-1022, 1e-310, 5e-324) if w <= top]
            weights = np.r_[top * rng.random(2000), tiny, 0.0, np.nextafter(top, 0.0), top]
            weights = np.r_[weights, math.ldexp(1.0, exponent)]
            out = np.empty(weights.size, np.int64)
            np.multiply(weights, scale, out=out, casting="unsafe")
            factor = fractions.Fraction(scale)
            exact = [math.floor(fractions.Fraction(w) * factor) for w in weights.tolist()]
            assert out.tolist() == exact
            assert 0 <= out.min() and out[-1] == buckets
