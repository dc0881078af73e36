"""Exact summation: the window accumulator against math.fsum and exact fractions.

Every property runs twice: at the module's own chunking and at 4-term
chunks, so that short examples cross the chunk boundaries too.
"""

import math
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from foguel_lab import ValidationError, exact_sum, exact_sums
from foguel_lab import summation

finite = st.floats(allow_nan=False, allow_infinity=False)
# mantissa times 2^e over the whole exponent range, subnormals included;
# the open mantissa interval keeps ldexp(+-1, 1024) from overflowing, and
# loses no finite value since +-2^e = +-0.5 * 2^(e+1)
mantissa = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
scaled = st.builds(math.ldexp, mantissa, st.integers(-1074, 1024))
terms = st.lists(st.one_of(finite, scaled, st.sampled_from([0.0, -0.0, 5e-324])))


def hexes(res):
    return res.hex() if isinstance(res, float) else tuple(map(hexes, res))


def outcome(fn, *args):
    """The result as hex strings (signed zeros kept apart), or the exception type."""
    try:
        return hexes(fn(*args))
    except (OverflowError, ValueError) as exc:
        return type(exc)


def both_chunkings(fn, *args):
    default = outcome(fn, *args)
    with patch.object(summation, "_CHUNK", 4):
        small = outcome(fn, *args)
    assert small == default
    return default


def check_against_fsum(xs):
    got = both_chunkings(exact_sum, np.array(xs, dtype=float))
    want = outcome(math.fsum, xs)
    if want is OverflowError:
        # fsum gives up on an intermediate overflow.  exact_sum may give up
        # too, and must when the exact total has no finite rounding;
        # otherwise it returns the correctly rounded total.
        try:
            ref = float(sum(map(Fraction, xs))).hex()
        except OverflowError:
            ref = OverflowError
        assert got in (ref, OverflowError)
    else:
        assert got == want


@settings(max_examples=300)
@given(terms)
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0])
@example([5e-324, -5e-324])
@example([-5e-324] * 3)
@example([1e308, 1e308, -1e308])
@example([1.7976931348623157e308, 1.7976931348623157e308])
def test_exact_sum_matches_fsum_bit_for_bit(xs):
    check_against_fsum(xs)


@settings(max_examples=200)
@given(terms, st.randoms(use_true_random=False))
def test_heavy_cancellation(xs, rnd):
    # the pairs cancel exactly, so the total is the lone tail term
    tail = xs[:1]
    xs = xs + [-x for x in xs]
    rnd.shuffle(xs)
    check_against_fsum(xs + tail)


@settings(max_examples=100)
@given(st.lists(finite, min_size=1), st.integers(0, 64))
def test_signed_zero_totals(xs, zeros):
    check_against_fsum(xs + [-x for x in reversed(xs)] + [-0.0] * zeros)


@settings(max_examples=8)
@given(st.integers(0, 2**32 - 1))
def test_arrays_longer_than_a_chunk(seed):
    rng = np.random.default_rng(seed)
    n = 2 * summation._CHUNK + int(rng.integers(1, summation._CHUNK))
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1000, n))
    cancel = np.concatenate([x, -rng.permutation(x), x[:3] * 2.0**-60])
    for arr in (x, cancel, 1.0 / np.arange(1.0, n + 1.0)):
        assert exact_sum(arr).hex() == math.fsum(arr.tolist()).hex()


def check_one_chunk(xs):
    assert len(xs) <= summation._CHUNK
    for arr in (xs, -xs, np.random.default_rng(len(xs)).permutation(xs)):
        assert exact_sum(arr).hex() == math.fsum(arr.tolist()).hex()


def test_a_chunk_over_every_binade_takes_many_passes():
    # M = 11, and each pass strips at least 52 - M binades: about 26 passes
    xs = np.ldexp(1.0, -np.arange(1075))
    check_one_chunk(xs)
    check_one_chunk(xs * np.where(np.arange(1075) % 3, 1.0, -1.0))


def test_a_chunk_near_overflow_with_subnormals():
    # 2^(e+M) would overflow for the entries at or above 2^(1023-M), M = 4
    big = 2.0 ** (1023 - 4)
    xs = np.array([1.7976931348623157e308, -1.5 * 2.0**1022, big, np.nextafter(big, 0.0),
                   -big * 1.25, 5e-324, -1.5e-323, 2.0**-1060, 3.0, -(2.0**1012)])
    assert (len(xs) + 1).bit_length() == 4
    check_one_chunk(xs)


@pytest.mark.parametrize("m", [3, 12, 16])
def test_a_chunk_of_two_to_the_m_minus_two_terms(m):
    # the longest chunk with 2^M >= n + 2.  All but one term lie in
    # [7/8, 1) on the grid 2^(M-54) and total an odd multiple of it above
    # 2^(M-1); a tiny last term breaks the tie.  With sigma = 2^(M-1) the
    # negated terms would be extracted whole, and their float sum would
    # round the total to even, away from the tiny term
    n = 2**m - 2
    k = np.random.default_rng(m).integers(7 * 2 ** (51 - m), 2 ** (54 - m), n - 1)
    k[0] -= (k.sum() - 1) % 4
    assert (n + 1).bit_length() == m and k.sum() % 4 == 1
    check_one_chunk(np.append(np.ldexp(k.astype(float), m - 54), 2.0**-70))


@given(
    st.lists(st.one_of(finite, st.sampled_from([math.inf, -math.inf, math.nan])), min_size=1)
)
@example([math.inf, -math.inf])
@example([math.inf, 1.0, math.inf])
@example([math.nan, math.inf, -math.inf])
@example([1e308, 1e308, math.inf])
def test_non_finite_input_follows_fsum(xs):
    got = both_chunkings(exact_sum, np.array(xs))
    want = outcome(math.fsum, xs)
    assert got == want


@settings(max_examples=200)
@given(terms, st.lists(st.integers(0, 60), max_size=6))
def test_window_sums_equal_exact_sum_of_each_slice(xs, raw_cuts):
    arr = np.array(xs, dtype=float)
    cuts = sorted(min(c, len(arr)) for c in raw_cuts)
    got = both_chunkings(exact_sums, arr, cuts)
    windows = tuple(outcome(exact_sum, arr[a:b]) for a, b in zip(cuts, cuts[1:]))
    total = outcome(exact_sum, arr)
    if got is OverflowError:
        assert OverflowError in windows + (total,)
    else:
        assert got == (windows, total)


def streamed_sum(xs):
    """exact_sum's outcome on the list ``xs``, as a stream of it gives it.

    exact_sum hands a sum that is exactly zero or meets inf or nan to fsum,
    which raises OverflowError there if finite terms overflow on the way.
    That depends on the order of the terms, which a stream does not keep:
    it returns fsum of the inf and nan entries instead, or +0.0.
    """
    want = outcome(exact_sum, np.array(xs, dtype=float))
    odd = [x for x in xs if not math.isfinite(x)]
    if want is OverflowError and (odd or sum(map(Fraction, xs)) == 0):
        return outcome(math.fsum, odd)
    return want


@settings(max_examples=200)
@given(
    st.lists(st.one_of(finite, scaled, st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))),
    st.lists(st.integers(0, 60), max_size=6),
    st.lists(st.integers(0, 60), max_size=6),
)
@example([math.inf, 1.0, -math.inf], [1, 2], [1])
@example([math.nan, 2.0, math.inf], [0, 1], [2])
@example([-0.0, -0.0, 0.0, -0.0], [1, 3], [2])
@example([1e308, 1e308, -1e308, math.inf], [0, 3], [1, 2])
@example([1e308, 1e308, -1e308, -1e308], [2], [3])
def test_streamed_chunks_sum_like_the_whole_array(xs, raw_cuts, raw_splits):
    """Any split of the stream into chunks gives exact_sums' result, but
    for fsum's OverflowError on a sum that depends on the order of the terms."""
    arr = np.array(xs, dtype=float)
    cuts = sorted(min(c, len(arr)) for c in raw_cuts)
    splits = [0, *sorted(min(c, len(arr)) for c in raw_splits), len(arr)]

    def streamed():
        acc = summation.WindowSums(cuts)
        for a, b in zip(splits, splits[1:]):
            acc.add(arr[a:b])
        return acc.result()

    want = outcome(exact_sums, arr, cuts)
    if want is OverflowError:
        parts = [streamed_sum(xs[a:b]) for a, b in zip(cuts, cuts[1:])] + [streamed_sum(xs)]
        want = next((p for p in parts if isinstance(p, type)), (tuple(parts[:-1]), parts[-1]))
    assert both_chunkings(streamed) == want


def test_exact_sum_ravels_its_input():
    grid = np.arange(12.0).reshape(3, 4) * 0.1
    assert exact_sum(grid) == exact_sum(grid.ravel()) == math.fsum(grid.ravel().tolist())
    assert exact_sums(grid.T, [0, 3, 6, 9, 12])[0] == tuple(
        math.fsum(col) for col in grid.T.tolist()
    )


@pytest.mark.parametrize("cuts", [[3, 2], [-1], [0, 5]])
def test_exact_sums_rejects_cuts_out_of_order_or_range(cuts):
    with pytest.raises(ValidationError):
        exact_sums(np.ones(4), cuts)
