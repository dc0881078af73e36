"""Exact summation: the integer units and their sums against exact fractions.

Every property runs twice: at the module's own chunking and at 4-term
chunks, so that short examples cross the chunk boundaries too.
"""

import bisect
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
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])
offsets = st.lists(st.integers(0, 60), max_size=6)
MAX = 1.7976931348623157e308


def hexes(res):
    return res.hex() if isinstance(res, float) else tuple(map(hexes, res))


def outcome(fn, *args):
    """The result as hex strings (signed zeros kept apart), or ValidationError."""
    try:
        return hexes(fn(*args))
    except ValidationError:
        return ValidationError


def both_chunkings(fn, *args):
    default = outcome(fn, *args)
    with patch.object(summation, "_CHUNK", 4):
        small = outcome(fn, *args)
    assert small == default
    return default


def rounded(xs):
    """The exact sum of ``xs`` rounded to a float (+0.0 when it is zero), or
    ValidationError when that lies beyond the float range."""
    try:
        return float(sum(map(Fraction, xs), Fraction(0))).hex()
    except OverflowError:
        return ValidationError


def check_exact(xs):
    assert both_chunkings(exact_sum, np.array(xs, dtype=float)) == rounded(xs)


def clip(raw, n):
    return sorted(min(c, n) for c in raw)


def streamed(arr, cuts, splits):
    """exact_sums' outcome from the units of ``arr``'s pieces between the
    splits and cuts, each added to its window's integer in stream order."""
    def run():
        bounds = sorted({0, *cuts, *splits, len(arr)})
        units = [0] * (len(cuts) + 1)  # before the first cut, each window, after the last
        for a, b in zip(bounds, bounds[1:]):
            units[bisect.bisect_right(cuts, a)] += summation.exact_units(arr[a:b])
        return (tuple(map(summation.from_units, units[1:-1])),
                summation.from_units(sum(units)))

    return both_chunkings(run)


@settings(max_examples=300)
@given(terms)
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([0.0, -0.0])
@example([5e-324, -5e-324])
@example([-5e-324] * 3)
@example([1e308, 1e308, -1e308])
@example([MAX, MAX])
@example([MAX, 2.0**969])
@example([MAX, 2.0**970])
def test_exact_sum_is_the_rounded_exact_sum(xs):
    check_exact(xs)


@settings(max_examples=200)
@given(terms, st.randoms(use_true_random=False))
def test_heavy_cancellation(xs, rnd):
    # the pairs cancel exactly, so the total is the lone tail term
    tail = xs[:1]
    xs = xs + [-x for x in xs]
    rnd.shuffle(xs)
    check_exact(xs + tail)


@settings(max_examples=100)
@given(st.lists(finite, min_size=1), st.integers(0, 64))
def test_signed_zero_totals(xs, zeros):
    # an exactly zero sum is +0.0, even of -0.0 terms alone
    xs = xs + [-x for x in reversed(xs)] + [-0.0] * zeros
    assert both_chunkings(exact_sum, np.array(xs)) == rounded(xs) == "0x0.0p+0"


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
    xs = np.array([MAX, -1.5 * 2.0**1022, big, np.nextafter(big, 0.0),
                   -big * 1.25, 5e-324, -1.5e-323, 2.0**-1060, 3.0, -(2.0**1012)])
    assert (len(xs) + 1).bit_length() == 4
    check_one_chunk(xs)


@pytest.mark.parametrize("m", [3, 12, 14, 16])
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
    # m = 16 takes a chunk above the default of 2^14 terms
    with patch.object(summation, "_CHUNK", max(summation._CHUNK, 2**m)):
        check_one_chunk(np.append(np.ldexp(k.astype(float), m - 54), 2.0**-70))


@settings(max_examples=200)
@given(st.lists(st.one_of(finite, scaled, non_finite)), non_finite, st.integers(0, 60),
       offsets, offsets)
@example([], math.inf, 0, [], [])
@example([-math.inf], math.inf, 1, [0, 1], [1])
@example([1.0, 2.0, 3.0], math.nan, 3, [0, 1], [2])
@example([MAX, MAX], -math.inf, 2, [0, 2], [])
def test_an_inf_or_nan_term_is_refused_wherever_it_lies(xs, bad, at, raw_cuts, raw_splits):
    """Whole or streamed in any chunks, with any cuts, a sum that meets an
    inf or nan term is refused, and before any other sum is rounded."""
    xs = xs[:at] + [bad] + xs[at:]
    arr = np.array(xs)
    cuts, splits = clip(raw_cuts, len(xs)), [0, *clip(raw_splits, len(xs)), len(xs)]
    assert both_chunkings(exact_sums, arr, cuts) is ValidationError
    assert streamed(arr, cuts, splits) is ValidationError
    with pytest.raises(ValidationError, match="^series terms must be finite$"):
        exact_sum(arr)


@settings(max_examples=200)
@given(terms, offsets, st.integers(0, 80))
@example([], [], 0)
@example([0.0, -0.0, -0.0], [1, 2], 3)
@example([5e-324, -1.5e-323, 2.0**-1060], [1], 0)
@example([MAX, 2.0**1020, 2.0 ** (1023 - 3), -(2.0**1021), 5e-324, -0.0], [1, 3, 4], 7)
def test_the_units_of_any_split_add_up_to_the_units_of_the_whole(xs, raw_splits, shift):
    """exact_units counts sum(xs) * 2^shift in units of 2^-1074 exactly, so
    the units of consecutive slices add up to those of the whole array,
    across the entries at or above 2^(1023-m) folded apart too."""
    arr = np.array(xs, dtype=float)
    bounds = [0, *clip(raw_splits, len(xs)), len(xs)]
    want = sum(map(Fraction, xs), Fraction(0)) * 2 ** (1074 + shift)
    for chunk in (summation._CHUNK, 4):
        with patch.object(summation, "_CHUNK", chunk):
            whole = summation.exact_units(arr, shift)
            parts = [summation.exact_units(arr[a:b], shift) for a, b in zip(bounds, bounds[1:])]
        assert whole == sum(parts) == want


@settings(max_examples=200)
@given(terms, offsets)
@example([MAX, MAX, -MAX], [0, 2])
def test_window_sums_equal_exact_sum_of_each_slice(xs, raw_cuts):
    arr = np.array(xs, dtype=float)
    cuts = clip(raw_cuts, len(arr))
    got = both_chunkings(exact_sums, arr, cuts)
    windows = tuple(outcome(exact_sum, arr[a:b]) for a, b in zip(cuts, cuts[1:]))
    total = outcome(exact_sum, arr)
    if ValidationError in windows + (total,):
        assert got is ValidationError
    else:
        assert got == (windows, total)


@settings(max_examples=200)
@given(terms, offsets, offsets)
@example([-0.0, -0.0, 0.0, -0.0], [1, 3], [2])
@example([1e308, 1e308, -1e308, -1e308], [2], [3])
@example([1e308, 1e308, -1e308, -1e308], [0, 2], [1])
@example([MAX, 2.0**970, -MAX], [0, 2, 3], [1, 2])
def test_streamed_chunks_sum_like_the_whole_array(xs, raw_cuts, raw_splits):
    """Any split of a finite stream into chunks gives the exact window sums
    and total, each rounded once, or the refusal of one beyond the float
    range, just as exact_sums does for the whole array."""
    arr = np.array(xs, dtype=float)
    cuts, splits = clip(raw_cuts, len(xs)), [0, *clip(raw_splits, len(xs)), len(xs)]
    parts = [rounded(xs[a:b]) for a, b in zip(cuts, cuts[1:])] + [rounded(xs)]
    want = ValidationError if ValidationError in parts else (tuple(parts[:-1]), parts[-1])
    assert both_chunkings(exact_sums, arr, cuts) == want
    assert streamed(arr, cuts, splits) == want


@pytest.mark.parametrize("xs, cuts", [
    ([MAX, MAX], []),
    ([-MAX, -(2.0**970)], []),
    ([MAX, 2.0**970, -MAX], [0, 2]),
])
def test_a_sum_beyond_the_float_range_is_refused(xs, cuts):
    # MAX + 2^970 lies halfway between MAX and 2^1024 and rounds to even,
    # up; a window beyond the range is refused even when the total is not
    with pytest.raises(ValidationError, match="^series sum lies beyond the float range$"):
        exact_sums(np.array(xs), cuts)


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
