"""Exact summation: the superaccumulator against math.fsum and exact fractions.

Every property runs twice: at the module's own chunking and at 4-term
chunks flushed every 16 terms, so that short examples cross the chunk
and flush boundaries too.
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
    with patch.multiple(summation, _CHUNK=4, _FLUSH=16):
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
