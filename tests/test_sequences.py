"""Coefficient families, their calculus, and the telescoping diagnostics."""

import math
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from foguel_lab import (
    BennettReport,
    MultiplierSpec,
    ValidationError,
    WeightSequence,
    bennett_criterion,
    bennett_sums,
    diff1,
    diff2,
    exact_sum,
    summation,
)
from foguel_lab.sequences import FAMILIES, FAMILY_HELP, family


# ---- point values ------------------------------------------------------


def test_family_point_values():
    assert family("power", 2.0).values_at(3) == 1.0 / 16.0
    assert WeightSequence.geometric(0.5).values_at(4) == 0.5**4
    assert family("harmonic").values_at(5) == pytest.approx(0.2)
    assert family("harmonic").values_at(0) == 0.0  # below the start
    assert family("constant").values_at(123) == 1.0


def test_pisier_supports():
    flat = family("pisier-flat")
    hits = [k for k in range(70) if flat.values_at(k) != 0.0]
    assert hits == [0, 1, 3, 7, 15, 31, 63]  # k = 2^j - 1
    assert all(flat.values_at(k) == 1.0 for k in hits)

    geo = family("pisier-geometric")
    assert [k for k in range(70) if geo.values_at(k) != 0.0] == hits
    # geometric profile on the sparse support, halving per level
    v = np.array([geo.values_at(k) for k in hits])
    assert np.allclose(v[1:] / v[:-1], 0.5)


def test_log_families_start_where_defined():
    e = family("log", 1.0)
    f = family("loglog", 1.0)
    assert e.start_index == 1
    assert f.start_index == 2
    assert e.values_at(0) == 0.0 and e.values_at(1) > 0.0
    assert f.values_at(1) == 0.0 and f.values_at(2) > 0.0


def _lacunary(k):
    """Whether k = 2^j - 1 for some j >= 0."""
    return bin(k + 1).count("1") == 1


#: Each family's first index and its a_k at parameter 0.5, one index at a
#: time in the math module, written apart from the vectorized table.
MATH_FAMILIES = {
    "pisier-flat": (0, lambda k: 1.0 if _lacunary(k) else 0.0),
    "pisier-geometric": (0, lambda k: 2.0 ** (1 - (k + 1).bit_length()) if _lacunary(k) else 0.0),
    "harmonic": (1, lambda k: 1.0 / k),
    "constant": (0, lambda k: 1.0),
    "power": (0, lambda k: math.pow(k + 1, -0.5)),
    "geometric": (0, lambda k: math.pow(0.5, k)),
    "log": (1, lambda k: math.log(k + 1) ** -1.5),
    "loglog": (2, lambda k: 1.0 / (math.log(k + 1) * math.log(math.log(k + 1)) ** 1.5)),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_each_family_matches_its_formula_and_is_zero_below_its_start(name):
    start, formula = MATH_FAMILIES[name]
    seq = family(name, 0.5 if FAMILIES[name][1] else None)
    assert seq.start_index == start
    assert (seq.values_at(np.arange(start)) == 0.0).all()
    ks = [k for k in [*range(301), 10**6, 10**7] if k >= start]
    for k, got in zip(ks, seq.values_at(ks)):
        assert got == pytest.approx(formula(k), rel=1e-15, abs=0.0), k


def test_custom_sequence_roundtrip():
    seq = WeightSequence.custom([3.0, 1.0, 4.0])
    assert [seq.values_at(k) for k in range(4)] == [3.0, 1.0, 4.0, 0.0]


@given(st.sampled_from(list(FAMILIES)))
def test_values_at_matches_scalar_loop(name):
    seq = family(name, 0.5 if FAMILIES[name][1] else None)
    ks = np.arange(0, 30)
    vec = seq.values_at(ks)
    assert vec.shape == ks.shape
    assert all(vec[i] == seq.values_at(int(ks[i])) for i in range(len(ks)))


def test_describe_is_stable():
    assert family("harmonic").describe() == "harmonic"
    assert WeightSequence.geometric(0.5).describe() == "geometric:0.5"
    assert WeightSequence.custom([1.0, 2.0]).describe() == "custom[2]"


# ---- derived quantities ------------------------------------------------


def test_diff_operators_small_case():
    a = [1.0, 0.5, 0.25, 0.125]
    assert np.allclose(diff1(a), [0.5, 0.25, 0.125])
    assert np.allclose(diff2(a), [0.25, 0.125])


def test_diff_rejects_short_input():
    with pytest.raises(ValidationError):
        diff1([1.0])
    with pytest.raises(ValidationError):
        diff2([1.0, 2.0])


def test_weighted_square_sum_hits_basel_constant():
    # sum (k+1)^2 |1/(k+1)^2|^2 = sum 1/(k+1)^2 -> pi^2/6
    ks = np.arange(10**6)
    val = exact_sum((ks + 1.0) ** 2 * family("power", 2.0).values_at(ks) ** 2)
    assert val == pytest.approx(math.pi**2 / 6, abs=2e-6)


# ---- telescoping sums --------------------------------------------------


def _brute_sums(seq: WeightSequence, terms: int):
    """Direct per-term loop used as an independent oracle (small T only)."""
    n0 = max(1, seq.start_index)
    sa = [abs(seq.values_at(n)) / n for n in range(n0, terms + 1)]
    sb = [abs(seq.values_at(n) - seq.values_at(n + 1)) for n in range(n0, terms + 1)]
    sc = [
        n * abs(seq.values_at(n) - 2 * seq.values_at(n + 1) + seq.values_at(n + 2))
        for n in range(n0, terms + 1)
    ]
    return math.fsum(sa), math.fsum(sb), math.fsum(sc)


@pytest.mark.parametrize(
    "seq",
    [
        family("harmonic"),
        family("log", 1.0),
        WeightSequence.geometric(0.5),
    ],
    ids=["harmonic", "log-eps1", "dyadic"],
)
def test_bennett_sums_match_direct_loop(seq):
    rep = bennett_sums(seq, 400)
    sa, sb, sc = _brute_sums(seq, 400)
    assert rep.sum_a_over_n == pytest.approx(sa, rel=1e-13)
    assert rep.sum_abs_diff1 == pytest.approx(sb, rel=1e-13)
    assert rep.sum_weighted_diff2 == pytest.approx(sc, rel=1e-13)
    a = seq.values_at
    chain = [
        n * abs(a(n) - 2 * a(n + 1) + a(n + 2))
        + abs(a(n) - a(n + 1))
        + abs(a(n + 1) - a(n + 2))
        + 2.0 * abs(a(n + 2)) / (n + 2.0)
        for n in range(rep.n_start, 401)
    ]
    assert rep.chain_bound == pytest.approx(exact_sum(chain), rel=1e-13)
    # the chain contains the weighted second differences as one of its terms
    assert rep.chain_bound >= rep.sum_weighted_diff2


def test_harmonic_first_difference_telescopes_exactly():
    # |1/n - 1/(n+1)| sums to 1 - 1/(T+1): pure telescoping
    t = 10_000
    rep = bennett_sums(family("harmonic"), t)
    assert rep.sum_abs_diff1 == pytest.approx(1.0 - 1.0 / (t + 1), abs=1e-14)
    assert rep.verdicts == (True, True, True)


def test_constant_sequence_flags_divergence():
    rep = bennett_sums(family("constant"), 10_000)
    assert rep.sum_abs_diff1 == 0.0
    assert rep.sum_weighted_diff2 == 0.0
    # sum 1/n keeps adding ~ln(10) per decade: never strictly decreasing
    assert rep.verdicts[0] is False


@pytest.mark.parametrize(
    "spec, terms",
    [
        (MultiplierSpec(family("harmonic")), 10_000),
        (MultiplierSpec(family("constant")), 10_000),  # exactly zero totals
        (MultiplierSpec(family("log", 1.0)), 10_000),
        (MultiplierSpec(family("loglog", 1.0)), 10_000),
        # their first blocks span every binade down to the subnormals
        (MultiplierSpec(WeightSequence.geometric(0.5)), 10_000),
        (MultiplierSpec(family("pisier-geometric")), 10_000),
    ],
    ids=["harmonic", "constant", "log-eps1", "loglog-eps1", "geometric-0.5",
         "pisier-geometric"],
)
def test_streamed_blocks_give_the_whole_array_reports(spec, terms):
    """Blocks of 97 terms against one block of the whole
    range: every report field is bit-identical.  The decade cuts at n = 11,
    101 and 1001 fall inside blocks."""
    def reports():
        return repr((bennett_sums(spec.sequence, terms), bennett_criterion(spec, terms)))

    assert terms < summation._CHUNK
    whole = reports()
    with patch.object(summation, "_CHUNK", 97):
        assert reports() == whole


def test_summability_memory_does_not_grow_with_the_series_length():
    """The series are streamed in blocks, so the traced peak stays flat."""
    seq = family("harmonic")

    def peak(terms):
        tracemalloc.start()
        try:
            bennett_sums(seq, terms)
            bennett_criterion(MultiplierSpec(seq), terms)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(10**5), peak(10**6)
    assert large < 8 * 2**20
    assert large < 1.2 * small


def test_bennett_sums_rejects_tiny_range():
    with pytest.raises(ValidationError):
        bennett_sums(family("harmonic"), 5)


def test_bennett_sums_refuses_terms_at_or_below_the_series_start(monkeypatch):
    # every family starts at index 2 or below, under the least terms (10),
    # so a later start is patched in to reach the rule
    monkeypatch.setitem(FAMILIES, "harmonic", (12, None, FAMILIES["harmonic"][2]))
    with pytest.raises(ValidationError, match="terms must exceed the series start 12"):
        bennett_sums(family("harmonic"), 12)


def test_decade_windows_cover_range():
    seq = family("harmonic")
    rep = bennett_sums(seq, 2_000)
    # windows are (10^(d-1), 10^d], so they start at n = 2 and the n = 1
    # term sits in front of every window
    assert rep.decades[0] == (2, 10)
    assert rep.decades[-1][1] == 2_000
    heads = (
        abs(seq.values_at(1)),
        abs(seq.values_at(1) - seq.values_at(2)),
        abs(seq.values_at(1) - 2 * seq.values_at(2) + seq.values_at(3)),
    )
    for inc, total, head in zip(
        rep.decade_increments,
        (rep.sum_a_over_n, rep.sum_abs_diff1, rep.sum_weighted_diff2),
        heads,
    ):
        assert head + exact_sum(np.array(inc)) == pytest.approx(total, rel=1e-12)


def test_report_is_frozen():
    rep = bennett_sums(family("harmonic"), 100)
    assert isinstance(rep, BennettReport)
    with pytest.raises(Exception):
        rep.terms = 1  # type: ignore[misc]


@pytest.mark.parametrize(
    "build",
    [
        lambda: family("power", np.nan),
        lambda: family("power", np.inf),
        lambda: WeightSequence.geometric(np.nan),
        lambda: family("log", np.inf),
        lambda: family("loglog", np.nan),
        lambda: WeightSequence.custom([1.0, np.nan]),
        lambda: WeightSequence.custom([np.inf]),
        lambda: MultiplierSpec(family("log", np.inf)),
    ],
    ids=["power-nan", "power-inf", "geometric-nan", "log-inf", "loglog-nan",
         "custom-nan", "custom-inf", "log-damped-inf"],
)
def test_non_finite_parameters_are_refused(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize("ratio", [0.0, 1.0, -0.5, 1.5])
def test_a_geometric_ratio_outside_the_unit_interval_is_refused(ratio):
    with pytest.raises(ValidationError, match=re.escape("geometric ratio must lie in (0, 1)")):
        WeightSequence.geometric(ratio)


#: The arguments each sequence kind takes: a family's one parameter, if it
#: has one, or the value list of ``custom``.
KIND_ARGS = {
    **{name: {"param": 0.5} if label else {} for name, (_, label, _) in FAMILIES.items()},
    "custom": {"data": (1.0,)},
}


@pytest.mark.parametrize("kind", sorted(KIND_ARGS))
def test_each_kind_refuses_a_missing_or_extra_argument(kind):
    args = KIND_ARGS[kind]
    WeightSequence(kind, **args)
    wrong = [{k: v for k, v in args.items() if k != missing} for missing in args]
    wrong += [{**args, extra: value} for extra, value in (("param", 3.0), ("data", (1.0,)))
              if extra not in args]
    for kwargs in wrong:
        with pytest.raises(ValidationError):
            WeightSequence(kind, **kwargs)


def test_family_refuses_unknown_names_and_a_wrong_parameter_count():
    # family() leaves both rules to WeightSequence, which words them alike
    for make in (family, WeightSequence):
        with pytest.raises(ValidationError, match="expected " + re.escape(FAMILY_HELP)):
            make("fibonacci")
        with pytest.raises(ValidationError, match="family 'log' takes one parameter EPS"):
            make("log")
        with pytest.raises(ValidationError, match="family 'harmonic' takes no parameter"):
            make("harmonic", 1.0)
    assert FAMILY_HELP.split(" | ") == [
        "pisier-flat", "pisier-geometric", "harmonic", "constant",
        "power:S", "geometric:R", "log:EPS", "loglog:EPS",
    ]
    with pytest.raises(ValidationError, match="unknown coefficient family"):
        family("custom")
    # harmonic is power:1 read one index back, value for value
    ks = np.arange(1, 300)
    assert (family("harmonic").values_at(ks) == family("power", 1.0).values_at(ks - 1)).all()
