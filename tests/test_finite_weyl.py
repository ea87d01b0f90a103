import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlen import finite_weyl as fw
from atomlen.errors import (BadEll, BadIndex, BadLength, BudgetExceeded,
                            InvariantViolation)


@st.composite
def types_and_levels(draw, max_n=5):
    series = draw(st.sampled_from(fw.SERIES))
    n = draw(st.integers(2, max_n))
    lo = 2 if series == "D" else 1
    ell = draw(st.integers(lo, n))
    return fw.FiniteType(series, n), ell


def test_type_validation():
    with pytest.raises(BadIndex):
        fw.FiniteType("E", 6)
    with pytest.raises(BadLength):
        fw.FiniteType("D", 1)
    assert fw.FiniteType("A", 3).dim == 4
    assert fw.FiniteType("B", 3).dim == 3


def test_group_orders():
    assert fw.FiniteType("A", 3).order() == 24
    assert fw.FiniteType("B", 3).order() == 48
    assert fw.FiniteType("C", 2).order() == 8
    assert fw.FiniteType("D", 4).order() == 192
    for t in (fw.FiniteType("A", 3), fw.FiniteType("B", 2),
              fw.FiniteType("D", 3)):
        assert len(list(fw.enumerate_group(t))) == t.order()


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def test_coroot_sum_and_weights_match_simple_roots():
    for series in fw.SERIES:
        for n in range(2 if series == "D" else 1, 11):
            t = fw.FiniteType(series, n)
            roots = fw.simple_roots(t)
            u = _fraction_height_functional(series, n)
            assert [_dot(u, alpha) for alpha in roots] == [1] * n, t
            for i in range(1, n + 1):
                omega = fw.fundamental_weight_eps(t, i)
                # <omega_i, alpha_j^vee>, alpha^vee = 2 alpha / (alpha, alpha)
                assert [2 * _dot(omega, alpha) / _dot(alpha, alpha)
                        for alpha in roots] == \
                    [int(i == j) for j in range(1, n + 1)], (t, i)
                if series == "A":
                    assert sum(omega) == 0, (t, i)


def test_height_closed_forms():
    t = fw.FiniteType("A", 5)
    for i in range(1, 6):
        assert fw.height_eps(t, fw.fundamental_weight_eps(t, i)) == \
            Fraction(i * (5 - i + 1), 2)
    tb = fw.FiniteType("B", 4)
    assert fw.height_eps(tb, fw.fundamental_weight_eps(tb, 4)) == \
        Fraction(4 * 5, 4)
    t1 = fw.FiniteType("A", 1)
    assert fw.height_eps(t1, fw.fundamental_weight_eps(t1, 1)) == \
        Fraction(1, 2)
    with pytest.raises(BadIndex):
        fw.fundamental_weight_eps(tb, 5)
    # series A: pinned to the solution ending in 0, not any vector that
    # differs from it along (1, ..., 1)
    for n in range(1, 9):
        assert _fraction_height_functional("A", n) == tuple(range(n, -1, -1))


@given(types_and_levels())
@settings(max_examples=40)
def test_height_is_linear(te):
    t, _ = te
    u = fw.fundamental_weight_eps(t, 1)
    v = fw.fundamental_weight_eps(t, t.n)
    s = tuple(a + b for a, b in zip(u, v))
    assert fw.height_eps(t, s) == fw.height_eps(t, u) + fw.height_eps(t, v)


def test_atomic_length_examples():
    t = fw.FiniteType("B", 3)
    assert fw.atomic_length_finite(t, 2, fw.identity_element(t)) == 0
    w0 = fw.w0_action(t)
    assert fw.atomic_length_finite(t, 2, w0) == fw.b_bound(t, 2)


def test_b_bound_examples():
    assert fw.b_bound(fw.FiniteType("A", 3), 3) == 10
    assert fw.b_bound(fw.FiniteType("A", 3), 1) == 3
    ta = fw.FiniteType("A", 3)
    assert fw.b_bound(ta, 1) == \
        fw.height_eps(ta, fw.fundamental_weight_eps(ta, 3)) + \
        fw.height_eps(ta, fw.fundamental_weight_eps(ta, 1))
    with pytest.raises(BadEll):
        fw.b_bound(fw.FiniteType("B", 3), 4)
    with pytest.raises(BadEll):
        fw.b_bound(fw.FiniteType("D", 4), 1)


@given(types_and_levels(max_n=4))
@settings(max_examples=25, deadline=None)
def test_values_are_bounded_nonnegative_integers(te):
    t, ell = te
    b = fw.b_bound(t, ell)
    for w in fw.enumerate_group(t):
        v = fw.atomic_length_finite(t, ell, w)
        assert 0 <= v <= b


def test_b_bound_matches_enumeration_small():
    for series, n in (("A", 3), ("B", 3), ("C", 3), ("D", 3)):
        t = fw.FiniteType(series, n)
        for ell in range(2 if series == "D" else 1, n + 1):
            mx = max(fw.atomic_length_finite(t, ell, w)
                     for w in fw.enumerate_group(t))
            assert mx == fw.b_bound(t, ell)


def test_w0_realizes_the_bound():
    for series, n in (("A", 4), ("B", 3), ("C", 4), ("D", 4), ("D", 3)):
        t = fw.FiniteType(series, n)
        w0 = fw.w0_action(t)
        for ell in range(2 if series == "D" else 1, n + 1):
            assert fw.atomic_length_finite(t, ell, w0) == fw.b_bound(t, ell)


def test_w0_shapes():
    assert fw.w0_action(fw.FiniteType("B", 3)).signs == (-1, -1, -1)
    assert fw.w0_action(fw.FiniteType("A", 3)).perm == (4, 3, 2, 1)
    assert fw.w0_action(fw.FiniteType("D", 4)).signs == (-1,) * 4
    assert fw.w0_action(fw.FiniteType("D", 3)).signs == (-1, -1, 1)


def test_saturation_examples():
    assert fw.saturation_check(fw.FiniteType("A", 3), 2).is_interval
    assert not fw.saturation_check(fw.FiniteType("B", 2), 2).is_interval
    assert fw.saturation_check(fw.FiniteType("D", 4), 2).is_interval


def test_rank_two_and_odd_small_rank_exceptions():
    # the printed characterization ("n = 2 and level in {1, 3}") fails in
    # series C: the level-1 orbit has 2^n points, fewer than the b+1 = n^2+1
    # interval values, and 2 is never a sum of distinct odd numbers
    res = fw.saturation_check(fw.FiniteType("C", 2), 1)
    assert not res.is_interval and 2 in res.missing
    res = fw.saturation_check(fw.FiniteType("C", 3), 1)
    assert not res.is_interval and res.missing == (2, 7)
    assert fw.saturation_check(fw.FiniteType("B", 2), 1).is_interval
    assert fw.saturation_check(fw.FiniteType("A", 2), 1).is_interval
    assert not fw.saturation_check(fw.FiniteType("A", 2), 2).is_interval
    # rank-3 level-2 failures in series C and D
    assert fw.saturation_check(fw.FiniteType("C", 3), 2).missing == (5, 12)
    assert fw.saturation_check(fw.FiniteType("D", 3), 2).missing == (3,)


@given(types_and_levels(max_n=4))
@settings(max_examples=30, deadline=None)
def test_saturation_matches_predicted(te):
    t, ell = te
    res = fw.saturation_check(t, ell)
    assert res.is_interval == fw.saturation_predicted(t, ell)


def levels(series, n):
    return range(2 if series == "D" else 1, n + 1)


@pytest.mark.parametrize("series,n", [(s, n) for s in fw.SERIES
                                      for n in range(2 if s == "D" else 1, 6)])
def test_saturation_image_matches_enumeration(series, n):
    t = fw.FiniteType(series, n)
    group = list(fw.enumerate_group(t))
    for ell in levels(series, n):
        oracle = {fw.atomic_length_finite(t, ell, w) for w in group}
        assert fw.saturation_check(t, ell).image == tuple(sorted(oracle))


def test_saturation_predicted_matches_the_image_through_rank_8():
    for series in fw.SERIES:
        for n in range(2 if series == "D" else 1, 9):
            t = fw.FiniteType(series, n)
            for ell in levels(series, n):
                res = fw.saturation_check(t, ell)
                assert res.is_interval == fw.saturation_predicted(t, ell), \
                    (series, n, ell, res.missing)
                assert res.image[-1] == fw.b_bound(t, ell)


# The Fraction definitions of the weights, the height functional and the
# atomic length, kept here only as the oracle of finite_weyl's integers.

def _fraction_weight(t, i):
    series, n = t
    if series == "A":
        return tuple(Fraction(int(j < i)) - Fraction(i, n + 1)
                     for j in range(n + 1))
    if i < {"B": n, "C": n + 1, "D": n - 1}[series]:
        return tuple(Fraction(int(j < i)) for j in range(n))
    if series == "D" and i == n - 1:
        return (Fraction(1, 2),) * (n - 1) + (Fraction(-1, 2),)
    return (Fraction(1, 2),) * n


def _fraction_height_functional(series, n):
    """Vector u with <u, v> = height of v for v in the root span: the sum of
    the fundamental coweights in epsilon coordinates, so that u . alpha_j = 1
    for every simple root; series A ends in u_d = 0."""
    d = n + 1 if series == "A" else n
    shift = {"A": 0, "B": 1, "C": Fraction(1, 2), "D": 0}[series]
    return tuple(Fraction(d - i) + shift for i in range(1, d + 1))


def _fraction_staircase(t, ell):
    weights = [_fraction_weight(t, i) for i in range(t.n - ell + 1, t.n + 1)]
    return tuple(sum(column, Fraction(0)) for column in zip(*weights))


def _fraction_length(t, ell, w):
    rho = _fraction_staircase(t, ell)
    moved = [Fraction(0)] * t.dim
    for p, s, x in zip(w.perm, w.signs, rho):
        moved[p - 1] = s * x
    h = _dot(_fraction_height_functional(*t),
             [a - b for a, b in zip(rho, moved)])
    assert h.denominator == 1 and h >= 0, (t, ell, w)
    return int(h)


def _types(max_n):
    return [fw.FiniteType(s, n) for s in fw.SERIES
            for n in range(2 if s == "D" else 1, max_n + 1)]


def _over(numerators, scale):
    return tuple(Fraction(x, scale) for x in numerators)


def test_integer_weights_and_heights_match_the_fractions():
    for t in _types(12):
        u, u_scale = fw._heights(*t)
        assert u_scale == (2 if t.series == "C" else 1)
        assert _over(u, u_scale) == _fraction_height_functional(*t), t
        for i in range(1, t.n + 1):
            omega, scale = fw._weight(*t, i)
            assert scale == {"A": t.n + 1, "B": 2, "C": 1, "D": 2}[t.series]
            assert _over(omega, scale) == _fraction_weight(t, i) == \
                fw.fundamental_weight_eps(t, i), (t, i)
        for ell in levels(*t):
            assert _over(*fw._staircase(t, ell)) == \
                _fraction_staircase(t, ell) == \
                fw.truncated_staircase_eps(t, ell), (t, ell)


@pytest.mark.parametrize("series,n", [(*t,) for t in _types(4)] + [("A", 5)])
def test_atomic_length_matches_the_fraction_oracle(series, n):
    t = fw.FiniteType(series, n)
    group = list(fw.enumerate_group(t))
    for ell in levels(series, n):
        assert [fw.atomic_length_finite(t, ell, w) for w in group] == \
            [_fraction_length(t, ell, w) for w in group], ell


def test_saturation_and_lengths_need_no_fractions(monkeypatch):
    checks = [(t, ell) for t in _types(6) for ell in levels(*t)]
    elements = [(t, ell, w) for t in _types(3) for ell in levels(*t)
                for w in fw.enumerate_group(t)]
    images = [fw.saturation_check(*c) for c in checks]
    lengths = [fw.atomic_length_finite(*e) for e in elements]

    def no_fraction(*args):
        raise AssertionError("a Fraction on the integer path")

    monkeypatch.setattr(fw, "Fraction", no_fraction)
    fw._staircase.cache_clear()
    fw._heights.cache_clear()
    assert [fw.saturation_check(*c) for c in checks] == images
    assert [fw.atomic_length_finite(*e) for e in elements] == lengths


@pytest.mark.parametrize("series,n,ell,b,signs", [("A", 3, 3, 10, 1),
                                                  ("B", 3, 2, 16, 2),
                                                  ("B", 4, 4, 50, 2)])
def test_saturation_budget_counts_dp_work(monkeypatch, series, n, ell, b,
                                          signs):
    # one bitset shift per (set of used targets, free target, sign), over
    # the 64-bit words of a bitset that holds every scaled partial sum: the
    # largest drop below the start and the largest rise above it; one word
    # each for A3 and B3, three for B4, whose 64 shifts pass the one-word
    # floor charged before the staircase is built
    work = {("A", 3): 32, ("B", 3): 24, ("B", 4): 192}[series, n]
    t = fw.FiniteType(series, n)
    d = t.dim
    shifts = signs * sum(1 for mask in range(2 ** d) for j in range(d)
                         if not mask >> j & 1)
    u = _fraction_height_functional(series, n)
    rows = [[r * x for x in u] for r in fw.truncated_staircase_eps(t, ell)]
    scale = math.lcm(*(q.denominator for row in rows for q in row))
    width = 2 * sum(max(map(abs, row)) for row in rows) * scale + 1
    assert shifts * math.ceil(width / 64) == work
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded, match="saturation DP"):
        fw.saturation_check(t, ell)
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work))
    assert fw.saturation_check(t, ell).bound == b


def test_saturation_exactness_invariants(monkeypatch):
    t = fw.FiniteType("B", 3)
    b = fw.b_bound(t, 2)
    with monkeypatch.context() as mp:
        mp.setattr(fw, "b_bound", lambda t, ell: b - 1)
        with pytest.raises(InvariantViolation, match=r"expected \(0, 15\)"):
            fw.saturation_check(t, 2)
    with monkeypatch.context() as mp:
        mp.setattr(fw, "w0_action", fw.identity_element)
        with pytest.raises(InvariantViolation, match="longest element"):
            fw.saturation_check(t, 2)
    # a staircase 1/3 off the weight lattice in its first coordinate: the
    # DP's values and the direct evaluation each leave a remainder
    rho, scale = fw._staircase(t, 2)
    with monkeypatch.context() as mp:
        mp.setattr(fw, "_staircase", lambda t, ell: (
            (3 * rho[0] + scale,) + tuple(3 * x for x in rho[1:]), 3 * scale))
        with pytest.raises(InvariantViolation, match=r"atomic length \d+/3 "
                           r"of B3, level 2 is not a nonnegative integer"):
            fw.saturation_check(t, 2)
        with pytest.raises(InvariantViolation, match=r"height -?\d+/3 of "
                           r"\(Fraction.* is not a nonnegative integer"):
            fw.atomic_length_finite(t, 2, fw.SignedPermutation(
                t, (3, 2, 1), (1, 1, 1)))
    td = fw.FiniteType("D", 4)
    u, u_scale = fw._heights("D", 4)
    with monkeypatch.context() as mp:
        mp.setattr(fw, "_heights",
                   lambda series, n: (u[:-1] + (1,), u_scale))
        with pytest.raises(InvariantViolation, match=r"height functional "
                           r"\(3, 2, 1, 1\) of D4 needs sign parity"):
            fw.saturation_check(td, 2)


def test_saturation_check_builds_the_staircase_once():
    # one weight serves the DP and both end-point re-evaluations
    fw._staircase.cache_clear()
    assert fw.saturation_check(fw.FiniteType("B", 4), 4).is_interval
    assert fw._staircase.cache_info().misses == 1


def no_staircase(*args):
    raise AssertionError("the staircase was built before the shift charge")


@pytest.mark.parametrize("series,n,ell", [("A", 5, 3), ("B", 4, 2),
                                          ("D", 5, 4)])
def test_saturation_shifts_are_charged_before_the_staircase(
        monkeypatch, series, n, ell):
    # d * 2^(d-1) (used targets, free target) pairs per sign
    t = fw.FiniteType(series, n)
    shifts = (t.dim << t.dim - 1) * (1 if series == "A" else 2)
    monkeypatch.setattr(fw, "_staircase", no_staircase)
    monkeypatch.setenv("ATOMLEN_BUDGET", str(shifts - 1))
    with pytest.raises(BudgetExceeded, match=f"saturation DP of {series}{n} "
                       f"needs ~{shifts} steps"):
        fw.saturation_check(t, ell)


def test_saturation_result_serialization():
    res = fw.saturation_check(fw.FiniteType("B", 2), 2)
    doc = res.to_json_dict()
    assert doc == {"type": "B", "n": 2, "ell": 2, "b": 7, "image_min": 0,
                   "image_max": 7, "is_interval": False, "missing": [2, 5]}


def test_enumeration_budget(monkeypatch):
    monkeypatch.setenv("ATOMLEN_BUDGET", "100")
    with pytest.raises(BudgetExceeded):
        list(fw.enumerate_group(fw.FiniteType("B", 4)))


def test_staircase_is_charged_before_it_is_summed(monkeypatch):
    # ell rows of dim numerators: 4 rows of 6 for A5 at level 4
    t = fw.FiniteType("A", 5)
    fw._staircase.cache_clear()
    monkeypatch.setenv("ATOMLEN_BUDGET", "23")
    with pytest.raises(BudgetExceeded,
                       match="staircase weight of A5 needs ~24 steps"):
        fw.truncated_staircase_eps(t, 4)
    monkeypatch.setenv("ATOMLEN_BUDGET", "24")
    assert fw.truncated_staircase_eps(t, 4) == _fraction_staircase(t, 4)


def test_staircase_charge_never_moves_a_saturation_refusal(monkeypatch):
    # saturation_check charges its d * 2^(d-1) * signs shifts before the
    # staircase; dim * ell is never above that, so what the shift charge
    # admits the staircase charge admits too
    fw._staircase.cache_clear()
    for t in _types(12):
        signs = 1 if t.series == "A" else 2
        monkeypatch.setenv("ATOMLEN_BUDGET",
                           str((t.dim << t.dim - 1) * signs))
        for ell in levels(*t):
            fw._staircase(t, ell)
