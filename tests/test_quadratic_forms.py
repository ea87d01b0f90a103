import itertools
import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlen import quadratic_forms as qf
from atomlen.affine_classical import LATTICE_TAGS, AffineLatticeSpec
from atomlen.cores_abaci import (WeightSpec, affine_action_on_charges, eval_Ps,
                                 granville_ono_scan, refined_size_form,
                                 scan_refined_GO, scan_truncated_weight)
from atomlen import budget
from atomlen.errors import (BadLength, BudgetExceeded, DomainViolation,
                            InvariantViolation)

from test_affine_permutations import random_window_strategy
from test_sweeps import closure_bound


def test_eval_P_examples():
    assert qf.eval_P((1, 2, 3, 4)) == 0
    assert qf.eval_P((3, 0)) == 4
    assert qf.eval_P((2, 1, 3)) == 1


def test_eval_Q_and_q():
    assert qf.eval_Q((0, 0, 0)) == 0
    assert qf.eval_q(()) == 0
    assert qf.eval_q((5,)) == 25
    assert qf.eval_q((1, 1)) == 3
    assert qf.eval_Q((2, -2)) == 4
    assert qf.eval_Q((1, 0)) == Fraction(1, 2)


def test_maps_examples():
    assert qf.map_C((1, 2, 3)) == (0, 0, 0)
    assert qf.map_C((3, 0)) == (2, -2)
    assert qf.map_pr((2, -2)) == (2,)
    assert qf.map_C_inv((2, -2)) == (3, 0)
    assert qf.map_pr_inv((2,)) == (2, -2)
    with pytest.raises(DomainViolation):
        qf.map_C((2, 2))


@given(random_window_strategy())
def test_diagram_commutativity(nw):
    _, win = nw
    p = qf.eval_P(win)
    x = qf.map_C(win)
    assert qf.eval_Q(x) == p
    assert qf.eval_q(qf.map_pr(x)) == p
    # round trips
    assert qf.map_C_inv(x) == win
    assert qf.map_pr_inv(qf.map_pr(x)) == x


def test_member_examples():
    assert qf.member(qf.domain_Delta(3), (0, 0, 0))
    assert qf.member(qf.domain_Delta(2), (1, -1))
    assert not qf.member(qf.domain_D(2), (2, 2))
    assert qf.member(qf.domain_D(2), (3, 0))
    assert qf.member(qf.domain_Q_full(3), (1, -1, 0))
    assert not qf.member(qf.domain_Q_full(3), (1, 1, 0))
    assert qf.member(qf.domain_Z_full(3), (9, -4, 7))


# Literal membership, written out from the paper's conditions for each domain
# constructor.  member and the search engine read one shared domain record;
# these predicates do not, so they check both.

def member_X_literal(v, n):
    """Projected conditions: distinct (x_i + i) mod n among the n-1 given
    coordinates, and T_i = x_1 + ... + x_{n-1} + x_i never n - i mod n."""
    if len(v) != n - 1:
        return False
    for i in range(1, n):
        for j in range(i + 1, n):
            if (v[i - 1] + i) % n == (v[j - 1] + j) % n:
                return False
    total = sum(v)
    for i in range(1, n):
        if (total + v[i - 1]) % n == (n - i) % n:
            return False
    return True


def _literal_D(v, n):
    """Window vectors: sum n(n+1)/2, pairwise distinct residues mod n."""
    return (len(v) == n and sum(v) == n * (n + 1) // 2
            and len({x % n for x in v}) == n)


def _literal_Delta(v, n):
    """Displacement vectors: sum 0, pairwise distinct (x_i + i) mod n."""
    return (len(v) == n and sum(v) == 0
            and len({(x + i) % n for i, x in enumerate(v, 1)}) == n)


def _literal_Q_full(v, n):
    return len(v) == n and sum(v) == 0


def _literal_Z_full(v, dim):
    return len(v) == dim


def _literal_DeltaC(v, n):
    """Type C: each x_i + i is nonzero mod 2n+1, and no two agree up to
    sign mod 2n+1."""
    m = 2 * n + 1
    if len(v) != n:
        return False
    r = [(x + i) % m for i, x in enumerate(v, 1)]
    return all(a % m for a in r) and all(
        (a - b) % m and (a + b) % m for a, b in itertools.combinations(r, 2))


def _literal_Ds(v, n, ell, charges):
    """Charge orbit: sum of the charges, and residues mod ell forming the
    same multiset as the conjugate charge partition padded to n parts."""
    base = [sum(1 for p in charges if p >= j) for j in range(1, n + 1)]
    return (len(v) == n and sum(v) == sum(charges)
            and sorted(x % ell for x in v) == sorted(b % ell for b in base))


def _literal_Os(v, n):
    """Refined orbit: sum n(n-1)/2, pairwise distinct residues mod n."""
    return (len(v) == n and sum(v) == n * (n - 1) // 2
            and len({x % n for x in v}) == n)


def _literal_M(v, tag, n):
    """Translation lattice rows: 2Z^n for C1, the even-sum lattice for B1,
    D1 and A2odd, all of Z^n for A2even and D2."""
    if len(v) != n:
        return False
    if tag == "C1":
        return all(x % 2 == 0 for x in v)
    if tag in ("B1", "D1", "A2odd"):
        return sum(v) % 2 == 0
    return True


def lattice_domain(tag, n):
    """The translation lattice of a lattice table row, as the engine reads
    it."""
    return AffineLatticeSpec(tag, n).domain()


def domain_Ds(n, ell, charges):
    """The charge orbit of a weight spec, as the engine reads it; named as
    the domain constructors of quadratic_forms, which keeps the test ids."""
    return WeightSpec(n, ell, charges).domain()


LITERAL = {
    qf.domain_D: _literal_D,
    qf.domain_Delta: _literal_Delta,
    qf.domain_X: member_X_literal,
    qf.domain_Q_full: _literal_Q_full,
    qf.domain_Z_full: _literal_Z_full,
    qf.domain_DeltaC: _literal_DeltaC,
    domain_Ds: _literal_Ds,
    qf.domain_Os: _literal_Os,
    lattice_domain: _literal_M,
}


def literal(ctor, *args):
    """The literal membership test of the domain ctor(*args)."""
    return lambda v: LITERAL[ctor](tuple(v), *args)


def with_oracle(ctor, *args):
    return ctor(*args), literal(ctor, *args)


@st.composite
def domains_with_oracle(draw):
    ctor = draw(st.sampled_from(list(LITERAL)))
    n = draw(st.integers(1, 5))
    if ctor is domain_Ds:
        ell = draw(st.integers(1, n))
        charges = sorted(draw(st.integers(0, n - 1)) for _ in range(ell))
        return with_oracle(ctor, n, ell, tuple(charges))
    if ctor is lattice_domain:
        return with_oracle(ctor, draw(st.sampled_from(LATTICE_TAGS)), n)
    return with_oracle(ctor, n)


@given(st.integers(3, 7), st.lists(st.integers(-9, 9), min_size=2, max_size=6))
def test_member_X_matches_literal_conditions(n, xs):
    xs = tuple(xs[: n - 1])
    if len(xs) != n - 1:
        return
    assert qf.member(qf.domain_X(n), xs) == member_X_literal(xs, n)


@given(domains_with_oracle(), st.data())
@settings(max_examples=400, deadline=None)
def test_member_matches_literal_oracle(dom_lit, data):
    dom, lit = dom_lit
    dim = dom.dim()
    size = data.draw(st.integers(max(dim - 1, 0), dim + 1))
    v = data.draw(st.lists(st.integers(-9, 9), min_size=size, max_size=size))
    if v and not dom.projected and data.draw(st.booleans()):
        # land on the sum condition, where the congruences decide
        v[-1] += (dom.sum_target or 0) - sum(v)
    assert qf.member(dom, v) == lit(v)


@pytest.mark.parametrize("ctor,args", [
    (qf.domain_D, (3,)), (qf.domain_Delta, (3,)), (qf.domain_X, (4,)),
    (qf.domain_Q_full, (3,)), (qf.domain_Z_full, (2,)),
    (qf.domain_DeltaC, (3,)), (domain_Ds, (3, 2, (0, 1))),
    (domain_Ds, (3, 3, (0, 2, 2))), (qf.domain_Os, (3,)),
] + [(lattice_domain, (tag, 3)) for tag in LATTICE_TAGS],
    ids=lambda v: getattr(v, "__name__", None))
def test_member_matches_literal_on_a_box(ctor, args):
    # exhaustive over a small box, wrong lengths included; the box holds
    # members and non-members of every domain
    dom, lit = with_oracle(ctor, *args)
    seen = set()
    for size in (dom.dim() - 1, dom.dim(), dom.dim() + 1):
        for v in itertools.product(range(-3, 5), repeat=size):
            assert qf.member(dom, v) == lit(v), v
            seen.add(lit(v))
    assert seen == {False, True}


def _counting_member(domain, v):
    """The counting membership test the column-wise check replaced: lift a
    projected vector, check length, sum and parity, then count each
    coordinate's class against its capacity."""
    v = tuple(v)
    if len(v) != domain.dim():
        return False
    S, mod, caps = domain.sum_target, domain.mod, domain.caps
    if domain.projected:
        v += (S - sum(v),)
    if S is not None and sum(v) != S or domain.parity_even and sum(v) % 2:
        return False
    used = [0] * len(caps)
    for x, shift in zip(v, domain.shifts or (0,) * domain.nvars):
        r = (x + shift) % mod
        c = min(r, mod - r) if domain.signed else r
        used[c] += 1
        if used[c] > caps[c]:
            return False
    return True


@st.composite
def near_members(draw, dom):
    """A vector at or next to the domain: its classes in a random order,
    each at a random lift (and sign, when signed), the sum moved onto the
    target by a multiple of mod where one does it and the parity evened;
    then, at random, one coordinate nudged by 1.  A projected domain's
    vector drops its last coordinate."""
    classes = [c for c, cap in enumerate(dom.caps) for _ in range(cap)]
    mod = max(dom.mod, 1)
    shifts = dom.shifts or (0,) * dom.nvars
    v = [(mod - c if dom.signed and draw(st.booleans()) else c) - shift
         + mod * draw(st.integers(-2, 2))
         for c, shift in zip(draw(st.permutations(classes)), shifts)]
    gap = (dom.sum_target or 0) - sum(v)
    if v and dom.sum_target is not None and gap % mod == 0:
        v[0] += gap
    if v and dom.parity_even and sum(v) % 2:
        v[0] += mod
    if v and draw(st.booleans()):
        v[draw(st.integers(0, len(v) - 1))] += draw(st.sampled_from((-1, 1)))
    return tuple(v[:dom.dim()])


def _assert_column_check_agrees(dom, vecs):
    """member, the column-wise check on [v] and the counting oracle agree on
    each vector; the check on a whole list is the AND of its vectors'."""
    expect = [_counting_member(dom, v) for v in vecs]
    assert [qf.member(dom, v) for v in vecs] == expect
    assert [qf._members(dom, [tuple(v)]) for v in vecs] == expect
    assert qf._members(dom, [tuple(v) for v in vecs]) == all(expect)
    members = [tuple(v) for v, e in zip(vecs, expect) if e]
    assert qf._members(dom, members)
    return expect


@given(domains_with_oracle(), st.data())
@settings(max_examples=300, deadline=None)
def test_column_check_matches_the_counting_oracle(dom_lit, data):
    # every domain constructor: vectors at and next to the domain, random
    # ones and wrong lengths
    dom, _ = dom_lit
    dim = dom.dim()
    vecs = data.draw(st.lists(near_members(dom), max_size=8))
    vecs += data.draw(st.lists(st.lists(
        st.integers(-9, 9), min_size=max(dim - 1, 0), max_size=dim + 1),
        max_size=4))
    _assert_column_check_agrees(dom, data.draw(st.permutations(vecs)))


@pytest.mark.parametrize("dom", [
    qf.domain_D(0), qf.domain_Q_full(0), qf.domain_Z_full(0),
    qf.domain_DeltaC(0), qf.domain_X(4), qf.domain_Z_full(2),
    qf.domain_DeltaC(3), qf.domain_D(3), lattice_domain("C1", 3),
    lattice_domain("B1", 3), WeightSpec(3, 2, (0, 1)).domain(),
], ids=lambda dom: dom.label)
def test_column_check_matches_the_counting_oracle_on_a_box(dom):
    # the empty domains, projected, signed and parity cases, exhaustively
    # over a small box with wrong lengths; each non-member spoils a list of
    # members
    vecs = [v for size in (dom.dim() - 1, dom.dim(), dom.dim() + 1)
            for v in itertools.product(range(-3, 4), repeat=max(size, 0))]
    expect = _assert_column_check_agrees(dom, vecs)
    assert set(expect) == {False, True}
    members = [v for v, e in zip(vecs, expect) if e]
    for v in [v for v, e in zip(vecs, expect) if not e][::37]:
        assert not qf._members(dom, members[:5] + [v] + members[5:])


@pytest.mark.parametrize("dom", [
    qf.ConstrainedDomain("x", (1, 1), mod=3),
    qf.ConstrainedDomain("y", (0, 1, 1), mod=6, signed=True),
], ids=["plain", "signed"])
def test_a_domain_whose_caps_miss_a_class_is_refused(dom, monkeypatch):
    # classes 0..mod-1, or 0..mod//2 when signed, each need a capacity
    classes = dom.mod // 2 + 1 if dom.signed else dom.mod
    message = (f"^{dom.label} has {len(dom.caps)} capacities for {classes} "
               f"classes mod {dom.mod}$")
    for v in ((2, 0), (3,)):
        with pytest.raises(DomainViolation, match=message):
            qf.member(dom, v)

    def table(*args):
        raise AssertionError("a table was built")
    monkeypatch.setattr(qf, "_witnesses_at_radius", table)
    with pytest.raises(DomainViolation, match=message):
        qf.represent_all(qf.form_Q(2), dom, [0, 1, 2], 3)
    with pytest.raises(DomainViolation, match=message):
        qf.universality_scan(qf.form_Q(2), dom, 10, 3)


def test_constant_sets():
    assert len(qf.S290) == 29
    assert {1, 2, 3, 5, 290, 203, 145, 110} <= qf.S290
    assert 15 in qf.S290


def test_represent_trivial_and_golden():
    assert qf.represent(qf.form_Q(5), qf.domain_Delta(5), 0, 5) == (0,) * 5
    # deterministic witness under the fixed search order
    w = qf.represent(qf.form_Q(5), qf.domain_Delta(5), 7, 10)
    assert w is not None and qf.eval_Q(w) == 7
    assert w == qf.represent(qf.form_Q(5), qf.domain_Delta(5), 7, 10)
    assert qf.represent(qf.form_q(2), qf.domain_Z_full(2), 2, 12) is None


def test_represent_s290_with_four_variables():
    form, dom = qf.form_q(4), qf.domain_Z_full(4)
    for k in sorted(qf.S290):
        w = qf.represent(form, dom, k, 8)
        assert w is not None and qf.eval_q(w) == k
        assert all(abs(v) <= 8 for v in w)


def test_represent_on_projected_domain():
    w = qf.represent(qf.form_q(4), qf.domain_X(5), 13, 10)
    assert w is not None
    assert qf.member(qf.domain_X(5), w)
    assert qf.eval_q(w) == 13


def test_attained_classes_paper_values():
    assert qf.attained_classes(2, 3) == frozenset({0, 1})
    missing16 = set(range(16)) - qf.attained_classes(3, 16)
    assert missing16 == {14}
    missing32 = set(range(32)) - qf.attained_classes(3, 32)
    assert missing32 == {14, 30}
    missing128 = set(range(128)) - qf.attained_classes(3, 128)
    assert missing128 == {14, 30, 46, 56, 62, 78, 94, 110, 120, 126}
    assert qf.attained_classes(3, 1) == frozenset({0})
    for m in (0, -4):
        with pytest.raises(DomainViolation, match="modulus must be >= 1"):
            qf.attained_classes(3, m)


def _box_values(form, dom, radius):
    """Values of the form on the domain vectors whose free coordinates lie
    in the radius box, the last coordinate forced by the domain's sum."""
    values = set()
    for v in itertools.product(range(-radius, radius + 1),
                               repeat=form.nvars - 1):
        full = v + (dom.sum_target - sum(v),)
        if qf.member(dom, v if dom.projected else full):
            values.add(form.evaluate(full))
    return values


def test_attained_classes_via_window_forms():
    # P on D(4) and Q on Delta(4) take values of q(3), so their classes mod
    # 16 are among q(3)'s; a box holding a period of each free coordinate
    # attains every one of them
    for form, dom in ((qf.form_Q(4), qf.domain_Delta(4)),
                      (qf.form_P(4), qf.domain_D(4))):
        classes = {v % 16 for v in _box_values(form, dom, 8)}
        assert classes == qf.attained_classes(3, 16), form
    # no other form is certified, at any modulus
    for form, dom in ((qf.form_euclidean(3), qf.domain_DeltaC(3)),
                      (AffineLatticeSpec("D2", 3).form(),
                       lattice_domain("D2", 3)),
                      (qf.form_core_size(3), qf.domain_Q_full(3))):
        rep = qf.universality_scan(form, dom, 60, 6)
        assert rep.misses and all(e.status == "not-found"
                                  for e in rep.misses), form


@pytest.mark.parametrize("m,d", [(6, 3), (16, 4), (32, 16), (128, 32)])
def test_attained_classes_monotone_under_divisibility(m, d):
    classes_m = qf.attained_classes(3, m)
    classes_d = qf.attained_classes(3, d)
    assert {c % d for c in classes_m} <= classes_d


def enumerated_classes(nvars, m):
    """Classes of q mod m, literally: q at every vector of [0, m)^nvars."""
    return frozenset(qf.eval_q(x) % m
                     for x in itertools.product(range(m), repeat=nvars))


@pytest.mark.parametrize("nvars", range(4))
def test_attained_classes_match_enumeration(nvars):
    moduli = sorted({*range(1, 41), *qf.DEFAULT_OBSTRUCTION_MODULI})
    for m in moduli:
        if m ** nvars > 3 * 10 ** 5:
            continue
        assert qf.attained_classes(nvars, m) == enumerated_classes(nvars,
                                                                    m), m


def test_q_misses_no_class_from_four_variables_on():
    # the ground for the certificates' early return at arity >= 4
    for arity in range(4, 7):
        for m in qf.DEFAULT_OBSTRUCTION_MODULI:
            assert qf.attained_classes(arity, m) == frozenset(range(m)), (
                arity, m)


def full_dp_attained_q(arity, m):
    """The residue DP before the q(-x) = q(x) halving, kept as the oracle:
    per prefix sum s mod m, the classes of q mod m as an m-bit int, pushed
    to the sum s + v for every v; the last coordinate rotates by each
    distinct increment into state 0."""
    full = (1 << m) - 1
    layer = {0: 1}
    for i in range(arity):
        nxt = {}
        for s, bits in layer.items():
            if i == arity - 1:
                steps = ((0, d) for d in {v * (v + s) % m for v in range(m)})
            else:
                steps = (((s + v) % m, v * (v + s) % m) for v in range(m))
            for t, d in steps:
                nxt[t] = nxt.get(t, 0) | ((bits << d | bits >> (m - d))
                                          & full)
        layer = nxt
    return frozenset(c for c in range(m) if layer[0] >> c & 1)


@pytest.mark.parametrize("arity", range(1, 6))
def test_halved_dp_matches_the_full_dp(arity):
    for m in [*range(1, 131), *([256] if arity <= 3 else [])]:
        assert qf.attained_classes(arity, m) == full_dp_attained_q(arity,
                                                                   m), m


# q(3) mod 16: the two mirrored layers compute the 9 sums t <= 8 from 1 and
# then 16 prefix sums; the last coordinate visits the 9 sums s <= 8, with
# 16 values each
Q3_MOD16_WORK = 9 + 16 * 9 + 9 * 16


def test_residue_table_budget_counts_dp_work(monkeypatch):
    work = Q3_MOD16_WORK
    qf.attained_classes.cache_clear()
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded, match="residue table"):
        qf.attained_classes(3, 16)
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work))
    assert set(range(16)) - qf.attained_classes(3, 16) == {14}


def test_obstruction_tries_every_modulus(monkeypatch):
    # 14 and 30 are obstructed mod 16 on q(3).  A modulus is skipped only
    # when a witness attains the target's class; a lone target has no
    # witness, so a budget just under the mod-16 residue table raises
    # instead of skipping that modulus.  Radius 4 keeps the representation
    # tables under that budget (at radius 8 the table needs 297 steps too)
    form, dom = qf.form_q(3), qf.domain_Z_full(3)
    rep = qf.universality_scan(form, dom, 40, 10)
    assert [(e.target, e.status, e.modulus, e.residue)
            for e in rep.misses] == [(14, "obstructed", 16, 14),
                                     (30, "obstructed", 16, 14)]
    work = Q3_MOD16_WORK
    qf.attained_classes.cache_clear()
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded,
                       match=r"residue table of q\(3\) mod 16"):
        qf.universality_scan(form, dom, 14, 4, min_k=14)
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work))
    rep = qf.universality_scan(form, dom, 14, 4, min_k=14)
    assert [(e.target, e.status, e.modulus) for e in rep.entries] == [
        (14, "obstructed", 16)]


def _ladder(form, k):
    """(modulus, residue) of the first modulus whose residue table misses
    k's class, trying every modulus without looking at witnesses."""
    return next(((m, k % m) for m in qf.DEFAULT_OBSTRUCTION_MODULI
                 if k % m not in qf.attained_classes(form.nvars - 1, m)),
                None)


def test_witness_pruning_matches_the_full_ladder():
    # a modulus whose class a witness attains cannot certify, so skipping
    # its table leaves the first certifying modulus unchanged
    rng = random.Random(15)
    pairs = [(qf.form_q(d), qf.domain_Z_full(d)) for d in (1, 2, 3)]
    pairs += [(qf.form_P(n), qf.domain_D(n)) for n in (2, 3, 4)]
    pairs += [(qf.form_Q(n), qf.domain_Delta(n)) for n in (2, 3, 4)]
    mixed = 0
    for form, dom in pairs * 4:
        min_k = rng.choice([0, 0, rng.randint(1, 120)])
        max_k = min_k + rng.randint(0, 80)
        rep = qf.universality_scan(form, dom, max_k, rng.randint(2, 12),
                                   min_k=min_k)
        for e in rep.misses:
            m, r = _ladder(form, e.target) or (None, None)
            assert (e.status, e.modulus, e.residue) == (
                "obstructed" if m else "not-found", m, r), (dom, e)
        statuses = {e.status for e in rep.entries}
        mixed += {"witness", "obstructed"} <= statuses
    assert mixed >= 10


def test_witnesses_spare_the_residue_tables_they_answer():
    # on Q over Delta(4), k <= 600, witnesses attain the class of every
    # miss mod 3, 4, 8 and 32, and mod 128 that of the misses 224 and 480,
    # which no modulus certifies: only the tables mod 16 and 64 are built
    qf.attained_classes.cache_clear()
    qf.universality_scan(qf.form_Q(4), qf.domain_Delta(4), 600, 40)
    assert qf.attained_classes.cache_info().currsize == 2
    misses = qf.attained_classes.cache_info().misses
    qf.attained_classes(3, 16), qf.attained_classes(3, 64)
    assert qf.attained_classes.cache_info().misses == misses


def test_an_all_witness_scan_reads_no_residue_table():
    # Q on Delta(5) stops at the arity; q(3) on 15..29 has no miss to list
    for form, dom, max_k, radius, min_k in (
            (qf.form_Q(5), qf.domain_Delta(5), 200, 30, 0),
            (qf.form_q(3), qf.domain_Z_full(3), 29, 12, 15)):
        qf.attained_classes.cache_clear()
        rep = qf.universality_scan(form, dom, max_k, radius, min_k=min_k)
        assert rep.all_witnessed
        info = qf.attained_classes.cache_info()
        assert info.hits + info.misses == 0, form


def test_certificates_need_the_forms_own_coset():
    # P and Q are |t - c|^2 / 2; off the coset sum(t) = sum(c) they take
    # classes q misses, so the scan reports not-found there
    cases = [
        # (9, -8) in Os(2) has P = 82 = 18 mod 64
        (qf.form_P(2), qf.domain_Os(2), 18, (9, -8)),
        # (-13, -1) in DeltaC(2) has Q = 85 = 21 mod 64
        (qf.form_Q(2), qf.domain_DeltaC(2), 21, (-13, -1)),
    ]
    for form, dom, k, far in cases:
        assert qf.member(dom, far)
        assert form.evaluate(far) % 64 == k % 64
        rep = qf.universality_scan(form, dom, 60, 12)
        entry = rep.entries[k]
        assert (entry.target, entry.status) == (k, "not-found"), dom
    # charges summing to 2: the coset of Q is sum(t) = 0
    rep = qf.universality_scan(qf.form_Q(2), WeightSpec(2, 2, (1, 1)).domain(),
                               60, 12)
    assert rep.misses
    assert all(e.status == "not-found" for e in rep.misses)


def test_certificates_read_the_form_not_its_label():
    # twice Q's data under Q's label takes no residue class of q: k = 2
    # is 2 mod 3, which q(2) misses, yet (0, 1, -1) in Delta(3) reaches it
    form, dom = qf.FormSpec("Q", 2, (0, 0, 0), 0, 2), qf.domain_Delta(3)
    reached = {k for k, hit in enumerate(qf.represent_all(form, dom,
                                                          range(17), 3))
               if hit is not None}
    assert 2 in reached
    rep = qf.universality_scan(form, dom, 16, 0)
    assert not {e.target for e in rep.entries
                if e.status == "obstructed"} & reached


def test_a_relabelled_form_keeps_its_certificates():
    dom = qf.domain_Delta(3)
    rep = qf.universality_scan(qf.form_Q(3), dom, 16, 30)
    renamed = qf.universality_scan(qf.form_Q(3)._replace(form_id="half-norm"),
                                   dom, 16, 30)
    assert renamed == rep._replace(form="half-norm")
    assert sum(e.status == "obstructed" for e in rep.entries) == 7


def test_one_variable_weight_scans_are_certified_from_k_1():
    # at n = 1 the go, trunc, Ps and refined-go forms are Q(1)'s data on
    # the one-point domain {0}: every k >= 1 up to 383 is missed by some
    # modulus of the ladder
    reps = [granville_ono_scan(1, 40, 5), scan_truncated_weight(1, 1, 40, 5),
            scan_refined_GO(1, 40, 5)]
    spec = WeightSpec(1, 1, (0,))
    reps.append(qf.universality_scan(spec.form(), spec.domain(), 40, 5))
    for rep in reps:
        assert [(e.target, e.status) for e in rep.entries] == [
            (0, "witness")] + [(k, "obstructed") for k in range(1, 41)], (
            rep.form)
        assert all(e.residue == e.target % e.modulus != 0
                   for e in rep.misses)


def test_certificates_survive_a_brute_force_listing():
    # a class mod m that some value of the pair takes refutes a certificate
    rng = random.Random(16)
    pairs = [(qf.form_q(d), qf.domain_Z_full(d)) for d in (1, 2, 3)]
    pairs += [(qf.form_P(n), qf.domain_D(n)) for n in (2, 3, 4)]
    pairs += [(qf.form_Q(n), qf.domain_Delta(n)) for n in (2, 3, 4)]
    certified = 0
    for form, dom in pairs:
        values = _box_values(form, dom, 9 if form.nvars == 4 else 24)
        for _ in range(3):
            min_k = rng.choice([0, rng.randint(1, 150)])
            rep = qf.universality_scan(form, dom, min_k + rng.randint(0, 80),
                                       rng.randint(2, 12), min_k=min_k)
            for e in rep.entries:
                if e.status == "obstructed":
                    certified += 1
                    assert e.residue == e.target % e.modulus
                    assert all(v % e.modulus != e.residue
                               for v in values), (dom, e)
    assert certified >= 50


# (k, modulus, residue) of every obstructed target, recorded from the
# enumeration of every class over one coordinate period
PINNED_OBSTRUCTIONS_Q3 = [
    (14, 16, 14), (30, 16, 14), (46, 16, 14), (56, 64, 56), (62, 16, 14),
    (78, 16, 14), (94, 16, 14), (110, 16, 14), (120, 64, 56), (126, 16, 14),
    (142, 16, 14), (158, 16, 14), (174, 16, 14), (184, 64, 56),
    (190, 16, 14), (206, 16, 14), (222, 16, 14), (238, 16, 14),
    (248, 64, 56), (254, 16, 14), (270, 16, 14), (286, 16, 14)]
PINNED_OBSTRUCTIONS = [
    (qf.form_q(3), qf.domain_Z_full(3), 300, 20, PINNED_OBSTRUCTIONS_Q3),
    (qf.form_P(4), qf.domain_D(4), 200, 30, PINNED_OBSTRUCTIONS_Q3[:15]),
    (qf.form_Q(4), qf.domain_Delta(4), 600, 40, PINNED_OBSTRUCTIONS_Q3 + [
        (302, 16, 14), (312, 64, 56), (318, 16, 14), (334, 16, 14),
        (350, 16, 14), (366, 16, 14), (376, 64, 56), (382, 16, 14),
        (398, 16, 14), (414, 16, 14), (430, 16, 14), (440, 64, 56),
        (446, 16, 14), (462, 16, 14), (478, 16, 14), (494, 16, 14),
        (504, 64, 56), (510, 16, 14), (526, 16, 14), (542, 16, 14),
        (558, 16, 14), (568, 64, 56), (574, 16, 14), (590, 16, 14)]),
]


@pytest.mark.parametrize("form,dom,max_k,radius,pinned", PINNED_OBSTRUCTIONS,
                         ids=["q3", "P4", "Q4"])
def test_pinned_obstructions(form, dom, max_k, radius, pinned):
    qf.attained_classes.cache_clear()
    rep = qf.universality_scan(form, dom, max_k, radius)
    assert [(e.target, e.modulus, e.residue) for e in rep.entries
            if e.status == "obstructed"] == pinned


def test_scan_small_n_reports_obstructions():
    rep = qf.universality_scan(qf.form_q(2), qf.domain_Z_full(2), 10, 10)
    flagged = {e.target: (e.modulus, e.residue) for e in rep.entries
               if e.status == "obstructed"}
    for k in (2, 5, 8):
        assert flagged[k] == (3, 2)
    rep3 = qf.universality_scan(qf.form_q(3), qf.domain_Z_full(3), 30, 12)
    statuses = {e.target: e.status for e in rep3.entries}
    assert statuses[14] == "obstructed" and statuses[30] == "obstructed"
    assert all(e.status == "witness" for e in rep3.entries
               if e.target not in (14, 30))


def test_scan_delta_universal_ranks():
    rep = qf.universality_scan(qf.form_Q(5), qf.domain_Delta(5), 40, 30)
    assert rep.all_witnessed
    rep4 = qf.universality_scan(qf.form_Q(4), qf.domain_Delta(4), 40, 30)
    assert {e.target for e in rep4.misses} == {14, 30}
    assert all(e.status == "obstructed" for e in rep4.misses)


def test_scan_non_universal_small_n_has_misses():
    for n in (2, 3, 4):
        rep = qf.universality_scan(qf.form_Q(n), qf.domain_Delta(n), 150, 30)
        assert rep.misses, n
    rep3 = qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 20, 30)
    two_mod_three = [e for e in rep3.misses if e.target % 3 == 2]
    assert two_mod_three and all(
        (e.modulus, e.residue) == (3, 2) for e in two_mod_three)


def test_every_witness_reevaluates():
    rep = qf.universality_scan(qf.form_Q(6), qf.domain_Delta(6), 25, 20)
    for e in rep.entries:
        if e.status == "witness":
            assert qf.eval_Q(e.witness) == e.target
            assert qf.member(qf.domain_Delta(6), e.witness)


def test_report_serialization_round_trip():
    rep = qf.universality_scan(qf.form_q(3), qf.domain_Z_full(3), 16, 12)
    doc = rep.to_json_dict()
    parsed = json.loads(json.dumps(doc, sort_keys=True))
    assert parsed["form"] == "q" and parsed["domain"] == "Z^3"
    assert parsed["total"] == 17
    assert parsed["entries"][14]["status"] == "obstructed"
    assert parsed["entries"][14]["modulus"] == 16
    text = rep.to_text()
    assert text.splitlines()[1] == "k=0 witness 0,0,0"
    assert text == rep.to_text()  # byte-stable


def test_represent_radius_zero_and_edge():
    assert qf.represent(qf.form_Q(4), qf.domain_Delta(4), 0, 0) == (0,) * 4
    assert qf.represent(qf.form_Q(4), qf.domain_Delta(4), 1, 0) is None
    with pytest.raises(DomainViolation):
        qf.represent(qf.form_Q(4), qf.domain_Delta(4), 1, -1)
    assert qf.represent(qf.form_Q(4), qf.domain_Delta(4), -3, 5) is None


def test_scan_refuses_an_unknown_grid_before_its_budget(monkeypatch):
    monkeypatch.setenv("ATOMLEN_BUDGET", "0")
    with pytest.raises(DomainViolation) as exc:
        qf.universality_scan(qf.form_Q(2), qf.domain_Delta(2), 4, 3,
                             grid="quarter")
    assert str(exc.value) == "grid must be 'int' or 'half', got 'quarter'"


@pytest.mark.parametrize("call,message", [
    (lambda: qf.represent(qf.form_Q(3), qf.domain_Delta(3), 2, 2.5),
     "radius must be an integer, got 2.5"),
    (lambda: qf.represent(qf.form_Q(3)._replace(quad=0), qf.domain_Delta(3),
                          2, 3), "form Q needs quad >= 1, got 0"),
    (lambda: qf.represent(qf.form_Q(3)._replace(quad=-1), qf.domain_Delta(3),
                          2, 3), "form Q needs quad >= 1, got -1"),
    (lambda: qf.represent(qf.form_Q(3)._replace(denom=2.0),
                          qf.domain_Delta(3), 2, 3),
     "form Q denom must be an integer, got 2.0"),
    (lambda: qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 2.5, 5),
     "max_k must be an integer, got 2.5"),
    (lambda: qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 5, 2.5),
     "radius must be an integer, got 2.5"),
    (lambda: qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 5, 3,
                                  min_k=0.5),
     "min_k must be an integer, got 0.5"),
    (lambda: qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 5, -1),
     "radius must be >= 0, got -1"),
], ids=["represent-radius", "quad-0", "quad-negative", "denom-float",
        "scan-max_k", "scan-radius", "scan-min_k", "scan-negative-radius"])
def test_loose_scalars_are_refused_before_any_budget(monkeypatch, call,
                                                     message):
    # a budget of 0 refuses the first charge, so the one-line refusal of a
    # scalar must come before it
    monkeypatch.setenv("ATOMLEN_BUDGET", "0")
    with pytest.raises(DomainViolation) as exc:
        call()
    assert str(exc.value) == message


def test_represent_rejects_mismatched_pairing():
    with pytest.raises(DomainViolation):
        qf.represent(qf.form_Q(4), qf.domain_Delta(5), 3, 5)
    with pytest.raises(DomainViolation):
        qf.represent(qf.form_Q(4), qf.domain_Z_full(4), 3, 5)


def test_forms_pair_with_domains_of_equal_full_arity():
    # q(3) reads four coordinates: it pairs with Delta(4) and with X(4),
    # whose witness drops the forced fourth, never with Delta(3)
    form = qf.form_q(3)
    with pytest.raises(DomainViolation, match="cannot be searched"):
        qf.represent(form, qf.domain_Delta(3), 2, 3)
    full = qf.represent(form, qf.domain_Delta(4), 2, 3)
    assert qf.member(qf.domain_Delta(4), full) and qf.eval_Q(full) == 2
    visible = qf.represent(form, qf.domain_X(4), 2, 3)
    assert qf.member(qf.domain_X(4), visible) and qf.eval_q(visible) == 2


def test_q_values_are_half_norms_on_zero_sum_vectors():
    # the defining identity behind q's search on projected domains
    for x in ((1, 2, 3), (0, 0, 0), (-2, 5, 1), (7,)):
        lifted = x + (-sum(x),)
        assert qf.eval_q(x) == qf.eval_Q(lifted)


def _brute_force_first(form, dom, lit, k, radius):
    """First witness in the documented search order, by plain enumeration
    filtered with the literal membership test lit: the radius box in
    lexicographic order, each coordinate spiralling out from its rounded
    minimizer, positive offset first.  The last coordinate of a projected
    domain is forced by its sum, never enumerated, and the form reads it
    too."""
    axes = []
    for b in form.lin[:dom.dim()]:
        c = math.floor(Fraction(-b, 2 * form.quad) + Fraction(1, 2))
        axes.append(sorted(range(-radius, radius + 1),
                           key=lambda t, c=c: (abs(t - c), t < c)))
    for v in itertools.product(*axes):
        full = v + (dom.sum_target - sum(v),) if dom.projected else v
        if lit(v) and form.evaluate(full) == k:
            return v
    return None


def _lattice_row(tag, n):
    """Form, domain and literal membership test of a lattice table row."""
    return (AffineLatticeSpec(tag, n).form(),
            with_oracle(lattice_domain, tag, n))


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_engine_matches_brute_force(data):
    # independent oracle for the table engine: at small radius, its witness
    # must be the first one a plain box enumeration meets in the same order.
    # One represent_all call per case takes negative targets, targets below
    # the least form value on the radius box (no walk may start there) and,
    # on the A2even lattice, whose norms lie on the half grid, Fractions
    kind = data.draw(st.sampled_from(
        ["delta", "core-size", "deltaC", "euclid-D", "window", "charges",
         "q-free", "projected", "refined", "C1", "B1", "A2even"]))
    if kind == "delta":
        n = data.draw(st.integers(2, 4))
        form, (dom, lit) = qf.form_Q(n), with_oracle(qf.domain_Delta, n)
    elif kind == "core-size":
        n = data.draw(st.integers(2, 4))
        form, (dom, lit) = (qf.form_core_size(n),
                            with_oracle(qf.domain_Q_full, n))
    elif kind == "deltaC":
        n = data.draw(st.integers(1, 3))
        form, (dom, lit) = (qf.form_euclidean(n),
                            with_oracle(qf.domain_DeltaC, n))
    elif kind == "euclid-D":
        n = data.draw(st.integers(1, 3))
        form, (dom, lit) = _lattice_row("D2", n)
    elif kind == "window":
        n = data.draw(st.integers(2, 3))
        form, (dom, lit) = qf.form_P(n), with_oracle(qf.domain_D, n)
    elif kind == "charges":
        n = data.draw(st.integers(2, 4))
        ell = data.draw(st.integers(1, n))
        charges = tuple(sorted(data.draw(st.integers(0, n - 1))
                               for _ in range(ell)))
        spec = WeightSpec(n, ell, charges)
        form, dom = spec.form(), spec.domain()
        lit = literal(domain_Ds, n, ell, charges)
    elif kind == "q-free":
        m = data.draw(st.integers(1, 3))
        form, (dom, lit) = qf.form_q(m), with_oracle(qf.domain_Z_full, m)
    elif kind == "projected":
        n = data.draw(st.integers(2, 4))
        form, (dom, lit) = qf.form_q(n - 1), with_oracle(qf.domain_X, n)
    elif kind == "refined":
        n = data.draw(st.integers(2, 4))
        form, (dom, lit) = refined_size_form(n), with_oracle(qf.domain_Os, n)
    else:
        n = data.draw(st.integers(1, 3))
        form, (dom, lit) = _lattice_row(kind, n)
    radius = data.draw(st.integers(0, 3))
    k = data.draw(st.integers(0, 15))
    hit = qf.represent(form, dom, k, radius)
    assert hit == _brute_force_first(form, dom, lit, k, radius)
    if hit is not None:
        assert all(abs(v) <= radius for v in hit)
    box = itertools.product(range(-radius, radius + 1), repeat=form.nvars)
    least = min(form.evaluate(v) for v in box)
    targets = [-5, -1] + list(range(math.ceil(least))) + list(range(16))
    if form.form_id == "norm[A2even]":
        targets += [Fraction(j, 2) for j in range(-2, 16)]
    targets = data.draw(st.permutations(targets))
    hits = qf.represent_all(form, dom, targets, radius)
    assert hits == [_brute_force_first(form, dom, lit, k, radius)
                    for k in targets]


@pytest.mark.parametrize("form,ctor", [(qf.form_Q(0), qf.domain_Q_full),
                                       (qf.form_P(0), qf.domain_D),
                                       (qf.form_q(0), qf.domain_Z_full)])
def test_a_domain_with_no_coordinates_is_answered_exactly(form, ctor):
    # its one vector is (), of value 0: every radius witnesses 0 and nothing
    # else, and the scan certifies each other target, since q of no
    # coordinates takes the class 0 alone
    dom, lit = with_oracle(ctor, 0)
    targets = [3, 0, -1, Fraction(1, 2), 1, 48]
    for radius in range(4):
        assert qf.represent_all(form, dom, targets, radius) == [
            _brute_force_first(form, dom, lit, k, radius) for k in targets]
    rep = qf.universality_scan(form, dom, 50, 3)
    assert rep.entries[0] == (0, "witness", (), None, None)
    assert [(e.status, e.residue) for e in rep.misses] == [
        ("obstructed", k % e.modulus) for k, e in enumerate(rep.misses, 1)]
    assert all(e.residue for e in rep.misses)


def test_batch_targets_below_the_box_minimum_are_misses():
    # on the radius-2 box P(3) is at least 1/2, so target 0 lies below every
    # table value; at radius 3 the identity window reaches it
    form, dom = qf.form_P(3), qf.domain_D(3)
    targets = [0, 3, -1, 1]
    assert qf.represent_all(form, dom, targets, 2) == [None] * 4
    assert qf.represent_all(form, dom, targets, 3) == [
        (1, 2, 3), (2, 3, 1), None, (1, 3, 2)]


# Witnesses recorded from _brute_force_first with the literal membership
# tests: one per filter kind, the off-centre minimizers of P, the forced
# last coordinate, the even-coordinate and the parity lattice.  Each is
# first found beyond radius 1.
PINNED_WITNESSES = [
    (qf.form_Q(5), qf.domain_Delta(5), 7, 10, (0, 1, 2, 0, -3)),
    (qf.form_Q(6), qf.domain_Delta(6), 50, 30, (0, 0, 1, -1, 7, -7)),
    (qf.form_P(5), qf.domain_D(5), 13, 30, (1, 2, 4, 0, 8)),
    (qf.form_P(6), qf.domain_D(6), 40, 30, (1, 2, 5, 10, 3, 0)),
    (qf.form_q(3), qf.domain_Z_full(3), 29, 12, (2, -2, 5)),
    (qf.form_q(4), qf.domain_X(5), 13, 10, (0, 0, 1, -4)),
    (qf.form_core_size(4), qf.domain_Q_full(4), 23, 25, (0, 2, 1, -3)),
    (qf.form_euclidean(4), qf.domain_DeltaC(4), 31, 15, (1, 1, 2, -5)),
    (refined_size_form(5), qf.domain_Os(5), 60, 25, (1, -1, 2, 5, 3)),
    (WeightSpec(5, 3, (2, 2, 4)).form(), WeightSpec(5, 3, (2, 2, 4)).domain(),
     17, 20, (1, 0, 0, 6, 1)),
    (AffineLatticeSpec("C1", 3).form(), lattice_domain("C1", 3), 6, 25,
     (2, 2, 4)),
    (AffineLatticeSpec("B1", 3).form(), lattice_domain("B1", 3), 7, 25,
     (1, 2, 3)),
]


@pytest.mark.parametrize("form,dom,k,radius,witness", PINNED_WITNESSES,
                         ids=lambda v: getattr(v, "form_id", None))
def test_pinned_witnesses(form, dom, k, radius, witness):
    assert qf.represent(form, dom, k, radius) == witness
    assert qf.represent(form, dom, k, 1) is None
    report = qf.universality_scan(form, dom, k, radius, min_k=k)
    assert report.entries[0].witness == witness


def _P_anywhere(t):
    """eval_P's formula, without its window-only integrality check."""
    n = len(t)
    return Fraction(6 * sum(v * v for v in t)
                    - 12 * sum(i * v for i, v in enumerate(t, 1))
                    + n * (n + 1) * (2 * n + 1), 12)


def _Ps_anywhere(spec):
    """eval_Ps's polynomial, off the charge orbit too."""
    return lambda t: (Fraction(spec.n, 2 * spec.ell) * sum(v * v for v in t)
                      - sum((i - 1) * v for i, v in enumerate(t, 1))
                      - spec.normalizing_constant())


@pytest.mark.parametrize("spec", [WeightSpec(5, 3, (2, 2, 4)),
                                  WeightSpec(4, 2, (0, 1)),
                                  WeightSpec(3, 1, (2,))], ids=str)
def test_eval_Ps_matches_the_restated_polynomial(spec, monkeypatch):
    # eval_Ps reads its value off spec.form(); _Ps_anywhere restates it
    rng = random.Random(21)
    for _ in range(40):
        word = [rng.randrange(spec.n) for _ in range(rng.randint(0, 12))]
        t = affine_action_on_charges(word, spec.sprime, spec.ell)
        assert eval_Ps(spec, t) == _Ps_anywhere(spec)(t)
    # a value off the integers is a broken invariant, not a result
    form = spec.form()
    monkeypatch.setattr(WeightSpec, "form",
                        lambda self: form._replace(const=form.const + 1))
    with pytest.raises(InvariantViolation, match="not an integer"):
        eval_Ps(spec, spec.sprime)


# the paper's norm denominator on ||x||^2 of each lattice row
NORM_DENOM = {"B1": 2, "C1": 4, "D1": 2, "A2odd": 2, "A2even": 2, "D2": 1}


def _lattice_norm(tag):
    return lambda t: Fraction(sum(v * v for v in t), NORM_DENOM[tag])


# (form, the paper's value map where one exists apart from FormSpec)
FORM_VALUES = [
    *((qf.form_P(n), _P_anywhere) for n in (1, 2, 5)),
    *((qf.form_Q(n), qf.eval_Q) for n in (1, 3, 6)),
    # q in m variables is the half norm of the zero-sum vector in m + 1
    *((qf.form_q(m), qf.eval_Q) for m in (1, 2, 4)),
    *((qf.form_euclidean(n), _lattice_norm("D2")) for n in (1, 4)),
    *((qf.form_core_size(n), None) for n in (2, 5)),
    *((AffineLatticeSpec(tag, 3).form(), _lattice_norm(tag))
      for tag in LATTICE_TAGS),
    *((refined_size_form(n), None) for n in (2, 5)),
    *((WeightSpec(n, ell, ch).form(), _Ps_anywhere(WeightSpec(n, ell, ch)))
      for n, ell, ch in ((5, 3, (2, 2, 4)), (4, 2, (0, 1)), (3, 1, (2,)))),
]


@pytest.mark.parametrize("form,value", FORM_VALUES,
                         ids=lambda v: getattr(v, "form_id", None))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_numerator_is_denom_times_value(form, value, data):
    t = data.draw(st.lists(st.integers(-50, 50), min_size=form.nvars,
                           max_size=form.nvars))
    num = form.numerator(t)
    assert type(num) is int
    assert num == form.denom * form.evaluate(t)
    if value is not None:
        assert Fraction(num, form.denom) == value(t)


def test_numerator_rejects_a_wrong_arity():
    with pytest.raises(BadLength, match=r"^Q takes 3 variables$"):
        qf.form_Q(3).numerator((0, 0))


# One pair per domain kind of test_engine_matches_brute_force, at scan size.
SCAN_SIZE_KINDS = {
    "delta": (qf.form_Q(4), qf.domain_Delta(4)),
    "core-size": (qf.form_core_size(4), qf.domain_Q_full(4)),
    "deltaC": (qf.form_euclidean(3), qf.domain_DeltaC(3)),
    "euclid-D": (AffineLatticeSpec("D2", 3).form(), lattice_domain("D2", 3)),
    "window": (qf.form_P(4), qf.domain_D(4)),
    "charges": (WeightSpec(4, 2, (1, 3)).form(),
                WeightSpec(4, 2, (1, 3)).domain()),
    "q-free": (qf.form_q(3), qf.domain_Z_full(3)),
    "projected": (qf.form_q(3), qf.domain_X(4)),
    "refined": (refined_size_form(4), qf.domain_Os(4)),
    **{tag: (AffineLatticeSpec(tag, 3).form(), lattice_domain(tag, 3))
       for tag in ("C1", "B1", "A2even")},
}


def _share_a_route(dom, u, v):
    """Whether two witnesses, lifted by a projected domain's forced
    coordinate, leave different prefixes for one suffix: from there on they
    need the same suffix state and remaining offset, so one batch routes
    them together."""
    if dom.projected:
        u, v = (w + (dom.sum_target - sum(w),) for w in (u, v))
    return any(u[:i] != v[:i] and u[i:] == v[i:] for i in range(1, len(u)))


def test_represent_all_matches_represent():
    # a batch call routes its targets together, grouped by suffix state and
    # remaining offset; a one-target call routes its target alone
    form, dom = qf.form_P(4), qf.domain_D(4)
    targets = [30, 0, 14, -1, 7, 30, 110]
    assert qf.represent_all(form, dom, targets, 12) == [
        qf.represent(form, dom, k, 12) for k in targets]
    # targets 1 and 2 on Delta(4) take the prefixes (0, 0) and (1, -1), of
    # equal sum and classes, and then share one group at coordinate 2
    form, dom = qf.form_Q(4), qf.domain_Delta(4)
    hits = qf.represent_all(form, dom, [2, 1], 8)
    assert hits == [(1, -1, 1, -1), (0, 0, 1, -1)]
    assert hits == [qf.represent(form, dom, k, 8) for k in (2, 1)]
    assert _share_a_route(dom, *hits)


@pytest.mark.parametrize("kind", SCAN_SIZE_KINDS)
def test_batch_routing_matches_one_target_calls_at_scan_size(kind):
    form, dom = SCAN_SIZE_KINDS[kind]
    targets = list(range(-2, 60))
    if form.form_id == "norm[A2even]":
        targets += [Fraction(j, 2) for j in range(1, 60, 2)]
    random.Random(kind).shuffle(targets)
    hits = qf.represent_all(form, dom, targets, 8)
    assert hits == [qf.represent(form, dom, k, 8) for k in targets]
    found = [h for h in hits if h is not None]
    assert any(_share_a_route(dom, u, v)
               for u, v in itertools.combinations(found, 2))


def test_a_box_wider_than_the_value_window_gives_the_same_entries():
    # a coordinate lists only the values within the largest target of its
    # least term, so radius 10^6 lists what radius 20000 does
    form, dom = qf.form_Q(3), qf.domain_Delta(3)
    far = qf.universality_scan(form, dom, 5, 10 ** 6)
    assert far.entries == qf.universality_scan(form, dom, 5, 20000).entries


def _one_table(form, dom, targets, radius):
    """represent_all's witnesses from one engine call at the radius, with
    Fraction arithmetic for the numerators and no witness checks."""
    nums = {k: int(form.denom * k - form.const) for k in targets
            if k >= 0 and (form.denom * k - form.const) % 1 == 0}
    found = (qf._witnesses_at_radius(form.quad, form.lin, set(nums.values()),
                                     dom, radius) if nums else {})
    hits = [found.get(nums.get(k)) for k in targets]
    return [h[:-1] if h and dom.projected else h for h in hits]


def test_table_over_budget_raises(monkeypatch):
    # the 201 targets weigh 20,100 steps, the tables up to 37,686
    monkeypatch.setenv("ATOMLEN_BUDGET", "30000")
    with pytest.raises(BudgetExceeded, match="representation table"):
        qf.universality_scan(qf.form_Q(7), qf.domain_Delta(7), 200, 30)
    assert qf.represent(qf.form_Q(3), qf.domain_Delta(3), 1, 2) is not None


def test_table_width_is_budgeted_before_any_table(monkeypatch):
    # Delta(3): 3 coordinates times 3 classes of capacity 1, two bits each
    form, dom = qf.form_Q(3), qf.domain_Delta(3)
    monkeypatch.setenv("ATOMLEN_BUDGET", "17")
    with pytest.raises(BudgetExceeded, match=r"^representation tables on "
                                             r"Delta\(3\) needs ~18 steps"):
        qf.represent(form, dom, 1, 1)
    monkeypatch.setenv("ATOMLEN_BUDGET", "18")
    assert qf.represent(form, dom, 1, 1) is not None


def _record_searches(monkeypatch):
    """(radius, pending numerators) of each _witnesses_at_radius call of
    represent_all, filled as they run."""
    searched, witnesses_at_radius = [], qf._witnesses_at_radius

    def recorded(A, B, pending, domain, r):
        searched.append((r, set(pending)))
        return witnesses_at_radius(A, B, pending, domain, r)

    monkeypatch.setattr(qf, "_witnesses_at_radius", recorded)
    return searched


def _window_numerators(form, dom, lit, top, radius):
    """A*sum(t^2) + sum(B*t) of every domain vector (literal test lit) of the
    radius box whose value is at most top: such a vector has each term
    within top - base of its least value over the integers, so listing
    those coordinate values (the last one forced by a sum target) lists it.
    A projected domain's forced coordinate is not bounded by the box."""
    A, B, S = form.quad, form.lin, dom.sum_target
    lows = [min(A * v * v + b * v for v in (-b // (2 * A), -b // (2 * A) + 1))
            for b in B]
    room = top - sum(lows)
    reach = math.isqrt(max(room, 0) // A) + 1
    windows = [[v for v in range(-b // (2 * A) - reach,
                                 -b // (2 * A) + reach + 2)
                if A * v * v + b * v - low <= room]
               for b, low in zip(B, lows)]
    values = set()
    for v in itertools.product(*(windows[:-1] if S is not None else windows)):
        t = v + (S - sum(v),) if S is not None else v
        seen = t[:dom.dim()]
        if lit(seen) and all(abs(x) <= radius for x in seen):
            values.add(form.numerator(t) - form.const)
    return values


# (form, domain, literal test, radius, targets) on D, Delta, a projected
# domain, Ds, DeltaC and the A2even half grid
DS = WeightSpec(4, 2, (0, 0))
STOP_RULE_CASES = {
    "D4": (qf.form_P(4), qf.domain_D(4), literal(qf.domain_D, 4), 30,
           range(201)),
    "Delta3": (qf.form_Q(3), qf.domain_Delta(3), literal(qf.domain_Delta, 3),
               30, range(201)),
    "Z3": (qf.form_q(3), qf.domain_Z_full(3), literal(qf.domain_Z_full, 3),
           12, range(201)),
    "Ds": (DS.form(), DS.domain(), literal(domain_Ds, 4, 2, (0, 0)), 30,
           range(101)),
    "DeltaC3": (qf.form_euclidean(3), qf.domain_DeltaC(3),
                literal(qf.domain_DeltaC, 3), 30, range(151)),
    "A2even": (AffineLatticeSpec("A2even", 3).form(),
               lattice_domain("A2even", 3),
               literal(lattice_domain, "A2even", 3), 30,
               [Fraction(j, 2) for j in range(161)]),
}


@pytest.mark.parametrize("case", STOP_RULE_CASES)
def test_dropped_targets_have_no_vector_in_their_window(case, monkeypatch):
    # represent_all searches every target in one table at the radius and
    # leaves a target unfound only when the radius box holds no domain
    # vector of its value: a brute-force listing of the box reaches exactly
    # the witnessed targets
    form, dom, lit, radius, targets = STOP_RULE_CASES[case]
    targets = list(targets)
    searched = _record_searches(monkeypatch)
    hits = qf.represent_all(form, dom, targets, radius)
    nums = qf._numerators(form, targets)
    wanted = {K for K in nums if K is not None}
    assert searched == [(radius, wanted)]
    assert hits == _one_table(form, dom, targets, radius)
    found = {K for K, hit in zip(nums, hits) if hit is not None}
    assert wanted - found
    assert found == wanted & _window_numerators(form, dom, lit, max(wanted),
                                                radius)


def test_an_early_residue_table_over_budget_leaves_its_target_pending(
        monkeypatch):
    # k = 15 on Delta(3), a miss no modulus certifies, meets the table of
    # q(2) mod 128 (8385 steps, over the budget of 8000) in the scan's one
    # certificate pass after the search, and the scan stops there
    monkeypatch.setenv("ATOMLEN_BUDGET", "8000")
    qf.attained_classes.cache_clear()
    with pytest.raises(BudgetExceeded, match=r"^residue table of q\(2\) mod "
                                             r"128 needs ~8385 steps"):
        qf.universality_scan(qf.form_Q(3), qf.domain_Delta(3), 15, 2,
                             min_k=15)


def _fraction_numerators(form, targets):
    """denom*k - const of each target in Fraction arithmetic, None for a
    negative target or a non-integer result."""
    out = []
    for k in targets:
        knum = form.denom * Fraction(k) - form.const
        out.append(int(knum) if k >= 0 and knum.denominator == 1 else None)
    return out


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_integer_numerators_match_fraction_arithmetic(data):
    # int targets, the half grid, other denominators (1/3 of Q is a miss
    # without a search), negative targets, and the odd constants of P(1),
    # P(2) and P(5)
    form, dom = data.draw(st.sampled_from([
        (qf.form_P(1), qf.domain_D(1)), (qf.form_P(2), qf.domain_D(2)),
        (qf.form_P(5), qf.domain_D(5)), (qf.form_Q(3), qf.domain_Delta(3)),
        (qf.form_q(2), qf.domain_Z_full(2)),
        (qf.form_euclidean(2), qf.domain_DeltaC(2)),
        (AffineLatticeSpec("A2even", 2).form(), lattice_domain("A2even", 2)),
    ]))
    targets = data.draw(st.lists(
        st.integers(-10, 60) | st.builds(Fraction, st.integers(-30, 120),
                                         st.sampled_from([1, 2, 3, 4, 6])),
        min_size=1, max_size=30))
    assert qf._numerators(form, targets) == _fraction_numerators(form,
                                                                 targets)
    radius = data.draw(st.integers(0, 6))
    assert qf.represent_all(form, dom, targets, radius) == _one_table(
        form, dom, targets, radius)


def test_a_third_of_q_is_a_miss_without_a_search(monkeypatch):
    searched = _record_searches(monkeypatch)
    targets = [Fraction(1, 3), Fraction(-1, 2), -3]
    assert qf._numerators(qf.form_Q(3), targets) == [None] * 3
    assert qf.represent_all(qf.form_Q(3), qf.domain_Delta(3), targets,
                            5) == [None] * 3
    assert searched == []


# ---------------------------------------------------------------------------
# The tuple-keyed table engine, kept as the differential oracle for the
# int-keyed one in quadratic_forms: its tables and route groups are keyed by
# (suffix sum key, filter state) pairs, each row value takes one class
# lookup, and the inner loop tests the suffix sum range.
# ---------------------------------------------------------------------------

def old_cls(domain, i, v):
    mod, shifts = domain.mod, domain.shifts
    r = (v + shifts[i] if shifts else v) % mod
    return min(r, mod - r) if domain.signed else r


def old_witnesses_at_radius(A, B, targets, domain, radius):
    n, S = domain.nvars, domain.sum_target
    caps = domain.caps
    weights, w = [], 1
    for c in caps:
        weights.append(w)
        w *= c + 1
    full = sum(wc * c for wc, c in zip(weights, caps))
    fold = -1 if S is not None else (1 if domain.parity_even else 0)
    total = S or 0

    boxes, base, clamped = [], 0, False
    for i in range(n):
        last = domain.projected and i == n - 1
        lo, hi = (S - i * radius, S + i * radius) if last else (-radius, radius)
        center = (A - B[i]) // (2 * A)
        v = min(max(center, lo), hi)
        clamped |= v != center
        low = A * v * v + B[i] * v
        base += low
        boxes.append((lo, hi, center, low))
    top = max(targets) - base
    if top < 0:
        return {}, not clamped
    mask = (2 << top) - 1

    rows, closed = [], not clamped
    for i, (lo, hi, center, low) in enumerate(boxes):
        b, a2 = B[i], 2 * A
        s = math.isqrt(2 * a2 * (top + low) + b * b)
        wlo, whi = -((s + b) // a2), (s - b) // a2
        closed &= lo <= wlo and whi <= hi
        row = [(v, A * v * v + b * v - low, weights[c], caps[c])
               for v in range(max(lo, wlo), min(hi, whi) + 1)
               for c in (old_cls(domain, i, v),) if caps[c]]
        row.sort(key=lambda e: (abs(e[0] - center), e[0] < center))
        rows.append(row)

    tables = [None] * n + [{(0, 0): 1}]
    work = 0
    for i in range(n - 1, 0, -1):
        nxt, layer, by_class = tables[i + 1], {}, {}
        work += len(nxt) * len(rows[i])
        budget.check(work, what="representation table")
        for v, off, wc, cap in rows[i]:
            by_class.setdefault((wc, cap), []).append((v, off))
        lo, hi = (S - i * radius, S + i * radius) if S is not None else (0, 1)
        for (key, f), bits in nxt.items():
            for (wc, cap), vals in by_class.items():
                if f // wc % (cap + 1) == cap:
                    continue
                g = f + wc
                for v, off in vals:
                    s = (key + v) & fold
                    if lo <= s <= hi:
                        b = bits << off & mask
                        if b:
                            layer[s, g] = layer.get((s, g), 0) | b
        tables[i] = layer

    reach = 0
    for v, off, wc, cap in rows[0]:
        reach |= tables[1].get(((total - v) & fold, full - wc), 0) << off

    vecs = {K: [] for K in targets if K >= base and reach >> (K - base) & 1}
    if not vecs:
        return {}, closed
    groups = {(total & fold, full): (sum(1 << (K - base) for K in vecs),
                                     {K - base: [K] for K in vecs})}
    for i in range(n):
        nxt, moved = tables[i + 1], {}
        for (key, f), (want, rems) in groups.items():
            for v, off, wc, cap in rows[i]:
                if not f // wc % (cap + 1):
                    continue
                state = ((key - v) & fold, f - wc)
                take = nxt.get(state, 0) << off & want
                if take:
                    want ^= take
                    bits, dest = moved.get(state, (0, {}))
                    moved[state] = (bits | take >> off, dest)
                    while take:
                        r = take.bit_length() - 1
                        take ^= 1 << r
                        for K in rems[r]:
                            vecs[K].append(v)
                        dest.setdefault(r - off, []).extend(rems[r])
                    if not want:
                        break
            if want:
                K = rems[(want & -want).bit_length() - 1][0]
                raise InvariantViolation(
                    f"the table reaches {K} on {domain.label} but no route "
                    f"does")
        groups = moved
    return {K: tuple(vec) for K, vec in vecs.items()}, closed


def _engine_forms(nvars, data):
    """The P, Q and q forms and the core-size and Ps forms of nvars
    variables: unit and larger quadratic coefficients, centred and
    off-centre minimizers."""
    forms = [qf.form_P(nvars), qf.form_Q(nvars), qf.form_q(nvars - 1),
             qf.form_core_size(nvars)]
    if nvars >= 2:
        ell = data.draw(st.integers(1, nvars))
        charges = sorted(data.draw(st.integers(0, nvars - 1))
                         for _ in range(ell))
        forms.append(WeightSpec(nvars, ell, tuple(charges)).form())
    return forms


def _engine_run(engine, form, dom, targets, radius):
    """The engine's result and the budget checks it made: the table sizes
    it counted, level by level."""
    checks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(budget, "check", lambda work, what: checks.append(work))
        return engine(form.quad, form.lin, targets, dom, radius), checks


def _assert_engines_agree(form, dom, targets, radius):
    """The same witnesses from both engines and as many budget checks, each
    at most the old engine's (the new one drops the states no prefix can
    complete), and the old engine's per-coordinate closed flag equal to the
    test against closure_bound, the closed form the sweep tests read.
    Returns both engines' counts."""
    new, checks = _engine_run(qf._witnesses_at_radius, form, dom, targets,
                              radius)
    (old, closed), old_checks = _engine_run(old_witnesses_at_radius, form,
                                            dom, targets, radius)
    assert new == old and len(checks) == len(old_checks)
    assert all(map(operator.le, checks, old_checks))
    bound = closure_bound(form, dom, radius)
    assert closed == (bound is not None and max(targets) <= bound)
    return checks, old_checks


@given(domains_with_oracle(), st.data())
@settings(max_examples=400, deadline=None)
def test_int_keyed_engine_matches_the_tuple_keyed_one(dom_lit, data):
    # every domain constructor (the lattice rows, parity-even ones included)
    # with every form family, at radii up to 6: the same witnesses, budget
    # counts and closure
    dom, _ = dom_lit
    form = data.draw(st.sampled_from(_engine_forms(dom.nvars, data)))
    radius = data.draw(st.integers(0, 6))
    targets = data.draw(st.sets(st.integers(-10, 120), min_size=1,
                                max_size=40))
    _assert_engines_agree(form, dom, targets, radius)


@pytest.mark.parametrize("kind", SCAN_SIZE_KINDS)
def test_int_keyed_engine_matches_at_scan_size(kind):
    # from boxes whose sums all lie on the range ends to wide value windows,
    # where most class groups are cut by the sum range
    form, dom = SCAN_SIZE_KINDS[kind]
    targets = set(range(-5, 400))
    for radius in (0, 1, 2, 8, 30):
        _assert_engines_agree(form, dom, targets, radius)


def test_the_cut_drops_states_no_prefix_completes():
    # Q on Delta(6), k <= 200 at radius 30: a prefix of i coordinates sums
    # to at most i * 30, but within norm 200 to far less
    checks, old_checks = _assert_engines_agree(
        qf.form_Q(6), qf.domain_Delta(6), {2 * k for k in range(201)}, 30)
    assert checks[-1] < old_checks[-1]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_the_cut_matches_brute_force_in_wide_boxes(data):
    # radii far above the coordinates small targets allow, so the sum range
    # i * R is far wider than the norm bound and the cut does the work;
    # forms with quad > 1 or lin != 0, whose minimizers lie off the origin
    kind = data.draw(st.sampled_from(["window", "core-size", "charges"]))
    n = data.draw(st.integers(2, 3))
    if kind == "window":
        form, (dom, lit) = qf.form_P(n), with_oracle(qf.domain_D, n)
    elif kind == "core-size":
        form, (dom, lit) = (qf.form_core_size(n),
                            with_oracle(qf.domain_Q_full, n))
    else:
        ell = data.draw(st.integers(1, n))
        charges = tuple(sorted(data.draw(st.integers(0, n - 1))
                               for _ in range(ell)))
        spec = WeightSpec(n, ell, charges)
        form, dom = spec.form(), spec.domain()
        lit = literal(domain_Ds, n, ell, charges)
    radius = data.draw(st.integers(8, 14))
    targets = data.draw(st.lists(st.integers(-1, 12), min_size=1,
                                 max_size=4))
    assert qf.represent_all(form, dom, targets, radius) == [
        _brute_force_first(form, dom, lit, k, radius) for k in targets]


@pytest.mark.parametrize("form,dom,wrong,outside", [
    (qf.form_P(3), qf.domain_D(3), (1, 2, 3), (0, 3, 3)),
    (qf.form_q(3), qf.domain_X(4), (0, 0, 0, 0), (-1, 1, 0, 0)),
], ids=["D", "X"])
def test_every_witness_is_rechecked(form, dom, wrong, outside, monkeypatch):
    # the engine hands represent_all, for target 1, a vector of value 0,
    # then one of value 1 outside the domain (its classes repeat)
    num = form.denom - form.const
    shown = outside[:dom.dim()]  # a projected witness drops its last
    for vec, message in ((wrong, f"witness {wrong} evaluates to 0, wanted 1"),
                         (outside, f"witness {shown} escaped {dom.label}")):
        monkeypatch.setattr(qf, "_witnesses_at_radius",
                            lambda *args, vec=vec: {num: vec})
        with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
            qf.represent_all(form, dom, [3, 1], 5)


def test_a_wrong_value_is_reported_before_an_escaped_witness(monkeypatch):
    # every value is re-checked before the one membership pass of a scan,
    # so a later target's wrong value wins over an earlier escaped witness
    form, dom = qf.form_P(3), qf.domain_D(3)
    monkeypatch.setattr(qf, "_witnesses_at_radius", lambda *args: {
        form.denom * 1 - form.const: (0, 3, 3),
        form.denom * 2 - form.const: (1, 2, 3)})
    with pytest.raises(InvariantViolation, match=re.escape(
            "witness (1, 2, 3) evaluates to 0, wanted 2")):
        qf.represent_all(form, dom, [1, 2], 5)
