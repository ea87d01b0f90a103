from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atomlen
from atomlen import affine_classical as ac
from atomlen import affine_permutations as ap
from atomlen import finite_weyl as fw
from atomlen.quadratic_forms import member
from atomlen.errors import BadLength, DomainViolation, MirrorViolation


def test_identity_lift():
    e = ac.TypeCAffineElement(3, (1, 2, 3))
    assert ac.lift_to_A(e).window == (1, 2, 3, 4, 5, 6, 7)


def test_lift_mirror_structure():
    e = ac.TypeCAffineElement(2, (6, 2))
    w = ac.lift_to_A(e)
    m = 2 * e.n + 1
    assert w.window[-1] == m
    for i in range(1, 2 * e.n + 1):
        assert ap.apply(w, m - i) == m - ap.apply(w, i)


def test_reduced_window_validation():
    with pytest.raises(MirrorViolation):
        ac.TypeCAffineElement(2, (5, 1))      # 5 = 0 mod 5
    with pytest.raises(MirrorViolation):
        ac.TypeCAffineElement(2, (1, 4))      # 4 = -1 mod 5


def test_member_deltaC_examples():
    assert ac.member_DeltaC((0, 0, 0))
    assert not ac.member_DeltaC((0, 3))    # x2 + 2 = 5 = 0 mod 5
    assert not ac.member_DeltaC((0, 2))    # classes +/-2 clash
    assert ac.member_DeltaC((0, 1))


def test_entropy_C_examples():
    assert ac.entropy_C((0, 0, 0, 0)) == 0
    assert ac.entropy_C((0, 1)) == 1
    with pytest.raises(DomainViolation):
        ac.entropy_C((0, 3))


@given(st.integers(2, 5), st.data())
@settings(max_examples=80)
def test_entropy_matches_lifted_entropy(n, data):
    x = tuple(data.draw(st.integers(-6, 6)) for _ in range(n))
    if not ac.member_DeltaC(x):
        return
    e = ac.from_displacement(x)
    assert ap.entropy(ac.lift_to_A(e)) == ac.entropy_C(x)


def test_scan_deltaC_small():
    rep = ac.scan_deltaC(4, 30, 15)
    assert rep.all_witnessed
    assert rep.entries[0].witness == (0, 0, 0, 0)
    for e in rep.entries:
        assert ac.member_DeltaC(e.witness)
        assert ac.entropy_C(e.witness) == e.target


def test_lattice_membership_and_norms():
    b1 = ac.AffineLatticeSpec("B1", 4)
    assert member(b1.domain(), (1, 1, 0, 0))
    assert not member(b1.domain(), (1, 0, 0, 0))
    assert b1.form().evaluate((1, 1, 0, 0)) == 1
    c1 = ac.AffineLatticeSpec("C1", 4)
    assert not member(c1.domain(), (1, 0, 0, 0))
    assert member(c1.domain(), (2, 0, 0, 0))
    assert c1.form().evaluate((2, 0, 0, 0)) == 1
    a2 = ac.AffineLatticeSpec("A2even", 4)
    assert member(a2.domain(), (1, 0, 0, 0))
    assert a2.form().evaluate((1, 0, 0, 0)) == Fraction(1, 2)
    d2 = ac.AffineLatticeSpec("D2", 4)
    assert d2.form().evaluate((1, 1, 0, 0)) == 2


def test_the_tag_lists_are_the_packages_and_the_table_follows_them():
    # the package defines each list once, for the CLI's parser
    assert ac.LATTICE_TAGS is atomlen.LATTICE_TAGS
    assert fw.SERIES is atomlen.SERIES
    assert tuple(ac._TABLE) == ac.LATTICE_TAGS


def test_coxeter_numbers():
    assert ac.AffineLatticeSpec("B1", 6).coxeter_number == 12
    assert ac.AffineLatticeSpec("D1", 6).coxeter_number == 10
    assert ac.AffineLatticeSpec("A2odd", 6).coxeter_number == 11
    assert ac.AffineLatticeSpec("A2even", 6).coxeter_number == 13
    assert ac.AffineLatticeSpec("D2", 6).coxeter_number == 7


def test_norm_scans_all_rows():
    for tag in ac.LATTICE_TAGS:
        spec = ac.AffineLatticeSpec(tag, 4)
        rep = ac.norm_universality_scan(spec, 25, 20)
        assert rep.all_witnessed, tag
        assert rep.grid == ("half" if tag == "A2even" else "int")
        for e in rep.entries:
            assert member(spec.domain(), e.witness)
            assert spec.form().evaluate(e.witness) == e.target


def test_half_grid_values():
    spec = ac.AffineLatticeSpec("A2even", 4)
    rep = ac.norm_universality_scan(spec, 3, 10)
    targets = [e.target for e in rep.entries]
    assert targets == [Fraction(j, 2) for j in range(7)]


def test_threshold_table_reproduces_printed_values():
    assert ac.threshold_table() == {"B1": 15, "C1": 15, "D1": 16,
                                    "A2odd": 15, "A2even": 16, "D2": 10}


def test_overlap_monotone_and_sharp():
    for tag in ac.LATTICE_TAGS:
        n0 = ac.large_rank_threshold(tag)
        assert not ac.intervals_overlap(tag, n0 - 1)
        assert all(ac.intervals_overlap(tag, n) for n in range(n0, 41))


# Coxeter number of each row at rank n, and the slice maximum as a cubic in
# m = n - 4: m(m+1)(4m-1)/6 on the B or C slice, m(m-1)(2m-1)/3 on D1's D
# slice; both are halved on A2even's half-integer grid
COXETER = {"B1": lambda n: 2 * n, "C1": lambda n: 2 * n,
           "D1": lambda n: 2 * n - 2, "A2odd": lambda n: 2 * n - 1,
           "A2even": lambda n: 2 * n + 1, "D2": lambda n: n + 1}


def _cubic_slice_bound(tag, m):
    b = (Fraction(m * (m - 1) * (2 * m - 1), 3) if tag == "D1"
         else Fraction(m * (m + 1) * (4 * m - 1), 6))
    return b / 2 if tag == "A2even" else b


def test_slice_bound_and_overlap_match_the_cubics():
    # the slice bound read from b_bound, and the overlap test built on it,
    # agree with the cubics at every rank 5..199
    for tag in ac.LATTICE_TAGS:
        for n in range(5, 200):
            cubic, h = _cubic_slice_bound(tag, n - 4), COXETER[tag](n)
            spacing = Fraction(h * h, 2 if tag == "A2even" else 1)
            assert ac.rank4_slice_bound(tag, n) == cubic, (tag, n)
            assert ac.intervals_overlap(tag, n) == (cubic >= spacing)


def test_rank4_slice_bound_values():
    # underlying B/C slice: m(m+1)(4m-1)/6; halved on the half-integer row
    assert ac.rank4_slice_bound("B1", 15) == Fraction(11 * 12 * 43, 6)
    assert ac.rank4_slice_bound("A2even", 15) == Fraction(11 * 12 * 43, 12)
    assert ac.rank4_slice_bound("D1", 16) == Fraction(12 * 11 * 23, 3)
    with pytest.raises(DomainViolation, match="unknown affine type tag"):
        ac.rank4_slice_bound("E8", 5)
    # below rank 5 there is no slice
    with pytest.raises(BadLength, match="rank 0 invalid for series B"):
        ac.rank4_slice_bound("B1", 4)


@given(st.sampled_from(ac.LATTICE_TAGS), st.lists(st.integers(-6, 6),
                                                  min_size=4, max_size=4))
def test_half_norm_value_grid(tag, x):
    spec = ac.AffineLatticeSpec(tag, 4)
    x = tuple(x)
    if not member(spec.domain(), x):
        return
    v = spec.form().evaluate(x)
    if tag == "A2even":
        assert (2 * v).denominator == 1   # half-integer grid
    else:
        assert v.denominator == 1         # integers on every other row
