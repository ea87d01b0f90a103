"""Affine type C entropy through the rank-(2n+1) embedding, its constrained
Euclidean scans, the lattice table for the classical affine families, and the
large-rank universality thresholds."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from . import LATTICE_TAGS
from .affine_permutations import AffinePermutation, make_affine
from .errors import BadLength, DomainViolation, MirrorViolation
from .quadratic_forms import (ConstrainedDomain, FormSpec, UniversalityReport,
                              domain_DeltaC, form_euclidean, member,
                              universality_scan)


class TypeCAffineElement(namedtuple("TypeCAffineElement", "n window")):
    """Element of the affine hyperoctahedral group, reduced window form.

    The reduced window (w(1), ..., w(n)) extends to a full window of rank
    2n+1 through w(2n+1) = 2n+1 and the mirror rule
    w(2n+1-i) = 2n+1 - w(i).
    """

    __slots__ = ()

    def __new__(cls, n, window):
        m = 2 * n + 1
        if len(window) != n:
            raise BadLength(f"reduced window needs {n} entries")
        for v in window:
            if v % m == 0:
                raise MirrorViolation(
                    f"entry {v} is 0 mod {m}, clashing with the fixed point")
        # x_i = w(i) - i is in DeltaC iff the w(i) are distinct up to sign
        if not member_DeltaC(v - i for i, v in enumerate(window, 1)):
            raise MirrorViolation(
                f"entries of {window} clash up to sign mod {m}")
        return tuple.__new__(cls, (n, window))


def lift_to_A(e: TypeCAffineElement) -> AffinePermutation:
    """Full rank-(2n+1) affine permutation of a reduced window."""
    n = e.n
    m = 2 * n + 1
    full = list(e.window)
    for j in range(n + 1, 2 * n + 1):
        full.append(m - full[m - j - 1])
    full.append(m)
    return make_affine(m, tuple(full))


def member_DeltaC(x) -> bool:
    """The three congruence conditions mod 2n+1, n = len(x), on displacement
    vectors."""
    x = tuple(x)
    return member(domain_DeltaC(len(x)), x)


def from_displacement(x) -> TypeCAffineElement:
    """Element with reduced window x_i + i."""
    x = tuple(x)
    if not member_DeltaC(x):
        raise DomainViolation(f"{x} violates the displacement congruences")
    return TypeCAffineElement(len(x), tuple(v + i for i, v in enumerate(x, 1)))


def entropy_C(x) -> int:
    """Euclidean norm squared of the displacement vector; equals the entropy
    of the lifted rank-(2n+1) element."""
    x = tuple(x)
    if not member_DeltaC(x):
        raise DomainViolation(f"{x} violates the displacement congruences")
    return sum(v * v for v in x)


def scan_deltaC(n: int, max_k: int, radius: int) -> UniversalityReport:
    """Universality scan of the Euclidean form on the constrained set."""
    return universality_scan(form_euclidean(n), domain_DeltaC(n), max_k,
                             radius)


# ---------------------------------------------------------------------------
# Lattice table for the classical affine families
# ---------------------------------------------------------------------------

# tag of LATTICE_TAGS -> (underlying finite series, coxeter h,
# half-integer-valued flag, norm denominator on ||x||_2^2).  The translation
# lattice is 2Z^n for C1, the even-sum lattice for B1, D1 and A2odd, and Z^n
# for A2even and D2.
_TABLE = {
    "B1": ("B", lambda n: 2 * n, False, 2),
    "C1": ("C", lambda n: 2 * n, False, 4),
    "D1": ("D", lambda n: 2 * n - 2, False, 2),
    "A2odd": ("C", lambda n: 2 * n - 1, False, 2),
    "A2even": ("C", lambda n: 2 * n + 1, True, 2),
    "D2": ("B", lambda n: n + 1, False, 1),
}


class AffineLatticeSpec(namedtuple("AffineLatticeSpec", "tag n")):
    """One row of the lattice table: translation lattice (domain), the
    half-norm map under the row's norm convention (form) and Coxeter number
    of a classical affine family."""

    __slots__ = ()

    def __new__(cls, tag, n):
        if tag not in LATTICE_TAGS:
            raise DomainViolation(f"unknown affine type tag {tag!r}")
        if n < 1:
            raise BadLength(f"rank must be positive, got {n}")
        return tuple.__new__(cls, (tag, n))

    @property
    def coxeter_number(self) -> int:
        return _TABLE[self.tag][1](self.n)

    @property
    def half_grid(self) -> bool:
        return _TABLE[self.tag][2]

    def domain(self) -> ConstrainedDomain:
        tag, n = self.tag, self.n
        if tag == "C1":  # every coordinate even: odd class 1 has capacity 0
            return ConstrainedDomain(f"M[{tag}]({n})", (n, 0), mod=2)
        return ConstrainedDomain(f"M[{tag}]({n})", (n,),
                                 parity_even=tag in ("B1", "D1", "A2odd"))

    def form(self) -> FormSpec:
        return FormSpec(f"norm[{self.tag}]", 1, (0,) * self.n, 0,
                        _TABLE[self.tag][3])


def norm_universality_scan(spec: AffineLatticeSpec, max_k: int,
                           radius: int) -> UniversalityReport:
    """Witness every target in [0, max_k] (half-integer grid where the map
    is half-integer valued) on the row's lattice."""
    grid = "half" if spec.half_grid else "int"
    return universality_scan(spec.form(), spec.domain(), max_k, radius,
                             grid=grid)


# ---------------------------------------------------------------------------
# Large-rank thresholds
# ---------------------------------------------------------------------------

def rank4_slice_bound(tag: str, n: int) -> Fraction:
    """Maximum of the finite atomic length on the rank-(n-4) slice fixed by
    the translation part; halved for the family whose atomic length is
    half-integer valued."""
    spec = AffineLatticeSpec(tag, n)
    m = n - 4
    if _TABLE[tag][0] in ("B", "C"):
        b = Fraction(m * (m + 1) * (4 * m - 1), 6)
    else:
        b = Fraction(m * (m - 1) * (2 * m - 1), 3)
    return b / 2 if spec.half_grid else b


def intervals_overlap(tag: str, n: int) -> bool:
    """Whether consecutive translation-shifted value intervals meet: the
    slice bound must reach the value-grid spacing h^2 (h^2 / 2 on the
    half-integer grid)."""
    spec = AffineLatticeSpec(tag, n)
    h = spec.coxeter_number
    spacing = Fraction(h * h, 2) if spec.half_grid else Fraction(h * h)
    return rank4_slice_bound(tag, n) >= spacing


def large_rank_threshold(tag: str) -> int:
    """Smallest rank from which the interval-overlap condition holds (it is
    monotone from there on; see the tests)."""
    n = 5
    while not intervals_overlap(tag, n):
        n += 1
        if n > 10 ** 4:
            raise DomainViolation(f"no threshold found for {tag}")
    return n


def threshold_table() -> dict[str, int]:
    return {tag: large_rank_threshold(tag) for tag in LATTICE_TAGS}
