"""Finite classical Weyl groups A/B/C/D: fundamental weights in exact
arithmetic, truncated-staircase atomic lengths, their closed-form maxima,
and brute-force saturation checks.

Groups act on epsilon coordinates (dimension n+1 for series A, n otherwise)
by signed permutations; heights are read off after an exact change of basis
to simple-root coordinates.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import budget
from .errors import (BadEll, BadIndex, BadLength, InvariantViolation,
                     RankMismatch)

SERIES = ("A", "B", "C", "D")


@dataclass(frozen=True)
class FiniteType:
    series: str
    n: int

    def __post_init__(self):
        if self.series not in SERIES:
            raise BadIndex(f"unknown series {self.series!r}")
        if self.n < 1 or (self.series == "D" and self.n < 2):
            raise BadLength(f"rank {self.n} invalid for series {self.series}")

    @property
    def dim(self) -> int:
        return self.n + 1 if self.series == "A" else self.n

    def order(self) -> int:
        if self.series == "A":
            return math.factorial(self.n + 1)
        if self.series == "D":
            return 2 ** (self.n - 1) * math.factorial(self.n)
        return 2 ** self.n * math.factorial(self.n)


@dataclass(frozen=True)
class SignedPermutation:
    """w(e_i) = signs_i * e_{perm_i}; series A forces all signs positive,
    series D an even number of negative ones."""

    type: FiniteType
    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        d = self.type.dim
        if sorted(self.perm) != list(range(1, d + 1)):
            raise BadIndex(f"perm {self.perm} is not a permutation of 1..{d}")
        if any(s not in (1, -1) for s in self.signs) or len(self.signs) != d:
            raise BadIndex(f"bad sign vector {self.signs}")
        if self.type.series == "A" and any(s != 1 for s in self.signs):
            raise BadIndex("series A has no sign changes")
        if self.type.series == "D" and self.signs.count(-1) % 2:
            raise BadIndex("series D needs an even number of sign changes")

    def act(self, v):
        """Image of a vector in epsilon coordinates."""
        if len(v) != self.type.dim:
            raise RankMismatch(f"vector of length {len(v)} for {self.type}")
        out = [Fraction(0)] * len(v)
        for i, (p, s) in enumerate(zip(self.perm, self.signs)):
            out[p - 1] = s * v[i]
        return tuple(out)


def identity_element(t: FiniteType) -> SignedPermutation:
    d = t.dim
    return SignedPermutation(t, tuple(range(1, d + 1)), (1,) * d)


def enumerate_group(t: FiniteType):
    """All group elements; permutations in lexicographic order, sign vectors
    in binary order within each permutation."""
    budget.check(t.order(), what=f"enumeration of W({t.series}{t.n})")
    d = t.dim
    for perm in itertools.permutations(range(1, d + 1)):
        if t.series == "A":
            yield SignedPermutation(t, perm, (1,) * d)
            continue
        for mask in range(2 ** d):
            signs = tuple(-1 if mask >> i & 1 else 1 for i in range(d))
            if t.series == "D" and signs.count(-1) % 2:
                continue
            yield SignedPermutation(t, perm, signs)


def w0_action(t: FiniteType) -> SignedPermutation:
    """Longest element: coordinate reversal in series A, minus the identity
    in B and C, and in D minus the identity when the rank is even, else the
    sign change on the first n-1 coordinates."""
    d = t.dim
    if t.series == "A":
        return SignedPermutation(t, tuple(range(d, 0, -1)), (1,) * d)
    if t.series in ("B", "C") or t.n % 2 == 0:
        return SignedPermutation(t, tuple(range(1, d + 1)), (-1,) * d)
    return SignedPermutation(t, tuple(range(1, d + 1)), (-1,) * (d - 1) + (1,))


# ---------------------------------------------------------------------------
# Roots and weights in epsilon coordinates
# ---------------------------------------------------------------------------

def simple_roots(t: FiniteType) -> tuple[tuple[Fraction, ...], ...]:
    d = t.dim
    n = t.n

    def eps(*pairs):
        v = [Fraction(0)] * d
        for idx, c in pairs:
            v[idx - 1] = Fraction(c)
        return tuple(v)

    roots = [eps((i, 1), (i + 1, -1)) for i in range(1, n)]
    if t.series == "A":
        roots.append(eps((n, 1), (n + 1, -1)))
    elif t.series == "B":
        roots.append(eps((n, 1)))
    elif t.series == "C":
        roots.append(eps((n, 2)))
    else:
        roots.append(eps((n - 1, 1), (n, 1)))
    return tuple(roots)


def fundamental_weight_eps(t: FiniteType, i: int) -> tuple[Fraction, ...]:
    """Fundamental weight in epsilon coordinates (Bourbaki numbering)."""
    n, d = t.n, t.dim
    if not 1 <= i <= n:
        raise BadIndex(f"weight index {i} out of range for rank {n}")
    if t.series == "A":
        base = [Fraction(1)] * i + [Fraction(0)] * (d - i)
        shift = Fraction(i, n + 1)
        return tuple(b - shift for b in base)
    if t.series == "B":
        if i < n:
            return tuple([Fraction(1)] * i + [Fraction(0)] * (n - i))
        return tuple([Fraction(1, 2)] * n)
    if t.series == "C":
        return tuple([Fraction(1)] * i + [Fraction(0)] * (n - i))
    if i <= n - 2:
        return tuple([Fraction(1)] * i + [Fraction(0)] * (n - i))
    if i == n - 1:
        return tuple([Fraction(1, 2)] * (n - 1) + [Fraction(-1, 2)])
    return tuple([Fraction(1, 2)] * n)


def omega_in_roots(t: FiniteType, i: int) -> tuple[Fraction, ...]:
    """Expansion of a fundamental weight on the simple roots, per the four
    classical closed forms."""
    n = t.n
    if not 1 <= i <= n:
        raise BadIndex(f"weight index {i} out of range for rank {n}")
    if t.series == "A":
        return tuple(Fraction(j * (n - i + 1), n + 1) if j <= i
                     else Fraction(i * (n - j + 1), n + 1)
                     for j in range(1, n + 1))
    if t.series == "B":
        if i < n:
            return tuple(Fraction(min(j, i)) for j in range(1, n + 1))
        return tuple(Fraction(j, 2) for j in range(1, n + 1))
    if t.series == "C":
        out = [Fraction(min(j, i)) for j in range(1, n + 1)]
        out[n - 1] = Fraction(i, 2)
        return tuple(out)
    # series D
    if i <= n - 2:
        out = [Fraction(min(j, i)) for j in range(1, n - 1)]
        return tuple(out + [Fraction(i, 2), Fraction(i, 2)])
    half = [Fraction(j, 2) for j in range(1, n - 1)]
    if i == n - 1:
        return tuple(half + [Fraction(n, 4), Fraction(n - 2, 4)])
    return tuple(half + [Fraction(n - 2, 4), Fraction(n, 4)])


def height_of_weight(t: FiniteType, i: int) -> Fraction:
    return sum(omega_in_roots(t, i))


def _solve(rows, rhs):
    """Exact Gauss-Jordan solve of rows . x = rhs: one solution (free
    unknowns zero, None if the system is inconsistent) and the rank."""
    width = len(rows[0])
    m = [list(row) + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for c in range(width):
        r = len(pivots)
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    if any(row[width] != 0 for row in m[len(pivots):]):
        return None, len(pivots)
    x = [Fraction(0)] * width
    for row, c in zip(m, pivots):
        x[c] = row[width]
    return tuple(x), len(pivots)


@lru_cache(maxsize=None)
def _height_functional(series: str, n: int) -> tuple[Fraction, ...]:
    """Vector u with <u, v> = height of v for v in the root span: a solution
    of u . alpha_j = 1 for every simple root (underdetermined for series A,
    where any solution works on the sum-zero root span)."""
    roots = simple_roots(FiniteType(series, n))
    u, rank = _solve(roots, [1] * n)
    if rank < n:
        raise InvariantViolation("simple roots are not independent")
    return u


def height_eps(t: FiniteType, v) -> Fraction:
    """Height of a root-span vector given in epsilon coordinates."""
    u = _height_functional(t.series, t.n)
    return sum(a * b for a, b in zip(u, v))


def root_coordinates(t: FiniteType, v) -> tuple[Fraction, ...]:
    """Exact coordinates of v on the simple-root basis."""
    roots = simple_roots(t)
    coeffs, rank = _solve(list(zip(*roots)), v)
    if rank < t.n:
        raise InvariantViolation("degenerate simple roots")
    if coeffs is None:
        raise InvariantViolation(f"{v} is outside the root span")
    return coeffs


# ---------------------------------------------------------------------------
# Truncated atomic length
# ---------------------------------------------------------------------------

def _check_ell(t: FiniteType, ell: int) -> None:
    lo = 2 if t.series == "D" else 1
    if not lo <= ell <= t.n:
        raise BadEll(f"level {ell} out of range [{lo}, {t.n}] for {t.series}")


def truncated_staircase_eps(t: FiniteType, ell: int) -> tuple[Fraction, ...]:
    """Sum of the last ell fundamental weights, epsilon coordinates."""
    _check_ell(t, ell)
    out = [Fraction(0)] * t.dim
    for i in range(t.n - ell + 1, t.n + 1):
        w = fundamental_weight_eps(t, i)
        out = [a + b for a, b in zip(out, w)]
    return tuple(out)


def atomic_length_finite(t: FiniteType, ell: int, w: SignedPermutation) -> int:
    """Height of rho_ell - w(rho_ell); a nonnegative integer on every
    group element."""
    _check_ell(t, ell)
    rho = truncated_staircase_eps(t, ell)
    moved = w.act(rho)
    diff = tuple(a - b for a, b in zip(rho, moved))
    h = height_eps(t, diff)
    if h.denominator != 1 or h < 0:
        raise InvariantViolation(
            f"height {h} of {diff} is not a nonnegative integer")
    return int(h)


def b_bound(t: FiniteType, ell: int) -> int:
    """Closed-form maximum of the truncated atomic length (value at the
    longest element)."""
    _check_ell(t, ell)
    n = t.n
    if t.series == "A":
        num = ell * (ell + 1) * (3 * n - 2 * ell + 2)
    elif t.series == "B":
        num = 3 * n * (n + 1) * (2 * ell - 1) - 2 * ell * (ell * ell - 1)
    elif t.series == "C":
        num = (6 * n * n - 1) * ell - ell * ell * (2 * ell - 3)
    else:
        num = 2 * (ell - 1) * (3 * n * n - 3 * n - ell * (ell - 2))
    q, r = divmod(num, 6)
    if r:
        raise InvariantViolation(f"bound for {t}, level {ell} not an integer")
    return q


def saturation_predicted(t: FiniteType, ell: int) -> bool:
    """Whether the image is the full interval [0, b].

    This is the computationally verified characterization; the stated rule
    ("n != 2 and ell <= n, or n = 2 and ell in {1, 3}") does not survive
    direct enumeration at the small-rank edges:

    * series C never saturates at level 1: the values there are sums of
      distinct odd numbers from {1, 3, ..., 2n-1}, so 2 is missing at every
      rank;
    * at rank 2, only level 1 of series A and B saturates (the level-2 image
      misses 2; a level-3 weight does not exist), plus the reducible rank-2
      case of series D;
    * at rank 3, level 2 fails in series C (missing {5, 12}) and in series D
      (missing {3}); the induction arguments for those series start at
      rank 4.

    From rank 4 on, every admissible level saturates except series C at
    level 1 (checked by enumeration through rank 6; the rank-raising
    inequalities hold from there on).
    """
    _check_ell(t, ell)
    if t.series == "C" and ell == 1:
        return False
    if t.n == 2:
        return t.series == "D" or ell == 1
    if t.n == 3 and ell == 2 and t.series in ("C", "D"):
        return False
    return ell <= t.n


@dataclass(frozen=True)
class SaturationResult:
    type: FiniteType
    ell: int
    bound: int
    image: tuple[int, ...]
    is_interval: bool

    @property
    def missing(self) -> tuple[int, ...]:
        present = set(self.image)
        return tuple(k for k in range(self.bound + 1) if k not in present)

    def to_json_dict(self) -> dict:
        return {"type": self.type.series, "n": self.type.n, "ell": self.ell,
                "b": self.bound, "image_min": min(self.image),
                "image_max": max(self.image),
                "is_interval": self.is_interval,
                "missing": list(self.missing)}


def saturation_check(t: FiniteType, ell: int) -> SaturationResult:
    """Enumerate the group and test whether the atomic length image is the
    full interval [0, b]."""
    _check_ell(t, ell)
    b = b_bound(t, ell)
    values = set()
    for w in enumerate_group(t):
        values.add(atomic_length_finite(t, ell, w))
    image = tuple(sorted(values))
    is_interval = image == tuple(range(b + 1))
    if max(image) > b:
        raise InvariantViolation(
            f"value {max(image)} above the closed-form bound {b}")
    return SaturationResult(t, ell, b, image, is_interval)
