"""Finite classical Weyl groups A/B/C/D: fundamental weights in exact
arithmetic, truncated-staircase atomic lengths, their closed-form maxima,
and exact saturation checks by a subset DP over signed permutations.

Groups act on epsilon coordinates (dimension n+1 for series A, n otherwise)
by signed permutations; the height of a root-span vector is its pairing with
the closed-form sum of the fundamental coweights.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from . import SERIES, budget
from .errors import (BadEll, BadIndex, BadLength, InvariantViolation,
                     RankMismatch)


class FiniteType(namedtuple("FiniteType", "series n")):
    __slots__ = ()

    def __new__(cls, series, n):
        if series not in SERIES:
            raise BadIndex(f"unknown series {series!r}")
        if n < 1 or (series == "D" and n < 2):
            raise BadLength(f"rank {n} invalid for series {series}")
        return tuple.__new__(cls, (series, n))

    @property
    def dim(self) -> int:
        return self.n + 1 if self.series == "A" else self.n

    def order(self) -> int:
        if self.series == "A":
            return math.factorial(self.n + 1)
        if self.series == "D":
            return 2 ** (self.n - 1) * math.factorial(self.n)
        return 2 ** self.n * math.factorial(self.n)


class SignedPermutation(namedtuple("SignedPermutation", "type perm signs")):
    """w(e_i) = signs_i * e_{perm_i}; series A forces all signs positive,
    series D an even number of negative ones."""

    __slots__ = ()

    def __new__(cls, type, perm, signs):
        d, series = type.dim, type.series
        if sorted(perm) != list(range(1, d + 1)):
            raise BadIndex(f"perm {perm} is not a permutation of 1..{d}")
        if any(s not in (1, -1) for s in signs) or len(signs) != d:
            raise BadIndex(f"bad sign vector {signs}")
        if series == "A" and any(s != 1 for s in signs):
            raise BadIndex("series A has no sign changes")
        if series == "D" and signs.count(-1) % 2:
            raise BadIndex("series D needs an even number of sign changes")
        return tuple.__new__(cls, (type, perm, signs))

    def act(self, v):
        """Image of a vector in epsilon coordinates."""
        t, perm, signs = self
        if len(v) != t.dim:
            raise RankMismatch(f"vector of length {len(v)} for {t}")
        out = [Fraction(0)] * len(v)
        for p, s, x in zip(perm, signs, v):
            out[p - 1] = s * x
        return tuple(out)


def identity_element(t: FiniteType) -> SignedPermutation:
    d = t.dim
    return SignedPermutation(t, tuple(range(1, d + 1)), (1,) * d)


def enumerate_group(t: FiniteType):
    """All group elements; permutations in lexicographic order, sign vectors
    in binary order within each permutation."""
    budget.check(t.order(), what=f"enumeration of W({t.series}{t.n})")
    d, series = t.dim, t.series
    for perm in itertools.permutations(range(1, d + 1)):
        if series == "A":
            yield SignedPermutation(t, perm, (1,) * d)
            continue
        for mask in range(2 ** d):
            signs = tuple(-1 if mask >> i & 1 else 1 for i in range(d))
            if series == "D" and signs.count(-1) % 2:
                continue
            yield SignedPermutation(t, perm, signs)


def w0_action(t: FiniteType) -> SignedPermutation:
    """Longest element: coordinate reversal in series A, minus the identity
    in B and C, and in D minus the identity when the rank is even, else the
    sign change on the first n-1 coordinates."""
    d, series = t.dim, t.series
    if series == "A":
        return SignedPermutation(t, tuple(range(d, 0, -1)), (1,) * d)
    if series in ("B", "C") or t.n % 2 == 0:
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
    series, n = t.series, t.n
    if not 1 <= i <= n:
        raise BadIndex(f"weight index {i} out of range for rank {n}")
    if series == "A":
        base = [Fraction(1)] * i + [Fraction(0)] * (n + 1 - i)
        shift = Fraction(i, n + 1)
        return tuple(b - shift for b in base)
    # e_1 + ... + e_i, below the spin weights of B (i = n) and D (i >= n-1)
    if i < {"B": n, "C": n + 1, "D": n - 1}[series]:
        return tuple([Fraction(1)] * i + [Fraction(0)] * (n - i))
    if series == "D" and i == n - 1:
        return tuple([Fraction(1, 2)] * (n - 1) + [Fraction(-1, 2)])
    return tuple([Fraction(1, 2)] * n)


@lru_cache(maxsize=None)
def _height_functional(series: str, n: int) -> tuple[Fraction, ...]:
    """Vector u with <u, v> = height of v for v in the root span: the sum of
    the fundamental coweights in epsilon coordinates, u_i = d - i (series A
    and D), d - i + 1 (B) or d - i + 1/2 (C) over d coordinates, so that
    u . alpha_j = 1 for every simple root.  Series A ends in u_d = 0; any
    shift of u along (1, ..., 1) agrees on the sum-zero root span."""
    d = n + 1 if series == "A" else n
    shift = {"A": 0, "B": 1, "C": Fraction(1, 2), "D": 0}[series]
    return tuple(Fraction(d - i) + shift for i in range(1, d + 1))


def height_eps(t: FiniteType, v) -> Fraction:
    """Height of a root-span vector given in epsilon coordinates."""
    u = _height_functional(t.series, t.n)
    return sum(a * b for a, b in zip(u, v))


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
    n = t.n
    out = [Fraction(0)] * t.dim
    for i in range(n - ell + 1, n + 1):
        out = [a + b for a, b in zip(out, fundamental_weight_eps(t, i))]
    return tuple(out)


def atomic_length_finite(t: FiniteType, ell: int, w: SignedPermutation) -> int:
    """Height of rho_ell - w(rho_ell); a nonnegative integer on every
    group element."""
    return _length(t, truncated_staircase_eps(t, ell), w)


def _length(t: FiniteType, rho, w: SignedPermutation) -> int:
    """Height of rho - w(rho) for a staircase weight rho already built."""
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
    series, n = t.series, t.n
    if series == "A":
        num = ell * (ell + 1) * (3 * n - 2 * ell + 2)
    elif series == "B":
        num = 3 * n * (n + 1) * (2 * ell - 1) - 2 * ell * (ell * ell - 1)
    elif series == "C":
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

    * series C saturates at level 1 only at rank 1 (where b = 1): the values
      there are sums of distinct odd numbers from {1, 3, ..., 2n-1}, so 2
      is missing at every rank n >= 2;
    * at rank 2, only level 1 of series A and B saturates (the level-2 image
      misses 2; a level-3 weight does not exist), plus the reducible rank-2
      case of series D;
    * at rank 3, level 2 fails in series C (missing {5, 12}) and in series D
      (missing {3}); the induction arguments for those series start at
      rank 4.

    From rank 4 on, every admissible level saturates except series C at
    level 1.  This rule matches the exact image (the subset DP of
    saturation_check) for every series, rank 1 to 8 and level; the
    rank-raising inequalities carry it further.
    """
    _check_ell(t, ell)
    if t.series == "C" and ell == 1:
        return t.n == 1
    if t.n == 2:
        return t.series == "D" or ell == 1
    if t.n == 3 and ell == 2 and t.series in ("C", "D"):
        return False
    return ell <= t.n


class SaturationResult(namedtuple("SaturationResult",
                                  "type ell bound image is_interval")):
    __slots__ = ()

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


def _image(t: FiniteType, ell: int, rho, signs, shifts) -> tuple[int, ...]:
    """Sorted image of the truncated atomic length over the whole group,
    for the staircase weight rho of level ell.

    With h = <u, .> the height functional, the element w(e_i) = s_i e_pi(i)
    has length h(rho) - sum_i s_i rho_i u_pi(i).  A DP over the source
    coordinates i = 0, 1, ... has one state per set of used targets pi(i);
    the partial sums a state reaches are the set bits of one integer.  All
    values are scaled by a common denominator, so the arithmetic is exact.

    Series D allows only an even number of sign changes, but u_n = 0 there:
    the sign sent to e_n does not change the value, so every sign vector
    has an even one with the same length and the signs stay unconstrained.
    """
    series, n, d = t.series, t.n, t.dim
    u = _height_functional(series, n)
    if series == "D" and u[-1] != 0:
        raise InvariantViolation(f"height functional {u} of D{n} needs "
                                 f"sign parity")
    terms = [[r * x for x in u] for r in rho]
    scale = math.lcm(*(q.denominator for row in terms for q in row))
    a = [[int(q * scale) for q in row] for row in terms]
    # partial sums stay >= 0 once shifted by the largest possible drop
    offset = sum(max(abs(x) for x in row) for row in a)
    # each of saturation_check's shifts moves 2 * offset + 1 bits
    budget.check(shifts * -(-(2 * offset + 1) // 64),
                 what=f"saturation DP of {series}{n}")
    full = (1 << d) - 1
    table = [0] * (full + 1)
    table[0] = 1 << offset
    for mask in range(full):   # every transition goes to a larger mask
        bits, table[mask] = table[mask], 0
        row = a[mask.bit_count()]
        for j in range(d):
            if mask >> j & 1:
                continue
            for s in signs:
                step = -s * row[j]
                table[mask | 1 << j] |= (bits << step if step >= 0
                                         else bits >> -step)
    bits = table[full]
    base = sum(a[i][i] for i in range(d)) - offset
    image = []
    while bits:
        low = bits & -bits
        bits ^= low
        value, frac = divmod(base + low.bit_length() - 1, scale)
        if frac or value < 0:
            raise InvariantViolation(
                f"atomic length {Fraction(value * scale + frac, scale)} of "
                f"{series}{n}, level {ell} is not a nonnegative integer")
        image.append(value)
    return tuple(image)


def saturation_check(t: FiniteType, ell: int) -> SaturationResult:
    """Test whether the atomic length image is the full interval [0, b].

    The image comes from the subset DP of _image; the values at the
    identity and at the longest element are re-evaluated directly through
    the height functional and must be its minimum 0 and maximum b.  The
    staircase weight is built once for all three.
    """
    b = b_bound(t, ell)
    signs = (1,) if t.series == "A" else (1, -1)
    # _image's shifts, d * 2^(d-1) (used targets, free target) pairs per
    # sign, move a word or more each: refuse before the staircase is built
    shifts = (t.dim << t.dim - 1) * len(signs)
    budget.check(shifts, what=f"saturation DP of {t.series}{t.n}")
    rho = truncated_staircase_eps(t, ell)
    image = _image(t, ell, rho, signs, shifts)
    if image[-1] > b:
        raise InvariantViolation(
            f"value {image[-1]} above the closed-form bound {b}")
    ends = (_length(t, rho, identity_element(t)),
            _length(t, rho, w0_action(t)))
    if ends != (0, b) or (image[0], image[-1]) != ends:
        raise InvariantViolation(
            f"image of {t.series}{t.n}, level {ell} spans "
            f"[{image[0]}, {image[-1]}]; identity and longest element give "
            f"{ends}, expected (0, {b})")
    is_interval = image == tuple(range(b + 1))
    return SaturationResult(t, ell, b, image, is_interval)
