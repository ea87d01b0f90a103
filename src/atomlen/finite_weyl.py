"""Finite classical Weyl groups A/B/C/D: fundamental weights as integer
numerators over a per-type denominator, truncated-staircase atomic lengths,
their closed-form maxima, and exact saturation checks by a subset DP over
signed permutations.  Fractions appear only in the public views.

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
                     RankMismatch, exact_int)


class FiniteType(namedtuple("FiniteType", "series n")):
    __slots__ = ()

    def __new__(cls, series, n):
        if series not in SERIES:
            raise BadIndex(f"unknown series {series!r}")
        n = exact_int(n, "rank", BadLength)
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
        out = [0] * len(v)
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
    n = t.n
    last = {"A": {n - 1: 1, n: -1}, "B": {n - 1: 1}, "C": {n - 1: 2},
            "D": {n - 2: 1, n - 1: 1}}[t.series]
    rows = [{i: 1, i + 1: -1} for i in range(n - 1)] + [last]
    return tuple(tuple(Fraction(r.get(j, 0)) for j in range(t.dim))
                 for r in rows)


def _weight(series: str, n: int, i: int) -> tuple[tuple[int, ...], int]:
    """Fundamental weight i (Bourbaki numbering) in epsilon coordinates, as
    integer numerators over the type's denominator (Bourbaki, Planches
    I-IV): n+1 in series A, 2 in B and D, 1 in C."""
    if series == "A":   # e_1 + ... + e_i - i/(n+1) (e_1 + ... + e_{n+1})
        return (n + 1 - i,) * i + (-i,) * (n + 1 - i), n + 1
    scale = 1 if series == "C" else 2
    # e_1 + ... + e_i, below the spin weights of B (i = n) and D (i >= n-1)
    if i < {"B": n, "C": n + 1, "D": n - 1}[series]:
        return (scale,) * i + (0,) * (n - i), scale
    return (1,) * (n - 1) + (-1 if series == "D" and i == n - 1 else 1,), 2


def fundamental_weight_eps(t: FiniteType, i: int) -> tuple[Fraction, ...]:
    """Fundamental weight in epsilon coordinates (Bourbaki numbering)."""
    if not 1 <= i <= t.n:
        raise BadIndex(f"weight index {i} out of range for rank {t.n}")
    omega, scale = _weight(t.series, t.n, i)
    return tuple(Fraction(x, scale) for x in omega)


@lru_cache(maxsize=None)
def _heights(series: str, n: int) -> tuple[tuple[int, ...], int]:
    """Vector u with <u, v> = height of v for v in the root span, as
    numerators over 2 in series C, 1 elsewhere: the sum of the fundamental
    coweights in epsilon coordinates, u_i = d - i (series A and D), d - i + 1
    (B) or d - i + 1/2 (C) over d coordinates, so that u . alpha_j = 1 for
    every simple root.  Series A ends in u_d = 0; any shift of u along
    (1, ..., 1) agrees on the sum-zero root span."""
    d = n + 1 if series == "A" else n
    if series == "C":
        return tuple(2 * (d - i) + 1 for i in range(1, d + 1)), 2
    return tuple(d - i + (series == "B") for i in range(1, d + 1)), 1


def height_eps(t: FiniteType, v) -> Fraction:
    """Height of a root-span vector given in epsilon coordinates."""
    u, scale = _heights(t.series, t.n)
    return Fraction(sum(a * b for a, b in zip(u, v)), scale)


# ---------------------------------------------------------------------------
# Truncated atomic length
# ---------------------------------------------------------------------------

def _check_ell(t: FiniteType, ell: int) -> None:
    lo = 2 if t.series == "D" else 1
    if not lo <= ell <= t.n:
        raise BadEll(f"level {ell} out of range [{lo}, {t.n}] for {t.series}")


@lru_cache(maxsize=None)
def _staircase(t: FiniteType, ell: int) -> tuple[tuple[int, ...], int]:
    """Sum of the last ell fundamental weights, over _weight's denominator:
    ell rows of dim numerators, charged before they are summed."""
    _check_ell(t, ell)
    budget.check(t.dim * ell, what=f"staircase weight of {t.series}{t.n}")
    weights = [_weight(*t, i) for i in range(t.n - ell + 1, t.n + 1)]
    return tuple(map(sum, zip(*(w for w, _ in weights)))), weights[0][1]


def truncated_staircase_eps(t: FiniteType, ell: int) -> tuple[Fraction, ...]:
    """Sum of the last ell fundamental weights, epsilon coordinates."""
    rho, scale = _staircase(t, ell)
    return tuple(Fraction(x, scale) for x in rho)


def atomic_length_finite(t: FiniteType, ell: int, w: SignedPermutation) -> int:
    """Height of rho_ell - w(rho_ell), in integers; a nonnegative integer
    on every group element."""
    rho, scale = _staircase(t, ell)
    u, u_scale = _heights(t.series, t.n)
    diff = [a - b for a, b in zip(rho, w.act(rho))]
    h, frac = divmod(sum(a * b for a, b in zip(u, diff)), scale * u_scale)
    if frac or h < 0:
        raise InvariantViolation(
            f"height {h + Fraction(frac, scale * u_scale)} of "
            f"{tuple(Fraction(x, scale) for x in diff)} is not a "
            f"nonnegative integer")
    return h


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


def _image(t: FiniteType, ell: int) -> tuple[int, ...]:
    """Sorted image of the truncated atomic length over the whole group.

    With h = <u, .> the height functional, the element w(e_i) = s_i e_pi(i)
    has length h(rho) - sum_i s_i rho_i u_pi(i).  A DP over the source
    coordinates i = 0, 1, ... has one state per set of used targets pi(i);
    the partial sums a state reaches are the set bits of one integer.  All
    values are integer numerators over the product of the weight and height
    denominators, with the factor common to that product and every entry
    divided out, so the arithmetic is exact and the bitsets stay narrow.
    Its shifts are charged before the staircase is built, then by the word.

    Series D allows only an even number of sign changes, but u_n = 0 there:
    the sign sent to e_n does not change the value, so every sign vector
    has an even one with the same length and the signs stay unconstrained.
    """
    series, n, d = t.series, t.n, t.dim
    signs = (1,) if series == "A" else (1, -1)
    # d * 2^(d-1) (used targets, free target) pairs per sign, one shift of
    # a word or more each: refuse before the staircase is built
    shifts = (d << d - 1) * len(signs)
    what = f"saturation DP of {series}{n}"
    budget.check(shifts, what=what)
    u, u_scale = _heights(series, n)
    if series == "D" and u[-1] != 0:
        raise InvariantViolation(f"height functional {u} of D{n} needs "
                                 f"sign parity")
    rho, scale = _staircase(t, ell)
    a = [[r * x for x in u] for r in rho]
    g = math.gcd(scale * u_scale, *itertools.chain(*a))
    scale, a = scale * u_scale // g, [[x // g for x in row] for row in a]
    # partial sums stay >= 0 once shifted by the largest possible drop
    offset = sum(max(abs(x) for x in row) for row in a)
    # each shift moves 2 * offset + 1 bits
    budget.check(shifts * -(-(2 * offset + 1) // 64), what=what)
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
    the height functional and must be its minimum 0 and maximum b.  All
    three read the one cached staircase weight.
    """
    b = b_bound(t, ell)
    image = _image(t, ell)
    ends = (atomic_length_finite(t, ell, identity_element(t)),
            atomic_length_finite(t, ell, w0_action(t)))
    if ends != (0, b) or (image[0], image[-1]) != ends:
        raise InvariantViolation(
            f"image of {t.series}{t.n}, level {ell} spans "
            f"[{image[0]}, {image[-1]}]; identity and longest element give "
            f"{ends}, expected (0, {b})")
    is_interval = image == tuple(range(b + 1))
    return SaturationResult(t, ell, b, image, is_interval)
