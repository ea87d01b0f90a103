"""Hall decompositions of Z/mZ, the difference-set identities of the
permutation and signed-permutation orbits, and signed difference witnesses."""
from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple

from . import budget
from .errors import (BadLength, BadSum, InvariantViolation, NotPrime,
                     SearchFailed, exact_int)


def hall_decompose(m: int, d) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Enumeration pair (a, b) of Z/mZ with b_i - a_i = d_i for all i.

    Hall's exchange chain (M. Hall, Proc. AMS 3 (1952)), from a = b = id:
    to set d_k, k < last, positions k and last free their b-values; k takes
    a_k and a_k + d_k, and each position whose b-value is taken takes the
    free a-value and its own difference, until a freed b-value is taken and
    last gets the rest.  The displaced positions follow one orbit of the
    permutation j -> where[a_k + d_k + a_last - a_j], so a chain has under m
    steps: O(m^2) in all, each counted against the budget.
    """
    m = exact_int(m, "m", BadLength)
    if m < 1:
        raise BadLength(f"need m >= 1, got {m}")
    d = tuple(x % m for x in d)
    if len(d) != m:
        raise BadLength(f"need {m} differences, got {len(d)}")
    if sum(d) % m != 0:
        raise BadSum(f"differences sum to {sum(d) % m} mod {m}, not 0")

    a, b, where = list(range(m)), list(range(m)), list(range(m))
    last, steps = m - 1, 0
    for k in range(last):
        if not d[k]:
            continue
        spares = (b[k], b[last])
        i, want, u, spare = k, d[k], a[k], a[last]
        for _ in range(m):
            y = (u + want) % m
            j = where[y]
            a[i], b[i], where[y] = u, y, i
            steps += 1
            if not steps & 1023:
                budget.check(steps, what=f"Hall decomposition mod {m} "
                                         f"(exchange steps)")
            if y in spares:   # last's b-value is a spare, never looked up
                a[last] = spare
                b[last] = spares[1] if y == spares[0] else spares[0]
                break
            i, want, u, spare = j, (b[j] - a[j]) % m, spare, a[j]
        else:
            raise InvariantViolation(
                f"Hall exchange chain for d_{k} mod {m} revisits a position")
    if (len(set(a)) != m or len(set(b)) != m
            or any((y - x) % m != e for x, y, e in zip(a, b, d))):
        raise InvariantViolation(f"Hall pair for d={d} mod {m} does not check")
    return tuple(a), tuple(b)


# ---------------------------------------------------------------------------
# Orbit classes: the coordinate symmetries act linearly, so every set below
# is a union of orbits and is handled through one canonical form per orbit.
# ---------------------------------------------------------------------------

def _class(family: str, x: int, m: int) -> int:
    """Class of one coordinate: x (A), min(x, -x mod m) (C).  A vector's
    sorted classes are the canonical form of its orbit."""
    return min(x, -x % m) if family == "C" else x


def _class_size(family: str, cls, m: int) -> int:
    """Number of vectors whose canonical form is cls."""
    size = math.factorial(len(cls))
    for count in Counter(cls).values():
        size //= math.factorial(count)
    if family == "C":
        size <<= sum(1 for x in cls if 2 * x % m)   # x and -x differ
    return size


def _arrangements(values):
    """Distinct orderings of a multiset, each once."""
    if not values:
        yield ()
        return
    for v in sorted(set(values)):
        rest = list(values)
        rest.remove(v)
        for tail in _arrangements(rest):
            yield (v,) + tail


def _class_members(family: str, cls, m: int):
    """Every vector whose canonical form is cls."""
    for p in _arrangements(cls):
        if family == "A":
            yield p
        else:
            yield from itertools.product(*(sorted({x, -x % m}) for x in p))


def _difference_classes(family: str, e, m: int) -> dict:
    """Canonical forms of the w.e - e, each with the number of w in W giving
    it, by a subset DP: coordinate i takes the class of s.e_j - e_i for an
    unused j and a sign s (+1 only in A).  A state is one int: the used j in
    the low n bits, then a count per class the moves make (<= 2n^2 of them)."""
    n, width = len(e), len(e).bit_length()   # a count <= n fits in width
    signs = (1, -1) if family == "C" else (1,)
    moves = [[(1 << j, _class(family, (s * y - x) % m, m))
              for j, y in enumerate(e) for s in signs] for x in e]
    field = {c: n + r * width for r, c in
             enumerate(sorted({c for row in moves for _, c in row}))}
    words = -(-(n + len(field) * width) // 64)   # 64-bit words of a key
    states, work = {0: 1}, 0
    for row in moves:
        work += len(states) * len(row) * words
        budget.check(work, what=f"orbit classes of {family}{n} mod {m} "
                                f"(DP states x moves)")
        row = [(bit, bit + (1 << field[c])) for bit, c in row]
        nxt = {}
        for key, count in states.items():
            for bit, move in row:
                if not key & bit:
                    nxt[key + move] = nxt.get(key + move, 0) + count
        states = nxt
    return {tuple(c for c, at in field.items()
                  for _ in range(key >> at & (1 << width) - 1)): count
            for key, count in states.items()}


class SumsetCertificate(namedtuple("SumsetCertificate",
                                   "family n modulus equal missing")):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"family": self.family, "n": self.n, "modulus": self.modulus,
                "equal": self.equal,
                "missing": [list(v) for v in self.missing]}


def verify_sumset_equality(family: str, n: int,
                           modulus: int | None = None) -> SumsetCertificate:
    """Check the difference-set identity for the orbit family.

    Family A: orbit minus itself must be the zero-sum subgroup of (Z/nZ)^n.
    Family C: orbit minus itself must be all of (Z/(2n+1)Z)^n (or of the
    overridden modulus group).  The certificate lists missing elements.

    O = W.e, e = (1, ..., n) mod m, has O - O = W.{w.e - e} as W acts
    linearly: _difference_classes gives the canonical forms of the w.e - e
    with counts adding up to |W| = n! (A) or 2^n n! (C), and no orbit vector.
    The target's orbits (zero-sum multisets from Z/m for A, all multisets of
    +/- classes 0..m//2 for C) that are not hit are expanded into vectors.
    """
    if family not in ("A", "C"):
        raise BadLength(f"unknown family {family!r}")
    if n < 1:
        raise BadLength(f"need n >= 1, got {n}")
    m = (n if family == "A" else 2 * n + 1) if modulus is None else modulus
    if m < 1:
        raise BadLength(f"need a modulus >= 1, got {m}")
    # classes 0..top-1 in k places; in A the zero sum fixes the last class
    top, k = (m // 2 + 1, n) if family == "C" else (m, n - 1)
    classes = math.comb(top + k - 1, k)
    budget.check(classes, what=f"target classes of {family}{n} mod {m}")
    e = tuple(i % m for i in range(1, n + 1))
    hit = _difference_classes(family, e, m)
    if family == "A" and any(sum(c) % m for c in hit):
        raise InvariantViolation(
            f"difference set escapes target for {family},{n}")
    expected = math.factorial(n) << (n if family == "C" else 0)
    if (size := sum(hit.values())) != expected:
        raise InvariantViolation(f"orbit {family},{n} mod {m} has size "
                                 f"{size}, expected {expected}")
    absent = m ** k - sum(_class_size(family, c, m) for c in hit)
    budget.check(classes + absent, what="orbit classes and missing vectors")
    heads = itertools.combinations_with_replacement(range(top), k)
    targets = heads if family == "C" else (
        h + (x,) for h in heads for x in [-sum(h) % m] if not h or x >= h[-1])
    missing = tuple(sorted(v for c in targets if c not in hit
                           for v in _class_members(family, c, m)))
    if len(missing) != absent:
        raise InvariantViolation(
            f"{len(missing)} missing vectors for {family},{n} mod {m}, "
            f"expected {absent}")
    return SumsetCertificate(family, n, m, not missing, missing)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def c_difference_witness(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Write a in (Z/pZ)^n, n = len(a) and p = 2n+1 prime, as w1 - w2 with
    both factors in the signed-permutation orbit of (1, ..., n).

    The orbit consists exactly of the vectors with nonzero, pairwise
    +/- distinct coordinates, so it is enough to backtrack over x with
    x_i != 0, x_i != +/-x_j and the same for x - a; then w1 = x, w2 = x - a.
    A failure would contradict the existence theorem, so it raises.  Every
    dead end of the search counts against the budget.
    """
    n = len(a)
    p = 2 * n + 1
    if not is_prime(p):
        raise NotPrime(f"2n+1 = {p} is not prime")
    a = tuple(v % p for v in a)

    x = [0] * n
    used_x = bytearray(p)   # +/- classes 1..n
    used_y = bytearray(p)
    dead_ends = 0

    def rec(i: int) -> bool:
        nonlocal dead_ends
        if i == n:
            return True
        for v in range(1, p):
            cv = _class("C", v, p)
            if used_x[cv]:
                continue
            w = (v - a[i]) % p
            cw = _class("C", w, p)
            if w == 0 or used_y[cw]:
                continue
            used_x[cv] = used_y[cw] = 1
            x[i] = v
            if rec(i + 1):
                return True
            used_x[cv] = used_y[cw] = 0
        dead_ends += 1
        if not dead_ends & 1023:
            budget.check(dead_ends, what=f"difference witness mod {p} "
                                         f"(dead ends)")
        return False

    if not rec(0):
        raise SearchFailed(f"no difference witness for {a} mod {p}")
    w1 = tuple(x)
    w2 = tuple((v - ai) % p for v, ai in zip(x, a))
    return w1, w2
