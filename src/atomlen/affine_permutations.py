"""Affine permutations in window notation, their entropy and atomic length.

An element w of the rank-n affine symmetric group is stored by its window
(w(1), ..., w(n)); the defining extension rule w(i + kn) = w(i) + kn turns the
window into a bijection of the integers.  Valid windows have pairwise distinct
residues mod n and sum n(n+1)/2.
"""
from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import index, mul, sub

from .errors import (BadLength, BadSum, DomainViolation, InvariantViolation,
                     RankMismatch, ResidueClash, exact_int)
from .quadratic_forms import eval_P


class AffinePermutation(namedtuple("AffinePermutation", "n window")):
    """Window-notation element of the affine symmetric group of rank n."""

    __slots__ = ()


class FinitePermutation(namedtuple("FinitePermutation", "n images")):
    """Permutation of {1, ..., n}, stored by its image tuple."""

    __slots__ = ()


class TranslationVector(namedtuple("TranslationVector", "n coords")):
    """Element x of the type A root lattice (integer coordinates, sum 0)."""

    __slots__ = ()


def make_affine(n: int, window) -> AffinePermutation:
    """Validate a window and wrap it.

    Raises DomainViolation / BadLength / ResidueClash / BadSum when the
    window is not the window of an affine permutation of rank n.
    """
    n = exact_int(n, "rank", BadLength)
    if n < 1:
        raise BadLength(f"rank must be positive, got {n}")
    try:
        win = tuple(map(index, window))
    except TypeError:
        raise DomainViolation(f"window must be a sequence of integers, got "
                              f"{window!r}") from None
    if len(win) != n:
        raise BadLength(f"window has length {len(win)}, expected {n}")
    if len({v % n for v in win}) != n:
        raise ResidueClash(f"window {win} has repeated residues mod {n}")
    expected = n * (n + 1) // 2
    if sum(win) != expected:
        raise BadSum(f"window {win} sums to {sum(win)}, expected {expected}")
    return AffinePermutation(n, win)


def identity(n: int) -> AffinePermutation:
    return AffinePermutation(n, tuple(range(1, n + 1)))


def apply(w: AffinePermutation, i: int) -> int:
    """Image of any integer i under the periodic extension of the window."""
    n = w.n
    j = (i - 1) % n  # 0-based column
    k = (i - 1 - j) // n
    return w.window[j] + k * n


def compose(u: AffinePermutation, v: AffinePermutation) -> AffinePermutation:
    """(u o v)(i) = u(v(i))."""
    if u.n != v.n:
        raise RankMismatch(f"cannot compose ranks {u.n} and {v.n}")
    return AffinePermutation(u.n, tuple(apply(u, x) for x in v.window))


def inverse(w: AffinePermutation) -> AffinePermutation:
    n = w.n
    win = [0] * n
    for j, wj in enumerate(w.window, start=1):
        # w(j + kn) = i  with  i = wj + kn;  invert column by column
        r = (wj - 1) % n
        win[r] = j + (r + 1 - wj)  # k*n = (r+1) - wj
    return AffinePermutation(n, tuple(win))


def decompose(w: AffinePermutation) -> tuple[TranslationVector, FinitePermutation]:
    """Split w = t_x . wbar with t_x(i) = i + n*x_i and wbar finite.

    Computed through the dual split w = wbar . t_y (read off residues), then
    x = wbar(y), i.e. x_{wbar(i)} = y_i.
    """
    wbar, y = decompose_right(w)
    x = [0] * w.n
    for p, yi in zip(wbar.images, y.coords):
        x[p - 1] = yi
    return TranslationVector(w.n, tuple(x)), wbar


def decompose_right(w: AffinePermutation) -> tuple[FinitePermutation, TranslationVector]:
    """Dual split w = wbar . t_y: wbar(i) is the window entry reduced to
    {1, ..., n} and y_i = (w(i) - wbar(i)) / n."""
    n, images, y = w.n, [], []
    for v in w.window:
        r = (v - 1) % n + 1
        images.append(r)
        y.append((v - r) // n)
    return FinitePermutation(n, tuple(images)), TranslationVector(n, tuple(y))


def recompose(x: TranslationVector, wbar: FinitePermutation) -> AffinePermutation:
    """Window of t_x . wbar."""
    if x.n != wbar.n:
        raise RankMismatch(f"ranks differ: {x.n} vs {wbar.n}")
    n, coords = x.n, x.coords
    return AffinePermutation(n, tuple(p + n * coords[p - 1]
                                      for p in wbar.images))


def entropy(w: AffinePermutation) -> int:
    """Half the summed squared displacement over one window."""
    d = list(map(sub, w.window, itertools.count(1)))
    s = sum(map(mul, d, d))
    if s % 2:
        raise InvariantViolation(f"odd displacement square sum {s} for {w.window}")
    return s // 2


def atomic_length_rho(w: AffinePermutation) -> int:
    """Atomic length for the sum of the fundamental weights: the window
    polynomial P at the window; agrees with entropy() on every element."""
    return eval_P(w.window)


def root_lattice_vectors(n: int, max_norm: int) -> list[tuple[int, ...]]:
    """All zero-sum integer vectors of length n with squared norm <= max_norm,
    sorted by (norm, lexicographic)."""
    if n < 1:
        raise BadLength(f"rank must be positive, got {n}")
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], norm_left: int, s: int) -> None:
        m = n - len(prefix)
        if m == 1:
            if s * s <= norm_left:
                out.append(tuple(prefix + [-s]))
            return
        # remaining coordinates sum to -s; Cauchy-Schwarz floor on their norm
        if s * s > norm_left * m:
            return
        b = math.isqrt(norm_left)
        for v in range(-b, b + 1):
            rec(prefix + [v], norm_left - v * v, s + v)

    rec([], max_norm, 0)
    out.sort(key=lambda v: (sum(c * c for c in v), v))
    return out


def enumerate_bounded(n: int, max_norm: int):
    """Yield every w = t_x . wbar with ||x||^2 <= max_norm.

    Finite parts run in lexicographic order; for each, translation vectors run
    in ascending (norm, lex) order.  Every yielded element is valid by
    construction.
    """
    if n < 2:
        raise BadLength(f"rank must be >= 2, got {n}")
    xs = root_lattice_vectors(n, max_norm)
    for images in itertools.permutations(range(1, n + 1)):
        for x in xs:
            win = tuple(images[i] + n * x[images[i] - 1] for i in range(n))
            yield AffinePermutation(n, win)

