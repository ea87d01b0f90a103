"""Partitions, beta-sets and abaci, the level-(l <-> n) rotation bijection,
higher-level cores, and the charge-orbit polynomial for atomic lengths.

An abacus runner is stored co-finitely: below `threshold` every position
holds a bead; `beads` lists the occupied positions above it.  The threshold
is normalized to the first gap, which makes the encoding canonical and the
charge equal to threshold + len(beads).  The rotation works on plain-int
beta-numbers instead (James-Kerber 1981, 2.7), counting the positions and
runners it fills against ATOMLEN_BUDGET.  A core needs only phi's level-n
charges: ns_core_of counts them and rotates back once, from bead-less
runners at those charges.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from operator import index

from . import budget
from .errors import (BadEll, BadIndex, BadLength, DomainViolation,
                     InvariantViolation, NotInDs, exact_int)
from .quadratic_forms import (ConstrainedDomain, FormSpec, UniversalityReport,
                              domain_Os, domain_Q_full, form_core_size,
                              member, universality_scan)

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    try:
        out = tuple(map(index, parts))
    except TypeError:
        raise DomainViolation(f"partition must be a sequence of integers, "
                              f"got {parts!r}") from None
    if 0 in out:
        out = tuple(p for p in out if p)
    if not out:
        return out
    desc = tuple(sorted(out, reverse=True))
    if desc[-1] < 0:
        raise BadLength(f"negative part in {parts}")
    if out != desc:
        raise BadLength(f"parts not weakly decreasing: {parts}")
    return out


def conjugate(parts: Partition) -> Partition:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

def hook_lengths(parts: Partition) -> tuple[tuple[int, ...], ...]:
    """Hook length of each cell, row by row."""
    parts = as_partition(parts)
    conj = conjugate(parts)
    return tuple(
        tuple(parts[i] - j + conj[j - 1] - i for j in range(1, parts[i] + 1))
        for i in range(len(parts)))


def is_n_core_hooks(parts: Partition, n: int) -> bool:
    """No hook of length n.

    Equivalently no hook length divisible by n (a hook of length kn forces
    one of length n); the tests check that classical equivalence.
    """
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    return all(h != n for row in hook_lengths(parts) for h in row)


# ---------------------------------------------------------------------------
# Beta-sets and runners
# ---------------------------------------------------------------------------

class BetaAbacus(namedtuple("BetaAbacus", "threshold beads")):
    """One runner: all positions < threshold occupied, plus `beads` above.

    Normalized so the threshold is the first unoccupied position, hence the
    beads form a sorted tuple of positions > threshold.
    """

    __slots__ = ()

    def __new__(cls, threshold, beads):
        if beads != tuple(sorted(set(beads))):
            raise BadLength("beads must be sorted and distinct")
        if beads and beads[0] <= threshold:
            raise BadLength("beads must lie above the threshold")
        return tuple.__new__(cls, (threshold, beads))

    def occupied(self, pos: int) -> bool:
        return pos < self.threshold or pos in self.beads

    @property
    def charge(self) -> int:
        return self.threshold + len(self.beads)


def beta_set(parts: Partition, s: int) -> BetaAbacus:
    """Charged beta-set: positions part_j - j + s, j = 1, 2, ..., padded by
    every position below s - len(parts)."""
    return l_abacus((parts,), (s,))[0]


def partition_of(runner: BetaAbacus) -> Partition:
    """Each bead b, with a beads below it, is a part b - threshold - a."""
    t = runner.threshold
    return tuple(b - t - a for a, b in enumerate(runner.beads))[::-1]


def is_n_core_abacus(runner: BetaAbacus, n: int) -> bool:
    """Every bead at position k has a bead at position k - n."""
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    return all(runner.occupied(b - n) for b in runner.beads)


def render_abacus(runners) -> str:
    """Top runner printed first, position ruler underneath."""
    if not runners:
        raise BadLength("need at least one runner")
    lo = min(r.threshold for r in runners) - 2
    hi = max(r.beads[-1] if r.beads else r.threshold for r in runners) + 2
    budget.check(len(runners) * (hi - lo + 1), what="abacus rendering")
    width = max(len(str(p)) for p in range(lo, hi + 1))
    rows = []
    for runner in reversed(runners):
        cells = ["O" if runner.occupied(p) else "." for p in range(lo, hi + 1)]
        rows.append(" ".join(c.rjust(width) for c in cells))
    ruler = " ".join(str(p).rjust(width) for p in range(lo, hi + 1))
    return "\n".join(rows + [ruler])


def _beta_numbers(multipartition, charges) -> list[tuple[int, list[int]]]:
    """Per component: the first gap s - len(parts) of its charged beta-set
    and the beads part_j - j + s above it, largest first."""
    try:
        charges = tuple(map(index, charges))
    except TypeError:
        raise DomainViolation(f"charges must be a sequence of integers, got "
                              f"{charges!r}") from None
    if len(multipartition) != len(charges):
        raise BadLength("level and number of charges differ")
    out = []
    for parts, s in zip(multipartition, charges):
        parts = as_partition(parts)
        out.append((s - len(parts),
                    [p - j + s for j, p in enumerate(parts, 1)]))
    return out


def l_abacus(multipartition, charges) -> tuple[BetaAbacus, ...]:
    """The runners, bottom (index 0) to top."""
    return tuple(BetaAbacus(t, tuple(reversed(beads)))
                 for t, beads in _beta_numbers(multipartition, charges))


# ---------------------------------------------------------------------------
# The rotation bijection
# ---------------------------------------------------------------------------

def _rotate(runners, width: int):
    """Reverse the beta-number runners (first gap, beads), transpose the
    blocks, reverse again.  Width n is phi; width l undoes it, since
    transposing twice is the identity.

    Position p = q*width + j of runner i (after the reversal) lands on
    runner j at q*k + i.  Every runner is full below block q0, so every image
    is full below base = q0*k.  Listing what lies above base, the m-th lowest
    position p has p - base - m gaps below it: that is its part (0 on the
    full prefix), and the charge is base plus the number listed."""
    if not runners:
        raise BadLength("need at least one component")
    runners = runners[::-1]
    k = len(runners)
    q0 = min([t for t, _ in runners]) // width
    lo = q0 * width
    estimate = width
    for t, beads in runners:
        estimate += t - lo + len(beads)
    budget.check(estimate, what="abacus rotation")
    cols = [[] for _ in range(width)]
    for i, (t, beads) in enumerate(runners):
        q, r = divmod(t, width)
        top = q * k + i
        if q > q0:
            full = range(q0 * k + i, top, k)
            for col in cols:
                col += full
        for col in cols[:r]:
            col.append(top)
        for b in beads:
            q, j = divmod(b, width)
            cols[j].append(q * k + i)
    base = q0 * k
    out_parts, out_charges = [], []
    for col in reversed(cols):
        col.sort()
        gaps = [p - m for m, p in enumerate(col, base)]
        out_parts.append(tuple(gaps[bisect_right(gaps, 0):][::-1]))
        out_charges.append(base + len(col))
    return tuple(out_parts), tuple(out_charges)


def _phi_charges(multipartition, charges, n: int) -> tuple[int, ...]:
    """The level-n charges of phi, counted without rotating.  Output runner
    j takes from runner i its ceil((t_i - j)/n) full positions = j mod n
    below its first gap t_i = q_i*n + r_i (q_i of them, one more when
    j < r_i) and its beads = j mod n; phi lists the runners in reverse."""
    n = exact_int(n, "n", BadLength)
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    runners = _beta_numbers(multipartition, charges)
    budget.check(n * len(runners) + sum(len(b) for _, b in runners),
                 what="abacus rotation")
    counts = [0] * n
    blocks = 0
    for t, beads in runners:
        q, r = divmod(t, n)
        blocks += q
        for j in range(r):
            counts[j] += 1
        for b in beads:
            counts[b % n] += 1
    return tuple(blocks + c for c in reversed(counts))


def phi(multipartition, charges, n: int):
    """Rectangle-rotation bijection from level-l charged multipartitions to
    level-n ones.  The rotated runner order is reversed on output; the total
    charge is preserved.  Bead q*n + j of runner i goes straight to runner j
    at q*l + i."""
    n = exact_int(n, "n", BadLength)
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    return _rotate(_beta_numbers(multipartition, charges), n)


def phi_inverse(multipartition, charges, ell: int):
    """Inverse of phi: the same reverse-transpose-reverse on beta-numbers,
    with width l."""
    ell = exact_int(ell, "level", BadEll)
    if ell < 1:
        raise BadEll(f"need level >= 1, got {ell}")
    return _rotate(_beta_numbers(multipartition, charges), ell)


def ns_core_of(multipartition, charges, n: int):
    """Core of a charged multipartition: empty the level-n side of phi.
    Only phi's level-n charges matter, so they are counted, not rotated;
    the core is the one rotation back from bead-less runners at those
    charges.

    Returns ((core multipartition, core charges), core multicharge); the
    multicharge is reported in bottom-to-top runner order, i.e. the reverse
    of the phi output order, matching the worked example.
    """
    sn = _phi_charges(multipartition, charges, n)
    ell = len(multipartition)
    if ell < 1:
        raise BadEll(f"need level >= 1, got {ell}")
    return _rotate([(s, ()) for s in sn], ell), tuple(reversed(sn))


def is_ns_core(multipartition, charges, n: int) -> bool:
    """Direct abacus test: beads on runner j must repeat on runner j+1, and
    beads on the top runner must repeat n positions lower on the bottom."""
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    runners = l_abacus(multipartition, charges)
    ell = len(runners)
    if ell < 1:
        raise BadEll(f"need level >= 1, got {ell}")
    for j in range(ell - 1):
        below, above = runners[j], runners[j + 1]
        if above.threshold < below.threshold:
            return False
        if not all(above.occupied(b) for b in below.beads):
            return False
    top, bottom = runners[-1], runners[0]
    if bottom.threshold < top.threshold - n:
        return False
    return all(bottom.occupied(b - n) for b in top.beads)


def multipartition_size(multipartition) -> int:
    return sum(sum(p) for p in multipartition)


# ---------------------------------------------------------------------------
# Charge orbits and the atomic-length polynomial
# ---------------------------------------------------------------------------

class WeightSpec(namedtuple("WeightSpec", "n ell charges")):
    """Level-l dominant weight datum: 0 <= s_1 <= ... <= s_l < n."""

    __slots__ = ()

    def __new__(cls, n, ell, charges):
        n, ell = exact_int(n, "n", BadLength), exact_int(ell, "level", BadEll)
        if not (1 <= ell <= n):
            raise BadEll(f"need 1 <= level <= n, got {ell} vs {n}")
        if len(charges) != ell:
            raise BadLength("number of charges must equal the level")
        c = charges
        if any(not (0 <= v < n) for v in c):
            raise BadIndex(f"charges must lie in [0, {n}), got {c}")
        if any(c[i] > c[i + 1] for i in range(ell - 1)):
            raise BadLength(f"charges must be sorted increasingly, got {c}")
        return tuple.__new__(cls, (n, ell, charges))

    @property
    def sprime(self) -> tuple[int, ...]:
        """Base point of the charge orbit: the conjugate of the charges (a
        partition in an (n-1) x l box), padded to n parts, increasing."""
        conj = conjugate(tuple(sorted(self.charges, reverse=True)))
        return tuple(sorted(conj + (0,) * (self.n - len(conj))))

    def domain(self) -> ConstrainedDomain:
        """The charge orbit: coordinate sum of the charges, residues mod l
        distributed as in sprime."""
        n, ell, charges = self
        residues = [v % ell for v in self.sprime]
        caps = tuple(map(residues.count, range(ell)))
        label = f"Ds(n={n},l={ell},s={','.join(map(str, charges))})"
        return ConstrainedDomain(label, caps, sum(charges), ell)

    def normalizing_constant(self) -> Fraction:
        """The constant making the polynomial vanish at sprime: -const/2l."""
        return Fraction(-self.form().const, 2 * self.ell)

    def form(self) -> FormSpec:
        """2l times the polynomial: n*sum(t^2) - 2l*sum((i-1)t_i) + const,
        with the integer const that makes it vanish at sprime."""
        n, ell, sp = self.n, self.ell, self.sprime
        const = (2 * ell * sum(i * v for i, v in enumerate(sp))
                 - n * sum(v * v for v in sp))
        return FormSpec(f"Ps[n={n},l={ell}]", n,
                        tuple(-2 * ell * i for i in range(n)), const, 2 * ell)


def truncated_constant_closed_form(n: int, ell: int) -> Fraction:
    """Closed form of the normalizing constant for the staircase charges
    (0, ..., l-1); regression-tested against normalizing_constant."""
    return Fraction(ell - 1, 12) * (2 * ell * ell - 4 * n * ell + 2 * ell - n)


def eval_Ps(spec: WeightSpec, t) -> int:
    """Atomic-length polynomial on the charge orbit, exact."""
    t = tuple(t)
    if not member(spec.domain(), t):
        raise NotInDs(f"{t} is not in the charge orbit domain of {spec}")
    val = spec.form().evaluate(t)
    if not isinstance(val, int):
        raise InvariantViolation(f"polynomial value {val} is not an integer")
    return val


def affine_action_on_charges(word, t, ell: int) -> tuple[int, ...]:
    """Apply generator indices left to right: index i in [1, n-1] swaps
    coordinates i and i+1; index 0 maps (t_1, ..., t_n) to
    (t_n - l, t_2, ..., t_{n-1}, t_1 + l)."""
    t = list(t)
    n = len(t)
    for g in word:
        # s_0 moves the last coordinate to the first: rank 2 at least
        if n < 2 or not 0 <= g < n:
            raise BadIndex(f"generator index {g} out of range for n={n}")
        if g:
            t[g - 1], t[g] = t[g], t[g - 1]
        else:
            t = [t[-1] - ell] + t[1:-1] + [t[0] + ell]
    return tuple(t)


def core_of_orbit_point(spec: WeightSpec, t):
    """Charged level-l multipartition whose level-n side of phi is
    (all empty, t): the rotation back from bead-less runners at charges t,
    as in ns_core_of.  Its box count equals eval_Ps(spec, t)."""
    t = tuple(t)
    if not member(spec.domain(), t):
        raise NotInDs(f"{t} is not in the charge orbit domain of {spec}")
    return _rotate([(s, ()) for s in t], spec.ell)


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def scan_truncated_weight(n: int, ell: int, max_k: int,
                          radius: int) -> UniversalityReport:
    """Universality scan for the staircase weight of level l."""
    spec = WeightSpec(n, ell, tuple(range(ell)))
    return universality_scan(spec.form(), spec.domain(), max_k, radius)


def refined_size_form(n: int) -> FormSpec:
    """Unshifted size polynomial on the distinct-residue orbit: its value at
    an orbit point is the number of boxes of the attached classical core."""
    s = n * (n - 1) // 2
    # twice the constant -s(n-1)/2 - s^2/2, an integer for every n
    return form_core_size(n)._replace(form_id=f"refined-go-size[{n}]",
                                      const=-s * (n - 1) - s * s)


def refined_base_value(n: int) -> int:
    """Size at the base point (0, ..., n-1); equals binomial(n+2, 4)."""
    val = refined_size_form(n).evaluate(tuple(range(n)))
    if not isinstance(val, int):
        raise InvariantViolation("base value is not an integer")
    return val


def scan_refined_GO(n: int, max_k: int, radius: int) -> UniversalityReport:
    """Scan the refined problem over n-tuples with distinct residues mod n
    summing to n(n-1)/2.

    Targets are core sizes; the window is the base size binomial(n+2, 4) up
    to base + max_k, the sizes whose attainment the shifted form asks about.
    Smaller sizes down to binomial(n+1, 4) do occur in the family but are
    outside the question.
    """
    base = refined_base_value(n)
    return universality_scan(refined_size_form(n), domain_Os(n),
                             base + max_k, radius, min_k=base)


def granville_ono_scan(n: int, max_k: int, radius: int) -> UniversalityReport:
    """Classical core-size scan on the zero-sum lattice."""
    return universality_scan(form_core_size(n), domain_Q_full(n), max_k,
                             radius)


# ---------------------------------------------------------------------------
# Dilation
# ---------------------------------------------------------------------------

def dilation_shift(spec: WeightSpec) -> Fraction:
    """Half squared norm of sprime's dilated point."""
    z = dilate_point(spec, spec.sprime)
    return Fraction(1, 2) * sum(v * v for v in z)


def dilate_point(spec: WeightSpec, t) -> tuple[Fraction, ...]:
    r = Fraction(spec.n, spec.ell)
    return tuple(r * v - d for v, d in zip(t, range(spec.n)))


def eval_dilated(spec: WeightSpec, z) -> Fraction:
    """Half squared norm minus the base shift on the dilated charge lattice;
    equals (n/l) times the orbit polynomial at the pulled-back point."""
    z = tuple(Fraction(v) for v in z)
    if len(z) != spec.n:
        raise BadLength(f"need {spec.n} coordinates")
    r = Fraction(spec.n, spec.ell)
    t = tuple((zi + d) / r for zi, d in zip(z, range(spec.n)))
    if any(v.denominator != 1 for v in t):
        raise DomainViolation(f"{z} is not on the dilated lattice")
    if not member(spec.domain(), tuple(int(v) for v in t)):
        raise DomainViolation(f"{z} pulls back outside the charge domain")
    return Fraction(1, 2) * sum(v * v for v in z) - dilation_shift(spec)
