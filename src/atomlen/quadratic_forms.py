"""Quadratic formulations of atomic lengths and exact representation search.

Everything here is exact integer / rational arithmetic.  The search engine
solves

    A * sum(t_i^2) + sum(B_i * t_i) = K        (all data integers)

over the vectors of a constrained domain inside a radius box.  One frozen
record per domain (ConstrainedDomain) serves both membership and search: an
optional fixed coordinate sum, an even-sum condition, and residue classes
with capacities (distinct residues, distinct +/- classes, a fixed residue
multiset, or a class no coordinate may use).  A projected domain drops its
last coordinate, which the sum forces; the search leaves that coordinate
unbounded.  member checks exactly the conditions the engine enumerates.
A form always reads the full vector, so it pairs with any domain of its
arity, projected or not.

One table, at the scan's radius R, answers every target of a scan, so "not
found" certifies exhaustion of the radius-R box.  For each suffix of
coordinates it maps one int, sum key * W + filter state, to a big-int bitset
of the values that suffix can reach, up to the largest target.  The key is
the suffix sum under a sum target, its parity under an even-sum condition,
else 0; the state counts in mixed radix below W the classes the suffix
uses, which cover the coordinates exactly, so a prefix needs the full state
minus its own.  A coordinate's candidates are the values of the box within
the largest target of its least term, so a wider box lists no more of them;
a table takes them in class groups sorted by value, skips a class the
suffix fills with one test and cuts a group by bisection to the sums a
prefix can complete.

Misses cost one bit test.  Folding the first coordinate's candidates into
the table of the other coordinates gives one reachability row: the bitset
of every offset value a whole vector of the box reaches.  The targets on
that row are routed left to right together, grouped at each coordinate by
the suffix state they need; those that share a state and a remaining
offset travel together.  A state scans its candidates once in spiral order
(outward from the coordinate's continuous minimizer, positive offset
first), and each candidate takes, with one AND, every remaining offset its
next state still reaches.  So each target takes the first vector of the
radius-R box in the lexicographic spiral order, the one a depth-first
search in that order finds first, and witnesses are deterministic.  The
tables are exact, so a target left without a value would raise
InvariantViolation.  Every target, int or on the half grid, becomes its
numerator denom*k - const in plain integers, held by list position.  A miss
takes q's residue classes only when quad = 1, denom = 2, lin = -2c with c
integral, const = |c|^2 and the domain's sum target is sum(c); labels
decide nothing.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from math import isqrt
from operator import mul

from . import budget
from .errors import BadLength, DomainViolation, InvariantViolation

S290 = frozenset({1, 2, 3, 5, 6, 7, 10, 13, 14, 15, 17, 19, 21, 22, 23, 26,
                  29, 30, 31, 34, 35, 37, 42, 58, 93, 110, 145, 203, 290})

# Moduli tried, in order, when explaining a missed scan target; the first
# that excludes it is reported, which need not be the smallest that would.
DEFAULT_OBSTRUCTION_MODULI = (3, 4, 8, 16, 32, 64, 128)

# Budget steps per listed scan target.  A scan holds every target, its
# report entry and its output line at once, a few hundred bytes each (a CLI
# scan of 10^5 targets peaks 45 MB above one of 10^3), so a target weighs
# what memory does, not one step: the default budget admits 10^6 targets.
_TARGET_WEIGHT = 100


# ---------------------------------------------------------------------------
# The three equivalent forms and the maps between their domains
# ---------------------------------------------------------------------------

def eval_P(y) -> int:
    """Window polynomial: half sum of squares, minus position-weighted sum,
    plus the constant that vanishes on the identity window of rank len(y)."""
    y = tuple(y)
    n = len(y)
    num = 6 * sum(map(mul, y, y)) - 12 * sum(map(mul, y, count(1)))
    num += n * (n + 1) * (2 * n + 1)
    q, r = divmod(num, 12)
    if r:
        raise InvariantViolation(f"P({y}) is not an integer")
    return q


def eval_Q(x) -> Fraction:
    """Half the squared Euclidean norm, exact."""
    return Fraction(sum(v * v for v in x), 2)


def eval_q(x) -> int:
    """x_1^2 + ... + x_m^2 + sum over pairs x_i x_j; always an integer."""
    x = tuple(x)
    s = sum(x)
    num = sum(v * v for v in x) + s * s
    return num // 2  # sum(x^2) == sum(x) mod 2, so num is even


def map_C(y) -> tuple[int, ...]:
    """Shift a window vector to its zero-sum displacement vector."""
    y = tuple(y)
    if not member(domain_D(len(y)), y):
        raise DomainViolation(f"{y} is not a window vector of rank {len(y)}")
    return tuple(v - i for i, v in enumerate(y, 1))


def map_C_inv(x) -> tuple[int, ...]:
    x = tuple(x)
    if not member(domain_Delta(len(x)), x):
        raise DomainViolation(
            f"{x} is not a valid displacement vector, rank {len(x)}")
    return tuple(v + i for i, v in enumerate(x, 1))


def map_pr(x) -> tuple[int, ...]:
    """Drop the last coordinate (it is minus the sum of the others)."""
    x = tuple(x)
    if not member(domain_Delta(len(x)), x):
        raise DomainViolation(
            f"{x} is not a valid displacement vector, rank {len(x)}")
    return x[:-1]


def map_pr_inv(x) -> tuple[int, ...]:
    """Append the forced last coordinate: rank len(x) + 1."""
    x = tuple(x)
    if not member(domain_X(len(x) + 1), x):
        raise DomainViolation(f"{x} fails the projected congruence conditions")
    return x + (-sum(x),)


# ---------------------------------------------------------------------------
# Constrained domains
# ---------------------------------------------------------------------------

class ConstrainedDomain(namedtuple(
        "ConstrainedDomain", "label caps sum_target mod shifts signed "
        "parity_even projected",
        defaults=(None, 1, (), False, False, False))):
    """A decidable subset of an integer lattice, in the form the search
    engine reads it.

    The full vector has nvars = sum(caps) coordinates.  Coordinate i with
    value v falls in class (v + shifts[i]) % mod, folded to min(r, mod - r)
    when signed; a member uses class c exactly caps[c] times.  A member also
    has coordinate sum sum_target (when set) and an even sum under
    parity_even.  A projected domain omits the last coordinate, which its
    sum forces.  Empty shifts mean no shift.
    """

    __slots__ = ()

    @property
    def nvars(self) -> int:
        return sum(self.caps)

    def dim(self) -> int:
        return self.nvars - self.projected


def _distinct(label, n, sum_target, shifts):
    return ConstrainedDomain(label, (1,) * n, sum_target, n, shifts)


def domain_D(n: int) -> ConstrainedDomain:
    return _distinct(f"D({n})", n, n * (n + 1) // 2, ())


def domain_Delta(n: int) -> ConstrainedDomain:
    return _distinct(f"Delta({n})", n, 0, tuple(range(1, n + 1)))


def domain_X(n: int) -> ConstrainedDomain:
    return domain_Delta(n)._replace(label=f"X({n})", projected=True)


def domain_Q_full(n: int) -> ConstrainedDomain:
    return ConstrainedDomain(f"Q_full({n})", (n,), 0)


def domain_Z_full(dim: int) -> ConstrainedDomain:
    return domain_Q_full(dim + 1)._replace(label=f"Z^{dim}", projected=True)


def domain_DeltaC(n: int) -> ConstrainedDomain:
    # class 0 (the fixed point of the mirror) is excluded
    return ConstrainedDomain(f"DeltaC({n})", (0,) + (1,) * n,
                             mod=2 * n + 1, shifts=tuple(range(1, n + 1)),
                             signed=True)


def domain_Os(n: int) -> ConstrainedDomain:
    return _distinct(f"Os({n})", n, n * (n - 1) // 2, ())


def member(domain: ConstrainedDomain, v) -> bool:
    """Exact membership test: lift a projected vector by its forced last
    coordinate, then check length, sum, parity and classes; a member uses
    class c exactly caps[c] times.  The check of _members on [v]."""
    return _members(domain, [tuple(v)])


def _members(domain: ConstrainedDomain, vecs) -> bool:
    """Whether every tuple of vecs is a member, checked column by column:
    each coordinate's values take their classes in one pass, and a member's
    sorted classes are _class_list(domain)."""
    want, S = _class_list(domain), domain.sum_target
    if domain.projected:
        vecs = [v + (S - s,) for v, s in zip(vecs, map(sum, vecs))]
    sums = set(map(sum, vecs))
    if (set(map(len, vecs)) - {len(want)} or S is not None and sums - {S}
            or domain.parity_even and any(s % 2 for s in sums)):
        return False
    columns = [_classes(domain, col, shift) for col, shift
               in zip(zip(*vecs), domain.shifts or repeat(0))]
    return all(sorted(cs) == want for cs in zip(*columns))


def _class_list(domain: ConstrainedDomain) -> list[int]:
    """The sorted classes of every member, class c caps[c] times; a domain
    whose caps miss one of its classes is refused."""
    mod, caps = domain.mod, domain.caps
    classes = mod // 2 + 1 if domain.signed else mod
    if len(caps) < classes:
        raise DomainViolation(f"{domain.label} has {len(caps)} capacities "
                              f"for {classes} classes mod {mod}")
    return [c for c, cap in enumerate(caps) for _ in range(cap)]


def _classes(domain: ConstrainedDomain, values, shift) -> list[int]:
    """The class of each value of one coordinate of the given shift:
    (v + shift) % mod, folded to min(r, mod - r) when signed."""
    mod = domain.mod
    rs = [(v + shift) % mod for v in values]
    return [min(r, mod - r) for r in rs] if domain.signed else rs


# ---------------------------------------------------------------------------
# Forms as integer-scaled diagonal data
# ---------------------------------------------------------------------------

class FormSpec(namedtuple("FormSpec", "form_id quad lin const denom")):
    """value(t) = (quad * sum(t^2) + sum(lin_i t_i) + const) / denom, on
    len(lin) variables: a domain's full vector, forced last coordinate
    included."""

    __slots__ = ()

    @property
    def nvars(self) -> int:
        return len(self.lin)

    def numerator(self, t) -> int:
        """denom * value(t), an exact integer."""
        t = tuple(t)
        if len(t) != self.nvars:
            raise BadLength(f"{self.form_id} takes {self.nvars} variables")
        return (self.quad * sum(v * v for v in t)
                + sum(b * v for b, v in zip(self.lin, t)) + self.const)

    def evaluate(self, t):
        val = Fraction(self.numerator(t), self.denom)
        return int(val) if val.denominator == 1 else val


def form_P(n: int) -> FormSpec:
    return FormSpec("P", 1, tuple(-2 * i for i in range(1, n + 1)),
                    n * (n + 1) * (2 * n + 1) // 6, 2)


def form_Q(n: int) -> FormSpec:
    return FormSpec("Q", 1, (0,) * n, 0, 2)


def form_q(d: int) -> FormSpec:
    """The all-pairwise-products form of d variables, as the half norm of
    the zero-sum vector in d + 1 variables that a projected domain (X, Z^d)
    completes; eval_q is its value on the d visible coordinates."""
    return FormSpec("q", 1, (0,) * (d + 1), 0, 2)


def form_euclidean(n: int) -> FormSpec:
    return FormSpec("euclidean", 1, (0,) * n, 0, 1)


def form_core_size(n: int) -> FormSpec:
    """Size polynomial of classical cores on the zero-sum lattice."""
    return FormSpec("core-size", n,
                    tuple(2 * (i - 1) for i in range(1, n + 1)), 0, 2)


# ---------------------------------------------------------------------------
# Search engine
# ---------------------------------------------------------------------------

def _boxes(A, B, domain, radius):
    """Per coordinate (lo, hi, center, low): its box and its least term,
    taken at the integer nearest the continuous minimizer -B/(2A), clamped
    to the box; and the sum of the least terms, base."""
    n, S = domain.nvars, domain.sum_target
    boxes, base = [], 0
    for i, b in enumerate(B):
        last = domain.projected and i == n - 1  # forced: S -/+ i * radius
        lo, hi = (S - i * radius, S + i * radius) if last else (-radius, radius)
        center = (A - b) // (2 * A)
        v = min(max(center, lo), hi)
        low = A * v * v + b * v
        base += low
        boxes.append((lo, hi, center, low))
    return boxes, base


def _witnesses_at_radius(A, B, targets, domain, radius) -> dict:
    """First full vector of the domain, in the fixed search order, with
    A*sum(t^2) + sum(B*t) == K inside the radius box, for every K in targets
    that has one."""
    n, S, caps = domain.nvars, domain.sum_target, domain.caps
    if not n:  # the empty vector alone, of value 0, in every box
        return {0: ()} if 0 in targets and member(domain, ()) else {}
    # filter state: mixed radix below W, digit c counts the uses of class c;
    # every class at its capacity is W - 1
    weights, W = [], 1
    for c in caps:
        weights.append(W)
        W *= c + 1
    full = W - 1
    # sum key of a suffix: its exact sum under a sum target, its parity
    # under parity_even, else 0; "& fold" reduces a sum to its key.  A state
    # is one int, key * W + filter state.
    fold = -1 if S is not None else (1 if domain.parity_even else 0)
    total = S or 0

    boxes, base = _boxes(A, B, domain, radius)
    top = max(targets) - base
    if top < 0:
        return {}
    mask = (2 << top) - 1

    # Per coordinate, in spiral order (outward from the minimizer, positive
    # offset first): (value, term minus the least term, class weight, class
    # capacity), for the values of the box whose offset is at most top,
    # i.e. |2Av + B| <= isqrt(4A(top + low) + B^2).  by_class[i] groups the
    # same values by class, in increasing order, with the state step each
    # adds: v * W under a sum target; else 0, the group sharing v & fold.
    rows, by_class = [], []
    shifts, step = domain.shifts or (0,) * n, W if S is not None else 0
    for i, (lo, hi, center, low) in enumerate(boxes):
        b, a2 = B[i], 2 * A
        s = isqrt(2 * a2 * (top + low) + b * b)
        vals = range(max(lo, -((s + b) // a2)), min(hi, (s - b) // a2) + 1)
        cs = _classes(domain, vals, shifts[i])
        row = [(v, A * v * v + b * v - low, weights[c], caps[c])
               for v, c in zip(vals, cs) if caps[c]]
        groups = {}
        for v, off, wc, cap in row if i else ():
            p = v & fold if S is None else 0
            g = groups.get(2 * wc + p)
            if g is None:
                g = groups[2 * wc + p] = (wc, cap, p, [], [])
            g[3].append(v)
            g[4].append((v * step, off))
        by_class.append(groups.values())
        row.sort(key=lambda e: (abs(e[0] - center), e[0] < center))
        rows.append(row)

    # tables[i]: state of coordinates i..n-1 -> bitset of the offset values
    # they reach.  tables[0] is never needed.
    tables = [None] * n + [{0: 1}]
    work = 0
    for i in range(n - 1, 0, -1):
        nxt, layer = tables[i + 1], {}
        work += len(nxt) * len(rows[i])
        budget.check(work, what="representation table")
        # the suffix sums the i bounded prefix coordinates can complete:
        # under a sum target each class group is cut to them
        lo, hi = (S - i * radius, S + i * radius) if S is not None else (0, 1)
        for st, bits in nxt.items():
            key, f = divmod(st, W)
            for wc, cap, p, vs, steps in by_class[i]:
                if f // wc % (cap + 1) == cap:
                    continue
                g = ((key + p) & fold) * W + f + wc
                if S is not None and (vs[0] < lo - key or vs[-1] > hi - key):
                    steps = steps[bisect_left(vs, lo - key):
                                  bisect_right(vs, hi - key)]
                for dw, off in steps:
                    b = bits << off & mask
                    if b:
                        t = g + dw
                        layer[t] = layer.get(t, 0) | b
        tables[i] = layer

    # reach: bitset of the offset values whole vectors reach, the first
    # coordinate folded into tables[1]
    reach = 0
    for v, off, wc, cap in rows[0]:
        reach |= tables[1].get(((total - v) & fold) * W + full - wc, 0) << off

    # route the targets on the row; a group is the bitset of its remaining
    # offsets and, per offset, the targets that travel together
    vecs = {K: [] for K in targets if K >= base and reach >> (K - base) & 1}
    if not vecs:
        return {}
    groups = {(total & fold) * W + full: (
        sum(1 << (K - base) for K in vecs), {K - base: [K] for K in vecs})}
    for i in range(n):
        nxt, moved = tables[i + 1], {}
        for st, (want, rems) in groups.items():
            key, f = divmod(st, W)
            for v, off, wc, cap in rows[i]:
                if not f // wc % (cap + 1):
                    continue  # the prefix fills this class
                state = ((key - v) & fold) * W + f - wc
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
    return {K: tuple(vec) for K, vec in vecs.items()}


# ---------------------------------------------------------------------------
# Pairing forms with domains
# ---------------------------------------------------------------------------

def _numerators(form: FormSpec, targets) -> list:
    """denom*k - const of each target k, in plain integers: the quotient of
    denom*k.numerator - const*k.denominator by k.denominator.  None for a
    negative target or a nonzero remainder: a miss that needs no search."""
    _, _, _, const, denom = form
    out = []
    for k in targets:
        p, q = k.numerator, k.denominator
        K, rem = ((denom * p - const, 0) if q == 1
                  else divmod(denom * p - const * q, q))
        out.append(None if rem or p < 0 else K)
    return out


def represent_all(form: FormSpec, domain: ConstrainedDomain, targets,
                  radius: int) -> list:
    """Witness or None for each target, in order: the first domain vector in
    the fixed search order with form value exactly k.

    Targets may be ints or Fractions; negative ones and those whose scaled
    value denom*k - const is not an integer are misses without a search.
    The others share one table at the radius, which routes those on its
    reachability row: each takes the first vector of the whole radius box.
    None is not a proof of non-representability, only exhaustion of the
    radius box.
    Every witness is re-evaluated in integers (its numerator must be
    denom*k); a projected domain's witness then drops its forced last
    coordinate, and all of them are member-checked in one pass.
    """
    if radius < 0:
        raise DomainViolation(f"radius must be >= 0, got {radius}")
    if form.denom < 1:
        raise DomainViolation(f"form {form.form_id} needs denom >= 1, got "
                              f"{form.denom}")
    if form.nvars != domain.nvars:
        raise DomainViolation(
            f"form {form.form_id} cannot be searched on {domain.label}: "
            f"arity {form.nvars} vs {domain.nvars} coordinates")
    _class_list(domain)  # refuses caps that miss a class
    # one table per coordinate, each state a mixed-radix int of about
    # sum(log2(cap + 1)) bits: their width is checked before any is built
    budget.check(domain.nvars * sum(c.bit_length() + 1 for c in domain.caps),
                 what=f"representation tables on {domain.label}")
    quad, lin = form.quad, form.lin
    nums = _numerators(form, targets)
    wanted = {K for K in nums if K is not None}
    found = (_witnesses_at_radius(quad, lin, wanted, domain, radius)
             if wanted else {})
    hits, projected = [], domain.projected
    for k, K in zip(targets, nums):
        hit = found.get(K)
        if hit is not None:
            if (len(hit) != len(lin) or quad * sum(map(mul, hit, hit))
                    + sum(map(mul, lin, hit)) != K):
                raise InvariantViolation(
                    f"witness {hit} evaluates to {form.evaluate(hit)}, "
                    f"wanted {k}")
            if projected:
                hit = hit[:-1]
        hits.append(hit)
    witnesses = [hit for hit in hits if hit is not None]
    if not _members(domain, witnesses):
        hit = next(hit for hit in witnesses if not member(domain, hit))
        raise InvariantViolation(f"witness {hit} escaped {domain.label}")
    return hits


def represent(form: FormSpec, domain: ConstrainedDomain, k, radius: int):
    """Search for a domain vector with form value exactly k; the witness
    tuple or None (see represent_all)."""
    return represent_all(form, domain, [k], radius)[0]


# ---------------------------------------------------------------------------
# Attained residue classes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def attained_classes(arity: int, m: int) -> frozenset[int]:
    """Classes mod m attained by q, the all-pairwise-products form of arity
    variables.

    q has integer coefficients, so coordinates mod m decide q mod m.
    Appending v to a prefix of sum s adds v^2 + v*s to q, so a DP over the
    coordinates keeps, per prefix sum t mod m, the classes of q mod m as an
    m-bit int: the prefixes of sum t are those of sum s with v = t - s
    appended, whose int rotates by t*(t - s).  q(-x) = q(x), so a layer is
    equal at t and -t: it computes t <= m/2 and mirrors it.  The last
    coordinate needs no sum state: it rotates by each distinct increment,
    and s and -s add the same ones, so it visits only s <= m/2.  About
    arity * m^2 / 2 steps, counted against the budget.
    """
    if m < 1:
        raise DomainViolation(f"modulus must be >= 1, got {m}")
    if arity < 0:
        raise DomainViolation(f"arity must be >= 0, got {arity}")
    if not arity:
        return frozenset({0})
    full, half = (1 << m) - 1, range(m // 2 + 1)
    layer, work, what = {0: 1}, 0, f"residue table of q({arity}) mod {m}"
    for _ in range(arity - 1):
        work += len(layer) * len(half)
        budget.check(work, what=what)
        nxt = {}
        for t in half:
            acc = 0
            for s, bits in layer.items():
                d = t * (t - s) % m
                acc |= bits << d | bits >> (m - d)
            nxt[t] = nxt[-t % m] = acc & full
        layer = nxt
    sums = [s for s in half if s in layer]
    work += len(sums) * m
    budget.check(work, what=what)
    acc = 0
    for s in sums:
        bits = layer[s]
        for d in {v * (v + s) % m for v in range(m)}:
            acc |= bits << d | bits >> (m - d)
    return frozenset(c for c in range(m) if acc >> c & 1)


def _q_arity(form: FormSpec, domain: ConstrainedDomain):
    """The arity of q when every class q misses is missed by the pair's
    values too, else None.

    The ground, in the data: quad 1, lin = -2c, const = |c|^2 and denom 2
    make the form |t - c|^2/2 (as for P, Q and q); on a domain of sum_target
    sum(c), x = t - c sums to zero and |x|^2/2 is q of x's first nvars - 1
    coordinates, so a class q misses is missed by the pair.  No other pair,
    whatever its label, takes q's classes, nor any from four variables on,
    where q attains every class.  With no coordinates, x = () and |x|^2/2
    is q of none, 0.
    """
    c, arity = [-b // 2 for b in form.lin], max(form.nvars - 1, 0)
    if (form[1:] != (1, tuple(-2 * v for v in c), sum(v * v for v in c), 2)
            or arity >= 4 or domain.sum_target != sum(c)):
        return None
    return arity


def _certificates(arity: int, missed, seen) -> dict:
    """{k: (m, k mod m)} for each integer k of missed that q's residue
    table mod m excludes, m the first modulus of DEFAULT_OBSTRUCTION_MODULI
    that does; q has arity variables (see _q_arity), so no box, however
    large, holds a certified k.  seen are the witnessed integer targets.

    The moduli are walked once: at each, the misses still open whose class
    no k of seen attains read its table (a witness is a value of q, so its
    class is attained), and those the table excludes are certified at m.  A
    table over the budget raises BudgetExceeded instead of being skipped.
    """
    certs = {}
    for m in DEFAULT_OBSTRUCTION_MODULI:
        if not missed:
            break
        witnessed = {k % m for k in seen}
        asked = [k for k in missed if k % m not in witnessed]
        if asked:
            classes = attained_classes(arity, m)
            certs.update((k, (m, k % m)) for k in asked
                         if k % m not in classes)
            missed = [k for k in missed if k not in certs]
    return certs


# ---------------------------------------------------------------------------
# Reports and scans
# ---------------------------------------------------------------------------

class ReportEntry(namedtuple("ReportEntry",
                             "target status witness modulus residue",
                             defaults=(None, None, None))):
    """target: int, or Fraction on the half grid; status: witness |
    not-found | obstructed."""

    __slots__ = ()


class UniversalityReport(namedtuple(
        "UniversalityReport", "form domain n max_k radius grid entries min_k",
        defaults=(0,))):
    """grid: "int" | "half"."""

    __slots__ = ()

    @property
    def misses(self) -> tuple[ReportEntry, ...]:
        return tuple(e for e in self.entries if e.status != "witness")

    @property
    def all_witnessed(self) -> bool:
        return not self.misses

    def to_json_dict(self) -> dict:
        entries = []
        for e in self.entries:
            d = {"k": _target_json(e.target), "status": e.status}
            if e.witness is not None:
                d["witness"] = list(e.witness)
            if e.modulus is not None:
                d["modulus"] = e.modulus
                d["residue"] = e.residue
            entries.append(d)
        return {"form": self.form, "domain": self.domain, "n": self.n,
                "min_k": self.min_k, "max_k": self.max_k,
                "radius": self.radius, "grid": self.grid,
                "witnesses": len(self.entries) - len(self.misses),
                "total": len(self.entries), "entries": entries}

    def to_text(self) -> str:
        lines = [f"form={self.form} domain={self.domain} n={self.n} "
                 f"min_k={self.min_k} max_k={self.max_k} "
                 f"radius={self.radius} grid={self.grid}"]
        for e in self.entries:
            k = _target_json(e.target)
            if e.status == "witness":
                lines.append(f"k={k} witness {','.join(map(str, e.witness))}"
                             .rstrip())
            elif e.status == "obstructed":
                lines.append(f"k={k} obstructed mod={e.modulus} "
                             f"class={e.residue}")
            else:
                lines.append(f"k={k} not-found radius={self.radius}")
        found = len(self.entries) - len(self.misses)
        lines.append(f"witnesses {found}/{len(self.entries)}")
        return "\n".join(lines)


def _target_json(k):
    """An int target as an int, one on the half grid as "p/q"."""
    if isinstance(k, Fraction) and k.denominator != 1:
        return f"{k.numerator}/{k.denominator}"
    return int(k)


def universality_scan(form: FormSpec, domain: ConstrainedDomain, max_k: int,
                      radius: int, *, min_k: int = 0,
                      grid: str = "int") -> UniversalityReport:
    """Represent every target in [min_k, max_k] (or the half-integer grid)
    and attach to each missed target the first modulus of
    DEFAULT_OBSTRUCTION_MODULI that certifies it, where one does (see
    _q_arity and _certificates)."""
    if grid not in ("int", "half"):
        raise DomainViolation(f"grid must be 'int' or 'half', got {grid!r}")
    budget.check(_TARGET_WEIGHT
                 * ((2 if grid == "half" else 1) * (max_k - min_k) + 1),
                 what="scan target list")
    if grid == "half":
        targets = [Fraction(j, 2) for j in range(2 * min_k, 2 * max_k + 1)]
    else:
        targets = list(range(min_k, max_k + 1))
    hits = represent_all(form, domain, targets, radius)
    arity, certs = _q_arity(form, domain), {}
    if arity is not None:
        certs = _certificates(
            arity, [int(k) for k, hit in zip(targets, hits)
                    if hit is None and k.denominator == 1],
            [int(k) for k, hit in zip(targets, hits)
             if hit is not None and k.denominator == 1])
    entries = [ReportEntry(k, "witness", hit) if hit is not None
               else ReportEntry(k, "obstructed", None, *certs[k]) if k in certs
               else ReportEntry(k, "not-found")
               for k, hit in zip(targets, hits)]
    return UniversalityReport(form.form_id, domain.label, domain.dim(),
                              max_k, radius, grid, tuple(entries), min_k)
