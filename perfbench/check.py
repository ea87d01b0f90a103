"""Output checker, independent of atomlen.

Every witness is re-evaluated with the form's own formula, written out here
from the paper, and member-checked against the domain's defining conditions.
The witnessed-target set of each scan must equal an expected set: the paper's
theorem-backed facts recorded in the job, or the brute-force oracle below over
the same radius box.  Obstruction certificates are re-checked against residue
tables enumerated here by a different method than atomlen's.  Witness vectors
are never pinned, so any documented deterministic search order passes.

check_job(job, output) returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from workloads import ORACLE

# ---------------------------------------------------------------------------
# Forms and domains, from their definitions
# ---------------------------------------------------------------------------


def _distinct(values, mod: int) -> bool:
    return len({v % mod for v in values}) == len(values)


def _sprime(n: int, charges) -> tuple[int, ...]:
    """Conjugate of the charges (a partition in an (n-1) x l box), padded
    to n parts and sorted increasingly: the base point of the orbit."""
    kappa = sorted(charges, reverse=True)
    return tuple(sorted(sum(1 for p in kappa if p >= j)
                        for j in range(1, n + 1)))


def _residue_multiset(values, mod: int) -> list[int]:
    return sorted(v % mod for v in values)


def _in_deltaC(x, n: int) -> bool:
    m = 2 * n + 1
    classes = []
    for i, v in enumerate(x, 1):
        r = (v + i) % m
        if r == 0:
            return False
        classes.append(min(r, m - r))
    return len(set(classes)) == n


LATTICE_DENOM = {"B1": 2, "C1": 4, "D1": 2, "A2odd": 2, "A2even": 2, "D2": 1}


def _in_lattice(x, tag: str) -> bool:
    if tag == "C1":
        return all(v % 2 == 0 for v in x)
    if tag in ("B1", "D1", "A2odd"):
        return sum(x) % 2 == 0
    return True


@dataclass(frozen=True)
class Form:
    """value(t) = (quad*sum(t^2) + cross*sum(t)^2 + sum(lin*t) + const) / denom
    on the vectors of length dim accepted by member, with coordinate sum
    sum_target when that is set."""

    dim: int
    quad: int
    lin: tuple[int, ...]
    const: Fraction
    denom: int
    member: Callable[[tuple], bool]
    sum_target: int | None = None
    cross: int = 0
    obstruction: tuple | None = None   # how certificates are re-checked

    def value(self, t) -> Fraction:
        s = sum(t)
        num = (self.quad * sum(v * v for v in t) + self.cross * s * s
               + sum(b * v for b, v in zip(self.lin, t)) + self.const)
        return Fraction(num) / self.denom


def scan_form(args: dict) -> tuple[Form, list]:
    """The checker's form for a scan job, and its target list in order."""
    kind, n = args["form"], args["n"]
    min_k, max_k = 0, args["max_k"]
    zero = (0,) * n
    if kind == "Q":          # half norm on Delta(n)
        form = Form(n, 1, zero, Fraction(0), 2,
                    lambda x: sum(x) == 0 and _distinct(
                        [v + i for i, v in enumerate(x, 1)], n),
                    sum_target=0, obstruction=("q", n - 1))
    elif kind == "P":        # P(y) = |y - (1..n)|^2 / 2 on window vectors
        form = Form(n, 1, tuple(-2 * i for i in range(1, n + 1)),
                    Fraction(sum(i * i for i in range(1, n + 1))), 2,
                    lambda y: sum(y) == n * (n + 1) // 2 and _distinct(y, n),
                    sum_target=n * (n + 1) // 2, obstruction=("q", n - 1))
    elif kind == "q":        # sum of squares plus all pairwise products
        form = Form(n, 1, zero, Fraction(0), 2, lambda x: True, cross=1,
                    obstruction=("q", n))
    elif kind == "go":       # n-core size (n/2)|t|^2 + sum (i-1) t_i
        form = Form(n, n, tuple(2 * i for i in range(n)), Fraction(0), 2,
                    lambda t: sum(t) == 0, sum_target=0)
    elif kind == "refined":  # the same size on the distinct-residue orbit
        s = n * (n - 1) // 2
        form = Form(n, n, tuple(2 * i for i in range(n)),
                    Fraction(-s * (n - 1) - s * s), 2,
                    lambda t: sum(t) == s and _distinct(t, n), sum_target=s)
        min_k = math.comb(n + 2, 4)
        max_k += min_k
    elif kind in ("Ps", "trunc"):
        ell = args["ell"]
        charges = (tuple(args["charges"]) if kind == "Ps"
                   else tuple(range(ell)))
        sp = _sprime(n, charges)
        total = sum(charges)
        # (n/2l)|t|^2 - sum (i-1) t_i, shifted to vanish at sprime
        shift = (Fraction(n, 2 * ell) * sum(v * v for v in sp)
                 - sum(i * v for i, v in enumerate(sp)))
        form = Form(n, n, tuple(-2 * ell * i for i in range(n)),
                    -2 * ell * shift, 2 * ell,
                    lambda t: (sum(t) == total and _residue_multiset(t, ell)
                               == _residue_multiset(sp, ell)),
                    sum_target=total)
    elif kind == "deltaC":   # Euclidean norm on the signed distinct set
        form = Form(n, 1, zero, Fraction(0), 1, lambda x: _in_deltaC(x, n),
                    obstruction=("squares", n, 1))
    elif kind == "lattice":
        tag = args["tag"]
        d = LATTICE_DENOM[tag]
        form = Form(n, 1, zero, Fraction(0), d, lambda x: _in_lattice(x, tag),
                    obstruction=("squares", n, d))
        if tag == "A2even":
            return form, [Fraction(j, 2) for j in range(0, 2 * max_k + 1)]
    else:
        raise ValueError(f"unknown scan form {kind!r}")
    return form, [Fraction(k) for k in range(min_k, max_k + 1)]


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _term_min(a: int, b: int, radius: int) -> int:
    """Minimum of a v^2 + b v over integers |v| <= radius (a > 0)."""
    c = min(radius, max(-radius, round(Fraction(-b, 2 * a))))
    return min(a * v * v + b * v
               for v in (c - 1, c, c + 1) if abs(v) <= radius)


def oracle_values(form: Form, radius: int, lo: Fraction,
                  hi: Fraction) -> frozenset:
    """Every value in [lo, hi] that the form takes on the domain vectors with
    all coordinates in [-radius, radius]."""
    n, a, lin = form.dim, form.quad, form.lin
    free = n - 1 if form.sum_target is not None else n
    rest = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        rest[i] = rest[i + 1] + _term_min(a, lin[i], radius)
    # the quadratic part of the numerator may not exceed cap; the cross term
    # is a square, so leaving it out keeps the pruning exact
    cap = math.floor(hi * form.denom - form.const)
    found = set()
    t = [0] * n

    def rec(i: int, partial: int, s: int) -> None:
        if i == free:
            if form.sum_target is not None:
                v = form.sum_target - s
                if abs(v) > radius or partial + a * v * v + lin[i] * v > cap:
                    return
                t[i] = v
            if form.member(t):
                val = form.value(t)
                if lo <= val <= hi:
                    found.add(val)
            return
        budget = cap - partial - rest[i + 1]
        b = lin[i]
        disc = b * b + 4 * a * budget
        if disc < 0:
            return
        r = math.isqrt(disc) + 1
        v_lo = max(-radius, (-b - r) // (2 * a))
        v_hi = min(radius, (-b + r) // (2 * a) + 1)
        for v in range(v_lo, v_hi + 1):
            term = a * v * v + b * v
            if term <= budget:
                t[i] = v
                rec(i + 1, partial + term, s + v)

    rec(0, 0, 0)
    return frozenset(found)


@lru_cache(maxsize=None)
def _oracle_missed(args_key: str) -> frozenset:
    args = json.loads(args_key)
    form, targets = scan_form(args)
    values = oracle_values(form, args["radius"], targets[0], targets[-1])
    return frozenset(targets) - values


def expected_missed(args: dict, expect) -> frozenset:
    if expect == ORACLE:
        return _oracle_missed(json.dumps(args, sort_keys=True))
    return frozenset(parse_target(k) for k in expect)


# ---------------------------------------------------------------------------
# Residue tables for obstruction certificates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _q_prefixes(arity: int, m: int) -> frozenset:
    """(sum, value) mod m of the pairwise-products form over the first
    arity-1 coordinates, each running over Z/m."""
    states = {(0, 0)}
    for _ in range(arity - 1):
        states = {((s + y) % m, (c + y * y + y * s) % m)
                  for s, c in states for y in range(m)}
    return frozenset(states)


@lru_cache(maxsize=None)
def _completions(m: int) -> tuple[frozenset, ...]:
    """For each b mod m, the classes y^2 + b y mod m."""
    return tuple(frozenset((y * y + b * y) % m for y in range(m))
                 for b in range(m))


@lru_cache(maxsize=None)
def q_attains(arity: int, m: int, r: int) -> bool:
    """Whether sum x_i^2 + sum_{i<j} x_i x_j hits r mod m on Z^arity: the
    last coordinate y adds y^2 + y * (sum of the others)."""
    tails = _completions(m)
    return any((r - c) % m in tails[s] for s, c in _q_prefixes(arity, m))


@lru_cache(maxsize=None)
def squares_classes(count: int, m: int) -> frozenset:
    """Classes mod m of sums of count squares."""
    squares = {v * v % m for v in range(m)}
    out = {0}
    for _ in range(count):
        out = {(u + v) % m for u in out for v in squares}
    return frozenset(out)


def _certificate_problem(form: Form, k: Fraction, entry: dict) -> str | None:
    m, r = entry.get("modulus"), entry.get("residue")
    if not isinstance(m, int) or not isinstance(r, int) or m < 1:
        return f"k={k}: malformed certificate {entry}"
    if k.denominator != 1 or r != int(k) % m:
        return f"k={k}: certificate residue {r} is not k mod {m}"
    if form.obstruction is None:
        return f"k={k}: no independent re-check for this form's certificates"
    if form.obstruction[0] == "q":
        attained = q_attains(form.obstruction[1], m, r)
    else:
        _, count, d = form.obstruction
        # the form is sum(x^2)/d on a sublattice of Z^count
        attained = d * r % (d * m) in squares_classes(count, d * m)
    if attained:
        return f"k={k}: class {r} mod {m} is attained, not an obstruction"
    return None


# ---------------------------------------------------------------------------
# Per-kind checks
# ---------------------------------------------------------------------------

def parse_target(k) -> Fraction:
    if isinstance(k, str):
        num, _, den = k.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(k)


def check_scan(args: dict, expect, report: dict) -> list[str]:
    form, targets = scan_form(args)
    radius = args["radius"]
    entries = report.get("entries", [])
    ks = [parse_target(e.get("k")) for e in entries]
    if ks != targets:
        return [f"targets are {len(ks)} values, not the {len(targets)} asked"]
    problems = []
    witnessed = set()
    for e, k in zip(entries, ks):
        status = e.get("status")
        if status == "witness":
            w = tuple(e.get("witness") or ())
            if len(w) != form.dim or not form.member(w):
                problems.append(f"k={k}: witness {w} is outside the domain")
            elif any(abs(v) > radius for v in w):
                problems.append(f"k={k}: witness {w} is outside the box")
            elif form.value(w) != k:
                problems.append(f"k={k}: witness {w} evaluates to "
                                f"{form.value(w)}")
            else:
                witnessed.add(k)
        elif status == "obstructed":
            problem = _certificate_problem(form, k, e)
            if problem:
                problems.append(problem)
        elif status != "not-found":
            problems.append(f"k={k}: unknown status {status!r}")
    missed = frozenset(targets) - witnessed
    expected = expected_missed(args, expect)
    if not problems and missed != expected:
        extra, lost = sorted(missed - expected), sorted(expected - missed)
        problems.append(f"missed targets differ: {len(extra)} unexpected "
                        f"misses {extra[:5]}, {len(lost)} unexpected "
                        f"witnesses {lost[:5]}")
    if report.get("total") != len(targets) or (
            not problems and report.get("witnesses") != len(witnessed)):
        problems.append("witness/total counts disagree with the entries")
    return problems


def _orbit(family: str, n: int, m: int) -> set:
    base = range(1, n + 1)
    signs = (itertools.product((1, -1), repeat=n) if family == "C"
             else [(1,) * n])
    signs = list(signs)
    return {tuple(s * v % m for s, v in zip(sg, perm))
            for perm in itertools.permutations(base) for sg in signs}


def expected_sumset_missing(family: str, n: int, mod) -> list | None:
    """Brute force when the orbit is small; otherwise the theorem (family A,
    and family C when 2n+1 is prime) at the default modulus."""
    m = mod or (n if family == "A" else 2 * n + 1)
    size = math.factorial(n) * (2 ** n if family == "C" else 1)
    if size * size <= 60_000:
        orbit = _orbit(family, n, m)
        diffs = {tuple((x - y) % m for x, y in zip(a, b))
                 for a in orbit for b in orbit}
        group = itertools.product(range(m), repeat=n)
        target = (group if family == "C"
                  else (v for v in group if sum(v) % m == 0))
        return sorted(list(v) for v in target if v not in diffs)
    prime = all(m % f for f in range(2, math.isqrt(m) + 1))
    if mod is None and (family == "A" or prime):
        return []
    return None


def check_sumset(args: dict, cert: dict) -> list[str]:
    family, n, mod = args["family"], args["n"], args["mod"]
    m = mod or (n if family == "A" else 2 * n + 1)
    if (cert.get("family"), cert.get("n"), cert.get("modulus")) != (
            family, n, m):
        return [f"certificate is for {cert.get('family')},{cert.get('n')} "
                f"mod {cert.get('modulus')}"]
    expected = expected_sumset_missing(family, n, mod)
    if expected is None:
        return ["no recorded expectation for this sumset"]
    missing = sorted(cert.get("missing", []))
    if missing != expected or cert.get("equal") != (not expected):
        return [f"missing {len(missing)} vectors, expected {len(expected)}"]
    return []


def b_closed_form(series: str, n: int, ell: int) -> int:
    """The paper's closed-form maximum of the truncated atomic length."""
    if series == "A":
        num = ell * (ell + 1) * (3 * n - 2 * ell + 2)
    elif series == "B":
        num = 3 * n * (n + 1) * (2 * ell - 1) - 2 * ell * (ell * ell - 1)
    elif series == "C":
        num = (6 * n * n - 1) * ell - ell * ell * (2 * ell - 3)
    else:
        num = 2 * (ell - 1) * (3 * n * n - 3 * n - ell * (ell - 2))
    return num // 6


def expected_saturation_missing(series: str, n: int, ell: int) -> list | None:
    """From rank 4 on every level saturates, except series C at level 1,
    whose values are the sums of distinct odd numbers 1, 3, ..., 2n-1."""
    if series == "C" and ell == 1:
        sums = {0}
        for odd in range(1, 2 * n, 2):
            sums |= {s + odd for s in sums}
        return [k for k in range(n * n + 1) if k not in sums]
    return [] if n >= 4 else None


def check_saturation(args: dict, res: dict) -> list[str]:
    series, n, ell = args["series"], args["n"], args["ell"]
    b = b_closed_form(series, n, ell)
    expected = expected_saturation_missing(series, n, ell)
    if expected is None:
        return ["no recorded expectation for this saturation check"]
    got = (res.get("type"), res.get("n"), res.get("ell"), res.get("b"),
           res.get("image_min"), res.get("image_max"), res.get("missing"),
           res.get("is_interval"))
    want = (series, n, ell, b, 0, b, expected, not expected)
    return [] if got == want else [f"saturation result {got}, expected {want}"]


def entropy_of(window) -> int:
    """Half the summed squared displacement of the window."""
    return sum((v - i) ** 2 for i, v in enumerate(window, 1)) // 2


def check_entropy(args: dict, out: list) -> list[str]:
    if len(out) != len(args["windows"]):
        return ["wrong number of results"]
    bad = [w for w, (e, al) in zip(args["windows"], out)
           if not e == al == entropy_of(w)]
    return [f"{len(bad)} windows with a wrong value, e.g. {bad[0]}"] if bad else []


def _hall_problem(m: int, d, a, b) -> str | None:
    if sorted(a) != list(range(m)) or sorted(b) != list(range(m)):
        return f"d={d}: a or b is not a permutation of Z/{m}"
    if any((y - x - e) % m for x, y, e in zip(a, b, d)):
        return f"d={d}: b - a differs from d"
    return None


def check_hall(args: dict, out: list) -> list[str]:
    if len(out) != len(args["ds"]):
        return ["wrong number of results"]
    problems = [_hall_problem(args["m"], d, a, b)
                for d, (a, b) in zip(args["ds"], out)]
    return [p for p in problems if p][:3]


def _is_partition(parts) -> bool:
    return (all(isinstance(p, int) and p > 0 for p in parts)
            and all(x >= y for x, y in zip(parts, parts[1:])))


def is_ns_core(multipartition, charges, n: int) -> bool:
    """Abacus test: each runner's beads repeat on the runner above, and the
    top runner's beads repeat n positions lower on the bottom runner.  A
    partition with charge s has beads at part_j - j + s for every j >= 1."""
    runners = [(s - len(p), {v - j + s for j, v in enumerate(p, 1)})
               for p, s in zip(multipartition, charges)]

    def occupied(runner, pos):
        return pos < runner[0] or pos in runner[1]

    lo = min(r[0] for r in runners) - 1
    hi = max(max(r[1], default=r[0]) for r in runners) + n + 1
    for pos in range(lo, hi + 1):
        if any(occupied(below, pos) and not occupied(above, pos)
               for below, above in zip(runners, runners[1:])):
            return False
        if occupied(runners[-1], pos) and not occupied(runners[0], pos - n):
            return False
    return True


def _core_problem(n: int, level: int, charges, core, multicharge,
                  level_n_charges) -> str | None:
    core_mp, core_charges = core
    if len(core_mp) != level or not all(map(_is_partition, core_mp)):
        return f"core {core_mp} is not a level-{level} multipartition"
    if sum(core_charges) != sum(charges):
        return "core charges do not keep the total charge"
    if list(multicharge) != list(reversed(level_n_charges)):
        return "core multicharge is not the reversed level-n charge"
    if not is_ns_core(core_mp, core_charges, n):
        return f"core {core_mp} / {core_charges} is not an ({n})-core"
    return None


def check_rotation(args: dict, out: list) -> list[str]:
    n, level = args["n"], args["level"]
    if len(out) != len(args["items"]):
        return ["wrong number of results"]
    problems = []
    for (lam, charges), item in zip(args["items"], out):
        mp, sn = item["phi"]
        if (len(mp) != n or len(sn) != n or sum(sn) != sum(charges)
                or not all(map(_is_partition, mp))):
            problems.append(f"{lam}/{charges}: phi output is not a level-{n} "
                            f"multipartition with the same total charge")
        elif item["inverse"] != [lam, charges]:
            problems.append(f"{lam}/{charges}: phi_inverse(phi) gives "
                            f"{item['inverse']}")
        else:
            core, multicharge = item["core"]
            problem = _core_problem(n, level, charges, core, multicharge, sn)
            if problem:
                problems.append(f"{lam}/{charges}: {problem}")
    return problems[:3]


# ---------------------------------------------------------------------------
# CLI commands: exit code 0, one JSON document, and the same checks
# ---------------------------------------------------------------------------

def _check_cli_payload(expect: dict, p: dict) -> list[str]:
    kind = expect["kind"]
    if kind == "scan":
        return check_scan(expect["args"], expect["expect"], p)
    if kind == "sumset":
        return check_sumset(expect["args"], p)
    if kind == "saturation":
        return check_saturation(expect["args"], p)
    if kind == "entropy":
        want = entropy_of(expect["window"])
        return [] if p.get("entropy") == want == expect["value"] else [
            f"entropy {p.get('entropy')}, expected {want}"]
    if kind == "hall":
        problem = _hall_problem(expect["m"], expect["d"], p.get("a", []),
                                p.get("b", []))
        return [problem] if problem else []
    if kind == "core":
        fields = ("quotient", "quotient_charges", "core", "core_charges",
                  "core_multicharge")
        if any(p.get(f) != expect[f] for f in fields):
            return ["core output differs from the README's worked example"]
        problem = _core_problem(expect["n"], len(expect["charges"]),
                                expect["charges"],
                                (p["core"], p["core_charges"]),
                                p["core_multicharge"], p["quotient_charges"])
        return [problem] if problem else []
    if kind == "bound":
        want = b_closed_form(expect["series"], expect["n"], expect["ell"])
        return [] if p.get("b") == want else [f"bound {p.get('b')}, expected {want}"]
    if kind == "threshold":
        return [] if p.get("n0") == expect["n0"] else [
            f"threshold {p.get('n0')}, expected {expect['n0']}"]
    raise ValueError(f"unknown CLI expectation {kind!r}")


def check_cli(expect: dict, out: dict) -> list[str]:
    if out.get("code") != 0:
        return [f"exit code {out.get('code')}: {out.get('stderr', '')[:200]}"]
    try:
        payload = json.loads(out.get("stdout", ""))
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    try:
        return _check_cli_payload(expect, payload)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


_CHECKS = {"sumset": check_sumset,
           "saturation": check_saturation, "entropy": check_entropy,
           "hall": check_hall, "rotation": check_rotation}


def check_job(job: dict, output) -> list[str]:
    """Problems with one job's output; [] when it is correct."""
    kind = job["kind"]
    try:
        if kind == "scan":
            return check_scan(job["args"], job["expect"], output)
        if kind == "cli":
            return check_cli(job["expect"], output)
        return _CHECKS[kind](job["args"], output)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]
