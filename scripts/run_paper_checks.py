#!/usr/bin/env python3
"""Every theorem-backed check of the paper, stated once.

CHECKS is the registry: (name, check) pairs.  A check raises AssertionError
when its claim fails and returns a line of detail when it holds.  This script
prints one PASS/FAIL line per entry and exits nonzero when anything fails;
tests/test_acceptance.py runs the same entries as the acceptance battery.
Scan checks read the pinned reports of scan_sweeps.py by name, so each scan
size is written once, there.
"""
import argparse
import itertools
import pathlib
import random
import sys
import time
import traceback
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from atomlen import affine_classical as ac
from atomlen import affine_permutations as ap
from atomlen import cores_abaci as ca
from atomlen import finite_weyl as fw
from atomlen import quadratic_forms as qf
from atomlen import sumsets as ss
import scan_sweeps


def _all_witnessed(name: str):
    """The pinned sweep report `name`, asserted to witness every target."""
    report = scan_sweeps.report(name)
    assert report.all_witnessed, (name, [e.target for e in report.misses])
    return report


def _random_window(rng: random.Random, n: int, span: int = 5):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    x = [rng.randint(-span, span) for _ in range(n - 1)]
    x.append(-sum(x))
    return tuple(perm[i] + n * x[perm[i] - 1] for i in range(n))


def _random_spec_and_orbit_point(rng: random.Random):
    n = rng.randint(2, 7)
    ell = rng.randint(1, n)
    charges = tuple(sorted(rng.randrange(n) for _ in range(ell)))
    spec = ca.WeightSpec(n, ell, charges)
    word = [rng.randrange(n) for _ in range(rng.randint(0, 14))]
    return spec, ca.affine_action_on_charges(word, spec.sprime, ell)


def criterion_01_entropy_equals_atomic_length():
    t0 = time.perf_counter()
    count = 0
    for n in range(2, 6):
        for w in ap.enumerate_bounded(n, 20):
            assert ap.entropy(w) == ap.atomic_length_rho(w), w.window
            count += 1
    elapsed = time.perf_counter() - t0
    assert count > 10_000, count
    assert elapsed < 10.0, elapsed
    return f"{count} elements (n=2..5, |x|^2<=20), {elapsed:.1f}s"


def criterion_02_diagram_commutativity():
    rng = random.Random(13)
    for _ in range(10_000):
        n = rng.randint(2, 7)
        win = _random_window(rng, n)
        p = qf.eval_P(win)
        x = qf.map_C(win)
        assert qf.eval_Q(x) == p, win
        assert qf.eval_q(qf.map_pr(x)) == p, win
    return "P == Q(C(y)) == q(pr(C(y))) on 10^4 random windows, n <= 7"


def criterion_03_q_four_variables_hits_s290():
    t0 = time.perf_counter()
    form, dom = qf.form_q(4), qf.domain_Z_full(4)
    for k in sorted(qf.S290):
        w = qf.represent(form, dom, k, 8)
        assert w is not None and qf.eval_q(w) == k, k
        assert all(abs(v) <= 8 for v in w), w
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, elapsed
    return f"29/29 elements of S290 witnessed in [-8,8]^4, {elapsed:.1f}s"


def criterion_04_attained_classes_exactly():
    assert qf.attained_classes(2, 3) == frozenset({0, 1})
    assert set(range(16)) - qf.attained_classes(3, 16) == {14}
    assert set(range(32)) - qf.attained_classes(3, 32) == {14, 30}
    m128 = set(range(128)) - qf.attained_classes(3, 128)
    assert m128 == {14, 30, 46, 56, 62, 78, 94, 110, 120, 126}, m128
    return "attained classes mod 3/16/32/128 match the stated sets exactly"


def criterion_05_delta_scans():
    t0 = time.perf_counter()
    for name in ("delta_5", "delta_6"):
        _all_witnessed(name)
    rep4 = scan_sweeps.report("delta_4")
    flagged = {e.target for e in rep4.entries if e.status == "obstructed"}
    assert {14, 30, 110} <= flagged, sorted(flagged)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    return (f"half norm universal on Delta(5), Delta(6); 14/30/110 obstructed "
            f"at rank 4 ({len(rep4.misses)} missed), {elapsed:.1f}s")


# a zero-sum vector mod 26 on which a backtracking search runs for minutes
HALL_HARD = (9, 21, 21, 25, 20, 19, 0, 17, 0, 20, 4, 12, 23, 17, 3, 14, 0,
             24, 13, 19, 21, 13, 8, 11, 13, 17)


def criterion_06_hall_sumsets():
    for n in range(2, 7):
        assert ss.verify_sumset_equality("A", n).equal, n
    # H_6: the zero-sum vectors of (Z/6)^6, counted from the definition
    assert sum(1 for v in itertools.product(range(6), repeat=6)
               if sum(v) % 6 == 0) == 7776
    cases = [(26, HALL_HARD)]
    for seed in (1, 29):
        rng = random.Random(seed)
        for _ in range(1000):
            m = rng.randint(2, 64)
            d = [rng.randrange(m) for _ in range(m - 1)]
            cases.append((m, d + [-sum(d) % m]))
    for m, d in cases:
        a, b = ss.hall_decompose(m, d)
        assert sorted(a) == list(range(m)) == sorted(b), (m, d)
        assert all((y - x) % m == e for x, y, e in zip(a, b, d)), (m, d)
    return ("orbit difference sets equal the zero-sum subgroup for n=2..6 "
            "(|H_6| = 7776); 2000 random decompositions (m = 2..64) and "
            "the hard m=26 case verified")


def criterion_07_type_c_sumsets():
    for n in range(2, 8):   # moduli 5, 7, 9, 11, 13, 15
        assert ss.verify_sumset_equality("C", n).equal, n
    over = ss.verify_sumset_equality("C", 2, modulus=4)
    assert not over.equal and (1, 0) in over.missing
    rng = random.Random(31)
    for n in (3, 5):
        p = 2 * n + 1
        for _ in range(100):
            a = tuple(rng.randrange(p) for _ in range(n))
            w1, w2 = ss.c_difference_witness(a)
            assert all((x - y) % p == t for x, y, t in zip(w1, w2, a)), a
    return ("signed orbits cover the full group (n=2..7; 2n+1=9,15 are "
            "evidence for the composite-modulus conjecture, not the paper's "
            "theorem); the mod-4 counterexample (1,0) reproduced; 200 random "
            "witnesses")


def criterion_08_phi_and_cores():
    ln, sn = ca.phi(((3, 1), (2, 1)), (0, 0), 3)
    assert ln == ((1,), (2,), ()) and sn == (1, -1, 0)
    (core, charges), multicharge = ca.ns_core_of(((3, 1), (2, 1)), (0, 0), 3)
    assert core == ((1,), (2,)) and charges == (-1, 1)
    assert multicharge == (0, -1, 1)

    rng = random.Random(37)
    for _ in range(300):
        ell = rng.randint(1, 4)
        n = rng.randint(2, 6)
        lam = tuple(
            tuple(sorted((rng.randint(1, 8) for _ in range(rng.randint(0, 5))),
                         reverse=True))
            for _ in range(ell))
        if sum(map(sum, lam)) > 30:
            continue
        chg = tuple(rng.randint(-4, 4) for _ in range(ell))
        out = ca.phi(lam, chg, n)
        assert ca.phi_inverse(out[0], out[1], ell) == (lam, chg), (lam, chg)

    for _ in range(500):
        n = rng.randint(2, 7)
        lam = tuple(sorted((rng.randint(1, 10)
                            for _ in range(rng.randint(0, 7))), reverse=True))
        s = rng.randint(-3, 3)
        assert ca.is_n_core_abacus(ca.beta_set(lam, s), n) == \
            ca.is_n_core_hooks(lam, n), (lam, s, n)
    return ("worked example bit-exact; 300 round trips; 500 abacus-vs-hook "
            "core agreements")


def criterion_09_polynomial_consistency():
    rng = random.Random(41)
    for _ in range(50):
        spec, _ = _random_spec_and_orbit_point(rng)
        assert ca.eval_Ps(spec, spec.sprime) == 0, spec
    for _ in range(200):
        spec, t = _random_spec_and_orbit_point(rng)
        val = ca.eval_Ps(spec, t)
        core, _ = ca.core_of_orbit_point(spec, t)
        assert ca.multipartition_size(core) == val, (spec, t)
        z = ca.dilate_point(spec, t)
        assert ca.eval_dilated(spec, z) == Fraction(spec.n, spec.ell) * val
    return ("normalization, box-count and dilation identities exact on "
            "50 + 200 random samples")


def criterion_10_granville_ono_desk_scale():
    t0 = time.perf_counter()
    for name in ("go_4", "go_5", "go_6", "go_7", "refined_go_6"):
        _all_witnessed(name)
    rep5 = scan_sweeps.report("refined_go_5")
    assert [(e.target, e.status) for e in rep5.misses] == [(125, "not-found")]
    assert ca.refined_base_value(5) == 35
    return (f"core-size scans all-witness for n=4..7 and refined n=6; refined "
            f"scan misses only size 125 at n=5, {time.perf_counter() - t0:.1f}s")


def criterion_11_truncated_weight_evidence():
    names = ("trunc_5_2", "trunc_5_3", "trunc_6_2", "trunc_7_3")
    for name in names:
        _all_witnessed(name)
    return f"truncated-staircase scans all-witness: {', '.join(names)}"


def criterion_12_finite_types():
    t0 = time.perf_counter()
    for series, n in itertools.product(fw.SERIES, range(2, 9)):
        t = fw.FiniteType(series, n)
        # the group is listed once per type and serves every level
        group = (list(fw.enumerate_group(t))
                 if n <= (6 if series == "A" else 5) else ())
        for ell in range(2 if series == "D" else 1, n + 1):
            b = fw.b_bound(t, ell)
            res = fw.saturation_check(t, ell)
            assert res.is_interval == fw.saturation_predicted(t, ell), \
                (series, n, ell)
            assert max(res.image) == b, (series, n, ell)
            if group:
                assert max(fw.atomic_length_finite(t, ell, w)
                           for w in group) == b, (series, n, ell)
    assert not fw.saturation_check(fw.FiniteType("B", 2), 2).is_interval
    assert not fw.saturation_check(fw.FiniteType("C", 2), 2).is_interval
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, elapsed
    return (f"bounds and saturation match on A/B/C/D n=2..8, bounds match "
            f"enumeration on A n<=6 and B/C/D n<=5, {elapsed:.1f}s")


def criterion_13_affine_type_c_entropy():
    for name in ("deltaC_4", "deltaC_5", "deltaC_6"):
        _all_witnessed(name)
    rng = random.Random(43)
    done = 0
    while done < 1000:
        n = rng.randint(2, 6)
        x = tuple(rng.randint(-7, 7) for _ in range(n))
        if not ac.member_DeltaC(x):
            continue
        e = ac.from_displacement(x)
        assert ap.entropy(ac.lift_to_A(e)) == ac.entropy_C(x), (n, x)
        done += 1
    return ("constrained Euclidean scans all-witness for n=4,5,6; embedding "
            "identity on 10^3 samples")


def criterion_14_large_rank():
    for tag in ac.LATTICE_TAGS:
        rep = _all_witnessed(f"lattice_{tag}_4")
        assert rep.grid == ("half" if tag == "A2even" else "int"), tag
    table = ac.threshold_table()
    assert table == {"B1": 15, "C1": 15, "D1": 16, "A2odd": 15,
                     "A2even": 16, "D2": 10}, table
    return ("all lattice rows witness their rank-4 scans; thresholds "
            "15/15/16/15/16/10 reproduced")


CHECKS = [(check.__name__, check) for check in (
    criterion_01_entropy_equals_atomic_length,
    criterion_02_diagram_commutativity,
    criterion_03_q_four_variables_hits_s290,
    criterion_04_attained_classes_exactly,
    criterion_05_delta_scans,
    criterion_06_hall_sumsets,
    criterion_07_type_c_sumsets,
    criterion_08_phi_and_cores,
    criterion_09_polynomial_consistency,
    criterion_10_granville_ono_desk_scale,
    criterion_11_truncated_weight_evidence,
    criterion_12_finite_types,
    criterion_13_affine_type_c_entropy,
    criterion_14_large_rank,
)]


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    failed = 0
    for name, check in CHECKS:
        try:
            tag, detail = "PASS", check()
        except AssertionError as exc:
            failed += 1
            where = traceback.extract_tb(exc.__traceback__)[-1]
            detail = " ".join(str(exc).split()) or where.line
            tag, detail = "FAIL", f"line {where.lineno}: {detail}"
        print(f"{tag}  {name:<44}{detail}")
    print("ALL CHECKS PASSED" if failed == 0 else f"{failed} CHECKS FAILED")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
