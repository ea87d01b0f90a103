#!/usr/bin/env python3
"""Full desk-scale verification sweep.

Runs every theorem-backed check at the scale used for acceptance, prints one
PASS/FAIL line per check and exits nonzero when anything fails.  Slower and
chattier than the pytest suite; useful for eyeballing the actual numbers.
"""
import argparse
import itertools
import pathlib
import random
import sys
import time

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from atomlen import affine_classical as ac
from atomlen import affine_permutations as ap
from atomlen import cores_abaci as ca
from atomlen import finite_weyl as fw
from atomlen import quadratic_forms as qf
from atomlen import sumsets as ss

FAILS = 0


def ok_line(ok: bool, label: str, detail: str = "") -> None:
    global FAILS
    if not ok:
        FAILS += 1
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {label:<64}{detail}")


def timed(fn):
    t0 = time.time()
    out = fn()
    return out, time.time() - t0


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()

    # entropy == atomic length, exhaustive near the identity
    def sweep():
        count = 0
        for n in range(2, 6):
            for w in ap.enumerate_bounded(n, 20):
                if ap.entropy(w) != ap.atomic_length_rho(w):
                    return None
                count += 1
        return count

    count, dt = timed(sweep)
    ok_line(count is not None, "entropy == atomic length (n=2..5, |x|^2<=20)",
            f"{count} elements, {dt:.1f}s")

    # universality of the half norm on the displacement domains
    for n in (4, 5, 6):
        rep, dt = timed(lambda n=n: qf.universality_scan(
            qf.form_Q(n), qf.domain_Delta(n), 200, 30))
        if n >= 5:
            ok_line(rep.all_witnessed, f"half norm universal on Delta({n})",
                    f"201 targets, {dt:.1f}s")
        else:
            flagged = {e.target for e in rep.entries if e.status == "obstructed"}
            ok_line({14, 30, 110} <= flagged,
                    "rank 4 obstructions at 14/30/110",
                    f"{len(rep.misses)} missed targets, {dt:.1f}s")

    # S290 checklist for the pairwise-products form
    hits = [qf.represent(qf.form_q(4), qf.domain_Z_full(4), k, 8)
            for k in sorted(qf.S290)]
    ok_line(all(h is not None for h in hits),
            "S290 represented by 4 variables in [-8,8]", "29 targets")

    # Hall difference sets
    certs = [ss.verify_sumset_equality("A", n) for n in range(2, 7)]
    ok_line(all(c.equal for c in certs),
            "orbit difference sets = zero-sum subgroup (n=2..6)",
            f"|H_6| = {len(ss.zero_sum_subgroup(6, 6))}")
    rng = random.Random(1)
    def hall_sweep():
        for _ in range(1000):
            m = rng.randint(2, 12)
            d = [rng.randrange(m) for _ in range(m - 1)]
            d.append((-sum(d)) % m)
            a, b = ss.hall_decompose(m, d)
            if any((y - x) % m != e for x, y, e in zip(a, b, d)):
                return False
        return True
    okh, dt = timed(hall_sweep)
    ok_line(okh, "1000 random difference-vector decompositions", f"{dt:.1f}s")

    # signed orbits
    ok_line(ss.verify_sumset_equality("C", 2).equal
            and ss.verify_sumset_equality("C", 3).equal,
            "signed orbit differences cover the full group (n=2,3)")
    over = ss.verify_sumset_equality("C", 2, modulus=4)
    ok_line((1, 0) in over.missing, "mod-4 counterexample (1,0) reproduced")

    # cores
    (core, charges), mc = ca.ns_core_of(((3, 1), (2, 1)), (0, 0), 3)
    ok_line(core == ((1,), (2,)) and charges == (-1, 1) and mc == (0, -1, 1),
            "worked core example bit-exact")

    for n in (4, 5, 6, 7):
        rep, dt = timed(lambda n=n: ca.granville_ono_scan(n, 150, 25))
        ok_line(rep.all_witnessed, f"core sizes universal (n={n}, N=150)",
                f"{dt:.1f}s")
    rep5 = ca.scan_refined_GO(5, 150, 25)
    ok_line([e.target for e in rep5.misses] == [125],
            "refined family at n=5 misses exactly size 125")
    rep6 = ca.scan_refined_GO(6, 100, 25)
    ok_line(rep6.all_witnessed, "refined family at n=6 all witnessed")
    for n, ell in ((5, 2), (5, 3), (6, 2)):
        rep = ca.scan_truncated_weight(n, ell, 100, 30)
        ok_line(rep.all_witnessed,
                f"truncated weight scan all-witness (n={n}, l={ell})")

    # finite types
    def finite_sweep():
        for series, n in itertools.product(fw.SERIES, range(2, 9)):
            t = fw.FiniteType(series, n)
            for ell in range(2 if series == "D" else 1, n + 1):
                res = fw.saturation_check(t, ell)
                if res.is_interval != fw.saturation_predicted(t, ell):
                    return (series, n, ell)
                mx = max(res.image)
                if mx != fw.b_bound(t, ell):
                    return (series, n, ell)
        return None
    bad, dt = timed(finite_sweep)
    ok_line(bad is None, "finite bounds and saturation (A/B/C/D, n=2..8)",
            f"{dt:.1f}s" + (f" first mismatch {bad}" if bad else ""))

    # affine type C
    for n in (4, 5):
        rep, dt = timed(lambda n=n: ac.scan_deltaC(n, 150, 15))
        ok_line(rep.all_witnessed,
                f"constrained Euclidean scan all-witness (n={n})", f"{dt:.1f}s")

    # lattice rows and thresholds
    for tag in ac.LATTICE_TAGS:
        rep = ac.norm_universality_scan(ac.AffineLatticeSpec(tag, 4), 100, 25)
        ok_line(rep.all_witnessed, f"lattice norm scan all-witness [{tag}]",
                f"grid={rep.grid}")
    table = ac.threshold_table()
    ok_line(table == {"B1": 15, "C1": 15, "D1": 16, "A2odd": 15,
                      "A2even": 16, "D2": 10},
            "large-rank thresholds 15/15/16/15/16/10", str(table))

    print(("ALL CHECKS PASSED" if FAILS == 0 else f"{FAILS} CHECKS FAILED"))
    return 0 if FAILS == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
