#!/usr/bin/env python3
"""Run the mutation table: each mutant of src/atomlen must fail its tests.

    python3 scripts/mutants.py

Each row names a mutant: its id, the file under src/atomlen, the function
that encloses the mutated code, the exact old snippet, its replacement, and
the pytest node ids that must kill it.  The kill run copies src/, tests/,
scripts/ and README.md into a temporary directory for each row, applies the
one replacement there and runs only that row's tests; the mutant is killed
when pytest reports a failure (exit 1).  Rows marked equivalent give the
reason no test can kill them and are not run.

Exit 0 when every other mutant is killed, 1 naming each survivor (or a run
that pytest could not complete), 2 naming each row whose snippet no longer
occurs exactly once inside its function ("site gone"), before any run.
tests/test_mutants.py makes that site check in tier-1, so a change that
moves a mutated line re-homes or retires its row.
"""
from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Mutant = namedtuple("Mutant", "id file function old new tests equivalent",
                    defaults=(None,))

_QF, _SS, _FW = "quadratic_forms.py", "sumsets.py", "finite_weyl.py"
_CA, _AP = "cores_abaci.py", "affine_permutations.py"
_RESIDUE_TESTS = (
    "tests/test_quadratic_forms.py::test_attained_classes_match_enumeration",
    "tests/test_quadratic_forms.py::test_halved_dp_matches_the_full_dp",
    "tests/test_quadratic_forms.py::test_residue_table_budget_counts_dp_work",
)
_WEIGHT_TESTS = (
    "tests/test_finite_weyl.py::"
    "test_integer_weights_and_heights_match_the_fractions",
    "tests/test_finite_weyl.py::"
    "test_atomic_length_matches_the_fraction_oracle",
)
_ORBIT_TESTS = (
    "tests/test_sumsets.py::test_certificate_matches_pairwise_oracle",
    "tests/test_sumsets.py::test_difference_classes_match_the_streamed_orbit",
    "tests/test_sumsets.py::test_verify_sumset_equality_family_C",
)
_ROTATION_TESTS = (
    "tests/test_cores_abaci.py::test_phi_worked_example",
    "tests/test_cores_abaci.py::test_ns_core_worked_example",
    "tests/test_cores_abaci.py::"
    "test_runner_edges_match_the_runner_record_engine",
    "tests/test_cores_abaci.py::"
    "test_both_builders_match_the_runner_record_engine_on_a_box",
)
_LIST_TESTS = (
    "tests/test_cores_abaci.py::test_a_large_component_takes_the_lists",
    "tests/test_cores_abaci.py::test_the_estimate_picks_the_builder",
)
_MEMBER_TESTS = (
    "tests/test_quadratic_forms.py::"
    "test_column_check_matches_the_counting_oracle_on_a_box",
    "tests/test_quadratic_forms.py::"
    "test_column_check_matches_the_counting_oracle",
)
_CUT_TESTS = (
    "tests/test_quadratic_forms.py::test_engine_matches_brute_force",
    "tests/test_quadratic_forms.py::"
    "test_batch_routing_matches_one_target_calls_at_scan_size",
    "tests/test_quadratic_forms.py::"
    "test_the_cut_matches_brute_force_in_wide_boxes",
)

MUTANTS = (
    # the residue DP of q (attained_classes)
    Mutant("residue-rotation+1", _QF, "attained_classes",
           "d = t * (t - s) % m", "d = (t * (t - s) + 1) % m",
           _RESIDUE_TESTS),
    Mutant("residue-wrap+1", _QF, "attained_classes",
           "                acc |= bits << d | bits >> (m - d)",
           "                acc |= bits << d | bits >> (m - d + 1)",
           _RESIDUE_TESTS),
    Mutant("residue-last-layer-no-vs", _QF, "attained_classes",
           "for d in {v * (v + s) % m for v in range(m)}:",
           "for d in {v * v % m for v in range(m)}:", _RESIDUE_TESTS),
    Mutant("residue-prefix-sum+1", _QF, "attained_classes",
           "d = t * (t - s) % m", "d = t * (t - s - 1) % m", _RESIDUE_TESTS),
    Mutant("residue-layer-collapsed", _QF, "attained_classes",
           "for _ in range(arity - 1):", "for _ in range(arity - 2):",
           _RESIDUE_TESTS),
    Mutant("residue-budget-without-m", _QF, "attained_classes",
           "work += len(sums) * m", "work += len(sums)", _RESIDUE_TESTS),
    Mutant("residue-inner-layers-no-vs", _QF, "attained_classes",
           "d = t * (t - s) % m", "d = (t - s) * (t - s) % m",
           _RESIDUE_TESTS,
           "appending v adds v^2 instead of v^2 + v*s: x1^2 + x2^2 + x3^2 + "
           "x3(x1 + x2) is D3, isomorphic to A3, so its classes equal "
           "q(3)'s for every m <= 40, and at arity 4 for every m <= 23"),
    # the orbit-class DP of the sumsets (_difference_classes)
    Mutant("orbit-moves-without-signs", _SS, "_difference_classes",
           'signs = (1, -1) if family == "C" else (1,)', "signs = (1,)",
           _ORBIT_TESTS),
    Mutant("orbit-class-shifted", _SS, "_difference_classes",
           "_class(family, (s * y - x) % m, m)",
           "_class(family, (s * y - x + (x == 1)) % m, m)", _ORBIT_TESTS),
    Mutant("orbit-count-field-narrow", _SS, "_difference_classes",
           "n, width = len(e), len(e).bit_length()",
           "n, width = len(e), len(e).bit_length() - 1", _ORBIT_TESTS),
    # the integer weights, heights and saturation DP of finite_weyl
    Mutant("weight-A-denominator-n", _FW, "_weight",
           "(-i,) * (n + 1 - i), n + 1", "(-i,) * (n + 1 - i), n",
           _WEIGHT_TESTS),
    Mutant("heights-C-without-half-shift", _FW, "_heights",
           "2 * (d - i) + 1", "2 * (d - i)", _WEIGHT_TESTS),
    Mutant("image-without-gcd", _FW, "_image",
           "g = math.gcd(scale * u_scale, *itertools.chain(*a))", "g = 1",
           ("tests/test_finite_weyl.py::"
            "test_saturation_budget_counts_dp_work",)),
    Mutant("image-shift-charge-one-bit-short", _FW, "_image",
           "shifts = (d << d - 1) * len(signs)",
           "shifts = (d << d - 2) * len(signs)",
           ("tests/test_finite_weyl.py::"
            "test_saturation_shifts_are_charged_before_the_staircase",
            "tests/test_finite_weyl.py::"
            "test_saturation_budget_counts_dp_work")),
    Mutant("ends-w0-as-identity", _FW, "saturation_check",
           "atomic_length_finite(t, ell, w0_action(t))",
           "atomic_length_finite(t, ell, identity_element(t))",
           ("tests/test_finite_weyl.py::test_saturation_examples",
            "tests/test_finite_weyl.py::"
            "test_saturation_and_lengths_need_no_fractions")),
    # the column-wise membership check of a scan's witnesses (_members)
    Mutant("members-projected-lift-dropped", _QF, "_members",
           "vecs = [v + (S - s,) for v, s in zip(vecs, map(sum, vecs))]",
           "vecs = list(vecs)", _MEMBER_TESTS),
    Mutant("members-signed-fold-dropped", _QF, "_classes",
           "return [min(r, mod - r) for r in rs] if domain.signed else rs",
           "return rs", _MEMBER_TESTS),
    Mutant("members-parity-test-dropped", _QF, "_members",
           "domain.parity_even and any(s % 2 for s in sums)", "False",
           _MEMBER_TESTS),
    Mutant("members-class-list-one-short", _QF, "_class_list",
           "for c, cap in enumerate(caps) for _ in range(cap)]",
           "for c, cap in enumerate(caps) for _ in range(cap - 1)]",
           _MEMBER_TESTS),
    # the rotation on beta-number runners (_rotate), its two image
    # builders, and the core's runners
    Mutant("rotate-partial-block-one-short", _CA, "_rotate_lists",
           "for col in cols[:r]:", "for col in cols[:r - 1]:", _LIST_TESTS),
    Mutant("rotate-masks-comb-one-row-short", _CA, "_rotate_masks",
           "full |= ((1 << q * k) - 1)", "full |= ((1 << (q - 1) * k) - 1)",
           _ROTATION_TESTS),
    Mutant("rotate-masks-peel-never-stops", _CA, "_rotate_masks",
           "if p == c:", "if p < c:", _ROTATION_TESTS),
    Mutant("rotate-masks-bead-bit-at-i+1", _CA, "_rotate_masks",
           "masks[j] |= 1 << q * k + i", "masks[j] |= 1 << q * k + i + 1",
           _ROTATION_TESTS),
    Mutant("rotate-q0-rounded-up", _CA, "_rotate",
           "q0 = min([t for t, _ in runners]) // width",
           "q0 = -(-min([t for t, _ in runners]) // width)",
           _ROTATION_TESTS),
    Mutant("core-runners-not-reversed", _CA, "ns_core_of",
           "_rotate([(s, ()) for s in sn], ell)",
           "_rotate([(s, ()) for s in sn[::-1]], ell)", _ROTATION_TESTS),
    Mutant("core-empty-runner-threshold-1", _CA, "ns_core_of",
           "_rotate([(s, ()) for s in sn], ell)",
           "_rotate([(s - 1, ()) for s in sn], ell)", _ROTATION_TESTS),
    Mutant("orbit-core-runner-charge+1", _CA, "core_of_orbit_point",
           "_rotate([(s, ()) for s in t], spec.ell)",
           "_rotate([(s + 1, ()) for s in t], spec.ell)",
           ("tests/test_cores_abaci.py::"
            "test_core_of_orbit_point_matches_phi_inverse_of_empty_partitions",
            "tests/test_cores_abaci.py::"
            "test_orbit_stays_in_domain_and_size_matches_polynomial")),
    # integer entries read exactly (make_affine)
    Mutant("window-entries-truncated", _AP, "make_affine",
           "win = tuple(map(index, window))", "win = tuple(map(int, window))",
           ("tests/test_records.py::"
            "test_library_calls_reject_invalid_arguments",)),
    # the one table of a scan (represent_all)
    Mutant("represent-radius-1", _QF, "represent_all",
           "_witnesses_at_radius(quad, lin, wanted, domain, radius)",
           "_witnesses_at_radius(quad, lin, wanted, domain, radius - 1)",
           ("tests/test_quadratic_forms.py::"
            "test_batch_targets_below_the_box_minimum_are_misses",
            "tests/test_quadratic_forms.py::test_engine_matches_brute_force")),
    # the cut of each table layer to what its prefix can complete
    Mutant("cut-state-mask-one-bit-short", _QF, "_witnesses_at_radius",
           "bits &= (2 << lim) - 1", "bits &= (1 << lim) - 1", _CUT_TESTS),
    Mutant("cut-window-low-edge+1", _QF, "_witnesses_at_radius",
           "-((r - c) // a2))", "-((r - c) // a2) + 1)", _CUT_TESTS),
)


def site_problem(row: Mutant):
    """Why row's site is gone, or None: its snippet must occur exactly once
    in its file, inside the function it names."""
    path = os.path.join(ROOT, "src", "atomlen", row.file)
    with open(path) as f:
        text = f.read()
    count = text.count(row.old)
    if count != 1:
        return f"snippet occurs {count} times in {row.file}"
    line = text[:text.index(row.old)].count("\n") + 1
    spans = [(node.lineno, node.end_lineno) for node in ast.walk(ast.parse(
             text)) if isinstance(node, ast.FunctionDef)
             and node.name == row.function]
    if not any(lo <= line <= hi for lo, hi in spans):
        return f"snippet is not inside {row.function}"
    return None


def _copy(where: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in ("src", "tests", "scripts"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(where, name),
                        ignore=ignore)
    shutil.copy(os.path.join(ROOT, "README.md"), where)


def kill(row: Mutant) -> int:
    """pytest's exit code for row's tests on a copy that carries the
    mutant: 1 when a test fails (killed), 0 when all pass (survived)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as where:
        _copy(where)
        path = os.path.join(where, "src", "atomlen", row.file)
        with open(path) as f:
            text = f.read()
        with open(path, "w") as f:
            f.write(text.replace(row.old, row.new))
        env = dict(os.environ, PYTHONPATH=os.path.join(where, "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *row.tests], cwd=where, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    gone = [(row.id, problem) for row in MUTANTS
            if (problem := site_problem(row))]
    for ident, problem in gone:
        print(f"site gone: {ident}: {problem}")
    if gone:
        return 2
    survivors = []
    for row in MUTANTS:
        if row.equivalent:
            print(f"equivalent {row.id}: {row.equivalent}")
            continue
        code = kill(row)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{verdict} {row.id}")
        if code != 1:
            survivors.append(row.id)
    if survivors:
        print(f"survivors: {', '.join(survivors)}")
        return 1
    print(f"all {sum(not row.equivalent for row in MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
