"""The checker counts corrupted outputs as failures and accepts correct ones,
including witnesses in another order and obstructions that re-check."""
import copy
import itertools
import json

import pytest

import check
import workloads
from atomlen import quadratic_forms as qf


@pytest.fixture(scope="module")
def delta4():
    """Q on Delta(4), k <= 40 in the radius-10 box: misses 14 and 30, both
    obstructed mod 16."""
    args = {"form": "Q", "n": 4, "max_k": 40, "radius": 10}
    report = qf.universality_scan(qf.form_Q(4), qf.domain_Delta(4), 40,
                                  10).to_json_dict()
    return args, report


def _entry(report, k):
    return next(e for e in report["entries"] if e["k"] == k)


def _witnessed(report):
    return [e for e in report["entries"]
            if e["status"] == "witness" and e["k"] > 0]


def test_correct_report_passes(delta4):
    args, report = delta4
    assert check.check_scan(args, workloads.ORACLE, report) == []
    assert check.check_scan(args, [14, 30], report) == []


def test_wrong_witness_fails(delta4):
    args, report = copy.deepcopy(delta4)
    first, second = _witnessed(report)[:2]
    first["witness"] = list(second["witness"])   # in the domain, other value
    assert check.check_scan(args, workloads.ORACLE, report)


def test_witness_outside_domain_fails(delta4):
    args, report = copy.deepcopy(delta4)
    _witnessed(report)[0]["witness"] = [1, 0, 0, 0]   # sum 1, not 0
    assert check.check_scan(args, workloads.ORACLE, report)


def test_other_witness_of_same_value_passes(delta4):
    args, report = copy.deepcopy(delta4)
    form, _ = check.scan_form(args)
    entry = _witnessed(report)[5]
    others = [x for x in itertools.product(range(-4, 5), repeat=3)
              if form.member(x + (-sum(x),))
              and form.value(x + (-sum(x),)) == entry["k"]
              and list(x + (-sum(x),)) != entry["witness"]]
    entry["witness"] = list(others[0] + (-sum(others[0]),))
    assert check.check_scan(args, workloads.ORACLE, report) == []


def test_dropped_target_fails(delta4):
    args, report = copy.deepcopy(delta4)
    del report["entries"][5]
    report["total"] -= 1
    report["witnesses"] -= 1
    assert check.check_scan(args, workloads.ORACLE, report)


def test_missing_witness_fails(delta4):
    args, report = copy.deepcopy(delta4)
    entry = _witnessed(report)[3]
    entry["status"] = "not-found"
    del entry["witness"]
    report["witnesses"] -= 1
    assert check.check_scan(args, workloads.ORACLE, report)


def test_bad_obstruction_residue_fails(delta4):
    args, report = copy.deepcopy(delta4)
    _entry(report, 14)["residue"] = 13
    assert check.check_scan(args, workloads.ORACLE, report)


def test_obstruction_of_attained_class_fails(delta4):
    args, report = copy.deepcopy(delta4)
    entry = _entry(report, 14)
    entry["modulus"], entry["residue"] = 8, 6   # 14 = 6 mod 8 is attained
    assert check.check_scan(args, workloads.ORACLE, report)


def test_not_found_may_become_obstructed_only_with_a_certificate(delta4):
    args, report = copy.deepcopy(delta4)
    entry = _entry(report, 30)
    saved = dict(entry)
    entry.pop("modulus")
    entry.pop("residue")
    entry["status"] = "not-found"
    assert check.check_scan(args, workloads.ORACLE, report) == []
    entry.update(saved)
    assert check.check_scan(args, workloads.ORACLE, report) == []


def test_q_residue_table_matches_the_paper():
    # the pairwise-products form in three variables misses exactly these
    # classes mod 128
    missed = {r for r in range(128) if not check.q_attains(3, 128, r)}
    assert missed == {14, 30, 46, 56, 62, 78, 94, 110, 120, 126}
    assert {r for r in range(3) if not check.q_attains(2, 3, r)} == {2}


def test_oracle_matches_the_paper_on_delta4():
    form, targets = check.scan_form({"form": "Q", "n": 4, "max_k": 200,
                                     "radius": 30})
    values = check.oracle_values(form, 30, targets[0], targets[-1])
    missed = set(targets) - values
    assert {14, 30, 110} <= missed


def test_ps_catalogue_is_all_witnessed_by_the_oracle():
    for n, ell, charges in workloads.PS_CATALOGUE:
        args = {"form": "Ps", "n": n, "max_k": workloads.PS_MAX_K,
                "radius": workloads.PS_RADIUS, "ell": ell,
                "charges": list(charges)}
        missed = check.expected_missed(args, workloads.ORACLE)
        assert missed == frozenset(), (n, ell, charges, sorted(missed))


def test_refined_five_misses_only_125_in_the_box():
    args = {"form": "refined", "n": 5, "max_k": 150, "radius": 25}
    assert check.expected_missed(args, workloads.ORACLE) == {125}


def test_nonzero_exit_code_fails():
    expect = {"kind": "threshold", "n0": 15}
    good = {"code": 0, "stdout": json.dumps({"type": "C1", "n0": 15}),
            "stderr": ""}
    assert check.check_cli(expect, good) == []
    assert check.check_cli(expect, dict(good, code=1))
    assert check.check_cli(expect, dict(good, stdout="n0=15"))
    assert check.check_cli(expect, dict(good, stdout='{"n0": 16}'))


def test_hall_pair_checks():
    args = {"m": 4, "ds": [[3, 0, 2, 3]]}
    assert check.check_hall(args, [[[0, 1, 2, 3], [3, 1, 0, 2]]]) == []
    assert check.check_hall(args, [[[0, 1, 2, 3], [3, 1, 0, 1]]])
    assert check.check_hall(args, [[[0, 1, 2, 2], [3, 1, 0, 1]]])


def test_saturation_and_sumset_expectations():
    good = {"type": "C", "n": 4, "ell": 1, "b": 16, "image_min": 0,
            "image_max": 16, "is_interval": False, "missing": [2, 14]}
    args = {"series": "C", "n": 4, "ell": 1}
    assert check.check_saturation(args, good) == []
    assert check.check_saturation(args, dict(good, missing=[2]))
    assert check.check_saturation(args, dict(good, b=15, image_max=15))
    cert = {"family": "C", "n": 2, "modulus": 4, "equal": False,
            "missing": check.expected_sumset_missing("C", 2, 4)}
    args = {"family": "C", "n": 2, "mod": 4}
    assert [1, 0] in cert["missing"]
    assert check.check_sumset(args, cert) == []
    assert check.check_sumset(args, dict(cert, missing=cert["missing"][1:]))
    assert check.check_sumset(args, dict(cert, equal=True))


def test_rotation_checks():
    # the README's worked example, level 2 to level 3
    args = {"n": 3, "level": 2, "items": [[[[3, 1], [2, 1]], [0, 0]]]}
    good = [{"phi": [[[1], [2], []], [1, -1, 0]],
             "inverse": [[[3, 1], [2, 1]], [0, 0]],
             "core": [[[[1], [2]], [-1, 1]], [0, -1, 1]]}]
    assert check.check_rotation(args, good) == []
    bad = copy.deepcopy(good)
    bad[0]["inverse"][1] = [1, -1]
    assert check.check_rotation(args, bad)
    bad = copy.deepcopy(good)
    bad[0]["core"][0][0] = [[3, 1], [2, 1]]   # not a 3-core
    assert check.check_rotation(args, bad)


def test_entropy_check():
    args = {"n": 2, "windows": [[3, 0], [1, 2]]}
    assert check.check_entropy(args, [[4, 4], [0, 0]]) == []
    assert check.check_entropy(args, [[4, 3], [0, 0]])
