import json
import time

import jsonschema
import pytest

from atomlen import cli, finite_weyl
from atomlen.cli import main

REPORT_SCHEMA = {
    "type": "object",
    "required": ["form", "domain", "n", "min_k", "max_k", "radius", "grid",
                 "witnesses", "total", "entries"],
    "properties": {
        "form": {"type": "string"},
        "domain": {"type": "string"},
        "n": {"type": "integer"},
        "min_k": {"type": "integer"},
        "max_k": {"type": "integer"},
        "radius": {"type": "integer"},
        "grid": {"enum": ["int", "half"]},
        "witnesses": {"type": "integer"},
        "total": {"type": "integer"},
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["k", "status"],
                "properties": {
                    "k": {"type": ["integer", "string"]},
                    "status": {"enum": ["witness", "not-found", "obstructed"]},
                    "witness": {"type": "array",
                                "items": {"type": "integer"}},
                    "modulus": {"type": "integer"},
                    "residue": {"type": "integer"},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_text(capsys):
    code, out, _ = run(capsys, "entropy", "--n", "2", "--window", "3,0")
    assert code == 0 and out == "4\n"


def test_entropy_json(capsys):
    code, out, _ = run(capsys, "entropy", "--n", "2", "--window", "3,0",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"n": 2, "window": [3, 0], "entropy": 4}


def test_entropy_invalid_window(capsys):
    code, _, err = run(capsys, "entropy", "--n", "2", "--window", "2,2")
    assert code == 2 and "residues" in err


def test_usage_error_exit_code(capsys):
    assert main(["entropy", "--n", "2"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("argv", [
    ("scan", "--form", "Q-delta", "--n", "0", "--max-k", "5", "--radius", "5"),
    ("scan", "--form", "Q-delta", "--n", "5", "--max-k", "-3",
     "--radius", "5"),
    ("scan", "--form", "go", "--n", "4", "--max-k", "5", "--radius", "-1"),
    ("scan", "--form", "go", "--n", "4", "--max-k", "5", "--radius", "x"),
    ("hall", "--mod", "0", "--d", "0"),
    ("sumset", "--family", "A", "--n", "3", "--mod", "0"),
    ("entropy", "--n", "0", "--window", "1"),
    ("finite", "--type", "A", "--n", "-2", "--ell", "1", "--bound"),
])
def test_out_of_range_arguments_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "error: argument" in err


def test_budget_errors_exit_two(capsys, monkeypatch):
    scan = ("scan", "--form", "Q-delta", "--n", "6", "--max-k", "200",
            "--radius", "30")
    monkeypatch.setenv("ATOMLEN_BUDGET", "abc")
    code, out, err = run(capsys, *scan)
    assert code == 2 and out == "" and "ATOMLEN_BUDGET" in err
    monkeypatch.setenv("ATOMLEN_BUDGET", "1000")
    code, out, err = run(capsys, *scan)
    assert code == 2 and out == "" and "over the budget" in err


def test_core_worked_example(capsys):
    code, out, _ = run(capsys, "core", "--npartition", "3,1;2,1",
                       "--charges", "0,0", "--n", "3")
    assert code == 0
    assert out.splitlines() == [
        "quotient 1;2; charges 1,-1,0",
        "core 1;2 charges -1,1",
        "multicharge 0,-1,1",
    ]


def test_core_json_and_render(capsys):
    code, out, _ = run(capsys, "core", "--npartition", "3,1;2,1",
                       "--charges", "0,0", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["quotient"] == [[1], [2], []]
    assert doc["quotient_charges"] == [1, -1, 0]
    assert doc["core"] == [[1], [2]]
    assert doc["core_charges"] == [-1, 1]
    assert doc["core_multicharge"] == [0, -1, 1]
    assert doc["core_size"] == 3
    code, out, _ = run(capsys, "core", "--npartition", "3,1;2,1",
                       "--charges", "0,0", "--n", "3", "--render")
    lines = out.splitlines()
    assert lines[-1].split() == [str(p) for p in range(-4, 5)]


def test_hall_example(capsys):
    code, out, _ = run(capsys, "hall", "--mod", "4", "--d", "3,0,2,3")
    assert code == 0
    assert out == "a 0,1,2,3\nb 3,1,0,2\n"


def test_hall_bad_sum(capsys):
    code, _, err = run(capsys, "hall", "--mod", "4", "--d", "1,0,0,0")
    assert code == 2 and "sum" in err


def test_sumset_family_A(capsys):
    code, out, _ = run(capsys, "sumset", "--family", "A", "--n", "4")
    assert code == 0
    assert "equal=yes" in out


def test_sumset_family_C_override(capsys):
    code, out, _ = run(capsys, "sumset", "--family", "C", "--n", "2",
                       "--mod", "4", "--json")
    assert code == 0  # override is exploratory
    doc = json.loads(out)
    assert doc["equal"] is False
    assert [1, 0] in doc["missing"]


def test_scan_text_stability(capsys):
    args = ("scan", "--form", "q-free", "--n", "3", "--max-k", "8",
            "--radius", "8")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0  # misses expected at this rank
    assert out1 == out2
    assert "k=2 obstructed mod=3 class=2" in out1


def test_scan_guaranteed_rank_exit_zero(capsys):
    code, out, _ = run(capsys, "scan", "--form", "Q-delta", "--n", "5",
                       "--max-k", "15", "--radius", "20")
    assert code == 0
    assert "witnesses 16/16" in out


def test_scan_guaranteed_rank_failure_is_exit_one(capsys):
    # radius 0 cannot witness positive targets; rank 5 is theorem-backed, so
    # the missing entries force exit code 1
    code, out, _ = run(capsys, "scan", "--form", "Q-delta", "--n", "5",
                       "--max-k", "3", "--radius", "0")
    assert code == 1


def test_scan_conjectural_forms_exit_zero(capsys):
    code, _, _ = run(capsys, "scan", "--form", "trunc", "--n", "5", "--ell",
                     "2", "--max-k", "8", "--radius", "15")
    assert code == 0
    code, _, _ = run(capsys, "scan", "--form", "go", "--n", "3", "--max-k",
                     "10", "--radius", "15")
    assert code == 0  # misses are expected below the theorem's rank


def test_scan_ps_needs_ell(capsys):
    code, _, err = run(capsys, "scan", "--form", "Ps", "--n", "5", "--max-k",
                       "5", "--radius", "10")
    assert code == 2 and "--ell" in err


def test_scan_lattice_json(capsys):
    code, out, _ = run(capsys, "scan", "--form", "lattice", "--type",
                       "A2even", "--n", "4", "--max-k", "2", "--radius", "6",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["grid"] == "half"
    assert [e["k"] for e in doc["entries"]] == [0, "1/2", 1, "3/2", 2]
    jsonschema.validate(doc, REPORT_SCHEMA)


def test_scan_json_validates_against_schema(capsys):
    for argv in (
        ("scan", "--form", "q-free", "--n", "4", "--max-k", "20",
         "--radius", "12", "--json"),
        ("scan", "--form", "rho", "--n", "5", "--max-k", "10",
         "--radius", "15", "--json"),
        ("scan", "--form", "refined-go", "--n", "5", "--max-k", "10",
         "--radius", "15", "--json"),
        ("scan", "--form", "deltaC", "--n", "3", "--max-k", "12",
         "--radius", "10", "--json"),
    ):
        code, out, _ = run(capsys, *argv)
        jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_finite_bound_and_saturate(capsys):
    code, out, _ = run(capsys, "finite", "--type", "A", "--n", "3", "--ell",
                       "3", "--bound")
    assert code == 0 and out == "10\n"
    code, out, _ = run(capsys, "finite", "--type", "B", "--n", "2", "--ell",
                       "2", "--saturate")
    assert code == 0  # non-interval here matches the characterization
    assert "interval=no" in out and "missing=2,5" in out


def test_finite_saturate_rank_nine_is_fast(capsys):
    # 10! elements took minutes by enumeration; the subset DP has 2^10 states
    start = time.perf_counter()
    code, out, err = run(capsys, "finite", "--type", "A", "--n", "9",
                         "--ell", "9", "--saturate")
    assert time.perf_counter() - start < 10
    assert code == 0 and err == ""
    assert out == "type=A n=9 ell=9 b=165 interval=yes missing=-\n"


def test_finite_saturate_over_budget_before_any_table(capsys, monkeypatch):
    def no_tables(*args):
        raise AssertionError("the DP started before the budget check")
    monkeypatch.setattr(finite_weyl, "truncated_staircase_eps", no_tables)
    code, out, err = run(capsys, "finite", "--type", "A", "--n", "40",
                         "--ell", "1", "--saturate")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "over the budget" in err


def test_internal_error_is_exit_three(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected\nstate")
    monkeypatch.setattr(cli, "_cmd_entropy", boom)
    code, out, err = run(capsys, "entropy", "--n", "2", "--window", "3,0")
    assert code == 3 and out == ""
    assert err == ("atomlen entropy: internal error: RuntimeError: "
                   "unexpected state\n")


def test_threshold(capsys):
    code, out, _ = run(capsys, "threshold", "--type", "C1")
    assert code == 0 and out == "type=C1 n0=15\n"
    code, out, _ = run(capsys, "threshold", "--type", "D2", "--json")
    assert code == 0
    assert json.loads(out)["n0"] == 10
