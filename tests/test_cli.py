import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from unittest import mock

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlen import (affine_permutations, cli, cores_abaci, finite_weyl,
                     sumsets)
from atomlen import quadratic_forms as qf
from atomlen.affine_classical import LATTICE_TAGS
from atomlen.cli import main
from atomlen.errors import InvariantViolation

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


INT = {"type": "integer"}
INTS = {"type": "array", "items": INT}
PARTITIONS = {"type": "array", "items": INTS}


def exact_object(**properties):
    return {"type": "object", "required": sorted(properties),
            "properties": properties, "additionalProperties": False}


FINITE_FIELDS = {"type": {"enum": list(finite_weyl.SERIES)}, "n": INT,
                 "ell": INT, "b": INT}
SCHEMAS = {
    "entropy": exact_object(n=INT, window=INTS, entropy=INT),
    "hall": exact_object(mod=INT, d=INTS, a=INTS, b=INTS),
    "sumset": exact_object(family={"enum": ["A", "C"]}, n=INT, modulus=INT,
                           equal={"type": "boolean"},
                           missing={"type": "array", "items": INTS}),
    "core": exact_object(n=INT, input=PARTITIONS, charges=INTS,
                         quotient=PARTITIONS, quotient_charges=INTS,
                         core=PARTITIONS, core_charges=INTS,
                         core_multicharge=INTS, core_size=INT),
    "finite --bound": exact_object(**FINITE_FIELDS),
    "finite --saturate": exact_object(
        **FINITE_FIELDS, image_min=INT, image_max=INT,
        is_interval={"type": "boolean"}, missing=INTS),
    "threshold": exact_object(type={"enum": list(LATTICE_TAGS)}, n0=INT,
                              check_range=INT),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_no_dataclasses():
    """The records are named tuples, so importing the CLI in a bare
    interpreter pulls in neither dataclasses nor inspect."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import atomlen.cli; "
            "print(atomlen.cli.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, src],
                         capture_output=True, text=True, check=True)
    path, loaded = out.stdout.splitlines()
    assert os.path.samefile(os.path.dirname(path),
                            os.path.join(src, "atomlen"))
    assert loaded == "[]"


# The atomlen modules each README command loads beyond the CLI's own (cli,
# errors, budget and quadratic_forms), keyed by subcommand and scan form.
# threshold reads the slice bound from finite_weyl; affine_classical loads
# affine_permutations only to lift a type C element, which no command does.
CORES = ("cores_abaci",)
CLASSICAL = ("affine_classical",)
README_MODULES = {
    "entropy": ("affine_permutations",), "core": CORES,
    "hall": ("sumsets",), "sumset": ("sumsets",), "finite": ("finite_weyl",),
    "threshold": CLASSICAL + ("finite_weyl",), "scan Q-delta": (),
    "scan q-free": (), "scan go": CORES, "scan trunc": CORES,
    "scan Ps": CORES, "scan refined-go": CORES,
    "scan deltaC": CLASSICAL + ("sumsets",), "scan lattice": CLASSICAL,
}


def test_each_readme_command_loads_only_its_modules():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    code = ("import contextlib, io, json, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from atomlen import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(json.loads(sys.argv[2]))\n"
            "print(json.dumps([code, sorted(m for m in sys.modules\n"
            "                               if m.startswith('atomlen.'))]))")
    with open(os.path.join(src, os.pardir, "README.md")) as f:
        commands = [line for line in f if line.startswith("atomlen ")]
    keys, wrong = [], []
    for command in commands:
        argv = shlex.split(command, comments=True)[1:]
        key = (f"scan {argv[argv.index('--form') + 1]}" if argv[0] == "scan"
               else argv[0])
        keys.append(key)
        out = subprocess.run(
            [sys.executable, "-S", "-c", code, src, json.dumps(argv)],
            capture_output=True, text=True, check=True).stdout
        expect = sorted(f"atomlen.{m}" for m in (
            "cli", "errors", "budget", "quadratic_forms",
            *README_MODULES[key]))
        if json.loads(out) != [0, expect]:
            wrong.append((key, out))
    assert not wrong
    assert sorted(set(keys)) == sorted(README_MODULES)


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
    # the 201 targets weigh 20,100 steps; the representation tables need
    # 37,686 at their largest
    scan = ("scan", "--form", "Q-delta", "--n", "7", "--max-k", "200",
            "--radius", "30")
    monkeypatch.setenv("ATOMLEN_BUDGET", "abc")
    code, out, err = run(capsys, *scan)
    assert code == 2 and out == "" and "ATOMLEN_BUDGET" in err
    monkeypatch.setenv("ATOMLEN_BUDGET", "30000")
    code, out, err = run(capsys, *scan)
    assert code == 2 and out == "" and "over the budget" in err
    assert "representation table" in err


def test_scan_target_list_over_the_budget_exits_two(capsys, monkeypatch):
    # the targets are counted before they are listed, 100 steps each and
    # twice as many on the half grid: the default budget admits 10^6
    for max_k in ("1000000", "99999999", "99999999999"):
        code, out, err = run(capsys, "scan", "--form", "Q-delta", "--n", "3",
                             "--max-k", max_k, "--radius", "3")
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert "scan target list" in err and "over the budget" in err
    lattice = ("scan", "--form", "lattice", "--type", "A2even", "--n", "3",
               "--max-k", "10", "--radius", "2")
    monkeypatch.setenv("ATOMLEN_BUDGET", "2099")
    code, out, err = run(capsys, *lattice)
    assert code == 2 and out == "" and "needs ~2100 steps" in err
    monkeypatch.setenv("ATOMLEN_BUDGET", "2100")
    assert run(capsys, *lattice)[0] == 0


def test_scan_of_a_large_rank_exits_two_before_any_table(capsys,
                                                         monkeypatch):
    # a table state of Delta(20000) is a 20000-digit mixed-radix int
    def no_tables(*args):
        raise AssertionError("a table was built before the budget check")
    monkeypatch.setattr(qf, "_witnesses_at_radius", no_tables)
    code, out, err = run(capsys, "scan", "--form", "Q-delta", "--n", "20000",
                         "--max-k", "1", "--radius", "0")
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("representation tables on Delta(20000) needs")


def test_hall_over_the_budget_exits_two(capsys, monkeypatch):
    # Hall's exchange chain takes 158 steps on this m=26 vector, which the
    # backtracking search could not finish; a random m=300 vector takes
    # 24,336 steps
    monkeypatch.setenv("ATOMLEN_BUDGET", "1000")
    hard = (9, 21, 21, 25, 20, 19, 0, 17, 0, 20, 4, 12, 23, 17, 3, 14, 0, 24,
            13, 19, 21, 13, 8, 11, 13, 17)
    code, out, err = run(capsys, "hall", "--mod", "26", "--d",
                         ",".join(map(str, hard)), "--json")
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert sorted(doc["a"]) == list(range(26)) == sorted(doc["b"])
    assert all((y - x) % 26 == e for x, y, e in zip(doc["a"], doc["b"], hard))
    rng = random.Random(300)
    d = [rng.randrange(300) for _ in range(299)]
    d.append(-sum(d) % 300)
    monkeypatch.setenv("ATOMLEN_BUDGET", "10000")
    code, out, err = run(capsys, "hall", "--mod", "300", "--d",
                         ",".join(map(str, d)))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "over the budget" in err
    assert "exchange steps" in err


def test_hall_reads_negative_differences(capsys):
    code, out, err = run(capsys, "hall", "--mod", "3", "--d=-1,-2,3")
    assert code == 0 and err == ""
    a, b = (list(map(int, line.split()[1].split(",")))
            for line in out.splitlines())
    assert [(y - x) % 3 for x, y in zip(a, b)] == [2, 1, 0]


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


def test_core_over_the_budget_exits_two(capsys, monkeypatch):
    # the rotation counts the positions it maps and the runners it fills:
    # about 10^12 and 10^9 here
    huge = ("core", "--npartition", "1;1", "--charges", "0,1000000000000",
            "--n", "3")
    wide = ("core", "--npartition", ";", "--charges", "0,0", "--n",
            "1000000000")
    for argv in (huge, huge + ("--render",), wide):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "abacus rotation" in err and "over the budget" in err
    # --render sweeps the same span and is counted on its own
    monkeypatch.setenv("ATOMLEN_BUDGET", "1500")
    spread = ("core", "--npartition", "1;1", "--charges", "0,1000", "--n",
              "3")
    assert run(capsys, *spread)[0] == 0
    code, out, err = run(capsys, *spread, "--render")
    assert code == 2 and out == "" and "abacus rendering" in err


def test_core_rotates_once_each_way(capsys, monkeypatch):
    # phi gives the quotient and the level-n charges; the core is the one
    # rotation back from those charges
    widths, rotate = [], cores_abaci._rotate
    monkeypatch.setattr(cores_abaci, "_rotate", lambda runners, width: (
        widths.append(width) or rotate(runners, width)))
    assert run(capsys, "core", "--npartition", "3,1;2,1", "--charges", "0,0",
               "--n", "3")[0] == 0
    assert widths == [3, 2]


def test_core_readme_command_fits_a_small_budget(capsys, monkeypatch):
    core = ("core", "--npartition", "3,1;2,1", "--charges", "0,0", "--n", "3")
    extras = ((), ("--render",), ("--json",))
    expected = [run(capsys, *core, *extra) for extra in extras]
    monkeypatch.setenv("ATOMLEN_BUDGET", "20")
    for extra, (code, out, err) in zip(extras, expected):
        assert code == 0 and err == ""
        assert run(capsys, *core, *extra) == (code, out, err)


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


def test_sumset_override_costs_follow_the_modulus_listing(capsys):
    # the orbit-class DP does not grow with the modulus: a large A override
    # lists its missing vectors, and a C override too large to list stops
    # at its count of target classes before any work
    code, out, _ = run(capsys, "sumset", "--family", "A", "--n", "2",
                       "--mod", "100000")
    assert (code, out) == (0, "family=A n=2 mod=100000 equal=no "
                               "missing=99997\n")
    code, out, err = run(capsys, "sumset", "--family", "C", "--n", "2",
                         "--mod", "1000000")
    assert code == 2 and out == ""
    assert err == ("target classes of C2 mod 1000000 needs ~125000750001 "
                   "steps, over the budget of 100000000 (raise "
                   "ATOMLEN_BUDGET to override)\n")


def no_difference_classes(*args):
    raise AssertionError("the orbit-class DP ran before the budget check")


def test_sumset_target_classes_over_budget_before_the_dp(capsys,
                                                         monkeypatch):
    # C9 mod 10000 has comb(5009, 9) ~ 5.4 * 10^27 target classes
    monkeypatch.setattr(sumsets, "_difference_classes", no_difference_classes)
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    code, out, err = run(capsys, "sumset", "--family", "C", "--n", "9",
                         "--mod", "10000")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("target classes of C9 mod 10000 needs ~5430917")


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


def test_an_empty_witness_line_has_no_trailing_space(capsys):
    # q-free at n = 1 scans Z^0, whose one vector is empty
    args = ("scan", "--form", "q-free", "--n", "1", "--max-k", "1",
            "--radius", "1")
    code, out, _ = run(capsys, *args)
    assert out.splitlines()[1] == "k=0 witness"
    code_json, doc, _ = run(capsys, *args, "--json")
    assert code == code_json
    assert json.loads(doc)["entries"][0] == {"k": 0, "status": "witness",
                                             "witness": []}


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


@pytest.mark.parametrize("extra", [(), ("--json",)])
def test_trunc_is_ps_at_the_staircase_charges(capsys, extra):
    # one branch serves both forms: trunc takes the charges 0..l-1 and
    # ignores --s, as Ps does by default
    scan = ("--n", "5", "--ell", "2", "--max-k", "100", "--radius", "30",
            *extra)
    trunc = run(capsys, "scan", "--form", "trunc", *scan)
    assert trunc[0] == 0 and trunc[1] and trunc[2] == ""
    for form, charges in (("trunc", ("--s", "1,4")), ("Ps", ()),
                          ("Ps", ("--s", "0,1"))):
        assert run(capsys, "scan", "--form", form, *scan, *charges) == trunc


@pytest.mark.parametrize("form", ["trunc", "Ps"])
def test_weight_forms_need_a_level(capsys, form):
    assert run(capsys, "scan", "--form", form, "--n", "5", "--max-k", "3",
               "--radius", "3") == (2, "", f"form {form} needs --ell\n")


@pytest.mark.parametrize("n, radius, expected", [
    (2, 15, 0), (3, 15, 0),   # three squares never make 7: no theorem here
    (4, 15, 0), (5, 15, 0), (6, 15, 0),
    (5, 0, 1),                # 2n+1 = 11 is prime: misses fail the check
])
def test_scan_deltaC_exit_codes(capsys, n, radius, expected):
    code, _, _ = run(capsys, "scan", "--form", "deltaC", "--n", str(n),
                     "--max-k", "40", "--radius", str(radius))
    assert code == expected


@pytest.mark.parametrize("argv, witnessed", [
    (("--form", "rho", "--n", "4", "--max-k", "200", "--radius", "20"),
     "186/201"),
    (("--form", "Q-delta", "--n", "4", "--max-k", "200", "--radius", "30"),
     "186/201"),
    (("--form", "q-free", "--n", "4", "--max-k", "300", "--radius", "20"),
     "278/301"),
    (("--form", "go", "--n", "3", "--max-k", "150", "--radius", "25"),
     "84/151"),
    (("--form", "lattice", "--type", "D2", "--n", "3", "--max-k", "100",
      "--radius", "25"), "86/101"),
    (("--form", "lattice", "--type", "B1", "--n", "3", "--max-k", "100",
      "--radius", "25"), "94/101"),
], ids=["rho-4", "Q-delta-4", "q-free-4", "go-3", "lattice-D2-3",
        "lattice-B1-3"])
def test_scan_misses_below_the_theorem_rank_exit_zero(capsys, argv,
                                                      witnessed):
    # rho/Q-delta/q-free are guaranteed from n = 5, go and lattice from n = 4
    code, out, _ = run(capsys, "scan", *argv)
    assert code == 0
    assert f"witnesses {witnessed}" in out


def test_scan_lattice_needs_a_type(capsys):
    assert run(capsys, "scan", "--form", "lattice", "--n", "4", "--max-k",
               "5", "--radius", "3") == (2, "", "form lattice needs --type\n")


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


def no_staircase(*args):
    raise AssertionError("the staircase was built before the budget check")


def test_finite_saturate_over_budget_before_any_table(capsys, monkeypatch):
    # the DP's table would hold 2^41 bitsets
    monkeypatch.setattr(finite_weyl, "_staircase", no_staircase)
    code, out, err = run(capsys, "finite", "--type", "A", "--n", "40",
                         "--ell", "1", "--saturate")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "over the budget" in err


@pytest.mark.parametrize("ell", [1, 20000])
def test_finite_saturate_large_rank_over_budget_at_once(capsys, monkeypatch,
                                                        ell):
    # the staircase would be 20001 * ell weight rows, and the shift count has
    # over 6000 digits, past Python's int-to-str limit
    monkeypatch.setattr(finite_weyl, "_staircase", no_staircase)
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    code, out, err = run(capsys, "finite", "--type", "A", "--n", "20000",
                         "--ell", str(ell), "--saturate")
    assert code == 2 and out == ""
    assert err == ("saturation DP of A20000 needs ~2^20014 "
                   "steps, over the budget of 100000000 (raise "
                   "ATOMLEN_BUDGET to override)\n")


@pytest.mark.parametrize("series,n", [("B", 12), ("C", 12), ("D", 13)])
def test_finite_saturate_threshold_slices_run_under_the_default_budget(
        capsys, monkeypatch, series, n):
    # slices at and past the threshold ranks: the DP charges 2.7-3.2 * 10^6
    # word shifts, where a charge of b + 1 steps per shift passed 10^8
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    code, out, err = run(capsys, "finite", "--type", series, "--n", str(n),
                         "--ell", str(n), "--saturate")
    assert code == 0 and err == ""
    b = finite_weyl.b_bound(finite_weyl.FiniteType(series, n), n)
    assert out == (f"type={series} n={n} ell={n} b={b} interval=yes "
                   f"missing=-\n")


def test_internal_error_is_exit_three(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected\nstate")
    monkeypatch.setattr(cli, "_cmd_entropy", boom)
    code, out, err = run(capsys, "entropy", "--n", "2", "--window", "3,0")
    assert code == 3 and out == ""
    assert err == ("atomlen entropy: internal error: RuntimeError: "
                   "unexpected state\n")


def test_failed_entropy_identity_is_exit_one(capsys, monkeypatch):
    # a theorem-backed check that fails is a verdict (exit 1), not a bug
    monkeypatch.setattr(affine_permutations, "atomic_length_rho",
                        lambda w: 5)
    assert run(capsys, "entropy", "--n", "2", "--window", "3,0") == (
        1, "", "entropy 4 differs from atomic length 5\n")


def test_broken_invariant_is_exit_three(capsys, monkeypatch):
    # InvariantViolation subclasses AtomlenError, yet it is a bug, not input
    def broken(m, d):
        raise InvariantViolation("Hall pair\ndoes not check")
    monkeypatch.setattr(sumsets, "hall_decompose", broken)
    code, out, err = run(capsys, "hall", "--mod", "4", "--d", "3,0,2,3")
    assert code == 3 and out == ""
    assert err == ("atomlen hall: internal error: InvariantViolation: "
                   "Hall pair does not check\n")


def test_broken_orbit_count_is_exit_three(capsys, monkeypatch):
    # an orbit-class DP that lost a group element breaks an invariant; no
    # theorem failed
    real = sumsets._difference_classes

    def lossy(family, e, m):
        classes = real(family, e, m)
        classes[min(classes)] -= 1
        return classes
    monkeypatch.setattr(sumsets, "_difference_classes", lossy)
    code, out, err = run(capsys, "sumset", "--family", "A", "--n", "4")
    assert code == 3 and out == ""
    assert err == ("atomlen sumset: internal error: InvariantViolation: "
                   "orbit A,4 mod 4 has size 23, expected 24\n")


def test_threshold(capsys):
    # every tag, text and JSON, byte for byte
    for tag, n0 in (("B1", 15), ("C1", 15), ("D1", 16), ("A2odd", 15),
                    ("A2even", 16), ("D2", 10)):
        code, out, _ = run(capsys, "threshold", "--type", tag)
        assert code == 0 and out == f"type={tag} n0={n0}\n"
        code, out, _ = run(capsys, "threshold", "--type", tag, "--json")
        assert code == 0 and out == ('{"check_range": 40, "n0": %d, '
                                     '"type": "%s"}\n' % (n0, tag))


@pytest.mark.parametrize("schema,argv", [
    ("entropy", ("entropy", "--n", "3", "--window", "4,-1,3")),
    ("hall", ("hall", "--mod", "4", "--d", "3,0,2,3")),
    ("hall", ("hall", "--mod", "1", "--d", "0")),
    ("sumset", ("sumset", "--family", "A", "--n", "4")),
    ("sumset", ("sumset", "--family", "C", "--n", "2", "--mod", "4")),
    ("core", ("core", "--npartition", "3,1;2,1", "--charges", "0,0",
              "--n", "3")),
    ("core", ("core", "--npartition", ";", "--charges", "1,-1", "--n",
              "2")),
    ("finite --bound", ("finite", "--type", "D", "--n", "4", "--ell", "2",
                        "--bound")),
    ("finite --saturate", ("finite", "--type", "B", "--n", "2", "--ell",
                           "2", "--saturate")),
    ("finite --saturate", ("finite", "--type", "A", "--n", "4", "--ell",
                           "3", "--saturate")),
    ("threshold", ("threshold", "--type", "C1")),
    ("threshold", ("threshold", "--type", "A2odd")),
])
def test_json_validates_against_schema(capsys, schema, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0 and err == ""
    jsonschema.validate(json.loads(out), SCHEMAS[schema])


# Generated argv: every subcommand, mostly with well-formed options (valid
# windows, zero-sum differences, partitions), otherwise with an option
# missing, out of range or malformed.
SMALL = st.integers(0, 12)
MALFORMED = st.sampled_from(["", "x", "1.5", "1e3", "0x10", " 7", "-1", "-3",
                             "40", ",", "1,,2", "a,b", "1;2", "3,1;x", ";;"])
csv = ",".join


@st.composite
def window(draw, n):
    """Window of an affine permutation of rank n (sometimes not one)."""
    perm = draw(st.permutations(range(1, n + 1)))
    shifts = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    shifts[-1] -= draw(st.sampled_from([0, 0, 0, 1])) + sum(shifts)
    return csv(str(p + n * t) for p, t in zip(perm, shifts))


@st.composite
def zero_sum(draw, m):
    d = draw(st.lists(st.integers(-5, 12), min_size=m - 1, max_size=m))
    return csv(map(str, d + [-sum(d)] if len(d) < m else d))


@st.composite
def multipartition(draw, ell):
    comps = draw(st.lists(st.lists(st.integers(0, 6), max_size=4),
                          min_size=ell, max_size=ell))
    return ";".join(csv(map(str, sorted(c, reverse=True))) for c in comps)


@st.composite
def command_options(draw):
    """(command, [(option, value or None for a flag), ...])."""
    command = draw(st.sampled_from(["entropy", "scan", "hall", "sumset",
                                    "core", "finite", "threshold", "bogus"]))
    n = draw(st.integers(1, 7))
    ell = draw(st.integers(1, 4))
    ints = [draw(SMALL) for _ in range(2)]
    if command == "entropy":
        opts = [("--n", n), ("--window", draw(window(n)))]
    elif command == "scan":
        opts = [("--form", draw(st.sampled_from(cli.SCAN_FORMS))),
                ("--n", n), ("--max-k", ints[0]), ("--radius", ints[1]),
                ("--ell", ell),
                ("--s", csv(map(str, draw(st.lists(SMALL, max_size=4))))),
                ("--type", draw(st.sampled_from(LATTICE_TAGS)))]
    elif command == "hall":
        opts = [("--mod", n), ("--d", draw(zero_sum(n)))]
    elif command == "sumset":
        opts = [("--family", draw(st.sampled_from("AC"))), ("--n", n),
                ("--mod", ints[0])]
    elif command == "core":
        opts = [("--npartition", draw(multipartition(ell))),
                ("--charges", csv(str(draw(st.integers(-3, 3)))
                                  for _ in range(ell))),
                ("--n", n), ("--render", None)]
    elif command == "finite":
        opts = [("--type", draw(st.sampled_from(finite_weyl.SERIES))),
                ("--n", n), ("--ell", ints[0]),
                (draw(st.sampled_from(["--bound", "--saturate"])), None)]
    elif command == "threshold":
        opts = [("--type", draw(st.sampled_from(LATTICE_TAGS)))]
    else:
        opts = []
    return command, opts


@st.composite
def argvs(draw):
    command, opts = draw(command_options())
    argv = [command]
    for option, value in opts:
        if not draw(st.integers(0, 9)):
            continue   # missing one time in ten
        argv.append(option)
        if value is not None:
            bad = not draw(st.integers(0, 9))
            argv.append(draw(MALFORMED) if bad else str(value))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(argvs(), st.sampled_from(["100000", "100000", "200", "abc"]))
@settings(max_examples=300, deadline=None)
def test_cli_fuzz_exits_cleanly(argv, budget):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"ATOMLEN_BUDGET": budget}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert len(err.getvalue().splitlines()) <= 1, (argv, err.getvalue())
