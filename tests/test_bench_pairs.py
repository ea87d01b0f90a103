"""scripts/bench_pairs.py: its workload-name check, which stops a typo before
any tree is exported, and the pure summary/compare functions it writes
BENCH_*.json with."""
import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(SCRIPT.stem, SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _main(bench_pairs, monkeypatch, *workloads):
    """Run main() on HEAD against itself with these --workload specs, any
    export failing the test."""
    def no_export(rev, where):
        raise AssertionError(f"exported {rev} to {where}")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    argv = ["bench_pairs.py", "--parent", "HEAD", "--change", "HEAD",
            "--pr", "0"]
    for spec in workloads:
        argv += ["--workload", spec]
    monkeypatch.setattr(sys, "argv", argv)
    return bench_pairs.main()


@pytest.mark.parametrize("specs", [["scan-mises"], ["scan-misses:3", "enum"],
                                   ["Scan-hits:2"]])
def test_an_unknown_workload_stops_before_any_export(bench_pairs, monkeypatch,
                                                     capsys, specs):
    with pytest.raises(SystemExit) as stop:
        _main(bench_pairs, monkeypatch, *specs)
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload" in err
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert f"BENCHMARK.json lists {', '.join(names)}" in err


def test_too_few_pairs_still_stop_a_known_workload(bench_pairs, monkeypatch,
                                                    capsys):
    with pytest.raises(SystemExit):
        _main(bench_pairs, monkeypatch, "scan-hits:1")
    assert "need at least 2 pairs" in capsys.readouterr().err


def test_summary_quartiles(bench_pairs):
    assert bench_pairs.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [5.0, 1.0, 3.0, 2.0, 4.0]}
    assert bench_pairs.summary([1.0, 2.0]) == {
        "median": 1.5, "q1": 1.25, "q3": 1.75, "runs": [1.0, 2.0]}


def test_a_single_run_has_no_quartiles(bench_pairs):
    assert bench_pairs.summary([0.25]) == {"median": 0.25, "runs": [0.25]}


def _pairs(parent, change):
    return [{"parent": {"metrics": {m: {"value": a[m]} for m in a}},
             "change": {"metrics": {m: {"value": c[m]} for m in c}}}
            for a, c in zip(parent, change)]


def test_compare_counts_pairs_in_each_metrics_direction(bench_pairs):
    # pair 1: wall_s and hit_ratio both better; pair 2: both worse; pair 3:
    # ties, counted neither way
    pairs = _pairs(
        [{"wall_s": 2.0, "hit_ratio": 0.5}, {"wall_s": 2.0, "hit_ratio": 0.5},
         {"wall_s": 2.0, "hit_ratio": 0.5}],
        [{"wall_s": 1.0, "hit_ratio": 0.75}, {"wall_s": 3.0, "hit_ratio": 0.25},
         {"wall_s": 2.0, "hit_ratio": 0.5}])
    out = bench_pairs.compare({"wall_s": "lower", "hit_ratio": "higher"},
                              pairs)
    for name in ("wall_s", "hit_ratio"):
        assert out[name]["change_better_pairs"] == 1
        assert out[name]["change_worse_pairs"] == 1
    assert out["wall_s"]["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                       "runs": [2.0, 2.0, 2.0]}
    assert out["wall_s"]["change"]["runs"] == [1.0, 3.0, 2.0]
    assert out["wall_s"]["median_change_over_parent"] == 1.0
    assert out["hit_ratio"]["median_change_over_parent"] == 1.0


def test_compare_medians(bench_pairs):
    pairs = _pairs([{"wall_s": v} for v in (4.0, 2.0, 3.0)],
                   [{"wall_s": v} for v in (3.0, 1.0, 1.5)])
    out = bench_pairs.compare({"wall_s": "lower"}, pairs)["wall_s"]
    assert out["change_better_pairs"] == 3
    assert out["change_worse_pairs"] == 0
    assert out["median_change_over_parent"] == 0.5


def test_the_record_names_the_revisions_it_exported(bench_pairs, monkeypatch,
                                                    tmp_path):
    # a ref that moves while the pairs run (HEAD, after a commit) must not
    # name a tree the runs never used
    exported = {}

    def export(rev, where):
        exported[pathlib.Path(where).name] = rev

    def git(*args):
        return f"{args[-1]}@{'after' if exported else 'before'}"

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "run_pair", lambda *args: None)
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "HEAD", "--change", "tree", "--pr", "0",
        "--workload", "scan-hits:2", "--workdir", str(tmp_path),
        "--out", str(out)])
    assert bench_pairs.main() == 0
    record = json.loads(out.read_text())
    assert exported == {"parent": "HEAD@before", "change": "tree@before",
                        "aa-parent": "tree@before", "aa-change": "tree@before"}
    assert record["parent_commit"] == "HEAD@before"
    assert record["change"]["resolved"] == "tree@before"
    assert record["change"]["rev"] == "tree"
