"""Every workload once at a tiny size through the worker and the checker,
run.py's arithmetic, and the contract around it."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import run
import spans
import worker
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _tiny(job):
    """A cheap version of a job; scans are judged by the oracle."""
    job = json.loads(json.dumps(job))
    kind, a = job["kind"], job["args"]
    if kind == "scan":
        a["max_k"], a["radius"] = min(a["max_k"], 20), min(a["radius"], 6)
        job["expect"] = workloads.ORACLE
    elif kind == "entropy":
        a["windows"] = a["windows"][:20]
    elif kind == "hall":
        a["ds"] = a["ds"][:10]
    elif kind == "rotation":
        a["items"] = a["items"][:5]
    return job


def _affordable(job):
    a = job["args"]
    if job["kind"] == "sumset":
        return a["n"] <= 4
    if job["kind"] == "saturation":
        return a["series"] in ("B", "C")
    if job["kind"] == "cli":
        return a["argv"][0] in ("entropy", "core", "hall", "threshold")
    return True


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_at_a_tiny_size(workload):
    jobs = [_tiny(j) for j in workloads.build(workload, 7) if _affordable(j)]
    assert jobs
    for job in jobs:
        if job["kind"] == "cli":
            output, _ = worker._run_cli(job["args"]["argv"], traced=False)
        else:
            call, to_json = worker._call(job)
            output = json.loads(json.dumps(to_json(call())))
        assert check.check_job(job, output) == [], job["id"]


def test_traced_cli_command_reports_its_spans():
    output, summary = worker._run_cli(["scan", "--form", "go", "--n", "4",
                                       "--max-k", "10", "--radius", "5",
                                       "--json"], traced=True)
    expect = workloads.scan("go", 4, 10, 5)
    assert check.check_job({"kind": "cli", "expect": expect}, output) == []
    metrics = spans.layer_metrics(summary)
    assert metrics["cli.main.busy_s"] > 0
    assert metrics["quadratic_forms.universality_scan.targets"] == 11


def test_job_lists_depend_on_the_seed_only_in_their_inputs():
    for workload in workloads.WORKLOADS:
        one, two = workloads.build(workload, 1), workloads.build(workload, 2)
        assert one == workloads.build(workload, 1)
        assert len(one) == len(two)
        assert [j["kind"] for j in one] == [j["kind"] for j in two]
    hits = [j for j in workloads.build("scan-hits", 3) if j["kind"] == "scan"]
    assert sum(j["args"]["max_k"] for j in hits) == sum(
        j["args"]["max_k"] for j in workloads.build("scan-hits", 4))


def test_readme_commands_are_the_readme_verbatim():
    with open(os.path.join(ROOT, "README.md")) as f:
        readme = [line.strip() for line in f if line.startswith("atomlen ")]
    assert [c for c, _ in workloads.README_COMMANDS] == readme
    assert not any("--threads" in c for c, _ in workloads.README_COMMANDS)


def test_tail_percentile_leaves_ten_samples():
    for jobs in (15, 16, 23, 42):
        p = run.tail_percentile(jobs)
        assert run.MIN_PASSES * jobs * (100 - p) / 100 >= run.TAIL_EXCESS
    assert run.percentile([1, 2, 3, 4], 50) == 2.5
    assert run.percentile(range(101), 90) == 90


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(name, spans.unit(name), spans.better(name))
            for name in spans.PER_LAYER + spans.DERIVED]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan-hits",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
