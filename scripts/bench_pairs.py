#!/usr/bin/env python3
"""Write BENCH_<pr>.json: alternating parent/change pairs of the committed
benchmark, plus one A/A pair.

    python3 scripts/bench_pairs.py --parent HEAD~1 --change HEAD --pr 18 \\
        --workload enumerate:10 --workload scan-hits:3 --seconds 25

Both revisions (any git tree-ish; `git write-tree` names the staged index)
are exported with `git archive` into plain directories under --workdir,
`parent/` and `change/`.  Pair p of a workload runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
in each export, seed S = p + 1; odd seeds run the parent first, even seeds
the change first.  The A/A pair then runs the change tree in both slots
(`aa-parent/` and `aa-change/`, parent slot first, the seed after the last
pair), which shows what the slots alone move.  PYTHONUNBUFFERED is unset
for every run.  The end-to-end metrics and their directions are read from
BENCHMARK.json.  A run that exits non-zero or prints no result is listed
under harness_failures and its pair is left out.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, where: str) -> None:
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(where)
    archive = subprocess.run(("git", "archive", rev), cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(("tar", "-x", "-C", where), input=archive, check=True)


def run_once(tree: str, workload: str, seed: int, seconds: float):
    """The result object run.py prints last, or the failure as a string."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run(
        (sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"),
        cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def summary(runs: list[float]) -> dict:
    """Median and quartiles; one run has no quartiles."""
    if len(runs) < 2:
        return {"median": runs[0], "runs": runs}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(metrics: dict, pairs: list[dict]) -> dict:
    out = {}
    for name, better in metrics.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "lower" else -1
        out[name] = {
            "parent": summary(parent), "change": summary(change),
            "change_better_pairs": sum(sign * (c - a) < 0
                                       for a, c in zip(parent, change)),
            "change_worse_pairs": sum(sign * (c - a) > 0
                                      for a, c in zip(parent, change)),
            "median_change_over_parent":
                statistics.median(change) / statistics.median(parent),
        }
    return out


def run_pair(trees: dict, order: tuple, workload: str, seed: int,
             seconds: float, failures: list):
    pair = {}
    for slot in order:
        result = run_once(trees[slot], workload, seed, seconds)
        print(f"{workload} seed {seed} {slot}: "
              f"{result if isinstance(result, str) else 'ok'}", flush=True)
        if isinstance(result, str):
            failures.append({"workload": workload, "seed": seed,
                             "slot": slot, "error": result})
        else:
            pair[slot] = result
    return pair if len(pair) == 2 else None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--workload", action="append", required=True,
                        help="NAME or NAME:PAIRS, at least 2 pairs "
                             "(default 10)")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workdir", default=None,
                        help="where the exports go (default: a temp dir)")
    parser.add_argument("--out", default=None,
                        help="default: BENCH_<pr>.json in the repo root")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    known = [w["name"] for w in bench["workloads"]]
    counts = {}
    for spec in args.workload:
        name, _, count = spec.partition(":")
        count = count or "10"
        if name not in known:
            parser.error(f"--workload {spec}: unknown workload {name!r}, "
                         f"BENCHMARK.json lists {', '.join(known)}")
        if not count.isdigit() or int(count) < 2:
            parser.error(f"--workload {spec}: need at least 2 pairs")
        counts[name] = int(count)

    # resolved before the runs, so a ref that moves while they run (HEAD
    # after a commit) names in the record the tree that was measured
    parent, change = (git("rev-parse", rev) for rev in (args.parent,
                                                         args.change))
    work = args.workdir or tempfile.mkdtemp(prefix="bench-pairs-")
    trees = {slot: os.path.join(work, slot) for slot in
             ("parent", "change", "aa-parent", "aa-change")}
    for slot, rev in (("parent", parent), ("change", change),
                      ("aa-parent", change), ("aa-change", change)):
        export(rev, trees[slot])

    failures, workloads, aa = [], {}, {}
    for name, count in counts.items():
        seeds = list(range(1, count + 1))
        pairs = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = run_pair(trees, order, name, seed, args.seconds, failures)
            if pair:
                pairs.append(pair)
        if not pairs:
            continue
        workloads[name] = {
            "seeds": seeds, "pairs": len(pairs),
            "failed": {s: sum(p[s]["failed"] for p in pairs)
                       for s in ("parent", "change")},
            "attempted": {s: sum(p[s]["attempted"] for p in pairs)
                          for s in ("parent", "change")},
            "metrics": compare(metrics, pairs),
        }
        seed = seeds[-1] + 1
        pair = run_pair(trees, ("aa-parent", "aa-change"), name, seed,
                        args.seconds, failures)
        if pair:
            first, second = (pair[s]["metrics"] for s in pair)
            aa[name] = {"seed": seed, "metrics": {
                m: {"parent_slot": first[m]["value"],
                    "change_slot": second[m]["value"],
                    "ratio": second[m]["value"] / first[m]["value"]}
                for m in metrics}}

    record = {
        "what": (
            "Alternating parent/change pairs of the committed benchmark, "
            "end-to-end metrics (trace 0), written by scripts/bench_pairs.py. "
            "Each run is one `python3 perfbench/run.py --workload W --seed S "
            f"--seconds {args.seconds:g} --trace 0` in a plain `git archive` "
            "export of the tree, with PYTHONUNBUFFERED unset; odd seeds ran "
            "the parent first, even seeds the change first. aa_pairs ran the "
            "change tree in both slots. Times are perfbench's "
            "speed-normalised seconds."),
        "parent_commit": parent,
        "change": {
            "rev": args.change,
            "resolved": change,
            "src_tree": git("rev-parse", f"{change}:src"),
            "src_tree_note": "git rev-parse <rev>:src; the runs used this "
                             "src tree",
        },
        "run_seconds": args.seconds,
        "workloads": workloads,
        "aa_pairs": aa,
        "harness_failures": failures,
        "environment": {
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": sys.version, "platform": platform.platform()},
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    if not args.workdir:
        shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {out}")
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
