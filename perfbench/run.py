"""Run one workload of the atomlen benchmark, check every output, print the
metrics.

    python3 perfbench/run.py --workload scan-hits --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout.  Closed loop, one client: passes run one
after another until --seconds have gone (at least MIN_PASSES of them), each
in a fresh interpreter started by this script (see worker.py), so that set-up,
imports and every atomlen cache are cold, as for a CLI or script user.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
spans.py from traced passes alternated with untraced ones.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; a run record with the environment and every raw sample is written
to perfbench/results/.  `--workload all` runs the four workloads in turn.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 3
# No pass starts that could end after this many seconds of the run: the
# whole run has to finish within 180 s.
HARD_LIMIT_S = 150
# job_tail_s is the highest percentile (in steps of 5) that leaves at least
# this many job samples above it in the smallest run, MIN_PASSES passes.
TAIL_EXCESS = 10

# Times are reported at a fixed machine speed, because a shared machine can
# drift between a fast and a slow state for seconds to minutes: each job's
# seconds are scaled by REFERENCE_S over the time the worker's reference
# loop took around and during that job (worker.SpeedProbe), and set-up and
# traced span times by the pass's median.  The raw seconds stay in the run
# record.  A CLI command slows only by about the square root of the loop's
# slowdown (2.95 s with the loop at 5 ms, 4.25 s at 10 ms, on a 2-core Xeon
# container): process start, page faults and waiting on the pool do not slow
# like interpreted code.  So its factor is taken to that power.
REFERENCE_S = 0.005
SCALE_EXPONENT = {"cli-readme": 0.5}

END_TO_END = {
    "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def tail_percentile(jobs_per_pass: int) -> int:
    samples = MIN_PASSES * jobs_per_pass
    return 5 * math.floor(20 * (1 - TAIL_EXCESS / samples))


def percentile(values, p: float) -> float:
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _run_worker(workload: str, seed: int, traced: bool,
                deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           workload, "--seed", str(seed), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("ATOMLEN_BUDGET", None)
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_launch))
    except BaseException as exc:
        # the worker leads its own process group: CLI children and their
        # pools go with it
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError("a pass did not finish in time") from exc
        raise
    pass_s = time.monotonic() - t_launch
    if proc.returncode != 0:
        raise BenchError(f"pass worker exited with {proc.returncode}: "
                         f"{err.decode(errors='replace')[-2000:]}")
    lines = [json.loads(line) for line in out.splitlines()]
    data = lines[-1]["pass"]
    data["jobs"] = [line["job"] for line in lines[:-1]]
    data.update(traced=traced, pass_s=pass_s,
                raw_setup_s=data.pop("t_ready") - t_launch,
                raw_wall_s=data.pop("wall_s"))
    power = SCALE_EXPONENT.get(workload, 1.0)
    for r in data["jobs"]:
        r["raw_seconds"] = r["seconds"]
        r["seconds"] *= (REFERENCE_S / r["ref_s"]) ** power
    data["speed"] = (REFERENCE_S / statistics.median(
        r["ref_s"] for r in data["jobs"])) ** power
    data["wall_s"] = sum(r["seconds"] for r in data["jobs"])
    data["setup_s"] = data["raw_setup_s"] * data["speed"]
    return data


def run_passes(workload: str, seed: int, seconds: float,
               trace: bool) -> list[dict]:
    """Untraced passes, or untraced and traced passes alternately, until
    the time is up."""
    start = time.monotonic()
    cycle = (False, True) if trace else (False,)
    minimum = len(cycle) if trace else MIN_PASSES
    passes: list[dict] = []
    longest = 0.0
    while True:
        if not len(passes) % len(cycle):
            elapsed = time.monotonic() - start
            if len(passes) >= minimum and elapsed + longest > seconds:
                break
            if passes and elapsed + longest > HARD_LIMIT_S:
                break
        traced = cycle[len(passes) % len(cycle)]
        passes.append(_run_worker(workload, seed, traced,
                                  start + HARD_LIMIT_S + 15))
        longest = max(longest, passes[-1]["pass_s"])
    return passes


def check_passes(jobs: list[dict], passes: list[dict]) -> tuple[int, list]:
    failures = []
    for p in passes:
        if [r["id"] for r in p["jobs"]] != [j["id"] for j in jobs]:
            raise BenchError("a pass ran another job list")
        for job, res in zip(jobs, p["jobs"]):
            problems = ([res["error"]] if res["error"]
                        else check.check_job(job, res["output"]))
            if problems:
                failures.append(f"{job['id']}: {problems[0]}")
    return len(jobs) * len(passes), failures


def end_to_end(jobs: list[dict], passes: list[dict]) -> dict:
    """wall_s sums each job's median over the passes, which one slow job in
    one pass moves less than it moves the median of the pass totals."""
    times = [r["seconds"] for p in passes for r in p["jobs"]]
    tail = tail_percentile(len(jobs))
    return {
        "wall_s": sum(statistics.median(p["jobs"][i]["seconds"] for p in passes)
                      for i in range(len(jobs))),
        "job_p50_s": statistics.median(times),
        "job_tail_s": percentile(times, tail),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = [{name: value * p["speed"] if spans.unit(name) == "s"
                 else value
                 for name, value in spans.layer_metrics(p["summary"]).items()}
                for p in traced]
    out = {name: statistics.median(m[name] for m in per_pass)
           for name in spans.PER_LAYER}
    wall_plain = statistics.median(p["wall_s"] for p in plain)
    wall_traced = statistics.median(p["wall_s"] for p in traced)
    out["cli.startup_s"] = (wall_plain - out["cli.main.busy_s"]
                            if out["cli.main.busy_s"] else 0.0)
    out["trace.overhead_ratio"] = wall_traced / wall_plain
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in a plain export of the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _record(workload, seed, seconds, trace, jobs, passes, metrics, attempted,
            failures) -> str:
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace,
        "environment": {"nproc": os.cpu_count(), "python": sys.version,
                        "cpu_model": _cpu_model(), "commit": _commit(),
                        "platform": platform.platform()},
        "cold_interpreter": (
            "every pass runs in a fresh interpreter: atomlen is imported "
            "anew, and its lru_cache tables (residue classes, height "
            "functionals) start empty, as for CLI and script users"),
        "tail_percentile": tail_percentile(len(jobs)),
        "metrics": metrics, "attempted": attempted, "failed": len(failures),
        "failures": failures[:50],
        "reference_s": REFERENCE_S,
        "scale_exponent": SCALE_EXPONENT.get(workload, 1.0),
        "passes": [{key: p[key] for key in (
                        "traced", "speed", "wall_s", "raw_wall_s", "setup_s",
                        "raw_setup_s", "pass_s", "peak_rss_mb", "summary")}
                   | {"job_seconds": [r["seconds"] for r in p["jobs"]],
                      "raw_job_seconds": [r["raw_seconds"] for r in p["jobs"]],
                      "job_reference_s": [r["ref_s"] for r in p["jobs"]]}
                   for p in passes],
        "job_ids": [j["id"] for j in jobs],
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return path


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    jobs = workloads.build(workload, seed)
    passes = run_passes(workload, seed, seconds, bool(trace))
    attempted, failures = check_passes(jobs, passes)
    if trace:
        metrics = per_layer(passes)
        units = {name: spans.unit(name) for name in metrics}
    else:
        metrics = end_to_end(jobs, passes)
        units = END_TO_END
    path = _record(workload, seed, seconds, trace, jobs, passes, metrics,
                   attempted, failures)
    plain = [p for p in passes if not p["traced"]]
    print(f"workload {workload}  seed {seed}  trace {trace}  passes "
          f"{len(passes)}  job samples {len(jobs) * len(plain)} untraced  "
          f"tail = p{tail_percentile(len(jobs))}  record {path}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6f} {units[name]}")
    print(f"  {'fail_ratio':<48} {len(failures) / attempted:>14.6f} ratio "
          f"({len(failures)} of {attempted} jobs)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "atomlen", "__init__.py")):
        print(f"no atomlen sources under {SRC}: run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace)
                   for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
