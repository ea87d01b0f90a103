"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --trace 0|1

imports atomlen from the checkout's src/, builds the job list, runs it and
prints one JSON line per job, with its time, output and the reference-loop
time around it, then one line for the pass: when set-up ended, the job-list
time (the sum of the job times, without the reference loops), the peak
resident memory and, traced, the span summary.
Caches such as atomlen's residue tables start empty, as they do for every
CLI and script user.  run.py starts one worker per pass.

    python3 perfbench/worker.py --cli-inproc '<argv as JSON>'

runs one CLI command in-process under the tracer (the traced form of a
cli-readme job).
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (the benchmark's own modules sit beside this file)
from spans import Tracer, merge, summarize  # noqa: E402

CLI_TIMEOUT_S = 120
REFERENCE_ITERATIONS = 2000     # one reference loop, about 5 ms here
SAMPLE_ITERATIONS = 400         # one sample taken inside a job
SAMPLE_INTERVAL_S = 0.05


def _reference_work(iterations: int) -> float:
    """Seconds taken by a fixed mix of tuple, set and exact-fraction work,
    the kind of work atomlen does."""
    t0 = time.perf_counter()
    seen, acc = set(), Fraction(0)
    for i in range(iterations):
        v = (i, i * 7 % 13, -i)
        seen.add(v)
        acc += Fraction(i, 7)
        seen.discard((i - 3, 0, 0))
    return time.perf_counter() - t0


class SpeedProbe:
    """How fast the machine runs while each job runs, in reference-loop
    seconds; run.py divides it out.

    A full reference loop runs between jobs.  The machine also changes speed
    within a long job, so while an in-process job runs, a SIGALRM handler
    times a short loop every SAMPLE_INTERVAL_S; the handler's time is taken
    out of the job's.  A CLI job spreads its process pool over every CPU,
    and one CPU can be slow while another is not, so for CLI jobs
    (all_cpus=True) the loop between jobs runs once pinned to each CPU this
    process may use, and nothing samples during the job, where it would take
    CPU from the pool."""

    def __init__(self, all_cpus: bool):
        self.all_cpus = all_cpus
        self.samples: list[tuple[float, float]] = []   # (start, seconds)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, _reference_work(SAMPLE_ITERATIONS)))

    def __enter__(self):
        if not self.all_cpus:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                             SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def between_jobs(self) -> float:
        """One full reference loop, with the sampling held off; with
        all_cpus, the mean of one loop on each CPU."""
        if self.all_cpus:
            cpus = os.sched_getaffinity(0)
            try:
                times = []
                for cpu in sorted(cpus):
                    os.sched_setaffinity(0, {cpu})
                    times.append(_reference_work(REFERENCE_ITERATIONS))
            finally:
                os.sched_setaffinity(0, cpus)
            return statistics.mean(times)
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return _reference_work(REFERENCE_ITERATIONS)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def taken(self, t0: float, t1: float) -> list[float]:
        """Samples taken between t0 and t1, scaled to a full loop."""
        return [took * REFERENCE_ITERATIONS / SAMPLE_ITERATIONS
                for start, took in self.samples if t0 <= start < t1]


def _import_atomlen():
    import atomlen.cli
    if not os.path.abspath(atomlen.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"atomlen imported from {atomlen.__file__}, "
                         f"not from {SRC}")
    return atomlen


def _scan_call(a: dict):
    from atomlen import affine_classical as ac
    from atomlen import cores_abaci as ca
    from atomlen import quadratic_forms as qf

    form, n, k, r = a["form"], a["n"], a["max_k"], a["radius"]
    if form == "Q":
        return lambda: qf.universality_scan(qf.form_Q(n), qf.domain_Delta(n),
                                            k, r)
    if form == "P":
        return lambda: qf.universality_scan(qf.form_P(n), qf.domain_D(n), k, r)
    if form == "q":
        return lambda: qf.universality_scan(qf.form_q(n), qf.domain_Z_full(n),
                                            k, r)
    if form == "go":
        return lambda: ca.granville_ono_scan(n, k, r)
    if form == "refined":
        return lambda: ca.scan_refined_GO(n, k, r)
    if form == "trunc":
        return lambda: ca.scan_truncated_weight(n, a["ell"], k, r)
    if form == "Ps":
        def ps():
            spec = ca.WeightSpec(n, a["ell"], tuple(a["charges"]))
            return qf.universality_scan(spec.form(), spec.domain(), k, r)
        return ps
    if form == "deltaC":
        return lambda: ac.scan_deltaC(n, k, r)
    if form == "lattice":
        return lambda: ac.norm_universality_scan(
            ac.AffineLatticeSpec(a["tag"], n), k, r)
    raise ValueError(f"unknown scan form {form!r}")


def _lists(multipartition) -> list:
    return [list(p) for p in multipartition]


def _rotation_call(a: dict):
    from atomlen import cores_abaci as ca

    n, level = a["n"], a["level"]
    items = [(tuple(tuple(p) for p in lam), tuple(ch)) for lam, ch in a["items"]]

    def run():
        out = []
        for lam, ch in items:
            mp, sn = ca.phi(lam, ch, n)
            inverse = ca.phi_inverse(mp, sn, level)
            core = ca.ns_core_of(lam, ch, n)
            out.append((mp, sn, inverse, core))
        return out
    return run


def _rotation_json(raw) -> list:
    return [{"phi": [_lists(mp), list(sn)],
             "inverse": [_lists(inv[0]), list(inv[1])],
             "core": [[_lists(core[0][0]), list(core[0][1])], list(core[1])]}
            for mp, sn, inv, core in raw]


def _call(job: dict):
    """(the timed call, the conversion of its result to JSON)."""
    from atomlen import affine_permutations as ap
    from atomlen import finite_weyl as fw
    from atomlen import sumsets as ss

    kind, a = job["kind"], job["args"]
    if kind == "scan":
        return _scan_call(a), lambda rep: rep.to_json_dict()
    if kind == "sumset":
        return (lambda: ss.verify_sumset_equality(a["family"], a["n"],
                                                  a["mod"]),
                lambda cert: cert.to_json_dict())
    if kind == "saturation":
        return (lambda: fw.saturation_check(fw.FiniteType(a["series"], a["n"]),
                                            a["ell"]),
                lambda res: res.to_json_dict())
    if kind == "entropy":
        def entropies():
            out = []
            for window in a["windows"]:
                w = ap.make_affine(a["n"], window)
                out.append((ap.entropy(w), ap.atomic_length_rho(w)))
            return out
        return entropies, lambda raw: [list(p) for p in raw]
    if kind == "hall":
        return (lambda: [ss.hall_decompose(a["m"], d) for d in a["ds"]],
                lambda raw: [[list(x), list(y)] for x, y in raw])
    if kind == "rotation":
        return _rotation_call(a), _rotation_json
    raise ValueError(f"unknown job kind {kind!r}")


def _run_cli(argv: list[str], traced: bool):
    """One CLI command in a fresh interpreter; untraced it is exactly
    `python -m atomlen.cli <argv>`."""
    if traced:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--cli-inproc", json.dumps(argv)]
    else:
        cmd = [sys.executable, "-m", "atomlen.cli", *argv]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=CLI_TIMEOUT_S)
    if not traced:
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr[-2000:]}, None
    if proc.returncode != 0:
        raise RuntimeError(f"traced CLI run failed: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout)
    return ({"code": out["code"], "stdout": out["stdout"],
             "stderr": out["stderr"]}, out["summary"])


def _peak_rss_mb(cli: bool) -> float:
    """Peak resident memory of the process doing the work.

    Linux carries a parent's peak into a child's ru_maxrss, so this process
    reads its own peak from VmHWM.  For CLI commands it takes the largest
    ru_maxrss of its children, which cannot read below this process's own
    peak at the time it started them."""
    if cli:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    """Run the job list, writing one {"job": ...} line per job as soon as it
    is done, so that no output stays in memory to inflate the peak RSS."""
    _import_atomlen()
    jobs = workloads.build(workload, seed)
    t_ready = time.monotonic()
    tracer = Tracer() if traced else None
    if tracer and workload != "cli-readme":
        tracer.install()
    cli_summaries = []
    wall = 0.0
    with SpeedProbe(all_cpus=workload == "cli-readme") as probe:
        ref_before = probe.between_jobs()
        for job in jobs:
            error, output = None, None
            t0 = time.perf_counter()
            try:
                if job["kind"] == "cli":
                    output, summary = _run_cli(job["args"]["argv"], traced)
                    t1 = time.perf_counter()
                    if summary is not None:
                        cli_summaries.append(summary)
                else:
                    call, to_json = _call(job)
                    t0 = time.perf_counter()
                    raw = call()
                    t1 = time.perf_counter()
                    output = to_json(raw)
                    del raw
            except Exception as exc:  # a failed job is counted, the pass goes on
                t1 = time.perf_counter()
                error = f"{type(exc).__name__}: {exc}"[:500]
            inside = probe.taken(t0, t1)
            dt = t1 - t0 - sum(inside) * SAMPLE_ITERATIONS / REFERENCE_ITERATIONS
            ref_after = probe.between_jobs()
            _emit({"job": {"id": job["id"], "seconds": dt, "error": error,
                           "ref_s": statistics.mean(
                               [ref_before, ref_after] + inside),
                           "output": output}})
            del output
            ref_before = ref_after
            wall += dt
    summary = None
    if traced:
        summary = (merge(cli_summaries) if workload == "cli-readme"
                   else summarize(tracer.spans))
    return {"t_ready": t_ready, "wall_s": wall,
            "peak_rss_mb": _peak_rss_mb(cli=workload == "cli-readme"),
            "summary": summary}


def run_cli_inproc(argv: list[str]) -> dict:
    atomlen = _import_atomlen()
    tracer = Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = atomlen.cli.main(argv)
    return {"code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-2000:],
            "summary": summarize(tracer.spans)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli-inproc", help="argv of one CLI command, JSON")
    args = parser.parse_args()
    if args.cli_inproc is not None:
        _emit(run_cli_inproc(json.loads(args.cli_inproc)))
    elif args.workload:
        _emit({"pass": run_pass(args.workload, args.seed, bool(args.trace))})
    else:
        parser.error("give --workload or --cli-inproc")
    return 0


if __name__ == "__main__":
    sys.exit(main())
