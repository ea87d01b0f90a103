"""Job lists of the four workloads, built from (workload, seed).

Standard library only: the pass worker builds the list to run it against
atomlen, and the checker builds the same list to judge the outputs without
importing atomlen.  A job is one user-level call (one scan report, one sumset
certificate, one saturation result, one CLI command) or, for the calls that
take microseconds, one seeded batch of them.

The seed varies only inputs the checker can verify completely or holds an
expectation for: hall difference vectors, charged multipartitions, windows,
and the Ps weight specs drawn from PS_CATALOGUE.  The number of jobs, targets
and calls per pass never depends on the seed, so every count is the same for
every seed.
"""
from __future__ import annotations

import random
import shlex

WORKLOADS = ("scan-hits", "scan-misses", "enumerate", "cli-readme")

# Expected set of missed targets of a scan: computed by the brute-force
# oracle in check.py over the same radius box.
ORACLE = "oracle"

# Ps weight specs (n, level, charges), scanned for k <= 80 at radius 20.  The
# brute-force oracle finds every target witnessed for each of them; the
# benchmark's tests re-derive that.
PS_CATALOGUE = (
    (5, 2, (1, 3)),
    (5, 2, (2, 4)),
    (5, 3, (0, 2, 4)),
    (5, 3, (1, 2, 3)),
    (5, 3, (2, 2, 4)),
    (5, 4, (0, 1, 2, 3)),
    (5, 4, (1, 2, 3, 4)),
    (5, 4, (0, 2, 2, 4)),
)
PS_MAX_K, PS_RADIUS = 80, 20

LATTICE_TAGS = ("B1", "C1", "D1", "A2odd", "A2even", "D2")


def _job(kind: str, name: str, args: dict, expect=None) -> dict:
    return {"id": f"{kind}:{name}", "kind": kind, "args": args,
            "expect": expect}


def scan(form: str, n: int, max_k: int, radius: int, expect=(),
         **extra) -> dict:
    """One universality scan.  expect is the tuple of targets that must be
    missed (targets on the half grid as "a/b" strings) or ORACLE."""
    args = {"form": form, "n": n, "max_k": max_k, "radius": radius, **extra}
    name = ",".join(f"{k}={v}" for k, v in args.items() if k != "form")
    expect = expect if expect == ORACLE else list(expect)
    return _job("scan", f"{form}:{name}", args, expect)


def _scan_hits(rng: random.Random) -> list[dict]:
    # Every target here is witnessed in the box: the paper's universality
    # statements at its own sweep sizes.
    jobs = [scan("Q", 5, 200, 30), scan("Q", 6, 200, 30), scan("P", 5, 200, 30)]
    jobs += [scan("go", n, 150, 25) for n in (4, 5, 6, 7)]
    jobs.append(scan("refined", 6, 100, 25))
    jobs += [scan("trunc", n, 100, 30, ell=ell)
             for n, ell in ((5, 2), (5, 3), (6, 2), (7, 3))]
    jobs += [scan("deltaC", n, 150, 15) for n in (4, 5, 6)]
    jobs += [scan("lattice", 4, 100, 25, tag=tag) for tag in LATTICE_TAGS]
    for n, ell, charges in rng.sample(PS_CATALOGUE, 2):
        jobs.append(scan("Ps", n, PS_MAX_K, PS_RADIUS, ell=ell,
                         charges=list(charges)))
    return jobs


def _scan_misses(rng: random.Random) -> list[dict]:
    # Delta(3) comes first so that Delta(4) pays for the cold arity-3
    # residue tables (mod 128 among them), as a script user would.
    jobs = [scan("Q", 3, 200, 30, ORACLE), scan("Q", 4, 600, 40, ORACLE),
            scan("P", 4, 200, 30, ORACLE), scan("q", 3, 300, 20, ORACLE),
            scan("refined", 5, 150, 25, (125,)),
            scan("go", 3, 150, 25, ORACLE),
            scan("deltaC", 2, 100, 15, ORACLE),
            scan("deltaC", 3, 150, 15, ORACLE)]
    jobs += [scan("lattice", 3, 100, 25, ORACLE, tag=tag)
             for tag in LATTICE_TAGS]
    jobs.append(scan("trunc", 3, 100, 30, ORACLE, ell=2))
    return jobs


def random_window(rng: random.Random, n: int, span: int = 5) -> list[int]:
    """Window of t_x . wbar for a random finite part and zero-sum x."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    x = [rng.randint(-span, span) for _ in range(n - 1)]
    x.append(-sum(x))
    return [perm[i] + n * x[perm[i] - 1] for i in range(n)]


def random_multipartition(rng: random.Random, level: int):
    return [sorted((rng.randint(1, 8) for _ in range(rng.randint(0, 5))),
                   reverse=True) for _ in range(level)]


def _enumerate(rng: random.Random) -> list[dict]:
    jobs = [_job("sumset", f"A{n}", {"family": "A", "n": n, "mod": None})
            for n in range(2, 7)]
    jobs += [_job("sumset", f"C{n}", {"family": "C", "n": n, "mod": None})
             for n in (2, 3)]
    jobs.append(_job("sumset", "C2-mod4", {"family": "C", "n": 2, "mod": 4}))
    for series, n in (("A", 5), ("B", 4), ("C", 4), ("D", 5)):
        for ell in range(2 if series == "D" else 1, n + 1):
            jobs.append(_job("saturation", f"{series}{n}-l{ell}",
                             {"series": series, "n": n, "ell": ell}))
    for n in range(2, 8):
        jobs.append(_job("entropy", f"n={n}", {
            "n": n, "windows": [random_window(rng, n) for _ in range(1500)]}))
    for m in (8, 10, 11, 12, 13):
        ds = []
        for _ in range(300):
            d = [rng.randrange(m) for _ in range(m - 1)]
            ds.append(d + [(-sum(d)) % m])
        jobs.append(_job("hall", f"m={m}", {"m": m, "ds": ds}))
    for level, n in ((1, 3), (2, 3), (2, 5), (3, 4), (3, 6), (4, 5)):
        items = [[random_multipartition(rng, level),
                  [rng.randint(-4, 4) for _ in range(level)]]
                 for _ in range(200)]
        jobs.append(_job("rotation", f"l={level},n={n}",
                         {"n": n, "level": level, "items": items}))
    return jobs


# The atomlen commands of the README, verbatim (no --threads anywhere), each
# with what the checker holds its JSON output to: the README's own printed
# values, or the check of the equivalent library call.
README_COMMANDS = (
    ('atomlen entropy --n 2 --window 3,0',
     {"kind": "entropy", "n": 2, "window": [3, 0], "value": 4}),
    ('atomlen core --npartition "3,1;2,1" --charges 0,0 --n 3',
     {"kind": "core", "n": 3, "charges": [0, 0],
      "quotient": [[1], [2], []], "quotient_charges": [1, -1, 0],
      "core": [[1], [2]], "core_charges": [-1, 1],
      "core_multicharge": [0, -1, 1]}),
    ('atomlen hall --mod 4 --d 3,0,2,3',
     {"kind": "hall", "m": 4, "d": [3, 0, 2, 3]}),
    ('atomlen scan --form Q-delta --n 5 --max-k 200 --radius 30',
     scan("Q", 5, 200, 30)),
    ('atomlen scan --form q-free  --n 4 --max-k 30  --radius 12',
     scan("q", 3, 30, 12, ORACLE)),
    ('atomlen scan --form go      --n 4 --max-k 150 --radius 25',
     scan("go", 4, 150, 25)),
    ('atomlen scan --form trunc   --n 5 --ell 2 --max-k 100 --radius 30',
     scan("trunc", 5, 100, 30, ell=2)),
    ('atomlen scan --form Ps      --n 5 --ell 3 --s 2,2,4 --max-k 50 '
     '--radius 20',
     scan("Ps", 5, 50, 20, ORACLE, ell=3, charges=[2, 2, 4])),
    ('atomlen scan --form refined-go --n 5 --max-k 150 --radius 25',
     scan("refined", 5, 150, 25, (125,))),
    ('atomlen scan --form deltaC  --n 5 --max-k 150 --radius 15',
     scan("deltaC", 5, 150, 15)),
    ('atomlen scan --form lattice --type A2even --n 4 --max-k 100 --radius 25',
     scan("lattice", 4, 100, 25, tag="A2even")),
    ('atomlen sumset --family A --n 5',
     {"kind": "sumset", "args": {"family": "A", "n": 5, "mod": None}}),
    ('atomlen sumset --family C --n 2 --mod 4     # exploratory override',
     {"kind": "sumset", "args": {"family": "C", "n": 2, "mod": 4}}),
    ('atomlen finite --type B --n 4 --ell 2 --saturate',
     {"kind": "saturation", "args": {"series": "B", "n": 4, "ell": 2}}),
    ('atomlen finite --type A --n 3 --ell 3 --bound',
     {"kind": "bound", "series": "A", "n": 3, "ell": 3}),
    ('atomlen threshold --type C1', {"kind": "threshold", "n0": 15}),
)


def readme_argv(command: str) -> list[str]:
    """argv of a README command as a shell would split it, without the
    program name and the trailing comment."""
    words = shlex.split(command, comments=True)
    if words[0] != "atomlen":
        raise ValueError(f"not an atomlen command: {command!r}")
    return words[1:]


def _cli_readme(rng: random.Random) -> list[dict]:
    jobs = []
    for command, expect in README_COMMANDS:
        argv = readme_argv(command)
        jobs.append(_job("cli", " ".join(argv), {"argv": argv + ["--json"]},
                         expect))
    return jobs


_BUILDERS = {"scan-hits": _scan_hits, "scan-misses": _scan_misses,
             "enumerate": _enumerate, "cli-readme": _cli_readme}


def build(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; the same (workload, seed) always gives the
    same list."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
