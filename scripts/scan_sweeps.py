#!/usr/bin/env python3
"""Write the universality reports used in the write-up as JSON files.

Each report lands in out/ as one stable JSON document; rerunning reproduces
the same bytes.  This file is where every scan size is written:
run_paper_checks.py reads the reports by name, and tests/test_sweeps.py pins
them by SHA-256.
"""
import argparse
import json
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from atomlen import affine_classical as ac
from atomlen import cores_abaci as ca
from atomlen import quadratic_forms as qf


def _scans():
    """(name, scan, arguments) of every report, in file order; nothing is
    computed until the scan is called."""
    for n in (2, 3, 4, 5, 6):
        yield (f"delta_{n}", qf.universality_scan,
               (qf.form_Q(n), qf.domain_Delta(n), 200, 30))
    for n in (3, 4, 5, 6, 7):
        yield f"go_{n}", ca.granville_ono_scan, (n, 150, 25)
    for n in (5, 6):
        yield f"refined_go_{n}", ca.scan_refined_GO, (n, 150, 25)
    for n, ell in ((5, 2), (5, 3), (6, 2), (7, 3)):
        yield f"trunc_{n}_{ell}", ca.scan_truncated_weight, (n, ell, 100, 30)
    for n in (3, 4, 5, 6):
        yield f"deltaC_{n}", ac.scan_deltaC, (n, 150, 15)
    for tag in ac.LATTICE_TAGS:
        yield (f"lattice_{tag}_4", ac.norm_universality_scan,
               (ac.AffineLatticeSpec(tag, 4), 100, 25))


def sweeps():
    """(name, report) of every report, in file order."""
    for name, scan, args in _scans():
        yield name, scan(*args)


def report(name: str):
    """The report called `name`, computed on its own."""
    for found, scan, args in _scans():
        if found == name:
            return scan(*args)
    raise KeyError(name)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, report in sweeps():
        path = outdir / f"{name}.json"
        path.write_text(json.dumps(report.to_json_dict(), sort_keys=True,
                                   indent=1) + "\n")
        misses = len(report.misses)
        print(f"{path}  targets={len(report.entries)} missed={misses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
