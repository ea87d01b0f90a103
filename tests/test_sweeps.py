"""The 26 universality reports of scripts/scan_sweeps.py, pinned byte for
byte: the test iterates the script's own sweeps(), so both share one list.
Also the two scripts' entry points, the PASS/FAIL loop of
scripts/run_paper_checks.py, and which not-found entries are already proofs:
those whose radius box closes."""
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from atomlen import affine_classical as ac
from atomlen import quadratic_forms as qf

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "scan_sweeps.py"

# SHA-256 of json.dumps(report.to_json_dict(), sort_keys=True, indent=1),
# the bytes scan_sweeps.py writes (without the final newline).
PINNED = {
    "delta_2": "fb7671ee1fb3e3fb8996393afb297672b3d46904c61b7c8f754b6caf4a7211d7",
    "delta_3": "4be54cd26221dc68df79bc006c08bdf554078df4d34b4845ca86908856ef5a38",
    "delta_4": "905b8beab8a6edc491ffc95d152021f88f118d1cf341fc3c55932179a1244f21",
    "delta_5": "405c04f03b4b2cb50a8c107d0370eaa752ac3979774332088effea35dc77705e",
    "delta_6": "007a99ba0ab4d42d1e460fa5749e885da77c4a6e3708ea2fca0de5ca67ad2a5c",
    "go_3": "602f5890ee29d55d12462bda7e898c863a3b1e8b10ec651b973190e9709db1ff",
    "go_4": "c763885292f374350658087fd6d0eb03c98cb408091134673b1e3ef0b61c7a96",
    "go_5": "eba930f9595312623d2ae8d3c46d36dfd83a8c6294b1314e661b6569c6a95c59",
    "go_6": "30cf87f945e9bcd5c9e0faf012ec98e002581d46bbdb01868d158a75871e8a71",
    "go_7": "06accd29e42e974d8e222d45f225b9b44f081699f589173d296e5af6c3e26a51",
    "refined_go_5": "0bcb1f17a624a0086a6cddc92bd8a8b5fb5a6036280e34e0657a14df27a1dbd8",
    "refined_go_6": "1385242994a5d5e2b649abc33a0d23319aa7a2a0478a0d1c8d51943e5ed7f22c",
    "trunc_5_2": "dc29df106895aea1b2c81cceff3082f529a064c47b09ad323dc6b0845f1bafb3",
    "trunc_5_3": "6abbcfebab7073dce2ef43e06fb2bf865b1b6777b4611ecb3cee178dd96f026d",
    "trunc_6_2": "ba76f319192b9def13840df1343a25058459102b6388af9c2546ec98e58c4a0e",
    "trunc_7_3": "8ca87bc7a494cb263fe1852e26404e7cd9b2d36fdb45c63e9d741485ff707619",
    "deltaC_3": "3629ca08cf818ac112611027759730a2cd51bc610e74ce64fbe9c8d4d5767751",
    "deltaC_4": "8417243f28d6bb3160c22f968279b1ac6fef546a02e2c0e94ac4026459e2503b",
    "deltaC_5": "aca1288f8ddfd5f56ff24d446ad09be06c0884de392cc2335713bdeec2e2f3eb",
    "deltaC_6": "8a3d1666db8bf22ccd48fcb1a3ccc5bfce12fe5be3345759f9619d60ba78843c",
    "lattice_B1_4": "2733ccd1b1b730c0b4fd2ad0d2976eeb6bc05eb0d073e01a739ed16942d760ef",
    "lattice_C1_4": "96f2ed131529b9301b04cadacb7dbce2e66974017e22f9f477ad1f0c786b15ad",
    "lattice_D1_4": "88161193c7e97799e62a6143dd317f37d4d74fb4126e764a2e0545cb821f62a3",
    "lattice_A2odd_4": "2641dd9d06555cfa51425407534b17d925c86e9cbcca95e7d502bf0b6d102b31",
    "lattice_A2even_4": "563af2fee7cf8f3e9e0899eb844146e60d336d143a6a26e91ed912f04f840b61",
    "lattice_D2_4": "c9d56cb933dfb299d103ef73bad7e81d9ab5f861a7ca1409f917d4b581cad694",
}


def _load_script(path=SCRIPT):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_reports_are_pinned():
    changed, names = [], []
    for name, report in _load_script().sweeps():
        names.append(name)
        doc = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
        if hashlib.sha256(doc.encode()).hexdigest() != PINNED.get(name):
            changed.append(name)
    assert not changed, f"sweep reports changed: {', '.join(changed)}"
    assert names == list(PINNED)


@pytest.mark.parametrize("script", ["scan_sweeps.py", "run_paper_checks.py"])
def test_scripts_run_from_any_directory(tmp_path, script):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPT.parent / script),
                           "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def _run_main(module, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["run_paper_checks.py"])
    code = module.main()
    return code, capsys.readouterr().out.splitlines()


def test_paper_checks_all_pass(monkeypatch, capsys):
    module = _load_script(SCRIPT.parent / "run_paper_checks.py")
    code, lines = _run_main(module, monkeypatch, capsys)
    assert code == 0 and lines[-1] == "ALL CHECKS PASSED"
    assert [line.split()[:2] for line in lines[:-1]] == \
        [["PASS", name] for name, _ in module.CHECKS]


def test_paper_checks_report_a_failure(monkeypatch, capsys):
    # the loop alone: stubs stand in for the real checks, which
    # test_paper_checks_all_pass and test_acceptance.py run
    def broken():
        assert 1 + 1 == 3, "arithmetic is off"

    module = _load_script(SCRIPT.parent / "run_paper_checks.py")
    names = [name for name, _ in module.CHECKS]
    monkeypatch.setattr(module, "CHECKS", [(names[0], broken)] + [
        (name, lambda: "stub holds") for name in names[1:]])
    code, lines = _run_main(module, monkeypatch, capsys)
    assert code == 1 and lines[-1] == "1 CHECKS FAILED"
    assert lines[0].split()[:2] == ["FAIL", names[0]]
    assert "arithmetic is off" in lines[0]
    assert [line.split() for line in lines[1:-1]] == \
        [["PASS", name, "stub", "holds"] for name in names[1:]]


def _searched(monkeypatch, scans):
    """(name, report, form, domain, radius) of each (name, scan, args):
    represent_all, which every universality scan calls once, records what
    the scan searched."""
    seen, represent_all = [], qf.represent_all
    monkeypatch.setattr(qf, "represent_all", lambda form, dom, ks, r: (
        seen.append((form, dom, r)) or represent_all(form, dom, ks, r)))
    for name, scan, args in scans:
        report = scan(*args)
        yield (name, report, *seen[-1])


def _closed_misses(report, form, domain, radius):
    """For each not-found target, run alone at the scan's radius: whether
    its box closes (no witness, and its numerator is at most the closure
    bound of _boxes, so no larger box reaches more)."""
    out = []
    bound = qf._boxes(form.quad, form.lin, domain, radius)[2]
    for e in report.entries:
        if e.status == "not-found":
            knum = int(form.denom * e.target - form.const)
            assert not qf._witnesses_at_radius(form.quad, form.lin, {knum},
                                               domain, radius)
            out.append(bound is not None and knum <= bound)
    return out


def test_every_sweep_miss_is_closed_at_its_radius(monkeypatch):
    # each not-found entry of the pinned reports is already a proof of
    # non-representability: its box holds every coordinate's value window
    counts = {}
    for name, *record in _searched(monkeypatch, _load_script()._scans()):
        closed = _closed_misses(*record)
        assert all(closed), name
        if closed:
            counts[name] = len(closed)
    assert counts == {"delta_2": 12, "delta_3": 24, "go_3": 67,
                      "refined_go_5": 1, "deltaC_3": 23}


def test_lattice_misses_are_radius_artifacts(monkeypatch):
    # C1 at rank 4 takes the values sum(y^2), universal by Lagrange: its
    # misses at radius 25 are boxes that do not close, never proofs
    scan = ("C1", ac.norm_universality_scan,
            (ac.AffineLatticeSpec("C1", 4), 500, 25))
    [(_, *record)] = _searched(monkeypatch, [scan])
    closed = _closed_misses(*record)
    assert len(closed) == 57 and not any(closed)
