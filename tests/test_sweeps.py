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
    "delta_4": "9f385114fa058e7d1caaf4bc1a34ce7d746a6bdfd9c2fcf8225ea99e9251b568",
    "delta_5": "1f747aadd718e2096f41b1909d856adf058de8db004274f37a7406ec4a02a45c",
    "delta_6": "858407ff3c15ccea18b664b50f8cd4ee092062866bec1ec8fba19db15eac1672",
    "go_3": "8a3290f5b7d9e4e49aadc793e774c30647cf0559a7cb2a8fe30a2be46c56985f",
    "go_4": "2df523f4be3b6252e2080c7328f70ae6afba806972044c68289b8468a0bf7887",
    "go_5": "0bae41d5ef14d1ccddfc368e50d88c44e594288cb821ae85371dc49325dbc586",
    "go_6": "df382d1617a200abd256119a660107dacbb479e86072a2f7d01fcd2a1fd6f727",
    "go_7": "9bcb26405477f7f4ac83622e30945f7fe2f3f0c3c44c8f380f53b3597f2be521",
    "refined_go_5": "a6381c174f80e71c8ff941fa070001bb526e4a74b637cea8e9d67fb72c16196e",
    "refined_go_6": "7e556b297c6decf9780c6e44949c73da0b968f0d81bc67c1dcd9f9e1aa9def15",
    "trunc_5_2": "c47813b8c4be3157ef2e7dd57ebd1447a14bb4701673b16d2b74fdd40693e97d",
    "trunc_5_3": "46341df5d8552178db21a09f8f1ab9a0d47130afb888ca4007113527fbdab7e5",
    "trunc_6_2": "b42792126807fbfc28ffdd50a3d2210defd229db0e87b15b41f5e44f0f190b35",
    "trunc_7_3": "24c6167e3d46c434f84ae6df45c5fc04d95a8f5c4acc8d77ba0270d145166c52",
    "deltaC_3": "39bded7069d204a69100d8a1a6add7fb291d0d8469cd97524232f2e12909b83f",
    "deltaC_4": "42f2063f66121cc6ddc29404f68b59f6b858ad054944f4cab8cb441f7870501a",
    "deltaC_5": "93699bf1bf0cbe497de04cd01065bd5602e534b5f5fb2e8fdbb33d987556b106",
    "deltaC_6": "30c3c9a3824ca1cb472e9ce7561a4e85fae6b10f5f444ac04d069510c7fbb838",
    "lattice_B1_4": "610ed33cd3aa0f33c6737d4d0b16a1959573e8968f28515068325fbce13dcd3b",
    "lattice_C1_4": "d39fb5ad5b5d8bd11f6f5bf7cc62d7e8736c4d724ad6b113f852a4e09dc65703",
    "lattice_D1_4": "56149a3d91e94264679fa8426798c53d09e327191c124c8c2233d7d6150a3949",
    "lattice_A2odd_4": "c6cc095bd38844f185526dff037883604298ca22a3ca7739e643c52da4c9e0be",
    "lattice_A2even_4": "3ef1de4312026e23158810f530c396fbeb27f85fc596a0243ad742a666edecaa",
    "lattice_D2_4": "171026c0c6dc3e4c752e20e404d8aa400eed89a89d347eda1a2e6afbc6fe537b",
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


def test_sweep_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # string hashes change with the seed: no set or dict order they steer
    # may reach the files; the script sets its own path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    files = {}
    for seed in ("0", "999"):
        out = tmp_path / seed
        subprocess.run([sys.executable, str(SCRIPT), "--out", str(out)],
                       env=dict(env, PYTHONHASHSEED=seed), check=True,
                       capture_output=True, timeout=120)
        files[seed] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(files["0"]) == sorted(f"{name}.json" for name in PINNED)
    assert files["0"] == files["999"]
    for name, digest in PINNED.items():
        text = files["0"][f"{name}.json"]
        assert hashlib.sha256(text[:-1]).hexdigest() == digest, name


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


def closure_bound(form, domain, radius):
    """The largest numerator K whose every value window lies inside the
    radius box, so that no vector of value K lies outside it; None when a
    minimizer is clamped to the box.  Coordinate i's window holds the v with
    |2Av + B| <= isqrt(4A(K - base + low) + B^2), inside [lo, hi] while that
    root is at most smax = min(2A(hi + 1) + B - 1, 2A(1 - lo) - B - 1): up to
    K = base + ((smax + 1)^2 - 1 - B^2) // 4A - low."""
    A = form.quad
    boxes, base = qf._boxes(A, form.lin, domain, radius)
    room = []
    for b, (lo, hi, center, low) in zip(form.lin, boxes):
        if not lo <= center <= hi:
            return None
        smax = min(2 * A * (hi + 1) + b - 1, 2 * A * (1 - lo) - b - 1)
        room.append(((smax + 1) ** 2 - 1 - b * b) // (4 * A) - low)
    return base + min(room) if room else None


def _closed_misses(report, form, domain, radius):
    """For each not-found target, run alone at the scan's radius: whether
    its box closes (no witness, and its numerator is at most the closure
    bound, so no larger box reaches more)."""
    out = []
    bound = closure_bound(form, domain, radius)
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
