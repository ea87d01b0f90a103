"""Acceptance battery: one test per entry of the check registry CHECKS in
scripts/run_paper_checks.py, which states every paper check once, with one
PASS line printed each (run with -s to see them)."""
import importlib.util
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parents[1] / "scripts"
          / "run_paper_checks.py")


def _load_script():
    spec = importlib.util.spec_from_file_location("run_paper_checks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _acceptance_test(name, check):
    def test():
        print(f"ACCEPTANCE {name} PASS  {check()}")
    test.__name__ = f"test_{name}"
    return test


# one named test per entry, so each criterion keeps its own test id
for _name, _check in _load_script().CHECKS:
    globals()[f"test_{_name}"] = _acceptance_test(_name, _check)
