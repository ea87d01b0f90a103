"""Self-time arithmetic on a synthetic span tree, and wrapping at every
place atomlen looks a function up."""
import json
import os
import subprocess
import sys

import pytest

import spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _span(name, start, end, parent, qty=0):
    return [name, start, end, parent, qty]


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("a", 0.0, 10.0, -1),   # 0
        _span("b", 1.0, 4.0, 0),     # 1
        _span("c", 2.0, 3.0, 1),     # 2: grandchild of a
        _span("b", 5.0, 7.0, 0),     # 3
        _span("a", 6.0, 6.5, 3),     # 4: a nested under a
    ]
    assert spans.self_times(tree) == pytest.approx([5.0, 2.0, 1.0, 1.5, 0.5])
    summary = spans.summarize(tree)
    assert summary["a"]["calls"] == 2
    assert summary["a"]["busy_s"] == pytest.approx(10.0)   # outermost only
    assert summary["a"]["self_s"] == pytest.approx(5.5)
    assert summary["b"]["busy_s"] == pytest.approx(5.0)
    assert summary["c"]["self_s"] == pytest.approx(1.0)


def test_overlapping_children_are_covered_once():
    tree = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 4.0, 0),
            _span("b", 3.0, 6.0, 0), _span("b", 9.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_find_witness_misses_and_hit_ratio():
    fw = "quadratic_forms.find_witness"
    tree = [_span(fw, 0.0, 1.0, -1, 1), _span(fw, 1.0, 4.0, -1, 0),
            _span(fw, 4.0, 4.5, -1, 1)]
    metrics = spans.layer_metrics(spans.summarize(tree))
    assert metrics[fw + ".calls"] == 3
    assert metrics[fw + ".hit_ratio"] == pytest.approx(2 / 3)
    assert metrics[fw + ".miss_busy_s"] == pytest.approx(3.0)
    assert metrics["sumsets.hall_decompose.calls"] == 0


def test_merge_adds_summaries():
    one = spans.summarize([_span("x", 0.0, 1.0, -1, 2)])
    both = spans.merge([one, one])
    assert both["x"]["calls"] == 2 and both["x"]["quantity"] == 4


def test_imported_names_are_wrapped_too():
    """universality_scan is imported by name into cores_abaci; the traced
    scan below only reaches it through that name."""
    script = (
        "import json, spans\n"
        "from atomlen import cores_abaci as ca\n"
        "t = spans.Tracer(); t.install()\n"
        "ca.granville_ono_scan(4, 10, 5)\n"
        "print(json.dumps(spans.layer_metrics(spans.summarize(t.spans))))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    metrics = json.loads(out)
    assert metrics["quadratic_forms.universality_scan.targets"] == 11
    assert metrics["quadratic_forms.find_witness.calls"] == 11
    assert metrics["quadratic_forms.find_witness.hit_ratio"] == 1.0
    assert 0 < metrics["quadratic_forms.represent.self_s"] < \
        metrics["quadratic_forms.find_witness.busy_s"] + 1
