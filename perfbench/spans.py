"""Spans around calls into atomlen's public functions, and the per-layer
metrics computed from them.

The tracer wraps each function wherever atomlen looks it up: in its own
module and in every module that imported it by name (universality_scan is
imported into cores_abaci and affine_classical).  Spans are kept in memory
and summarized when the pass ends.  Nothing under src/ changes; a function
that a later version no longer has is skipped and reads as zero.
"""
from __future__ import annotations

import sys
import time

# module -> functions wrapped in it; the layers are the modules
LAYERS = {
    "quadratic_forms": ("find_witness", "represent", "attained_classes",
                        "universality_scan"),
    "sumsets": ("build_orbit", "difference_set", "zero_sum_subgroup",
                "verify_sumset_equality", "hall_decompose"),
    "finite_weyl": ("atomic_length_finite", "saturation_check"),
    "cores_abaci": ("phi", "phi_inverse", "ns_core_of"),
    "affine_permutations": ("entropy", "atomic_length_rho"),
    "affine_classical": ("scan_deltaC", "norm_universality_scan"),
    "cli": ("main",),
}


def _hit(args, result):
    return int(result is not None)


def _entries(args, result):
    return len(result.entries)


def _elements(args, result):
    return len(result)


def _pairs(args, result):
    return len(args[0]) ** 2


# Quantity read off a call's arguments and result, per function.
QUANTITY = {
    "quadratic_forms.find_witness": _hit,
    "quadratic_forms.universality_scan": _entries,
    "sumsets.build_orbit": _elements,
    "sumsets.difference_set": _pairs,
}

# Per-layer metrics, named <module>.<function>.<quantity>.  calls, busy_s,
# self_s, miss_busy_s and hit_ratio are read off the spans; any other
# quantity is the sum of the function's QUANTITY.
PER_LAYER = (
    "quadratic_forms.find_witness.calls",
    "quadratic_forms.find_witness.busy_s",
    "quadratic_forms.find_witness.hit_ratio",
    "quadratic_forms.find_witness.miss_busy_s",
    "quadratic_forms.represent.self_s",
    "quadratic_forms.attained_classes.calls",
    "quadratic_forms.attained_classes.busy_s",
    "quadratic_forms.universality_scan.targets",
    "quadratic_forms.universality_scan.self_s",
    "sumsets.build_orbit.elements",
    "sumsets.build_orbit.busy_s",
    "sumsets.difference_set.pairs",
    "sumsets.difference_set.busy_s",
    "sumsets.zero_sum_subgroup.busy_s",
    "sumsets.verify_sumset_equality.self_s",
    "sumsets.hall_decompose.calls",
    "sumsets.hall_decompose.busy_s",
    "finite_weyl.atomic_length_finite.calls",
    "finite_weyl.atomic_length_finite.busy_s",
    "finite_weyl.saturation_check.self_s",
    "cores_abaci.phi.calls",
    "cores_abaci.phi.busy_s",
    "cores_abaci.phi_inverse.busy_s",
    "cores_abaci.ns_core_of.self_s",
    "affine_permutations.entropy.calls",
    "affine_permutations.entropy.busy_s",
    "affine_permutations.atomic_length_rho.busy_s",
    "affine_classical.scan_deltaC.busy_s",
    "affine_classical.norm_universality_scan.busy_s",
    "cli.main.busy_s",
)
# Computed by run.py from traced and untraced passes.
DERIVED = ("cli.startup_s", "trace.overhead_ratio")
_SPAN_FIELDS = ("calls", "busy_s", "self_s", "miss_busy_s")


def unit(metric: str) -> str:
    quantity = metric.rsplit(".", 1)[1]
    if quantity.endswith("_s"):
        return "s"
    return "ratio" if quantity.endswith("ratio") else "count"


def better(metric: str) -> str:
    return "higher" if metric.endswith(".hit_ratio") else "lower"


class Tracer:
    """Records one span per wrapped call: [name, start, end, parent index,
    quantity].  Single-threaded; calls made in worker processes of a pool
    are not seen, and their cost stays in the caller's self time."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        quantity = QUANTITY.get(name)

        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if quantity is not None:
                try:
                    rec[4] = quantity(args, result)
                except (TypeError, IndexError, AttributeError):
                    pass  # a changed signature reads as zero, never breaks
            return result

        return traced

    def install(self, package: str = "atomlen") -> None:
        """Wrap every function of LAYERS at every place it is looked up."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package
                                         or key.startswith(package + "."))]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in functions:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[3] >= 0:
            children.setdefault(rec[3], []).append((rec[1], rec[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(spans) -> dict[str, dict]:
    """Additive per-function sums: calls, busy time (outermost calls only,
    so recursion is not counted twice), self time, hits and busy time of
    misses (find_witness), and the summed quantity."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, qty) in enumerate(spans):
        s = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "quantity": 0, "miss_busy_s": 0.0})
        s["calls"] += 1
        s["self_s"] += selfs[i]
        s["quantity"] += qty
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            s["busy_s"] += end - start
            if name == "quadratic_forms.find_witness" and not qty:
                s["miss_busy_s"] += end - start
    return out


def merge(summaries) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for summary in summaries:
        for name, fields in summary.items():
            into = out.setdefault(name, dict.fromkeys(fields, 0))
            for key, value in fields.items():
                into[key] += value
    return out


def layer_metrics(summary: dict[str, dict]) -> dict[str, float]:
    """Every PER_LAYER metric of one pass; 0 for a layer it never entered.
    hit_ratio is hits / calls, 0 without calls."""
    out = {}
    for metric in PER_LAYER:
        fn, quantity = metric.rsplit(".", 1)
        s = summary.get(fn, {})
        if quantity == "hit_ratio":
            out[metric] = s["quantity"] / s["calls"] if s.get("calls") else 0.0
        else:
            field = quantity if quantity in _SPAN_FIELDS else "quantity"
            out[metric] = s.get(field, 0)
    return out
