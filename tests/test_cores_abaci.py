import functools
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlen import affine_permutations as ap
from atomlen import cores_abaci as ca
from atomlen import quadratic_forms as qf
from atomlen.errors import (AtomlenError, BadEll, BadIndex, BadLength,
                            BudgetExceeded, DomainViolation, NotInDs)

from test_affine_permutations import random_window_strategy

partitions = st.lists(st.integers(1, 12), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True)))


@st.composite
def weight_specs(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    ell = draw(st.integers(1, n))
    charges = tuple(sorted(draw(st.integers(0, n - 1)) for _ in range(ell)))
    return ca.WeightSpec(n, ell, charges)


# ---------------------------------------------------------------------------
# The runner-record rotation engine, kept as the differential oracle for the
# bead-arithmetic one in cores_abaci: every position of every block is probed
# on BetaAbacus records.
# ---------------------------------------------------------------------------

def normalize_runner(threshold: int, occupied_above) -> ca.BetaAbacus:
    """Canonical runner from any threshold and explicit positions >= it."""
    occ = sorted(set(occupied_above))
    t = threshold
    while occ and occ[0] == t:
        occ.pop(0)
        t += 1
    return ca.BetaAbacus(t, tuple(occ))


def old_as_partition(parts):
    """Strip zeros, then refuse negative or increasing parts."""
    out = tuple(p for p in map(int, parts) if p)
    if out and min(out) < 0:
        raise BadLength(f"negative part in {parts}")
    if out != tuple(sorted(out, reverse=True)):
        raise BadLength(f"parts not weakly decreasing: {parts}")
    return out


def old_beta_set(parts, s: int) -> ca.BetaAbacus:
    """Charged beta-set: positions part_j - j + s, j = 1, 2, ..., padded by
    every position below s - len(parts)."""
    parts = old_as_partition(parts)
    m = len(parts)
    positions = [parts[j - 1] - j + s for j in range(1, m + 1)]
    return normalize_runner(s - m, positions)


def old_partition_of(runner: ca.BetaAbacus):
    """Count the gaps to the left of each bead, largest bead first."""
    parts = []
    for b in sorted(runner.beads, reverse=True):
        below = sum(1 for x in runner.beads if x < b)
        parts.append(b - runner.threshold - below)
    return old_as_partition(parts)


def old_l_abacus(multipartition, charges) -> tuple[ca.BetaAbacus, ...]:
    charges = tuple(int(c) for c in charges)
    if len(multipartition) != len(charges):
        raise BadLength("level and number of charges differ")
    return tuple(old_beta_set(p, s) for p, s in zip(multipartition, charges))


def _block_range(runners, width: int) -> tuple[int, int]:
    lo_all = min(r.threshold for r in runners)
    hi_all = max(r.beads[-1] + 1 if r.beads else r.threshold for r in runners)
    return lo_all // width - 1, (hi_all - 1) // width + 1


def _transpose(runners, width: int):
    """Cut a k-runner abacus into blocks of `width` positions and transpose
    each: the bead on runner i (0-based) at position q*width + j lands on
    runner j at position q*k + i."""
    k = len(runners)
    q_min, q_max = _block_range(runners, width)
    out = []
    for j in range(width):
        occupied = []
        for q in range(q_min, q_max + 1):
            p_old = q * width + j
            for i in range(k):
                if runners[i].occupied(p_old):
                    occupied.append(q * k + i)
        out.append(normalize_runner(q_min * k, occupied))
    return tuple(out)


def old_rotate(multipartition, charges, width: int):
    """Reverse the runners, transpose the blocks, reverse again."""
    runners = old_l_abacus(multipartition, charges)[::-1]
    out = _transpose(runners, width)[::-1]
    return tuple(old_partition_of(r) for r in out), tuple(r.charge for r in out)


def old_phi(multipartition, charges, n: int):
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    return old_rotate(multipartition, charges, n)


def old_phi_inverse(multipartition, charges, ell: int):
    if ell < 1:
        raise BadEll(f"need level >= 1, got {ell}")
    return old_rotate(multipartition, charges, ell)


def old_ns_core_of(multipartition, charges, n: int):
    level = len(multipartition)
    _, sn = old_phi(multipartition, charges, n)
    core = old_phi_inverse(((),) * n, sn, level)
    return core, tuple(reversed(sn))


# ---------------------------------------------------------------------------
# Diagram oracles: rim hooks on the cell set, and the literal bead push
# ---------------------------------------------------------------------------

def remove_rim_hook(parts, row: int, col: int):
    """Remove the rim hook of the cell (row, col), both 0-based: the
    boundary cells weakly south-east of the cell, on the cell set of the
    diagram."""
    parts = ca.as_partition(parts)
    cells = {(r, c) for r in range(len(parts)) for c in range(parts[r])}
    if (row, col) not in cells:
        raise BadIndex(f"cell ({row}, {col}) outside the diagram")
    hook = {(r, c) for (r, c) in cells
            if r >= row and c >= col and (r + 1, c + 1) not in cells}
    rows = [0] * len(parts)
    for (r, _) in cells - hook:
        rows[r] += 1
    # a rim hook always leaves a partition shape behind
    return ca.as_partition(rows)


def strip_to_core(parts, n: int):
    """Classical n-core by repeated rim-hook removal on the diagram,
    independent of the abacus route."""
    if n < 2:
        raise BadLength(f"need n >= 2, got {n}")
    parts = ca.as_partition(parts)
    while True:
        hit = next(((i, j) for i, row in enumerate(ca.hook_lengths(parts))
                    for j, h in enumerate(row) if h == n), None)
        if hit is None:
            return parts
        parts = remove_rim_hook(parts, *hit)


def charge_push_left(runner: ca.BetaAbacus) -> int:
    """Charge by the literal normalization: move each bead onto the leftmost
    gap to its left until the runner is trivial, then read the first gap."""
    occupied = set(runner.beads)
    lo = runner.threshold
    while True:
        if not occupied:
            return lo
        top = max(occupied)
        gaps = [p for p in range(lo, top) if p not in occupied]
        if not gaps:
            return top + 1
        g = gaps[0]
        b = min(x for x in occupied if x > g)
        occupied.discard(b)
        occupied.add(g)


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------

def test_hook_table_example():
    assert ca.hook_lengths((2, 1)) == ((3, 1), (1,))


def test_core_examples():
    lam = (10, 6, 3, 3)
    assert not ca.is_n_core_hooks(lam, 7)   # it has a 7-hook
    assert ca.is_n_core_hooks(lam, 5)
    assert ca.is_n_core_hooks((), 2) and ca.is_n_core_hooks((), 9)
    assert not ca.is_n_core_hooks((2, 1, 1), 4)


@given(partitions, st.integers(2, 7))
def test_core_divisible_variant(lam, n):
    # no hook equal to n iff no hook divisible by n
    hooks = [h for row in ca.hook_lengths(lam) for h in row]
    assert ca.is_n_core_hooks(lam, n) == all(h % n for h in hooks)


@given(partitions, st.integers(2, 7))
@settings(max_examples=60)
def test_strip_to_core_is_a_core_of_smaller_size(lam, n):
    core = strip_to_core(lam, n)
    assert ca.is_n_core_hooks(core, n)
    assert sum(core) <= sum(lam)
    assert (sum(lam) - sum(core)) % n == 0


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def test_symbol_example():
    runner = normalize_runner(-3, [-3, -2, -1, 2, 3, 5, 7])
    assert runner.threshold == 0 and runner.beads == (2, 3, 5, 7)
    assert runner.charge == 4
    assert charge_push_left(runner) == 4
    assert ca.partition_of(runner) == (4, 3, 2, 2)


def test_trivial_symbol():
    runner = ca.beta_set((), 4)
    assert runner.threshold == 4 and runner.beads == ()
    assert ca.partition_of(runner) == ()
    runner = ca.beta_set((), -2)
    assert runner.charge == -2


@given(partitions, st.integers(-5, 5))
def test_beta_set_round_trip(lam, s):
    runner = ca.beta_set(lam, s)
    assert runner.charge == s
    assert charge_push_left(runner) == s
    assert ca.partition_of(runner) == lam


@given(partitions, st.integers(-3, 3), st.integers(2, 7))
@settings(max_examples=150)
def test_abacus_core_test_matches_hooks(lam, s, n):
    assert ca.is_n_core_abacus(ca.beta_set(lam, s), n) == \
        ca.is_n_core_hooks(lam, n)


def test_render_matches_worked_example_layout():
    ab = ca.l_abacus(((3, 1), (2, 1)), (0, 0))
    lines = ca.render_abacus(ab).splitlines()
    assert lines[-1].split() == [str(p) for p in range(-4, 5)]
    # top runner (second component) printed first
    assert lines[0].split() == list("OO.O.O...")
    assert lines[1].split() == list("OO.O..O..")


# ---------------------------------------------------------------------------
# The rotation bijection and cores
# ---------------------------------------------------------------------------

def test_phi_worked_example():
    lam, s = ((3, 1), (2, 1)), (0, 0)
    ln, sn = ca.phi(lam, s, 3)
    assert ln == ((1,), (2,), ())
    assert sn == (1, -1, 0)
    assert ca.phi_inverse(ln, sn, 2) == (lam, s)


def test_phi_on_trivial_stack():
    # trivial symbols with weakly increasing charges inside one period form
    # a core, so the quotient side is empty
    ln, sn = ca.phi(((), (), ()), (0, 1, 2), 4)
    assert all(p == () for p in ln)
    assert sum(sn) == 3
    # non-monotone charges break the bead-containment condition
    ln2, _ = ca.phi(((), (), ()), (1, 0, 2), 4)
    assert any(p != () for p in ln2)
    assert not ca.is_ns_core(((), (), ()), (1, 0, 2), 4)


def test_ns_core_wraps_from_the_top_runner_to_the_bottom():
    # charges 0 and 5 leave the bottom runner's first gap more than n = 2
    # below the top one's, so the top's beads do not repeat n lower
    assert not ca.is_ns_core(((), ()), (0, 5), 2)
    assert ca.ns_core_of(((), ()), (0, 5), 2) == ((((), ()), (2, 3)), (3, 2))


@st.composite
def charged_multipartitions(draw):
    ell = draw(st.integers(1, 4))
    lam = tuple(draw(partitions) for _ in range(ell))
    charges = tuple(draw(st.integers(-4, 4)) for _ in range(ell))
    return lam, charges


@given(charged_multipartitions(), st.integers(2, 6))
@settings(max_examples=120)
def test_phi_round_trip_and_charge_sum(lc, n):
    lam, charges = lc
    ln, sn = ca.phi(lam, charges, n)
    assert len(ln) == n and len(sn) == n
    assert sum(sn) == sum(charges)
    assert ca.phi_inverse(ln, sn, len(lam)) == (lam, charges)


@st.composite
def rotation_inputs(draw, broken=False):
    """Level 1-6, charges -6..6 and a width -1..8, which covers the invalid
    n <= 1 of phi and l <= 0 of phi_inverse; `broken` adds one fault: a
    charge too few or too many, or an unsorted or negative component."""
    level = draw(st.integers(1, 6))
    lam = [draw(partitions) for _ in range(level)]
    charges = [draw(st.integers(-6, 6)) for _ in range(level)]
    if broken:
        fault = draw(st.sampled_from(["drop", "extra", "unsorted",
                                      "negative"]))
        if fault == "drop":
            charges.pop()
        elif fault == "extra":
            charges.append(0)
        else:
            at = draw(st.integers(0, level - 1))
            lam[at] = (1, 2) if fault == "unsorted" else (2, -1)
    return tuple(lam), tuple(charges), draw(st.integers(-1, 8))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AtomlenError as exc:
        return type(exc), str(exc)


ROTATIONS = ((ca.phi, old_phi), (ca.phi_inverse, old_phi_inverse),
             (ca.ns_core_of, old_ns_core_of))


@given(rotation_inputs())
@settings(max_examples=300)
def test_rotation_matches_the_runner_record_engine(args):
    lam, charges, width = args
    for new, old in ROTATIONS:
        assert _outcome(new, lam, charges, width) == \
            _outcome(old, lam, charges, width)
    if width >= 2:
        ln, sn = ca.phi(lam, charges, width)
        assert ca.phi_inverse(ln, sn, len(lam)) == \
            old_phi_inverse(ln, sn, len(lam)) == (lam, charges)


@given(rotation_inputs(broken=True))
@settings(max_examples=200)
def test_rotation_errors_match_the_runner_record_engine(args):
    lam, charges, width = args
    for new, old in ROTATIONS:
        got = _outcome(new, lam, charges, width)
        assert isinstance(got[0], type)
        assert got == _outcome(old, lam, charges, width)


@given(st.one_of(rotation_inputs(), rotation_inputs(broken=True)))
@settings(max_examples=400)
def test_counted_charges_match_phi(args):
    # ns_core_of counts phi's level-n charges instead of rotating: the same
    # charges, or the same error
    assert _outcome(ca._phi_charges, *args) == \
        _outcome(lambda *a: ca.phi(*a)[1], *args)


# Components that as_partition must strip or refuse: zeros inside and at the
# end, lists, only zeros, unsorted and negative parts.
FAST_PATH_EDGES = [((3, 0, 2), (1,)), ((2, 1, 0), ()), ([3, 1], [2, 2, 0]),
                   ((0, 0), (4,)), ((0,), ()), ((1, 2), (1,)),
                   ((3,), (2, -1)), ([1, 2],), ((-1,),)]


@pytest.mark.parametrize("lam", FAST_PATH_EDGES)
@pytest.mark.parametrize("width", [2, 3])
def test_partition_fast_path_edges_match_the_runner_record_engine(lam, width):
    charges = tuple(range(len(lam)))
    for new, old in ROTATIONS:
        assert _outcome(new, lam, charges, width) == \
            _outcome(old, lam, charges, width)
    assert _outcome(ca._phi_charges, lam, charges, width) == \
        _outcome(lambda *a: ca.phi(*a)[1], lam, charges, width)


@given(st.lists(st.integers(-3, 6), max_size=6))
def test_as_partition_matches_the_zero_stripping_check(parts):
    assert _outcome(ca.as_partition, parts) == \
        _outcome(old_as_partition, parts)


@pytest.mark.parametrize("parts", [(3, 0, 2), (2, 1, 0), (0,), (),
                                   (1, 2), (-1,)])
def test_iterator_components_are_read_once(parts):
    # a one-shot component gives what its tuple gives; an error names the
    # iterator, so only its class is compared
    def kind(outcome):
        return outcome[0] if outcome and isinstance(outcome[0], type) \
            else outcome

    for fn in (ca.phi, ca.phi_inverse, ca.ns_core_of, ca._phi_charges):
        assert kind(_outcome(fn, [iter(parts)], (1,), 3)) == \
            kind(_outcome(fn, [parts], (1,), 3))
    assert kind(_outcome(ca.as_partition, iter(parts))) == \
        kind(_outcome(ca.as_partition, parts))


# Runner-level edges: many empty components (all empty, or one not), level
# 1, and charges far from 0 on either side, where divmod's floor matters.
RUNNER_EDGES = [
    (((),) * 6, (0, -3, 5, 2, 2, -1)),
    (((),) * 4, (7, 7, 7, 7)),
    (((),) * 5 + ((4, 2, 2),), (1, 1, 1, 1, 1, 1)),
    (((3, 1),) + ((),) * 4, (-2, 0, 0, 7, -5)),
    (((5, 3, 3, 1),), (-40,)),
    (((),), (3,)),
    (((2,), (1, 1)), (-10 ** 9, -10 ** 9 + 2)),
    (((4, 1), (), (2, 2)), (10 ** 12, 10 ** 12 - 3, 10 ** 12 + 1)),
]


@pytest.mark.parametrize("lam,charges", RUNNER_EDGES)
@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_runner_edges_match_the_runner_record_engine(lam, charges, width):
    for new, old in ROTATIONS:
        assert _outcome(new, lam, charges, width) == \
            _outcome(old, lam, charges, width)
    if width >= 2:
        ln, sn = ca.phi(lam, charges, width)
        assert ca.phi_inverse(ln, sn, len(lam)) == (lam, charges)


# _rotate builds its images as int bitmasks up to _MASK_ESTIMATE and as
# sorted lists above it; each builder is exact at any size.

def _builders(lam, charges, width: int):
    """Each builder's rotation of the same runners, masks first."""
    runners = ca._beta_numbers(lam, charges)[::-1]
    q0 = min(t for t, _ in runners) // width
    return (ca._rotate_masks(runners, width, q0),
            ca._rotate_lists(runners, width, q0))


SMALL_PARTS = [(), (1,), (1, 1), (2,), (2, 1), (2, 2), (3,), (3, 1), (3, 2),
               (3, 3)]


@pytest.mark.parametrize("width", range(1, 6))
def test_both_builders_match_the_runner_record_engine_on_a_box(width):
    # every multipartition of level <= 3 with at most 2 parts in all, each
    # at most 3, at charges -3..3: 20,307 rotations per width
    for level in (1, 2, 3):
        for lam in itertools.product(SMALL_PARTS, repeat=level):
            if sum(map(len, lam)) > 2:
                continue
            for charges in itertools.product(range(-3, 4), repeat=level):
                want = old_rotate(lam, charges, width)
                assert _builders(lam, charges, width) == (want, want), \
                    (lam, charges)


@pytest.mark.parametrize("extra, builder", [(0, "_rotate_masks"),
                                            (1, "_rotate_lists")])
def test_the_estimate_picks_the_builder(monkeypatch, extra, builder):
    # the runners (first gap, beads) (-30, 30 beads) and (c - 29, 29 beads)
    # start at block -15 of width 2, so the estimate is 2 + (c + 30) + 30
    estimate = ca._MASK_ESTIMATE + extra
    lam, charges = ((2,) * 30, (1,) * 29), (0, estimate - 62)
    calls, build = [], getattr(ca, builder)
    monkeypatch.setattr(ca, builder, lambda *args: (
        calls.append(args[1]) or build(*args)))
    monkeypatch.setenv("ATOMLEN_BUDGET", str(estimate))
    assert ca.phi(lam, charges, 2) == old_phi(lam, charges, 2)
    assert calls == [2]
    monkeypatch.setenv("ATOMLEN_BUDGET", str(estimate - 1))
    with pytest.raises(BudgetExceeded,
                       match=f"abacus rotation needs ~{estimate} "):
        ca.phi(lam, charges, 2)


LARGE = (tuple(sorted((random.Random(3000).randint(1, 12)
                       for _ in range(3000)), reverse=True)),)


@functools.lru_cache(maxsize=None)
def _large_rotation(width: int):
    return old_rotate(LARGE, (5,), width)


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_a_large_component_takes_the_lists(monkeypatch, width):
    calls, build = [], ca._rotate_lists
    monkeypatch.setattr(ca, "_rotate_lists", lambda *args: (
        calls.append(args[1]) or build(*args)))
    assert ca.phi_inverse(LARGE, (5,), width) == _large_rotation(width)
    assert calls == [width]


@pytest.mark.parametrize("width", [1, 2, 3, 7])
def test_the_masks_are_exact_on_a_large_component(width):
    masks, lists = _builders(LARGE, (5,), width)
    assert masks == lists == _large_rotation(width)


@pytest.mark.parametrize("fn", [ca.phi, ca.phi_inverse])
def test_rotation_refuses_a_huge_width_at_once(monkeypatch, fn):
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="abacus rotation"):
        fn(((3, 1), (2, 1)), (0, 0), 10 ** 9)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("call,error,message", [
    (lambda: ca.phi((), (), 3), BadLength, "need at least one component"),
    (lambda: ca.phi_inverse((), (), 1), BadLength,
     "need at least one component"),
    (lambda: ca.ns_core_of((), (), 3), BadEll, "need level >= 1, got 0"),
    (lambda: ca.is_ns_core((), (), 3), BadEll, "need level >= 1, got 0"),
    (lambda: ca.render_abacus(()), BadLength, "need at least one runner"),
])
def test_level_zero_is_refused_with_one_line(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_ns_core_rotates_once(monkeypatch):
    # the library twin of the CLI's core command test: the level-n charges
    # are counted, so the one rotation is the way back, at width l
    widths, rotate = [], ca._rotate
    monkeypatch.setattr(ca, "_rotate", lambda runners, width: (
        widths.append(width) or rotate(runners, width)))
    ca.ns_core_of(((3, 1), (2, 1)), (0, 0), 3)
    assert widths == [2]


def test_counted_charges_are_budgeted(monkeypatch):
    # n*l + beads = 3*2 + 4 = 10 steps; the rotation back needs 8
    lam, charges = ((3, 1), (2, 1)), (0, 0)
    monkeypatch.setenv("ATOMLEN_BUDGET", "10")
    assert ca.ns_core_of(lam, charges, 3)[1] == (0, -1, 1)
    monkeypatch.setenv("ATOMLEN_BUDGET", "9")
    with pytest.raises(BudgetExceeded, match="abacus rotation needs ~10 "):
        ca.ns_core_of(lam, charges, 3)


def test_ns_core_of_refuses_a_huge_width_at_once(monkeypatch):
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="abacus rotation"):
        ca.ns_core_of(((3, 1), (2, 1)), (0, 0), 10 ** 9)
    assert time.perf_counter() - start < 1


def test_ns_core_of_huge_charges_cost_only_their_spread(monkeypatch):
    # The counted level-n charges spread by at most l + beads, so the one
    # rotation back stays small however far apart the input charges are;
    # phi itself would list every position between them.
    monkeypatch.delenv("ATOMLEN_BUDGET", raising=False)
    lam = ((3, 1), (2, 1))
    assert ca.ns_core_of(lam, (0, 10 ** 4), 3) == \
        old_ns_core_of(lam, (0, 10 ** 4), 3) == \
        ((((1,), (1,)), (5000, 5000)), (3334, 3332, 3334))
    with pytest.raises(BudgetExceeded, match="abacus rotation"):
        ca.phi(lam, (0, 10 ** 12), 3)
    start = time.perf_counter()
    core = ca.ns_core_of(lam, (0, 10 ** 12), 3)
    assert time.perf_counter() - start < 1
    assert core == ((((1,), (1,)), (5 * 10 ** 11, 5 * 10 ** 11)),
                    (333333333334, 333333333332, 333333333334))
    assert ca.is_ns_core(*core[0], 3)


def test_ns_core_worked_example():
    (core, core_charges), multicharge = ca.ns_core_of(((3, 1), (2, 1)), (0, 0), 3)
    assert core == ((1,), (2,))
    assert core_charges == (-1, 1)
    assert multicharge == (0, -1, 1)


def test_ns_core_fixed_point():
    core = (((1,), (2,)), (-1, 1))
    (again, charges), _ = ca.ns_core_of(core[0], core[1], 3)
    assert (again, charges) == core
    assert ca.is_ns_core(core[0], core[1], 3)
    assert not ca.is_ns_core(((3, 1), (2, 1)), (0, 0), 3)


def test_is_ns_core_trivial_stack():
    assert ca.is_ns_core(((), (), ()), (0, 1, 2), 4)


@given(charged_multipartitions(), st.integers(2, 6))
@settings(max_examples=100)
def test_is_ns_core_agrees_with_fixed_point(lc, n):
    lam, charges = lc
    (core, core_charges), _ = ca.ns_core_of(lam, charges, n)
    is_fixed = (lam, charges) == (core, core_charges)
    assert ca.is_ns_core(lam, charges, n) == is_fixed
    assert ca.is_ns_core(core, core_charges, n)


@given(partitions, st.integers(-3, 3), st.integers(2, 6))
@settings(max_examples=100)
def test_level_one_core_is_the_classical_core(lam, s, n):
    (core, charges), _ = ca.ns_core_of((lam,), (s,), n)
    assert charges == (s,)
    assert core[0] == strip_to_core(lam, n)


def test_level_one_core_of_a_core_example():
    lam = (10, 6, 3, 3)
    (core, charges), _ = ca.ns_core_of((lam,), (0,), 5)
    assert core == (lam,) and charges == (0,)  # it is already a 5-core
    (core7, _), _ = ca.ns_core_of((lam,), (0,), 7)
    assert core7[0] == strip_to_core(lam, 7) != lam


# ---------------------------------------------------------------------------
# Charge orbits and the polynomial
# ---------------------------------------------------------------------------

def test_weight_spec_validation():
    with pytest.raises(BadEll):
        ca.WeightSpec(3, 4, (0, 0, 1, 2))
    with pytest.raises(BadLength):
        ca.WeightSpec(4, 2, (2, 1))
    with pytest.raises(BadIndex):
        ca.WeightSpec(4, 2, (0, 4))
    # charges are stored as a tuple of ints, whatever sequence they came in
    assert ca.WeightSpec(3, 1, [0]) == (3, 1, (0,))
    assert hash(ca.WeightSpec(3, 1, [0])) == hash(ca.WeightSpec(3, 1, (0,)))


def test_sprime_examples():
    assert ca.WeightSpec(5, 3, (2, 2, 4)).sprime == (0, 1, 1, 3, 3)
    assert ca.WeightSpec(6, 2, (0, 1)).sprime == (0, 0, 0, 0, 0, 1)
    assert ca.WeightSpec(4, 4, (0, 1, 2, 3)).sprime == (0, 1, 2, 3)


def test_Ds_membership_follows_residue_distribution():
    spec = ca.WeightSpec(5, 3, (2, 2, 4))
    dom = spec.domain()
    assert qf.member(dom, (3, 3, 1, 1, 0))       # sprime itself, reordered
    assert qf.member(dom, (0, 1, 1, 3, 3))
    assert not qf.member(dom, (0, 1, 1, 3, 4))   # wrong residues mod 3
    assert not qf.member(dom, (0, 1, 1, 3, 6))   # sum off


@given(weight_specs())
def test_normalization_point(spec):
    assert ca.eval_Ps(spec, spec.sprime) == 0


def test_eval_Ps_rejects_outside_domain():
    spec = ca.WeightSpec(4, 2, (0, 1))
    with pytest.raises(NotInDs):
        ca.eval_Ps(spec, (1, 1, 1, 1))


@given(random_window_strategy())
def test_rho_charges_reduce_to_window_polynomial(nw):
    # with the full staircase, substituting t_i = w_i - 1 recovers the
    # window polynomial, hence the entropy
    n, win = nw
    spec = ca.WeightSpec(n, n, tuple(range(n)))
    t = tuple(v - 1 for v in win)
    assert ca.eval_Ps(spec, t) == qf.eval_P(win)
    assert ca.eval_Ps(spec, t) == ap.entropy(ap.make_affine(n, win))


def test_affine_action_examples():
    assert ca.affine_action_on_charges((), (3, 1, 4), 2) == (3, 1, 4)
    assert ca.affine_action_on_charges((0,), (1, 2, 3, 4), 3) == (1, 2, 3, 4)
    t = ca.affine_action_on_charges((0,), (5, 6, 7), 2)
    assert t == (5, 6, 7)  # t_n - l = 5 and t_1 + l = 7 coincide here
    t = ca.affine_action_on_charges((0,), (0, 6, 7), 2)
    assert t == (5, 6, 2)
    assert ca.affine_action_on_charges((1,), (0, 6, 7), 2) == (6, 0, 7)
    with pytest.raises(BadIndex):
        ca.affine_action_on_charges((3,), (0, 6, 7), 2)


@pytest.mark.parametrize("t", [(0,), ()])
def test_affine_action_has_no_s0_below_rank_two(t):
    # s_0 exchanges the first and last coordinates, so it needs two
    with pytest.raises(BadIndex, match=f"generator index 0 out of range "
                                       f"for n={len(t)}"):
        ca.affine_action_on_charges((0,), t, 1)
    assert ca.affine_action_on_charges((), t, 1) == t


@given(weight_specs(), st.data())
@settings(max_examples=80)
def test_orbit_stays_in_domain_and_size_matches_polynomial(spec, data):
    word = data.draw(st.lists(st.integers(0, spec.n - 1), max_size=12))
    t = ca.affine_action_on_charges(word, spec.sprime, spec.ell)
    assert sum(t) == sum(spec.charges)
    assert qf.member(spec.domain(), t)
    core, charges = ca.core_of_orbit_point(spec, t)
    assert ca.multipartition_size(core) == ca.eval_Ps(spec, t)
    assert sum(charges) == sum(spec.charges)


def test_core_of_orbit_point_matches_phi_inverse_of_empty_partitions():
    # bead-less runners at charges t are the beta-numbers of n empty
    # partitions charged t
    for spec in (ca.WeightSpec(3, 1, (0,)), ca.WeightSpec(4, 2, (1, 3)),
                 ca.WeightSpec(7, 3, (0, 1, 2))):
        for word in itertools.product(range(spec.n), repeat=3):
            t = ca.affine_action_on_charges(word, spec.sprime, spec.ell)
            assert ca.core_of_orbit_point(spec, t) == \
                ca.phi_inverse(((),) * spec.n, t, spec.ell), (spec, t)


@given(weight_specs(), st.data())
@settings(max_examples=60)
def test_dilation_identity(spec, data):
    word = data.draw(st.lists(st.integers(0, spec.n - 1), max_size=10))
    t = ca.affine_action_on_charges(word, spec.sprime, spec.ell)
    z = ca.dilate_point(spec, t)
    assert ca.eval_dilated(spec, z) == Fraction(spec.n, spec.ell) * \
        ca.eval_Ps(spec, t)


def test_dilation_base_point_and_rho_case():
    spec = ca.WeightSpec(5, 2, (0, 1))
    assert ca.eval_dilated(spec, ca.dilate_point(spec, spec.sprime)) == 0
    rho = ca.WeightSpec(4, 4, (0, 1, 2, 3))
    assert ca.dilation_shift(rho) == 0  # dilated domain is the zero-sum one
    with pytest.raises(DomainViolation):
        ca.eval_dilated(spec, (Fraction(1, 3),) * 5)


def test_truncated_constant_closed_form_regression():
    for n in range(2, 12):
        for ell in range(1, n + 1):
            spec = ca.WeightSpec(n, ell, tuple(range(ell)))
            assert spec.normalizing_constant() == \
                ca.truncated_constant_closed_form(n, ell), (n, ell)


def test_weight_forms_are_integer_data():
    # every weight of rank n <= 7: the form's integer constant is -2l times
    # the normalizing constant, recomputed here from the normalization at
    # sprime, and the polynomial vanishes at sprime
    count = 0
    for n in range(1, 8):
        for ell in range(1, n + 1):
            for charges in itertools.combinations_with_replacement(range(n),
                                                                   ell):
                spec = ca.WeightSpec(n, ell, charges)
                sp = spec.sprime
                oracle = (Fraction(n, 2 * ell) * sum(v * v for v in sp)
                          - sum(i * v for i, v in enumerate(sp)))
                const = spec.form().const
                assert type(const) is int
                assert const == -2 * ell * oracle
                assert spec.normalizing_constant() == oracle
                assert ca.eval_Ps(spec, spec.sprime) == 0
                count += 1
    assert count == 4699


@given(st.integers(3, 8), st.data())
@settings(max_examples=60)
def test_level_two_decomposition_identity(n, data):
    # splitting t = 2u + e_k relates the level-2 staircase polynomial to the
    # level-1 one through 2*P0(u) + n - k + n*u_k (coefficient n, not 1)
    k = data.draw(st.integers(1, n))
    u = [data.draw(st.integers(-4, 4)) for _ in range(n - 1)]
    u.append(-sum(u))
    t = tuple(2 * v + (1 if i == k else 0) for i, v in enumerate(u, 1))
    spec2 = ca.WeightSpec(n, 2, (0, 1))
    spec1 = ca.WeightSpec(n, 1, (0,))
    lhs = ca.eval_Ps(spec2, t)
    rhs = 2 * ca.eval_Ps(spec1, tuple(u)) + n - k + n * u[k - 1]
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------

def test_refined_base_values():
    assert ca.refined_base_value(5) == 35
    assert ca.refined_base_value(6) == 70
    assert ca.refined_size_form(5).evaluate((0, 1, 2, 3, 4)) == 35


def test_refined_scan_records_the_missing_size():
    rep = ca.scan_refined_GO(5, 100, 25)
    assert [e.target for e in rep.misses] == [125]
    assert rep.misses[0].status == "not-found"


def test_granville_ono_small():
    rep = ca.granville_ono_scan(4, 60, 25)
    assert rep.all_witnessed
    assert rep.entries[0].witness == (0, 0, 0, 0)
    rep3 = ca.granville_ono_scan(3, 60, 25)
    assert rep3.misses  # three-runner cores miss some sizes


def test_truncated_matches_staircase_scan_at_full_level():
    trunc = ca.scan_truncated_weight(5, 5, 30, 30)
    delta = qf.universality_scan(qf.form_Q(5), qf.domain_Delta(5), 30, 30)
    assert [e.status for e in trunc.entries] == [e.status for e in delta.entries]


def test_scan_truncated_base_witness():
    rep = ca.scan_truncated_weight(6, 2, 5, 20)
    assert rep.entries[0].status == "witness"
    spec = ca.WeightSpec(6, 2, (0, 1))
    # the polynomial vanishes only at the base point of the orbit
    assert rep.entries[0].witness == spec.sprime == (0, 0, 0, 0, 0, 1)
