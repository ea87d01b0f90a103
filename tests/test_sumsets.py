import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomlen import budget
from atomlen import sumsets as ss
from atomlen.errors import (AtomlenError, BadLength, BadSum, BudgetExceeded,
                            InvariantViolation, NotPrime, SearchFailed)


def backtrack_hall_decompose(m: int, d) -> tuple[tuple[int, ...],
                                                tuple[int, ...]]:
    """Enumeration pair (a, b) of Z/mZ with b_i - a_i = d_i for all i.

    Exists for every zero-sum d-vector; found by backtracking (columns left
    to right, unused a-values tried in ascending order, so the output is
    deterministic).  Every dead end of the search counts against the budget.
    """
    d = tuple(x % m for x in d)
    if len(d) != m:
        raise BadLength(f"need {m} differences, got {len(d)}")
    if sum(d) % m != 0:
        raise BadSum(f"differences sum to {sum(d) % m} mod {m}, not 0")

    a = [0] * m
    used_a = bytearray(m)
    used_b = bytearray(m)
    dead_ends = 0

    def rec(i: int) -> bool:
        nonlocal dead_ends
        if i == m:
            return True
        for v in range(m):
            if used_a[v]:
                continue
            w = (v + d[i]) % m
            if used_b[w]:
                continue
            used_a[v] = used_b[w] = 1
            a[i] = v
            if rec(i + 1):
                return True
            used_a[v] = used_b[w] = 0
        dead_ends += 1
        if not dead_ends & 1023:
            budget.check(dead_ends, what=f"Hall decomposition mod {m} "
                                         f"(dead ends)")
        return False

    if not rec(0):
        raise SearchFailed(f"no decomposition for zero-sum d={d} mod {m}")
    b = tuple((v + di) % m for v, di in zip(a, d))
    return tuple(a), b


def assert_hall_pair(m, d, pair):
    a, b = pair
    assert sorted(a) == list(range(m)) == sorted(b), (m, d)
    assert all((y - x) % m == e % m for x, y, e in zip(a, b, d)), (m, d)


def random_zero_sum(m, seed):
    rng = random.Random(seed)
    d = [rng.randrange(m) for _ in range(m - 1)]
    return d + [-sum(d) % m]


def zero_sum_vectors(m):
    for head in itertools.product(range(m), repeat=m - 1):
        yield head + (-sum(head) % m,)


def test_hall_worked_example():
    a, b = ss.hall_decompose(4, (3, 0, 2, 3))
    assert a == (0, 1, 2, 3)
    assert b == (3, 1, 0, 2)


def test_hall_zero_vector_gives_identity_pairing():
    a, b = ss.hall_decompose(5, (0,) * 5)
    assert a == b == (0, 1, 2, 3, 4)


def test_hall_rejects_bad_input():
    with pytest.raises(BadSum):
        ss.hall_decompose(4, (1, 0, 0, 0))
    with pytest.raises(BadLength):
        ss.hall_decompose(4, (0, 0))


@given(st.integers(2, 12), st.data())
@settings(max_examples=60)
def test_hall_decompose_random_zero_sum(m, data):
    d = [data.draw(st.integers(0, m - 1)) for _ in range(m - 1)]
    d.append((-sum(d)) % m)
    assert_hall_pair(m, d, ss.hall_decompose(m, d))
    assert_hall_pair(m, d, backtrack_hall_decompose(m, d))


def test_hall_every_zero_sum_vector_up_to_six():
    for m in range(1, 7):
        for d in zero_sum_vectors(m):
            assert_hall_pair(m, d, ss.hall_decompose(m, d))
            assert_hall_pair(m, d, backtrack_hall_decompose(m, d))


@given(st.integers(1, 128), st.data())
@settings(max_examples=60, deadline=None)
def test_hall_decompose_large_moduli(m, data):
    d = data.draw(st.lists(st.integers(-3 * m, 3 * m), min_size=m - 1,
                           max_size=m - 1))
    d.append(-sum(d))
    assert_hall_pair(m, d, ss.hall_decompose(m, d))


def test_hall_exchange_chains_stay_within_m_squared_steps(monkeypatch):
    # at most m - 1 coordinates, each repaired by fewer than m exchanges
    for m in (16, 40, 100):
        monkeypatch.setenv("ATOMLEN_BUDGET", str((m - 1) ** 2))
        for seed in range(20):
            d = random_zero_sum(m, seed)
            assert_hall_pair(m, d, ss.hall_decompose(m, d))


def test_verify_sumset_equality_family_A():
    for n in range(2, 7):
        cert = ss.verify_sumset_equality("A", n)
        assert cert.equal and not cert.missing
        assert cert.modulus == n
    with pytest.raises(BadLength, match="unknown family"):
        ss.verify_sumset_equality("B", 3)


def test_verify_sumset_equality_family_C():
    for n in (2, 3):
        cert = ss.verify_sumset_equality("C", n)
        assert cert.equal
    cert = ss.verify_sumset_equality("C", 2, modulus=4)
    assert not cert.equal
    assert (1, 0) in cert.missing


def test_certificate_serialization():
    cert = ss.verify_sumset_equality("C", 2, modulus=4)
    doc = cert.to_json_dict()
    assert doc["family"] == "C" and doc["modulus"] == 4
    assert doc["equal"] is False
    assert [1, 0] in doc["missing"]


def test_c_difference_witness_examples():
    w1, w2 = ss.c_difference_witness((0, 0, 0))
    assert w1 == w2
    w1, w2 = ss.c_difference_witness((1, 1, 1))
    assert all((x - y) % 7 == 1 for x, y in zip(w1, w2))
    with pytest.raises(NotPrime):
        ss.c_difference_witness((0, 0, 0, 0))


def test_c_difference_witness_random_targets():
    rng = random.Random(20240917)
    for n in (3, 5):
        p = 2 * n + 1
        orbit = orbit_closure("C", n, p)
        for _ in range(40):
            a = tuple(rng.randrange(p) for _ in range(n))
            w1, w2 = ss.c_difference_witness(a)
            assert all((x - y) % p == t for x, y, t in zip(w1, w2, a))
            assert w1 in orbit and w2 in orbit


def pairwise_oracle(family, n, m):
    """Missing vectors of the difference-set identity from the definition:
    the orbit as all (signed) permutations of (1, ..., n) mod m, every
    pairwise difference, and the target group listed element by element."""
    e = tuple(i % m for i in range(1, n + 1))
    orbit = set(itertools.permutations(e))
    if family == "C":
        orbit = {tuple(s * x % m for s, x in zip(signs, v))
                 for v in orbit
                 for signs in itertools.product((1, -1), repeat=n)}
    diffs = {tuple((x - y) % m for x, y in zip(a, b))
             for a in orbit for b in orbit}
    target = {v for v in itertools.product(range(m), repeat=n)
              if family == "C" or sum(v) % m == 0}
    assert diffs <= target
    return tuple(sorted(target - diffs))


@pytest.mark.parametrize("family,n,m", [
    *(("A", n, None) for n in range(1, 7)),
    *(("C", n, None) for n in range(1, 4)),
    *((f, n, m) for f in "AC" for n in range(1, 4) for m in range(1, 10)),
])
def test_certificate_matches_pairwise_oracle(family, n, m):
    cert = ss.verify_sumset_equality(family, n, m)
    default = n if family == "A" else 2 * n + 1
    assert cert.modulus == (default if m is None else m)
    assert cert.missing == pairwise_oracle(family, n, cert.modulus)
    assert cert.equal == (not cert.missing)


def orbit_closure(family, n, m):
    """Orbit of (1, ..., n) mod m by breadth-first closure under adjacent
    swaps, plus a sign flip of the last coordinate for family C."""
    start = tuple(i % m for i in range(1, n + 1))
    seen, frontier = {start}, [start]
    while frontier:
        nxt = []
        for v in frontier:
            moves = [v[:i] + (v[i + 1], v[i]) + v[i + 2:]
                     for i in range(n - 1)]
            if family == "C":
                moves.append(v[:-1] + (-v[-1] % m,))
            for w in moves:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def test_quotient_orbit_sizes_match_the_closure():
    for family, n, m in (("A", 5, 5), ("A", 4, 4), ("A", 4, 2), ("A", 2, 2),
                         ("C", 2, 5), ("C", 3, 7), ("C", 3, 4), ("C", 2, 4),
                         ("C", 4, 6), ("A", 1, 1), ("C", 1, 2), ("C", 2, 8)):
        closure = orbit_closure(family, n, m)
        start = tuple(i % m for i in range(1, n + 1))
        cls = tuple(sorted(ss._class(family, x, m) for x in start))
        assert ss._class_size(family, cls, m) == len(closure)
        assert set(ss._class_members(family, cls, m)) == closure


def streamed_difference_classes(family, n, m):
    """The orbit-class counts from the orbit itself: every group element w,
    as a permutation of e = (1, ..., n) mod m times a sign choice (C), and
    the canonical form of w.e - e, counted once per element."""
    e = tuple(i % m for i in range(1, n + 1))
    signs = (list(itertools.product((1, -1), repeat=n)) if family == "C"
             else [(1,) * n])
    counts = Counter()
    for p in itertools.permutations(e):
        for s in signs:
            d = [(si * x - y) % m for si, x, y in zip(s, p, e)]
            if family == "C":
                d = [min(x, -x % m) for x in d]
            counts[tuple(sorted(d))] += 1
    return dict(counts)


@pytest.mark.parametrize("family,n,m", [
    *(("A", n, n) for n in range(1, 9)),
    *(("C", n, 2 * n + 1) for n in range(1, 7)),
    *((f, n, m) for f in "AC" for n in range(1, 5) for m in range(1, 10)),
    ("A", 7, 4), ("C", 5, 4), ("C", 6, 6),
    # a count field per class the moves make, not per residue mod m
    *((f, n, 10 ** 18) for f in "AC" for n in (2, 3)),
])
def test_difference_classes_match_the_streamed_orbit(family, n, m):
    e = tuple(i % m for i in range(1, n + 1))
    assert (ss._difference_classes(family, e, m)
            == streamed_difference_classes(family, n, m))


def test_orbit_size_is_checked_at_the_default_modulus(monkeypatch):
    # a DP that lost a group element is caught by the count
    real = ss._difference_classes

    def lossy(family, e, m):
        classes = real(family, e, m)
        classes[min(classes)] -= 1
        return classes
    monkeypatch.setattr(ss, "_difference_classes", lossy)
    with pytest.raises(InvariantViolation, match="has size 5, expected 6"):
        ss.verify_sumset_equality("A", 3)
    # the DP counts group elements, so the check holds at an override too
    with pytest.raises(InvariantViolation,
                       match="orbit A,3 mod 5 has size 5, expected 6"):
        ss.verify_sumset_equality("A", 3, 5)


def test_classes_and_missing_vectors_are_budgeted(monkeypatch):
    # C2 mod 8: the 15 target classes and the orbit-class DP (20 steps) fit
    # either way; 15 target classes plus 37 missing vectors make 52
    assert len(ss.verify_sumset_equality("C", 2, 8).missing) == 37
    monkeypatch.setenv("ATOMLEN_BUDGET", "51")
    with pytest.raises(BudgetExceeded, match="missing vectors"):
        ss.verify_sumset_equality("C", 2, 8)
    monkeypatch.setenv("ATOMLEN_BUDGET", "52")
    assert len(ss.verify_sumset_equality("C", 2, 8).missing) == 37


def test_family_a_listing_walks_the_heads_of_zero_sum_classes(monkeypatch):
    # A3 mod 60: the zero sum fixes the last class, so the listing visits
    # comb(61, 2) = 1830 heads, not comb(62, 3) = 37820 multisets; with 3581
    # missing vectors that makes 5411
    monkeypatch.setenv("ATOMLEN_BUDGET", "5410")
    with pytest.raises(BudgetExceeded, match="missing vectors needs ~5411"):
        ss.verify_sumset_equality("A", 3, 60)
    monkeypatch.setenv("ATOMLEN_BUDGET", "5411")
    assert len(ss.verify_sumset_equality("A", 3, 60).missing) == 3581


def test_family_a_mod_1000_fits_the_default_budget():
    # 500,500 heads and 999,981 missing vectors
    cert = ss.verify_sumset_equality("A", 3, 1000)
    assert not cert.equal and len(cert.missing) == 999981
    assert cert.missing[0] == (0, 3, 997) and cert.missing[-1] == (999, 998, 3)


def test_difference_class_outside_the_target_is_an_error(monkeypatch):
    monkeypatch.setattr(ss, "_difference_classes",
                        lambda family, e, m: {(1, 0, 0): 6})
    with pytest.raises(InvariantViolation, match="escapes target"):
        ss.verify_sumset_equality("A", 3)


def test_orbit_class_dp_is_budgeted(monkeypatch):
    # C6 mod 13: the layers hold 1, 12, 117, 783, 2448 and 2648 states, and
    # each state tries all 12 moves (a sign times a coordinate, used or not)
    work = (1 + 12 + 117 + 783 + 2448 + 2648) * 12
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded, match=r"orbit classes of C6 mod 13 "
                                             r"\(DP states x moves\)"):
        ss.verify_sumset_equality("C", 6)
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work))
    assert ss.verify_sumset_equality("C", 6).equal


def test_orbit_class_dp_counts_key_words(monkeypatch):
    # A8 mod 16: the differences -7..7 stay distinct, so the moves make 15
    # classes and a key takes 8 + 15 * 4 = 68 bits, two 64-bit words; the
    # layers hold 1, 8, 56, 330, 1527, 5030, 10341 and 11478 states, each
    # trying 8 moves.  The comb(22, 7) = 170544 target classes fit under
    # that charge, so their check passes first
    work = (1 + 8 + 56 + 330 + 1527 + 5030 + 10341 + 11478) * 8 * 2
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work - 1))
    with pytest.raises(BudgetExceeded, match=r"orbit classes of A8 mod 16 "):
        ss.verify_sumset_equality("A", 8, 16)
    # at the DP's own work, the check on the ~16^7 missing vectors stops it
    monkeypatch.setenv("ATOMLEN_BUDGET", str(work))
    with pytest.raises(BudgetExceeded, match="missing vectors"):
        ss.verify_sumset_equality("A", 8, 16)


@pytest.mark.parametrize("call,message", [
    (lambda: ss.verify_sumset_equality("A", 0), "n >= 1"),
    (lambda: ss.verify_sumset_equality("A", 3, 0), "modulus >= 1"),
    (lambda: ss.verify_sumset_equality("C", 2, -3), "modulus >= 1"),
    (lambda: ss.hall_decompose(0, ()), "m >= 1"),
])
def test_non_positive_sizes_are_rejected(call, message):
    with pytest.raises(BadLength, match=message):
        call()


def test_budget_guard(monkeypatch):
    monkeypatch.setenv("ATOMLEN_BUDGET", "10")
    with pytest.raises(BudgetExceeded):
        ss.verify_sumset_equality("A", 4)
    monkeypatch.delenv("ATOMLEN_BUDGET")
    assert ss.verify_sumset_equality("A", 4).equal


# m=26 runs for minutes in the backtracking oracle and takes 158 exchange
# steps; n=8 needs over 1024 dead ends
HALL_HARD = (9, 21, 21, 25, 20, 19, 0, 17, 0, 20, 4, 12, 23, 17, 3, 14, 0,
             24, 13, 19, 21, 13, 8, 11, 13, 17)
C_HARD = (3, 2, 15, 0, 0, 2, 2, 13)


def test_hall_exchange_steps_are_budgeted(monkeypatch):
    # the oracle's dead-end budget stopped HALL_HARD; the chain does not
    # reach its first check, while m=300 takes 24,336 steps
    monkeypatch.setenv("ATOMLEN_BUDGET", "1000")
    assert_hall_pair(26, HALL_HARD, ss.hall_decompose(26, HALL_HARD))
    big = random_zero_sum(300, 300)
    monkeypatch.setenv("ATOMLEN_BUDGET", "10000")
    with pytest.raises(BudgetExceeded,
                       match=r"Hall decomposition mod 300 \(exchange steps\)"):
        ss.hall_decompose(300, big)
    monkeypatch.setenv("ATOMLEN_BUDGET", "25000")
    assert_hall_pair(300, big, ss.hall_decompose(300, big))


def test_backtracking_dead_ends_are_budgeted(monkeypatch):
    monkeypatch.setenv("ATOMLEN_BUDGET", "1000")
    with pytest.raises(BudgetExceeded, match="difference witness mod 17"):
        ss.c_difference_witness(C_HARD)
    monkeypatch.delenv("ATOMLEN_BUDGET")
    w1, w2 = ss.c_difference_witness(C_HARD)
    assert all((x - y) % 17 == t for x, y, t in zip(w1, w2, C_HARD))


def test_malformed_budget_is_rejected(monkeypatch):
    monkeypatch.setenv("ATOMLEN_BUDGET", "abc")
    with pytest.raises(AtomlenError, match="ATOMLEN_BUDGET"):
        ss.verify_sumset_equality("A", 3)
