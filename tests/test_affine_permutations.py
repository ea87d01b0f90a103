import itertools
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from atomlen import affine_permutations as ap
from atomlen.cli import main
from atomlen.errors import BadLength, BadSum, RankMismatch, ResidueClash


def random_window_strategy(max_n=7, span=4):
    """Windows built as t_x . wbar, so they are valid by construction."""

    @st.composite
    def build(draw):
        n = draw(st.integers(2, max_n))
        perm = draw(st.permutations(list(range(1, n + 1))))
        x = [draw(st.integers(-span, span)) for _ in range(n - 1)]
        x.append(-sum(x))
        win = tuple(perm[i] + n * x[perm[i] - 1] for i in range(n))
        return n, win

    return build()


def test_make_affine_validates():
    w = ap.make_affine(3, (1, 2, 3))
    assert w.window == (1, 2, 3)
    assert ap.make_affine(2, (3, 0)).window == (3, 0)
    with pytest.raises(ResidueClash):
        ap.make_affine(2, (2, 2))
    with pytest.raises(BadSum):
        ap.make_affine(2, (4, 1))
    with pytest.raises(BadLength):
        ap.make_affine(3, (1, 2))


def test_apply_periodicity():
    w = ap.make_affine(2, (3, 0))
    assert ap.apply(w, 3) == 5
    assert ap.apply(w, 0) == -2
    ident = ap.identity(3)
    assert ap.apply(ident, 7) == 7


@given(random_window_strategy())
def test_apply_is_bijection_on_a_window(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    images = [ap.apply(w, i) for i in range(1, 3 * n + 1)]
    assert len(set(images)) == len(images)


def test_compose_inverse():
    w = ap.make_affine(2, (3, 0))
    ident = ap.identity(2)
    assert ap.compose(ident, w) == w
    assert ap.inverse(ident) == ident
    assert ap.compose(w, ap.inverse(w)) == ident
    with pytest.raises(RankMismatch):
        ap.compose(w, ap.identity(3))


@given(random_window_strategy())
def test_inverse_composes_to_identity(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    assert ap.compose(ap.inverse(w), w) == ap.identity(n)


def test_decompose_examples():
    x, wbar = ap.decompose(ap.identity(4))
    assert x.coords == (0, 0, 0, 0) and wbar.images == (1, 2, 3, 4)
    # (3, 0) is the pure translation by (1, -1)
    x, wbar = ap.decompose(ap.make_affine(2, (3, 0)))
    assert x.coords == (1, -1) and wbar.images == (1, 2)
    # a mixed element: finite part is the transposition
    x, wbar = ap.decompose(ap.make_affine(2, (4, -1)))
    assert wbar.images == (2, 1) and x.coords == (-1, 1)


def test_pure_translation_decomposes_trivially():
    n = 4
    x = (1, 0, 0, -1)
    win = tuple(i + n * x[i - 1] for i in range(1, n + 1))
    got_x, wbar = ap.decompose(ap.make_affine(n, win))
    assert got_x.coords == x and wbar.images == (1, 2, 3, 4)


@given(random_window_strategy())
def test_decompose_recompose_roundtrip(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    x, wbar = ap.decompose(w)
    assert sum(x.coords) == 0
    assert ap.recompose(x, wbar) == w
    wbar2, y = ap.decompose_right(w)
    assert wbar2 == wbar
    assert tuple(x.coords[wbar.images[i] - 1] for i in range(n)) == y.coords


def test_entropy_examples():
    assert ap.entropy(ap.identity(5)) == 0
    assert ap.entropy(ap.make_affine(3, (2, 1, 3))) == 1
    assert ap.entropy(ap.make_affine(2, (3, 0))) == 4
    assert ap.atomic_length_rho(ap.make_affine(2, (3, 0))) == 4
    assert ap.atomic_length_rho(ap.identity(6)) == 0


@given(random_window_strategy())
def test_entropy_equals_atomic_length(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    assert ap.entropy(w) == ap.atomic_length_rho(w)


@given(random_window_strategy())
def test_entropy_of_inverse(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    assert ap.entropy(w) == ap.entropy(ap.inverse(w))


@given(random_window_strategy())
def test_entropy_zero_only_at_identity(nw):
    n, win = nw
    w = ap.make_affine(n, win)
    assert (ap.entropy(w) == 0) == (w == ap.identity(n))


def test_enumerate_bounded_counts():
    elems = list(ap.enumerate_bounded(2, 0))
    assert len(elems) == 2
    elems = list(ap.enumerate_bounded(3, 2))
    assert len(elems) == 42
    assert len(set(e.window for e in elems)) == 42
    for e in elems:
        ap.make_affine(e.n, e.window)  # closure under validation


def test_root_lattice_vectors_need_a_positive_rank():
    # rank 0 used to recurse until RecursionError
    for n in (0, -1):
        with pytest.raises(BadLength, match="rank must be positive"):
            ap.root_lattice_vectors(n, 0)
    assert ap.root_lattice_vectors(1, 5) == [(0,)]
    assert ap.root_lattice_vectors(2, 2) == [(0, 0), (-1, 1), (1, -1)]


def test_enumeration_order_is_deterministic():
    # identity first, then translations ascending by (norm, lex):
    # x = (-1,0,1) -> (-2,2,6), (-1,1,0) -> (-2,5,3), (0,-1,1) -> (1,-1,6), ...
    first = [e.window for e in itertools.islice(ap.enumerate_bounded(3, 2), 5)]
    assert first == [(1, 2, 3), (-2, 2, 6), (-2, 5, 3), (1, -1, 6), (1, 5, 0)]


def test_entropy_image_covers_initial_segment():
    wanted = set(range(201))
    for w in ap.enumerate_bounded(5, 60):
        wanted.discard(ap.entropy(w))
        if not wanted:
            break
    assert not wanted


def test_window_parsing(capsys):
    # --window is read by the CLI's one comma-separated integer parser
    assert main(["entropy", "--n", "2", "--window", "3,0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["window"] == [3, 0]
    assert main(["entropy", "--n", "2", "--window", " 4 , -1 "]) == 0
    assert capsys.readouterr().out == "9\n"
    assert main(["entropy", "--n", "2", "--window", "1,a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "expected comma-separated integers, got '1,a'\n"
