"""The library's records are immutable named tuples: validated ones check
their arguments on construction, every one is built by position or keyword,
keeps its defaults, refuses field assignment and prints as Name(field=...).
The library calls that validate their arguments refuse them the same way."""
import ast
import inspect
from fractions import Fraction

import pytest

from atomlen import affine_classical as ac
from atomlen import affine_permutations as ap
from atomlen import cores_abaci as ca
from atomlen import quadratic_forms as qf
from atomlen import sumsets
from atomlen.affine_classical import AffineLatticeSpec, TypeCAffineElement
from atomlen.cores_abaci import BetaAbacus, WeightSpec
from atomlen.errors import (BadEll, BadIndex, BadLength, DomainViolation,
                            MirrorViolation, NotInDs, RankMismatch)
from atomlen.finite_weyl import FiniteType, SignedPermutation


@pytest.mark.parametrize("build, error, message", [
    (lambda: FiniteType("E", 4), BadIndex, "unknown series 'E'"),
    (lambda: SignedPermutation(FiniteType("D", 3), (1, 2, 3), (-1, 1, 1)),
     BadIndex, "series D needs an even number of sign changes"),
    (lambda: WeightSpec(5, 3, (2, 4, 2)), BadLength,
     "charges must be sorted increasingly, got (2, 4, 2)"),
    (lambda: BetaAbacus(3, (5, 4)), BadLength,
     "beads must be sorted and distinct"),
    (lambda: TypeCAffineElement(2, (1, 4)), MirrorViolation,
     "entries of (1, 4) clash up to sign mod 5"),
    # a zero entry is reported before a clash (1 and 6 clash mod 7)
    (lambda: TypeCAffineElement(3, (1, 6, 7)), MirrorViolation,
     "entry 7 is 0 mod 7, clashing with the fixed point"),
    (lambda: AffineLatticeSpec("E8", 4), DomainViolation,
     "unknown affine type tag 'E8'"),
    (lambda: TypeCAffineElement(2, (1,)), BadLength,
     "reduced window needs 2 entries"),
    (lambda: AffineLatticeSpec("C1", 0), BadLength,
     "rank must be positive, got 0"),
    (lambda: BetaAbacus(3, (3, 5)), BadLength,
     "beads must lie above the threshold"),
    (lambda: WeightSpec(5, 3, (1, 2)), BadLength,
     "number of charges must equal the level"),
    (lambda: SignedPermutation(FiniteType("B", 3), (1, 1, 3), (1, 1, 1)),
     BadIndex, "perm (1, 1, 3) is not a permutation of 1..3"),
    (lambda: SignedPermutation(FiniteType("B", 3), (1, 2, 3), (1, 0, 1)),
     BadIndex, "bad sign vector (1, 0, 1)"),
    (lambda: SignedPermutation(FiniteType("A", 2), (1, 2, 3), (1, -1, 1)),
     BadIndex, "series A has no sign changes"),
    # sizes are read exactly: a float rank or level is refused, not kept
    (lambda: WeightSpec(3.0, 1, (0,)), BadLength,
     "n must be an integer, got 3.0"),
    (lambda: WeightSpec(3, 1.0, (0,)), BadEll,
     "level must be an integer, got 1.0"),
    (lambda: FiniteType("A", 3.0), BadLength,
     "rank must be an integer, got 3.0"),
])
def test_validated_records_reject_invalid_arguments(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("call, error, message", [
    (lambda: ac.from_displacement((1, 1)), DomainViolation,
     "(1, 1) violates the displacement congruences"),
    (lambda: ap.make_affine(0, ()), BadLength,
     "rank must be positive, got 0"),
    (lambda: ap.recompose(ap.TranslationVector(2, (1, -1)),
                          ap.FinitePermutation(3, (1, 2, 3))),
     RankMismatch, "ranks differ: 2 vs 3"),
    (lambda: list(ap.enumerate_bounded(1, 4)), BadLength,
     "rank must be >= 2, got 1"),
    (lambda: ca.is_n_core_hooks((2, 1), 1), BadLength, "need n >= 2, got 1"),
    (lambda: ca.is_n_core_abacus(BetaAbacus(0, (1, 2)), 1), BadLength,
     "need n >= 2, got 1"),
    (lambda: ca.is_ns_core(((1,), ()), (0, 1), 1), BadLength,
     "need n >= 2, got 1"),
    (lambda: ca.core_of_orbit_point(WeightSpec(3, 1, (0,)), (1, 1, 1)),
     NotInDs, "(1, 1, 1) is not in the charge orbit domain of "
              "WeightSpec(n=3, ell=1, charges=(0,))"),
    (lambda: ca.eval_dilated(WeightSpec(3, 1, (0,)), (0, 0)), BadLength,
     "need 3 coordinates"),
    (lambda: ca.eval_dilated(WeightSpec(3, 1, (0,)), (1, 0, 0)),
     DomainViolation, "(Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)) "
                      "is not on the dilated lattice"),
    (lambda: ca.eval_dilated(WeightSpec(3, 1, (0,)), (3, -1, -2)),
     DomainViolation, "(Fraction(3, 1), Fraction(-1, 1), Fraction(-2, 1)) "
                      "pulls back outside the charge domain"),
    (lambda: SignedPermutation(FiniteType("B", 2), (2, 1), (1, -1)).act(
        (1, 2, 3)), RankMismatch,
     "vector of length 3 for FiniteType(series='B', n=2)"),
    (lambda: qf.map_C_inv((1, 1)), DomainViolation,
     "(1, 1) is not a valid displacement vector, rank 2"),
    (lambda: qf.map_pr((1, 1)), DomainViolation,
     "(1, 1) is not a valid displacement vector, rank 2"),
    (lambda: qf.map_pr_inv((1, 0)), DomainViolation,
     "(1, 0) fails the projected congruence conditions"),
    # entries are read exactly: int() would truncate 1.2 and parse "1"
    (lambda: ap.make_affine(2, (1.2, 2.3)), DomainViolation,
     "window must be a sequence of integers, got (1.2, 2.3)"),
    (lambda: ap.make_affine(2, ("1", "2")), DomainViolation,
     "window must be a sequence of integers, got ('1', '2')"),
    (lambda: ap.make_affine(2, (Fraction(1), Fraction(2))), DomainViolation,
     "window must be a sequence of integers, got "
     "(Fraction(1, 1), Fraction(2, 1))"),
    (lambda: ca.as_partition((2.5, 1)), DomainViolation,
     "partition must be a sequence of integers, got (2.5, 1)"),
    (lambda: ca.phi(((1,),), (0.7,), 3), DomainViolation,
     "charges must be a sequence of integers, got (0.7,)"),
    (lambda: qf.attained_classes(-1, 5), DomainViolation,
     "arity must be >= 0, got -1"),
    (lambda: qf.represent(qf.form_Q(2)._replace(denom=0), qf.domain_Delta(2),
                          3, 2), DomainViolation,
     "form Q needs denom >= 1, got 0"),
    # sizes are read exactly: a float is refused with one line, where it
    # was kept or failed as a bare TypeError (the scan's scalars are in
    # test_quadratic_forms.py, refused before any budget charge)
    (lambda: qf.form_Q(2)._replace(denom=0).evaluate((1, 1)), DomainViolation,
     "form Q needs denom >= 1, got 0"),
    (lambda: ap.make_affine(2.0, (1, 2)), BadLength,
     "rank must be an integer, got 2.0"),
    (lambda: qf.attained_classes(2.5, 5), DomainViolation,
     "arity must be an integer, got 2.5"),
    (lambda: qf.attained_classes(2, 5.0), DomainViolation,
     "modulus must be an integer, got 5.0"),
    (lambda: ca.phi(((1,),), (0,), 3.0), BadLength,
     "n must be an integer, got 3.0"),
    (lambda: ca.phi_inverse(((1,),), (0,), 1.0), BadEll,
     "level must be an integer, got 1.0"),
    (lambda: ca.ns_core_of(((1,),), (0,), 3.0), BadLength,
     "n must be an integer, got 3.0"),
    (lambda: sumsets.hall_decompose(4.0, (1, 1, 1, 1)), BadLength,
     "m must be an integer, got 4.0"),
])
def test_library_calls_reject_invalid_arguments(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_no_prime_below_two():
    assert [p for p in range(12) if sumsets.is_prime(p)] == [2, 3, 5, 7, 11]


def test_validated_records_take_keywords():
    t = FiniteType(series="C", n=3)
    w = SignedPermutation(type=t, perm=(2, 1, 3), signs=(1, -1, 1))
    assert w == SignedPermutation(t, (2, 1, 3), (1, -1, 1))
    assert WeightSpec(n=5, ell=2, charges=(1, 3)).charges == (1, 3)
    assert BetaAbacus(threshold=0, beads=(2,)).charge == 1
    assert TypeCAffineElement(n=2, window=(1, 2)).window == (1, 2)
    assert AffineLatticeSpec(tag="C1", n=4).coxeter_number == 8


@pytest.mark.parametrize("record, field", [
    (FiniteType("B", 4), "n"),
    (qf.form_q(2), "lin"),
    (qf.domain_Delta(3), "label"),
    (qf.ReportEntry(1, "witness", (1,)), "status"),
])
def test_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_keyword_construction_and_defaults():
    entry = qf.ReportEntry(target=3, status="not-found")
    assert (entry.witness, entry.modulus, entry.residue) == (None, None, None)
    report = qf.UniversalityReport(form="Q", domain="Delta(3)", n=3, max_k=0,
                                   radius=1, grid="int", entries=(entry,))
    assert report.min_k == 0 and report.misses == (entry,)
    domain = qf.ConstrainedDomain("L", (2,))
    assert (domain.sum_target, domain.mod, domain.shifts, domain.signed,
            domain.parity_even, domain.projected) == (
        None, 1, (), False, False, False)
    # each record reads its coordinate count off its data
    assert domain.nvars == qf.FormSpec("Q", 1, (0, 0), 0, 2).nvars == 2
    # pinned, so that a new field is reviewed (and read: see below)
    assert qf.ConstrainedDomain._fields == (
        "label", "caps", "sum_target", "mod", "shifts", "signed",
        "parity_even", "projected")
    assert qf.FormSpec._fields == ("form_id", "quad", "lin", "const", "denom")


def test_replaced_domains_keep_their_fields():
    assert qf.domain_X(4)._asdict() == {
        "label": "X(4)", "caps": (1, 1, 1, 1),
        "sum_target": 0, "mod": 4, "shifts": (1, 2, 3, 4), "signed": False,
        "parity_even": False, "projected": True}
    assert qf.domain_Z_full(3)._asdict() == {
        "label": "Z^3", "caps": (4,), "sum_target": 0,
        "mod": 1, "shifts": (), "signed": False, "parity_even": False,
        "projected": True}
    assert qf.domain_X(4).nvars == qf.domain_Z_full(3).nvars == 4


def test_every_domain_field_is_read_by_the_engine():
    # membership, classes, search, witness checks and certificates read a
    # domain as `domain.<field>`; a field none of them reads decides nothing
    read = set()
    for fn in (qf._members, qf._class_list, qf._classes,
               qf._witnesses_at_radius, qf.represent_all, qf._certificates):
        read |= {node.attr for node in ast.walk(ast.parse(
                     inspect.getsource(fn)))
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "domain"}
    assert set(qf.ConstrainedDomain._fields) <= read


def test_repr_names_the_fields():
    assert repr(FiniteType("B", 4)) == "FiniteType(series='B', n=4)"
