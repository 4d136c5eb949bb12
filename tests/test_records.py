"""The record types' contract: repr, equality, hashing, immutability,
keyword construction and constructor errors, for each of LatticeSignature,
DivClass, K0Class, MarkingGroup, QComponent, SurfaceData, HomDims, Move,
ReductionTrace and Report."""

from fractions import Fraction

import pytest

from ncsurf.lattice import DivClass, K0Class, LatticeSignature, SignatureMismatch, div
from ncsurf.marking import MarkingGroup, QComponent, SurfaceData
from ncsurf.opcases import Report
from ncsurf.sections import HomDims
from ncsurf.weyl import Move, ReductionTrace

SIG = LatticeSignature(1, "even")
D = DivClass((1, 0, -1), SIG)
E = DivClass((0, 1, -1), SIG)
SIG0 = LatticeSignature(0, "even")
NEG_K0 = DivClass((2, 2), SIG0)


def surface(q=(1,)):
    return SurfaceData(SIG0, [QComponent(NEG_K0, 1)], MarkingGroup(1), q, ((0,), (1,)))


# name: (instance, an equal one built by keywords, an unequal one, repr,
# the instance's fields and their values, in order, frozen)
RECORDS = {
    "LatticeSignature": (
        lambda: LatticeSignature(2, "even"),
        lambda: LatticeSignature(m=2, parity="even", genera=[0, 0]),
        lambda: LatticeSignature(2, "odd"),
        "LatticeSignature(m=2, parity='even', genera=(0, 0))",
        {"m": 2, "parity": "even", "genera": (0, 0)},
        True,
    ),
    "DivClass": (
        lambda: DivClass((1, 0, -1), SIG),
        lambda: DivClass(coeffs=[1, 0, -1], sig=LatticeSignature(1, "even")),
        lambda: DivClass((1, 0, -1), LatticeSignature(1, "odd")),
        "DivClass(s-e1)",
        {"coeffs": (1, 0, -1), "sig": SIG},
        True,
    ),
    "K0Class": (
        lambda: K0Class(1, D, 2),
        lambda: K0Class(rank=1, c1=DivClass((1, 0, -1), SIG), chi=2),
        lambda: K0Class(1, E, 2),
        "K0Class(rank=1, c1=DivClass(s-e1), chi=2)",
        {"rank": 1, "c1": D, "chi": 2},
        True,
    ),
    "MarkingGroup": (
        lambda: MarkingGroup(1, (3,)),
        lambda: MarkingGroup(free_rank=1, torsion=[Fraction(6, 2)]),
        lambda: MarkingGroup(1, (4,)),
        "MarkingGroup(free_rank=1, torsion=(3,))",
        {"free_rank": 1, "torsion": (3,)},
        True,
    ),
    "QComponent": (
        lambda: QComponent(D, 2),
        lambda: QComponent(cls=DivClass((1, 0, -1), SIG), mult=2),
        lambda: QComponent(D, 1),
        "QComponent(cls=DivClass(s-e1), mult=2)",
        {"cls": D, "mult": 2},
        True,
    ),
    "SurfaceData": (
        surface,
        lambda: SurfaceData(sig=SIG0, components=(QComponent(NEG_K0, 1),), marking=MarkingGroup(1),
                            q=[1], lam=([0], [1])),
        lambda: surface((2,)),
        "SurfaceData(sig=LatticeSignature(m=0, parity='even', genera=(0, 0)), "
        "components=(QComponent(cls=DivClass(2s+2f), mult=1),), "
        "marking=MarkingGroup(free_rank=1, torsion=()), q=(1,), lam=((0,), (1,)))",
        {"sig": SIG0, "components": (QComponent(NEG_K0, 1),), "marking": MarkingGroup(1), "q": (1,),
         "lam": ((0,), (1,))},
        True,
    ),
    "HomDims": (
        lambda: HomDims(1, 0, 2),
        lambda: HomDims(h0=1, h1=0, h2=2),
        lambda: HomDims(1, 2, 0),
        "HomDims(h0=1, h1=0, h2=2)",
        {"h0": 1, "h1": 0, "h2": 2},
        True,
    ),
    "Move": (
        lambda: Move("reflect", D, E),
        lambda: Move(kind="reflect", cls=D, after=E),
        lambda: Move("elementary_transformation", None, E),
        "Move(kind='reflect', cls=DivClass(s-e1), after=DivClass(f-e1))",
        {"kind": "reflect", "cls": D, "after": E},
        True,
    ),
    "ReductionTrace": (
        lambda: ReductionTrace(D),
        lambda: ReductionTrace(start=D, moves=[], end=None, blocked=False, blocking=None, cut=False,
                               terminal=None),
        lambda: ReductionTrace(D, cut=True),
        "ReductionTrace(start=DivClass(s-e1), moves=[], end=None, blocked=False, blocking=None, "
        "cut=False, terminal=None)",
        {"start": D, "moves": [], "end": None, "blocked": False, "blocking": None, "cut": False,
         "terminal": None},
        False,
    ),
    "Report": (
        lambda: Report("weyl", "equal", []),
        lambda: Report(case="weyl", verdict="equal", details=[]),
        lambda: Report("weyl", "counterexample", []),
        "Report(case='weyl', verdict='equal', details=[])",
        {"case": "weyl", "verdict": "equal", "details": []},
        False,
    ),
}
NAMES = sorted(RECORDS)
FROZEN = [name for name in NAMES if RECORDS[name][5]]
MUTABLE = [name for name in NAMES if not RECORDS[name][5]]


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    make, by_keywords, _, shown, _, _ = RECORDS[name]
    a = make()
    assert repr(a) == shown
    assert repr(by_keywords()) == shown
    if RECORDS[name][5]:
        hash(a)  # a cached hash is no field and stays out of the repr
    assert repr(a) == shown


@pytest.mark.parametrize("name", NAMES)
def test_equality(name):
    make, by_keywords, other, _, fields, _ = RECORDS[name]
    a, b, c = make(), by_keywords(), other()
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    assert all(getattr(a, k) == v for k, v in fields.items())
    # a record never equals a plain tuple of its fields, nor another class
    values = tuple(fields.values())
    assert a != values and values != a
    assert a.__eq__(values) is NotImplemented
    assert a.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_hash_by_their_fields(name):
    make, by_keywords, _, _, _, _ = RECORDS[name]
    a, b = make(), by_keywords()
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_refuse_assignment(name):
    a = RECORDS[name][0]()
    before = repr(a)
    field = next(iter(RECORDS[name][4]))
    with pytest.raises(AttributeError, match="cannot assign to field '%s'" % field):
        setattr(a, field, 0)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 0
    with pytest.raises(AttributeError, match="cannot delete field '%s'" % field):
        delattr(a, field)
    assert repr(a) == before


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    make, _, other, _, fields, _ = RECORDS[name]
    a = make()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    for field in fields:
        setattr(a, field, getattr(other(), field))
    assert a == other()


def test_trace_moves_default_to_a_fresh_list():
    a, b = ReductionTrace(D), ReductionTrace(D)
    a.moves.append(Move("elementary_transformation"))
    assert a.moves == [Move("elementary_transformation", None, None)] and b.moves == []


def test_divclass_coerces_its_coefficients():
    for coeffs in ([1, 0, -1], (Fraction(2, 2), 0.0, -1), (x for x in (1, 0, -1)), (True, False, -1)):
        got = DivClass(coeffs, SIG)
        assert got == D
        assert type(got.coeffs) is tuple and all(type(c) is int for c in got.coeffs)
    assert div(SIG, 1, 0, -1) == D


def test_integer_fields_are_coerced():
    sig = LatticeSignature(2.0, "even", (Fraction(2, 2), True))
    group, comp = MarkingGroup(1.0, (Fraction(6, 2),)), QComponent(D, 2.0)
    assert (sig.m, sig.genera, sig.rank, group.ngens, group.torsion, comp.mult) == (2, (1, 1), 4, 2, (3,), 2)
    assert all(type(n) is int for n in (sig.m, *sig.genera, group.free_rank, *group.torsion, comp.mult))


def test_group_scalars_are_integers():
    group = MarkingGroup(1, (4,))
    assert group.smul(Fraction(6, 2), (1, 3)) == (3, 1)
    with pytest.raises(ValueError, match="2.5 is not an integer"):
        group.smul(2.5, (2, 0))


@pytest.mark.parametrize("make, error, message", [
    (lambda: DivClass((1.7, 2, 3), SIG), ValueError, "1.7 is not an integer"),
    (lambda: DivClass((1.5, None, 3), SIG), ValueError, "1.5 is not an integer"),
    (lambda: DivClass((1, None, 3), SIG), TypeError, "NoneType"),
    (lambda: DivClass((1, "2", 3), SIG), ValueError, "'2' is not an integer"),
    (lambda: DivClass((1, float("nan"), 3), SIG), ValueError, "NaN"),
    (lambda: DivClass(5, SIG), TypeError, "not iterable"),
    (lambda: DivClass((1, 2), SIG), ValueError, "coefficient vector has length 2, signature needs 3"),
    (lambda: DivClass((1.5, 2), SIG), ValueError, "1.5 is not an integer"),
    (lambda: DivClass((1, 2, 3), (1, "even")), TypeError, r"expected a LatticeSignature, got \(1, 'even'\)"),
    (lambda: DivClass((1.5, 2, 3), None), TypeError, "expected a LatticeSignature, got None"),
    (lambda: LatticeSignature(-1, "even"), ValueError, "m must be >= 0"),
    (lambda: LatticeSignature(1, "neither"), ValueError, "parity must be 'even' or 'odd'"),
    (lambda: LatticeSignature(1, "odd", (0, -1)), ValueError, "genera must be nonnegative"),
    (lambda: LatticeSignature(2.5, "even"), ValueError, "2.5 is not an integer"),
    (lambda: LatticeSignature(2, "even", (0.5, 0)), ValueError, "0.5 is not an integer"),
    (lambda: LatticeSignature(2, "even", (0, "1")), ValueError, "'1' is not an integer"),
    (lambda: MarkingGroup(-1), ValueError, "free rank must be >= 0"),
    (lambda: MarkingGroup(1.5), ValueError, "1.5 is not an integer"),
    (lambda: MarkingGroup(1, (2.5,)), ValueError, "2.5 is not an integer"),
    (lambda: MarkingGroup(0, (1,)), ValueError, "torsion orders must be >= 2"),
    (lambda: QComponent(D, 0), ValueError, "component multiplicity must be >= 1"),
    (lambda: QComponent(-D, 1.5), ValueError, "1.5 is not an integer"),
    (lambda: SurfaceData(SIG0, (), MarkingGroup(1), (1, 2), ((0,), (1,))), ValueError,
     "element has 2 coordinates, group needs 1"),
])
def test_constructor_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_signature_mismatch_names_both_signatures():
    with pytest.raises(SignatureMismatch) as err:
        D + DivClass((1, 0, -1), LatticeSignature(1, "odd"))
    assert str(err.value) == (
        "cannot combine classes on different signatures: "
        "LatticeSignature(m=1, parity='even', genera=(0, 0)) vs "
        "LatticeSignature(m=1, parity='odd', genera=(0, 0))"
    )
