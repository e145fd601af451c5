"""The value types behave as the frozen dataclasses they replace.

Each record is checked against a frozen dataclass with the same name,
fields and values, which is the reference for equality, hashing and repr.
"""

import dataclasses
from fractions import Fraction

import pytest

from treeclose.errors import Record, ValidationError
from treeclose.kclosure import Verdict
from treeclose.models.bass_serre import BSElement
from treeclose.models.constant_local import CLElement
from treeclose.models.cover import CoverElement, CycleGraph, FiniteAuto, StripAuto, StripGraph
from treeclose.models.full_aut import RigidElement
from treeclose.models.padic import LatticeClass, Mat2, PSL2Element
from treeclose.tree_core import ROOT, VertexAddr, identity_germ

_PAIRS = (((0, 1), (0, 1)), ((1, 1), (1, 1)))

# class, its field names in declaration order, one set of field values
HASHABLE = [
    (VertexAddr, ("word",), ((0, 1, 2),)),
    (RigidElement, ("germ",), (identity_germ(ROOT, 1, 3),)),
    (CLElement, ("word", "perm"), ((0, 1), (1, 0, 2))),
    (BSElement, ("segs", "tail"), (((1, 1), (0, -1)), 5)),
    (Mat2, ("a", "b", "c", "d"), (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(1))),
    (PSL2Element, ("mat",), (Mat2.of(1, 1, 0, 1),)),
    (LatticeClass, ("p", "alpha", "beta"), (2, 1, Fraction(1, 2))),
    (CycleGraph, ("p", "r"), (2, 5)),
    (StripGraph, ("p",), (2,)),
    (FiniteAuto, ("pairs",), (_PAIRS,)),
    (StripAuto, ("eps", "shift", "sigmas"), (-1, 3, ((0, (1, 0)),))),
    (CoverElement, ("auto", "anchor_image"), (FiniteAuto(_PAIRS), VertexAddr((1,)))),
]
VERDICT = (Verdict, ("outcome", "witness", "budget_used", "notes", "details"),
           ("holds", {"edge": ["ε", "0"]}, 3, ("note",), {"k": 1}))
CASES = HASHABLE + [VERDICT]


def _ids(cases):
    return [cls.__name__ for cls, _, _ in cases]


def _reference(name, fields, values):
    return dataclasses.make_dataclass(name, fields, frozen=True)(*values)


@pytest.mark.parametrize("cls, fields, values", CASES, ids=_ids(CASES))
def test_records_equal_by_class_and_fields(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert tuple(getattr(a, f) for f in fields) == values
    assert a == b and not a != b
    assert a != values
    other = type(cls.__name__, (Record,), {"_fields": fields})(*values)
    assert a != other and other != a


@pytest.mark.parametrize("cls, fields, values", HASHABLE, ids=_ids(HASHABLE))
def test_records_hash_as_the_tuple_of_their_fields(cls, fields, values):
    a = cls(*values)
    assert hash(a) == hash(cls(*values)) == hash(values)
    assert hash(a) == hash(_reference(cls.__name__, fields, values))
    assert len({a, cls(*values)}) == 1


def test_a_verdict_is_unhashable_as_its_dataclass_was():
    with pytest.raises(TypeError):
        hash(Verdict(*VERDICT[2]))


@pytest.mark.parametrize("cls, fields, values", CASES, ids=_ids(CASES))
def test_records_refuse_assignment(cls, fields, values):
    a = cls(*values)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, values[0])
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert tuple(getattr(a, f) for f in fields) == values


# VertexAddr prints its rendered address instead
DATACLASS_REPR = [case for case in CASES if case[0] is not VertexAddr]


@pytest.mark.parametrize("cls, fields, values", DATACLASS_REPR, ids=_ids(DATACLASS_REPR))
def test_records_print_as_dataclasses(cls, fields, values):
    assert repr(cls(*values)) == repr(_reference(cls.__name__, fields, values))


def test_vertex_addr_keeps_its_own_repr_and_default():
    assert repr(VertexAddr((0, 1, 2))) == "VertexAddr(0.1.2)"
    assert VertexAddr() == ROOT and VertexAddr().word == ()
    assert VertexAddr([0, 1]).word == (0, 1)


def test_verdicts_have_their_own_details():
    a, b = Verdict("holds"), Verdict("holds")
    a.details["k"] = 1
    assert b.details == {}
    assert (b.witness, b.budget_used, b.notes) == (None, 0, ())


@pytest.mark.parametrize("build, message", [
    (lambda: VertexAddr((0, 0)), "address not reduced: (0, 0)"),
    # reducedness is checked before the colours
    (lambda: VertexAddr((-1, -1)), "address not reduced: (-1, -1)"),
    (lambda: VertexAddr((0, -1)), "bad edge color -1"),
    (lambda: VertexAddr(("1",)), "bad edge color '1'"),
    (lambda: LatticeClass(2, 1, 2), "beta 2 outside [0, p^1)"),
    (lambda: LatticeClass(3, 0, -1), "beta -1 outside [0, p^0)"),
    (lambda: LatticeClass(2, 1, Fraction(1, 3)), "beta 1/3 has a non-p denominator"),
    (lambda: CycleGraph(0, 5), "need p >= 1 fibers and r >= 3 levels"),
    (lambda: CycleGraph(2, 2), "need p >= 1 fibers and r >= 3 levels"),
    (lambda: StripGraph(0), "need p >= 1 fibers"),
])
def test_records_validate_with_the_same_messages(build, message):
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_lattice_class_reads_beta_as_a_fraction():
    c = LatticeClass(2, 1, "1/2")
    assert c.beta == Fraction(1, 2) and type(c.beta) is Fraction
    assert c == LatticeClass(2, 1, Fraction(1, 2))
