"""The immutable value classes ``Triangle`` and ``PolyFamily``: positional
construction, equality and hashing by value, and no assignment."""

import copy
import pickle

import pytest

from degenpoly.algebra import LambdaPoly, XPoly
from degenpoly.families import PolyFamily
from degenpoly.triangles import Triangle

ROWS = ((LambdaPoly.one(),), (LambdaPoly.zero(), LambdaPoly.one()))
POLYS = (XPoly.one(), XPoly.var())

VALUES = [
    pytest.param(Triangle, ("s2deg", 1, ROWS), "rows", id="Triangle"),
    pytest.param(PolyFamily, ("degbell", 1, POLYS), "polys", id="PolyFamily"),
]


@pytest.mark.parametrize("cls, fields, third", VALUES)
def test_positional_construction_and_equality(cls, fields, third):
    value = cls(*fields)
    assert (value.kind, value.order, getattr(value, third)) == fields
    assert value == cls(*fields)
    assert not value != cls(*fields)
    kind, order, entries = fields
    assert value != cls("other", order, entries)
    assert value != cls(kind, order + 1, entries)
    assert value != cls(kind, order, entries[:1])


@pytest.mark.parametrize("cls, fields, third", VALUES)
def test_equal_values_hash_equal(cls, fields, third):
    assert hash(cls(*fields)) == hash(cls(*fields))
    assert len({cls(*fields), cls(*fields)}) == 1


def test_the_two_classes_never_compare_equal():
    fields = ("k", 0, ())
    assert Triangle(*fields) != PolyFamily(*fields)
    assert PolyFamily(*fields) != Triangle(*fields)
    assert Triangle(*fields) != fields


@pytest.mark.parametrize("cls, fields, third", VALUES)
def test_assignment_raises_attribute_error(cls, fields, third):
    value = cls(*fields)
    for name in ("kind", "order", third, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):
        del value.kind
    assert (value.kind, value.order, getattr(value, third)) == fields


@pytest.mark.parametrize("cls, fields, third", VALUES)
def test_copies_and_pickles_are_equal_values(cls, fields, third):
    value = cls(*fields)
    for clone in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(clone) is cls and clone == value
