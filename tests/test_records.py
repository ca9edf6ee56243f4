"""The record contract: the package's value types are immutable, copy and
pickle to equal values, print as ``Name(field=value, ...)`` and reject bad
input with the same error class and message in every version."""

import copy
import pickle
from fractions import Fraction

import pytest

from multispace.core import Component, FiniteUniverse, SubStructureReport
from multispace.errors import ContractError, ShapeError, SizeLimitError
from multispace.multimetric import MetricTable
from multispace.multivector import AmbientSpace

# (record, its field to assign, its repr)
RECORDS = [
    (FiniteUniverse(("a", "b")), "elements", "FiniteUniverse(elements=('a', 'b'))"),
    (
        Component("C", (0, 1), ("+",)),
        "carrier",
        "Component(name='C', carrier=(0, 1), op_names=('+',), double=False)",
    ),
    (
        MetricTable(("a", "b"), ((0, 1), (1, 0))),
        "d",
        "MetricTable(points=('a', 'b'), d=((Fraction(0, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(0, 1))))",
    ),
    (AmbientSpace(2, 3), "p", "AmbientSpace(p=2, n=3)"),
    (
        SubStructureReport(False, False, False, {"kind": "closure"}),
        "verdict",
        "SubStructureReport(verdict=False, by_component=False, by_closure=False, witness={'kind': 'closure'})",
    ),
]

IDS = [type(record).__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, field, text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(record, field, text):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert twin == record


@pytest.mark.parametrize("record, field, text", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(record, field, text):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record, field, text", RECORDS, ids=IDS)
def test_repr_names_every_field(record, field, text):
    assert repr(record) == text


def test_universe_copies_keep_indices_and_names():
    universe = FiniteUniverse.of("xyz")
    for twin in (copy.copy(universe), copy.deepcopy(universe), pickle.loads(pickle.dumps(universe))):
        assert twin.elements == ("x", "y", "z")
        assert list(twin) == [0, 1, 2] and len(twin) == 3 and "y" in twin


def test_metric_int_rows_are_stored_as_fractions():
    table = MetricTable(("a", "b"), ((0, 1), (1, 0)))
    assert all(type(x) is Fraction for row in table.d for x in row)
    assert table == MetricTable(("a", "b"), ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    assert table.dist("a", "b") / 2 == Fraction(1, 2)


BAD_INPUT = [
    (lambda: FiniteUniverse(("a", "a")), ContractError, "universe contains duplicate symbols"),
    (lambda: Component("C", (1, 0), ("+",)), ContractError, "component 'C': carrier must be sorted, duplicate-free"),
    (lambda: Component("C", (0,), ()), ContractError, "component 'C': needs at least one operation"),
    (
        lambda: Component("C", (0,), ("+",), True),
        ContractError,
        "component 'C': double components bind exactly two ops",
    ),
    (lambda: MetricTable(("a", "a"), ((0, 1), (1, 0))), ShapeError, "duplicate point labels"),
    (lambda: MetricTable(("a", "b"), ((0, 1),)), ShapeError, "distance grid is not 2x2"),
    (
        lambda: MetricTable(("a", "b"), ((0, 0.5), (0.5, 0))),
        ContractError,
        "distance 0.5 is not an exact rational",
    ),
    (lambda: AmbientSpace(4, 2), ContractError, "field order 4 is not prime"),
    (lambda: AmbientSpace(1, 2), ContractError, "field order 1 is not prime"),
    (lambda: AmbientSpace(2, 0), ContractError, "ambient dimension must be >= 1"),
    (
        lambda: AmbientSpace(2, 13),
        SizeLimitError,
        "ambient space enumerates p^n vectors; 2^13 = 8192 exceeds AMBIENT_SIZE_BOUND = 4096",
    ),
]


@pytest.mark.parametrize("make, error, message", BAD_INPUT)
def test_bad_input_raises_the_same_error(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message
