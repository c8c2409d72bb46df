"""The result records: one named-tuple idiom, their repr, read-only
fields, and value equality."""

import weakref

import pytest

from coinflip import formulas, oracle, shapes
from coinflip.lattice import FlipKind

START = shapes.triangle_up(3)


def records():
    """One of each record, built afresh on every call."""
    result = oracle.solve(START, FlipKind.ROTATE_180)
    placement = result.optimal_placements[0]
    report = oracle.protrusions(START, placement, expected_parts=3, result=result)
    return {
        "OverlapResult": result,
        "ProtrusionReport": report,
        "Component": report.source_components[0],
        "MovePlan": oracle.move_plan(START, placement, result=result),
        "Decomposition": formulas.triangle_moves_new(5),
        "Family": shapes.FAMILIES["rhombus"],
    }


COMPONENT = "Component(coins=frozenset({(0, 2)}), size=1, triangle=('up', 1))"

REPRS = {
    "OverlapResult": (
        "OverlapResult(total_coins=6, max_overlap=4, min_moves=2, optimal_placements="
        "Placements(FlipKind.ROTATE_180, [(1, 1), (1, 2), (2, 1)]))"
    ),
    "ProtrusionReport": (
        "ProtrusionReport(placement=Placement(flip=<FlipKind.ROTATE_180: 'rot180'>, "
        f"shift=(1, 1)), source_components=({COMPONENT}, "
        "Component(coins=frozenset({(2, 0)}), size=1, triangle=('up', 1))), "
        "target_components=(Component(coins=frozenset({(-1, 1)}), size=1, "
        "triangle=('up', 1)), Component(coins=frozenset({(1, -1)}), size=1, "
        "triangle=('up', 1))), size_multiset=(1, 1, 0))"
    ),
    "Component": COMPONENT,
    "MovePlan": "MovePlan(moves=(((0, 2), (-1, 1)), ((2, 0), (1, -1))))",
    "Decomposition": "Decomposition(parts=(3, 1, 1), moves=5)",
}


@pytest.mark.parametrize("name", list(records()))
def test_every_record_is_a_named_tuple(name):
    record = records()[name]
    assert isinstance(record, tuple) and hasattr(record, "_fields")
    assert type(record)._make(record) == record


def test_a_result_lets_its_placements_be_weakly_referenced():
    # the analyze test in tests/test_bands.py checks each flip's tie keys
    # are freed through this reference
    result = records()["OverlapResult"]
    ref = weakref.ref(result.optimal_placements)
    assert ref() is result.optimal_placements
    del result
    assert ref() is None


@pytest.mark.parametrize("name", REPRS)
def test_repr_names_every_field(name):
    assert repr(records()[name]) == REPRS[name]


# a field of each record
FIELDS = {
    "OverlapResult": "min_moves",
    "ProtrusionReport": "size_multiset",
    "Component": "size",
    "MovePlan": "moves",
    "Decomposition": "moves",
    "Family": "divisor",
}


@pytest.mark.parametrize("name", FIELDS)
def test_fields_are_read_only(name):
    record = records()[name]
    before = getattr(record, FIELDS[name])
    with pytest.raises(AttributeError):
        setattr(record, FIELDS[name], None)
    assert getattr(record, FIELDS[name]) == before


# Family is left out: FAMILIES holds its only instances.
@pytest.mark.parametrize("name", REPRS)
def test_equal_values_are_equal_and_hash_alike(name):
    a, b = records()[name], records()[name]
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)

