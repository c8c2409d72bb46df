"""The result records: their repr, read-only fields, and value equality."""

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
        "DivisionWitness": formulas.triangle_division(5),
        "ShapeSpec": shapes.ShapeSpec("triangle", 4),
        "Family": shapes.FAMILIES["rhombus"],
    }


COMPONENT = "Component(coins=frozenset({Coord(a=0, b=2)}), size=1, triangle=('up', 1))"

REPRS = {
    "OverlapResult": (
        "OverlapResult(total_coins=6, max_overlap=4, min_moves=2, optimal_placements="
        "Placements(FlipKind.ROTATE_180, [(1, 1), (1, 2), (2, 1)]))"
    ),
    "ProtrusionReport": (
        "ProtrusionReport(placement=Placement(flip=<FlipKind.ROTATE_180: 'rot180'>, "
        f"shift=(1, 1)), source_components=({COMPONENT}, "
        "Component(coins=frozenset({Coord(a=2, b=0)}), size=1, triangle=('up', 1))), "
        "target_components=(Component(coins=frozenset({Coord(a=-1, b=1)}), size=1, "
        "triangle=('up', 1)), Component(coins=frozenset({Coord(a=1, b=-1)}), size=1, "
        "triangle=('up', 1))), size_multiset=(1, 1, 0))"
    ),
    "Component": COMPONENT,
    "MovePlan": (
        "MovePlan(moves=((Coord(a=0, b=2), Coord(a=-1, b=1)), "
        "(Coord(a=2, b=0), Coord(a=1, b=-1))))"
    ),
    "Decomposition": "Decomposition(parts=(3, 1, 1), moves=5)",
    "DivisionWitness": "DivisionWitness(m=1, p=2)",
    "ShapeSpec": "ShapeSpec(kind='triangle', size=4, name='')",
}


@pytest.mark.parametrize("name", REPRS)
def test_repr_names_every_field(name):
    assert repr(records()[name]) == REPRS[name]


def test_custom_spec_repr():
    spec = shapes.ShapeSpec("custom", name="a.txt")
    assert repr(spec) == "ShapeSpec(kind='custom', size=0, name='a.txt')"


# a field of each record
FIELDS = {
    "OverlapResult": "min_moves",
    "ProtrusionReport": "size_multiset",
    "Component": "size",
    "MovePlan": "moves",
    "Decomposition": "moves",
    "DivisionWitness": "m",
    "ShapeSpec": "size",
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


# Unknown kinds and missing sizes are refused by tests/test_shapes.py.
def test_shape_spec_checks_a_replaced_field():
    with pytest.raises(ValueError, match="triangle size must be >= 1, got 0"):
        shapes.ShapeSpec("triangle", 4)._replace(size=0)
    assert shapes.ShapeSpec("triangle", 4)._replace(size=5) == shapes.ShapeSpec("triangle", 5)
