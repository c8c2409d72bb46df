"""Every coin a public function returns is a Coord, whatever pairs went in.

Inputs may be any iterable of (a, b) pairs; a frozenset of Coord is used
as it is and anything else is converted once. Internal sets hold plain
tuples, so these tests pass plain-tuple lists and sets and check both the
type of each returned coin and that the result equals the Coord result.
"""

import pytest
from hypothesis import given, strategies as st

from coinflip.lattice import (
    NEIGHBOR_OFFSETS,
    Coord,
    FlipKind,
    as_coin_set,
    connected_components,
    flip_set,
    translate,
)
from coinflip.oracle import move_plan, protrusions, solve, target_set
from coinflip.render import classify_cells
from coinflip.shapes import rhombus, triangle_up

BLOB = frozenset(
    Coord(a, b)
    for a, b in [(0, 0), (1, 0), (2, 0), (0, 1), (5, 5), (6, 4), (-3, 2), (-3, 3), (9, -1)]
)

CASES = [
    (triangle_up(5), FlipKind.ROTATE_180),
    (rhombus(4), FlipKind.MIRROR_HORIZONTAL),
    (BLOB, FlipKind.MIRROR_VERTICAL),
]


def plain_inputs(coins):
    """The same coins as a list and as a set of plain tuples."""
    pairs = [tuple(c) for c in sorted(coins)]
    return [pairs, set(pairs)]


def assert_coords(coins):
    coins = list(coins)
    assert coins
    assert all(type(c) is Coord for c in coins)


@pytest.mark.parametrize("shape, flip", CASES)
def test_solve_and_target_set_take_plain_pairs(shape, flip):
    expected = solve(shape, flip)
    for pairs in plain_inputs(shape):
        result = solve(pairs, flip)
        assert result == expected
        for placement in result.optimal_placements:
            target = target_set(pairs, placement)
            assert target == target_set(shape, placement)
            assert_coords(target)


@pytest.mark.parametrize("shape, flip", CASES)
def test_protrusions_and_move_plan_return_coords(shape, flip):
    result = solve(shape, flip)
    placement = result.optimal_placements[-1]
    report = protrusions(shape, placement, result=result)
    plan = move_plan(shape, placement, result=result)
    for pairs in plain_inputs(shape):
        got = protrusions(pairs, placement)
        assert got == report
        for component in got.source_components + got.target_components:
            assert_coords(component.coins)
        got_plan = move_plan(pairs, placement)
        assert got_plan == plan
        if plan.moves:
            assert_coords(c for move in got_plan.moves for c in move)
        assert got_plan.apply(pairs) == plan.apply(shape)
        assert_coords(got_plan.apply(pairs))


@pytest.mark.parametrize("shape, flip", CASES)
def test_classify_cells_keys_are_coords(shape, flip):
    placement = solve(shape, flip).optimal_placements[0]
    target = target_set(shape, placement)
    expected = classify_cells(shape, target)
    for pairs, target_pairs in zip(plain_inputs(shape), plain_inputs(target)):
        cells = classify_cells(pairs, target_pairs)
        assert cells == expected
        assert_coords(cells)


def test_lattice_set_functions_return_coords():
    for pairs in plain_inputs(BLOB):
        for flip in FlipKind:
            assert flip_set(pairs, flip) == flip_set(BLOB, flip)
            assert_coords(flip_set(pairs, flip))
        assert translate(pairs, (3, -4)) == translate(BLOB, (3, -4))
        assert_coords(translate(pairs, (3, -4)))
        components = connected_components(pairs)
        assert components == connected_components(BLOB)
        for component in components:
            assert_coords(component)


def test_as_coin_set_keeps_a_coord_frozenset():
    assert as_coin_set(BLOB) is BLOB
    mixed = frozenset(BLOB - {Coord(0, 0)}) | {(0, 0)}
    converted = as_coin_set(mixed)
    assert converted == BLOB and converted is not mixed
    assert_coords(converted)
    assert as_coin_set([[1, 2], [1, 2]]) == {Coord(1, 2)}


def reference_components(coins):
    """The set-based search connected_components used to run: a fresh
    min() seed per component and a final sort by smallest member."""
    remaining = set(coins)
    components = []
    while remaining:
        seed = min(remaining)
        remaining.discard(seed)
        component = {seed}
        stack = [seed]
        while stack:
            a, b = stack.pop()
            for da, db in NEIGHBOR_OFFSETS:
                q = Coord(a + da, b + db)
                if q in remaining:
                    remaining.discard(q)
                    component.add(q)
                    stack.append(q)
        components.append(frozenset(component))
    components.sort(key=min)
    return components


point_sets = st.frozensets(
    st.tuples(st.integers(-7, 7), st.integers(-7, 7)).map(lambda t: Coord(*t)),
    max_size=60,
)


@given(point_sets)
def test_components_match_the_set_based_search(points):
    expected = reference_components(points)
    got = connected_components(points)
    assert got == expected  # same components, in the same order
    for component in got:
        assert_coords(component)
    assert connected_components(sorted(map(tuple, points), reverse=True)) == expected
