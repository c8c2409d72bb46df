"""A coin is an (a, b) pair, whatever iterable holds it.

Public functions take any iterable of (a, b) pairs: a frozenset is used
as it is, and anything else is converted once. These tests pass plain
lists and sets and check that each result equals the result for the
frozenset the shape builders return. A coin that is not a pair is
refused with ValueError.
"""

import pytest
from hypothesis import given, strategies as st

from coinflip.lattice import (
    NEIGHBOR_OFFSETS,
    Box,
    FlipKind,
    as_coin_set,
    classify_triangle,
    connected_components,
    flip_points,
)
from coinflip.oracle import Placement, move_plan, protrusions, solve, target_set
from coinflip.render import ascii_diagram, classify_cells, fits_svg, svg_diagram
from coinflip.shapes import rhombus, triangle_up

BLOB = frozenset(
    [(0, 0), (1, 0), (2, 0), (0, 1), (5, 5), (6, 4), (-3, 2), (-3, 3), (9, -1)]
)

CASES = [
    (triangle_up(5), FlipKind.ROTATE_180),
    (rhombus(4), FlipKind.MIRROR_HORIZONTAL),
    (BLOB, FlipKind.MIRROR_VERTICAL),
]


def plain_inputs(coins):
    """The same coins as a list and as a set."""
    pairs = sorted(coins)
    return [pairs, set(pairs)]


@pytest.mark.parametrize("shape, flip", CASES)
def test_solve_and_target_set_take_plain_pairs(shape, flip):
    expected = solve(shape, flip)
    for pairs in plain_inputs(shape):
        result = solve(pairs, flip)
        assert result == expected
        for placement in result.optimal_placements:
            assert target_set(pairs, placement) == target_set(shape, placement)


@pytest.mark.parametrize("shape, flip", CASES)
def test_protrusions_and_move_plan_return_coords(shape, flip):
    result = solve(shape, flip)
    placement = result.optimal_placements[-1]
    report = protrusions(shape, placement, result=result)
    plan = move_plan(shape, placement, result=result)
    for pairs in plain_inputs(shape):
        assert protrusions(pairs, placement, result=result) == report
        got_plan = move_plan(pairs, placement, result=result)
        assert got_plan == plan
        assert got_plan.apply(pairs) == plan.apply(shape)


@pytest.mark.parametrize("shape, flip", CASES)
def test_classify_cells_keys_are_coords(shape, flip):
    placement = solve(shape, flip).optimal_placements[0]
    target = target_set(shape, placement)
    expected = classify_cells(shape, target)
    for pairs, target_pairs in zip(plain_inputs(shape), plain_inputs(target)):
        assert classify_cells(pairs, target_pairs) == expected


def test_lattice_set_functions_return_coords():
    for pairs in plain_inputs(BLOB):
        for flip in FlipKind:
            assert sorted(flip_points(pairs, flip, (3, -4))) == sorted(
                flip_points(BLOB, flip, (3, -4))
            )
        assert connected_components(pairs) == connected_components(BLOB)
        assert Box.of(pairs) == Box.of(BLOB)


def test_as_coin_set_keeps_a_coord_frozenset():
    assert as_coin_set(BLOB) is BLOB
    assert as_coin_set(sorted(BLOB)) == BLOB
    assert as_coin_set([[1, 2], [1, 2]]) == {(1, 2)}


PLACED = Placement(FlipKind.ROTATE_180, (0, 0))
# a result under PLACED's flip, where PLACED is optimal for one coin
ONE_COIN = solve({(0, 0)}, PLACED.flip)

TAKES_COINS = {
    "solve": lambda coins: solve(coins, FlipKind.ROTATE_180),
    "target_set": lambda coins: target_set(coins, PLACED),
    "protrusions": lambda coins: protrusions(coins, PLACED, result=ONE_COIN),
    "move_plan": lambda coins: move_plan(coins, PLACED, result=ONE_COIN),
    "flip_points": lambda coins: flip_points(coins, FlipKind.ROTATE_180),
    "Box.of": Box.of,
    "connected_components": connected_components,
    "classify_triangle": classify_triangle,
    "ascii_diagram": lambda coins: ascii_diagram(coins, coins),
    "svg_diagram": lambda coins: svg_diagram(coins, coins),
    "fits_svg": fits_svg,
}


@pytest.mark.parametrize(
    "coins",
    # the last is an up triangle if only the first two fields are read
    [frozenset({(1, 2, 3)}), frozenset({(1,)}), frozenset({(0, 0), (1, 0), (0, 1, 5)})],
    ids=["triple", "single", "mixed"],
)
@pytest.mark.parametrize("name", TAKES_COINS)
def test_a_coin_that_is_not_a_pair_is_refused(name, coins):
    with pytest.raises(ValueError):
        TAKES_COINS[name](coins)


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
                q = (a + da, b + db)
                if q in remaining:
                    remaining.discard(q)
                    component.add(q)
                    stack.append(q)
        components.append(frozenset(component))
    components.sort(key=min)
    return components


point_sets = st.frozensets(
    st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
    max_size=60,
)
# one row and one column, whose b-span is 0 and 14
rows = st.frozensets(st.integers(-7, 7), max_size=15).map(lambda xs: frozenset((a, 3) for a in xs))
columns = st.frozensets(st.integers(-7, 7), max_size=15).map(lambda xs: frozenset((-2, b) for b in xs))
# clusters near 0 among coins spread over ±2^70
far_coords = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
far_flung = st.frozensets(st.tuples(far_coords, far_coords), max_size=40)


@given(st.one_of(point_sets, rows, columns, far_flung))
def test_components_match_the_set_based_search(points):
    expected = reference_components(points)
    assert connected_components(points) == expected  # same components, in the same order
    assert connected_components(sorted(points, reverse=True)) == expected
