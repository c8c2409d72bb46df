import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from coinflip import _scan
from coinflip._scan import (
    MAX_GRID_BYTES,
    Grid,
    counter_scan,
    grid_of,
    prefers_product,
    product_scan,
    scan_pairs,
)
from coinflip.lattice import Coord, FlipKind, flip_set, translate
from coinflip.oracle import (
    Placement,
    backend,
    move_plan,
    protrusions,
    solve,
    target_set,
)
from coinflip.shapes import hexagon, rhombus, triangle_up

point_sets = st.frozensets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)).map(lambda t: Coord(*t)),
    min_size=1,
    max_size=18,
)


def box_scan(start, flip):
    """Cross-check oracle: enumerate every shift inside the bounding box of
    all start/image coordinate differences and count overlap directly.
    Slower and structured differently from the production pair scan."""
    start = frozenset(start)
    image = flip_set(start, flip)
    a_lo = min(a for a, _ in start) - max(a for a, _ in image)
    a_hi = max(a for a, _ in start) - min(a for a, _ in image)
    b_lo = min(b for _, b in start) - max(b for _, b in image)
    b_hi = max(b for _, b in start) - min(b for _, b in image)
    best, shifts = 0, []
    for da in range(a_lo, a_hi + 1):
        for db in range(b_lo, b_hi + 1):
            overlap = len(start & translate(image, (da, db)))
            if overlap > best:
                best, shifts = overlap, [(da, db)]
            elif overlap == best and overlap > 0:
                shifts.append((da, db))
    return best, sorted(shifts)


def shifts_of(result):
    return [p.shift for p in result.optimal_placements]


# ---------------------------------------------------------------- headline


def test_single_coin_needs_no_moves():
    result = solve(triangle_up(1), FlipKind.ROTATE_180)
    assert result.min_moves == 0
    assert result.max_overlap == 1
    assert shifts_of(result) == [(0, 0)]


def test_triangle_2_moves_and_placements():
    result = solve(triangle_up(2), FlipKind.ROTATE_180)
    assert result.min_moves == 1
    assert shifts_of(result) == [(0, 1), (1, 0), (1, 1)]


def test_triangle_3_moves_and_placements():
    result = solve(triangle_up(3), FlipKind.ROTATE_180)
    assert result.min_moves == 2
    assert shifts_of(result) == [(1, 1), (1, 2), (2, 1)]


def test_triangle_4_unique_optimum():
    result = solve(triangle_up(4), FlipKind.ROTATE_180)
    assert result.total_coins == 10
    assert result.max_overlap == 7
    assert result.min_moves == 3
    assert shifts_of(result) == [(2, 2)]
    assert len(solve(triangle_up(4), FlipKind.ROTATE_180).optimal_placements) == 1


def test_triangle_5_has_three_optima_all_3_1_1():
    start = triangle_up(5)
    result = solve(start, FlipKind.ROTATE_180)
    assert result.min_moves == 5
    assert shifts_of(result) == [(2, 3), (3, 2), (3, 3)]
    for placement in result.optimal_placements:
        report = protrusions(start, placement, expected_parts=3, result=result)
        assert report.size_multiset == (3, 1, 1)


def test_triangle_8_decomposition():
    start = triangle_up(8)
    result = solve(start, FlipKind.ROTATE_180)
    assert result.min_moves == 12
    assert len(result.optimal_placements) == 3
    for placement in result.optimal_placements:
        report = protrusions(start, placement, expected_parts=3, result=result)
        assert report.size_multiset == (6, 3, 3)


def test_rhombus_headline_values():
    assert solve(rhombus(2), FlipKind.MIRROR_HORIZONTAL).min_moves == 1
    assert shifts_of(solve(rhombus(2), FlipKind.MIRROR_HORIZONTAL)) == [(1, 0), (2, 0)]
    r3 = solve(rhombus(3), FlipKind.MIRROR_HORIZONTAL)
    assert r3.min_moves == 2
    assert shifts_of(r3) == [(3, 0)]
    r4 = solve(rhombus(4), FlipKind.MIRROR_HORIZONTAL)
    assert r4.min_moves == 4
    assert shifts_of(r4) == [(4, 0), (5, 0)]
    r5 = solve(rhombus(5), FlipKind.MIRROR_HORIZONTAL)
    assert r5.min_moves == 6
    assert shifts_of(r5) == [(6, 0)]


def test_rhombus_protrusion_sizes():
    for n, expected in [(3, (1, 1)), (4, (3, 1)), (5, (3, 3))]:
        start = rhombus(n)
        result = solve(start, FlipKind.MIRROR_HORIZONTAL)
        for placement in result.optimal_placements:
            report = protrusions(start, placement, expected_parts=2, result=result)
            assert report.size_multiset == expected


def test_hexagons_need_no_moves_under_half_turn():
    for k in range(1, 5):
        result = solve(hexagon(k), FlipKind.ROTATE_180)
        assert result.min_moves == 0
        assert shifts_of(result) == [(0, 0)]


def test_solve_rejects_empty_input():
    with pytest.raises(ValueError):
        solve(frozenset(), FlipKind.ROTATE_180)


# ------------------------------------------------------------ cross-check


def corpus():
    shapes = []
    for n in range(1, 8):
        shapes.append(triangle_up(n))
    for n in range(1, 6):
        shapes.append(rhombus(n))
    for k in range(1, 4):
        shapes.append(hexagon(k))
    rng = random.Random(20240817)
    for _ in range(12):
        size = rng.randint(1, 16)
        pts = set()
        while len(pts) < size:
            pts.add(Coord(rng.randint(-5, 5), rng.randint(-5, 5)))
        shapes.append(frozenset(pts))
    return shapes


def test_oracle_matches_bounding_box_scan():
    for shape in corpus():
        for flip in FlipKind:
            best, shifts = box_scan(shape, flip)
            result = solve(shape, flip)
            assert result.max_overlap == best
            assert shifts_of(result) == shifts


def scan_inputs(shape, flip):
    start = sorted(shape)
    return start, sorted(flip.apply(c) for c in start)


def test_product_and_counter_kernels_agree():
    for shape in corpus():
        for flip in FlipKind:
            start, flipped = scan_inputs(shape, flip)
            assert product_scan(start, flipped) == counter_scan(start, flipped)


@given(
    point_sets,
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    st.sampled_from(list(FlipKind)),
)
@settings(max_examples=80, deadline=None)
def test_kernels_agree_on_shifted_shapes(points, offset, flip):
    start, flipped = scan_inputs(translate(points, offset), flip)
    assert product_scan(start, flipped) == counter_scan(start, flipped)


def line(n):
    return frozenset(Coord(a, 0) for a in range(n))


@pytest.mark.parametrize(
    "shape, cell_bytes",
    [
        (line(255), 1),  # overlap 255 fills a one-byte cell exactly
        (line(256), 2),
        (rhombus(16) - {Coord(0, 0)}, 1),  # 255 coins
        (rhombus(16), 2),  # 256 coins
    ],
)
def test_kernels_agree_at_the_cell_width_boundary(shape, cell_bytes):
    for flip in FlipKind:
        start, flipped = scan_inputs(shape, flip)
        assert grid_of(start, flipped).cell_bytes == cell_bytes
        assert product_scan(start, flipped) == counter_scan(start, flipped)


def test_product_kernel_counts_repeated_points():
    start, flipped = [(0, 0), (0, 0), (1, 0)], [(-1, 0), (0, 0)]
    best, keys = product_scan(start, flipped)
    assert (best, keys) == counter_scan(start, flipped)
    assert (best, list(map(grid_of(start, flipped).shift, keys))) == (3, [(1, 0)])


def scatter(coins, side, seed):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < coins:
        pts.add(Coord(rng.randrange(side), rng.randrange(side)))
    return frozenset(pts)


@pytest.mark.parametrize(
    "shape",
    [
        frozenset({Coord(0, 0), Coord(1, 0), Coord(2**40, 0)}),
        scatter(250, 2**13, 7),
        scatter(250, 200, 7),  # fits the byte cap, but the grid is too sparse
    ],
)
def test_sparse_shapes_stay_on_the_counter(shape):
    start, flipped = scan_inputs(shape, FlipKind.ROTATE_180)
    assert not prefers_product(grid_of(start, flipped), len(start) ** 2)


def test_byte_cap_bounds_the_grid():
    # a dense 2-byte grid just over and just under MAX_GRID_BYTES, with so
    # many pairs that only the cap can turn the product down
    cells_at_cap = MAX_GRID_BYTES // 2
    over = Grid(cells_at_cap + 1, 1, 1, 0, 0, 0, 0, cell_bytes=2)
    under = over._replace(width=cells_at_cap)
    assert not prefers_product(over, 10**15)
    assert prefers_product(under, 10**15)


def test_dense_shapes_take_the_product():
    for shape in (triangle_up(14), rhombus(40), hexagon(7), triangle_up(160)):
        start, flipped = scan_inputs(shape, FlipKind.ROTATE_180)
        assert prefers_product(grid_of(start, flipped), len(start) ** 2)


# Coordinates up to 2^40 in size, mixed with small ones so that some
# shapes are compact enough for the product kernel's grid.
far_coords = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
far_flung_sets = st.frozensets(
    st.tuples(far_coords, far_coords).map(lambda t: Coord(*t)),
    min_size=1,
    max_size=30,
)


@given(far_flung_sets, st.sampled_from(list(FlipKind)), st.data())
@settings(max_examples=150, deadline=None)
def test_far_flung_shapes_match_a_tuple_counter(points, flip, data):
    check_against_a_tuple_counter(points, flip, data)


@given(far_flung_sets, st.sampled_from(list(FlipKind)), st.data())
@settings(max_examples=150, deadline=None)
def test_banded_counter_matches_a_tuple_counter(points, flip, data):
    # 1 to 64 pairs per band: up to 900 bands on these shapes, where the
    # default BAND_PAIRS always scans them in one
    with patch.object(_scan, "BAND_PAIRS", data.draw(st.integers(1, 64))):
        check_against_a_tuple_counter(points, flip, data)


def check_against_a_tuple_counter(points, flip, data):
    start, flipped = scan_inputs(points, flip)
    counts = Counter((sa - fa, sb - fb) for sa, sb in start for fa, fb in flipped)
    best = max(counts.values())
    expected = sorted(t for t, c in counts.items() if c == best)
    grid = grid_of(start, flipped)
    overlap, keys = counter_scan(start, flipped)
    assert (overlap, list(map(grid.shift, keys))) == (best, expected)
    assert scan_pairs(start, flipped) == (best, keys, grid)

    placements = solve(points, flip).optimal_placements
    assert all(type(k) is int for k in placements.keys)
    assert placements.keys == sorted(set(placements.keys))
    assert [p.shift for p in placements] == expected
    image = flip_set(points, flip)
    for placement in placements:
        assert len(points & translate(image, placement.shift)) == best

    # the lazy view answers like the tuple it decodes to
    placed = tuple(Placement(flip, t) for t in expected)
    assert placements == placed
    assert len(placements) == len(placed)
    assert placements[0] == placed[0] and placements[-1] == placed[-1]
    i = data.draw(st.integers(-len(expected), len(expected) - 1))
    assert placements[i] == placed[i]
    assert all(p in placements for p in placed)
    a0, b0 = placements.grid.shift(0)
    width = placements.grid.width
    absent = [
        (a0 - 1, b0),
        (a0, b0 - 1),  # db - b0 below [0, H)
        (a0, b0 + width),  # db - b0 at H: its key aliases (a0 + 1, b0)
        (expected[-1][0] + 1, expected[-1][1]),
        (expected[0][0] - 1, expected[0][1] + width),
        data.draw(st.tuples(far_coords, far_coords)),
    ]
    for t in absent:
        assert (Placement(flip, t) in placements) == (t in expected)
    other = next(f for f in FlipKind if f != flip)
    assert Placement(other, expected[0]) not in placements
    for malformed in ("not a placement", (flip, "ab"), (flip, (0, 0, 0)), expected[0]):
        assert malformed not in placements

    # both kernels agree wherever the product's grid is small enough to build
    if grid.cells * grid.cell_bytes <= 1 << 16:
        assert product_scan(start, flipped) == counter_scan(start, flipped)


# ------------------------------------------------------------- properties


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=60, deadline=None)
def test_overlap_bounds_and_conservation(points, flip):
    result = solve(points, flip)
    assert 1 <= result.max_overlap <= result.total_coins
    assert result.min_moves + result.max_overlap == result.total_coins
    assert result.optimal_placements
    # shifts are unique and sorted
    shifts = shifts_of(result)
    assert shifts == sorted(set(shifts))


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=60, deadline=None)
def test_move_plan_reaches_the_target(points, flip):
    result = solve(points, flip)
    placement = result.optimal_placements[0]
    plan = move_plan(points, placement, result=result)
    assert len(plan.moves) == result.min_moves
    assert plan.apply(points) == target_set(points, placement)


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=60, deadline=None)
def test_flipping_the_flipped_shape_costs_the_same(points, flip):
    # solving from the image back to the original is the same problem
    image = flip_set(points, flip)
    assert solve(points, flip).min_moves == solve(image, flip).min_moves


def test_rot180_source_and_target_protrusions_match():
    # under a half turn the uncovered parts of start and image are congruent
    for shape in corpus():
        result = solve(shape, FlipKind.ROTATE_180)
        for placement in result.optimal_placements:
            report = protrusions(shape, placement, result=result)
            src = sorted(c.size for c in report.source_components)
            tgt = sorted(c.size for c in report.target_components)
            assert src == tgt


# ------------------------------------------------------------- move plans


def test_move_plan_triangle_2():
    start = triangle_up(2)
    result = solve(start, FlipKind.ROTATE_180)
    plan = move_plan(start, result.optimal_placements[0], result=result)
    assert len(plan.moves) == 1
    assert plan.apply(start) == target_set(start, result.optimal_placements[0])


def test_move_plan_empty_when_already_symmetric():
    start = hexagon(2)
    result = solve(start, FlipKind.ROTATE_180)
    plan = move_plan(start, result.optimal_placements[0], result=result)
    assert plan.moves == ()
    assert plan.apply(start) == start


def test_move_plan_rhombus_3_lands_on_mirror_image():
    start = rhombus(3)
    placement = Placement(FlipKind.MIRROR_HORIZONTAL, (3, 0))
    plan = move_plan(start, placement)
    assert len(plan.moves) == 2
    assert plan.apply(start) == target_set(start, placement)


def test_nonoptimal_placement_is_rejected():
    start = triangle_up(4)
    bad = Placement(FlipKind.ROTATE_180, (99, 99))
    with pytest.raises(ValueError, match="not optimal"):
        protrusions(start, bad)
    with pytest.raises(ValueError, match="not optimal"):
        move_plan(start, bad)


def test_far_flung_rejection_lists_few_shifts():
    start = scatter(120, 2**40, 11)
    result = solve(start, FlipKind.MIRROR_HORIZONTAL)
    assert len(result.optimal_placements) == 120 * 120
    bad = Placement(FlipKind.MIRROR_HORIZONTAL, (2**50, 0))
    with pytest.raises(ValueError, match="not optimal") as exc:
        move_plan(start, bad, result=result)
    message = str(exc.value)
    assert "the 14400 optimal shifts" in message
    assert str(result.optimal_placements[4].shift) in message
    assert str(result.optimal_placements[5].shift) not in message
    assert len(message) < 400


def test_placement_membership_checks_the_flip():
    result = solve(triangle_up(4), FlipKind.ROTATE_180)
    assert Placement(FlipKind.ROTATE_180, (2, 2)) in result.optimal_placements
    assert Placement(FlipKind.MIRROR_VERTICAL, (2, 2)) not in result.optimal_placements
    assert (2, 2) not in result.optimal_placements
    with pytest.raises(ValueError, match="not optimal"):
        move_plan(triangle_up(4), Placement(FlipKind.MIRROR_VERTICAL, (2, 2)), result=result)


def test_results_compare_and_hash_by_value():
    a = solve(triangle_up(5), FlipKind.ROTATE_180)
    b = solve(sorted(triangle_up(5)), FlipKind.ROTATE_180)
    assert a == b and hash(a) == hash(b)
    placements = tuple(a.optimal_placements)
    assert a.optimal_placements == placements
    assert hash(a.optimal_placements) == hash(placements)
    assert a != solve(triangle_up(5), FlipKind.MIRROR_VERTICAL)


def test_protrusions_reject_too_many_parts():
    # coins on the a-axis with all pairwise coordinate sums distinct: a half
    # turn can match at most two of them, so four isolated coins are left
    # over, which is more clusters than a triangle is allowed
    start = frozenset(Coord(a, 0) for a in (0, 2, 6, 14, 24, 40))
    result = solve(start, FlipKind.ROTATE_180)
    assert result.max_overlap == 2
    placement = result.optimal_placements[0]
    report = protrusions(start, placement, result=result)
    assert len(report.source_components) == 4
    with pytest.raises(ValueError, match="exceed"):
        protrusions(start, placement, expected_parts=3, result=result)


def test_protrusion_components_classify_for_triangles():
    start = triangle_up(8)
    result = solve(start, FlipKind.ROTATE_180)
    for placement in result.optimal_placements:
        report = protrusions(start, placement, expected_parts=3, result=result)
        for comp in report.source_components + report.target_components:
            assert comp.triangle is not None
            orient, k = comp.triangle
            assert orient in ("up", "down")
            assert comp.size == k * (k + 1) // 2


def test_triangle_zero_padding():
    report = protrusions(
        triangle_up(1), Placement(FlipKind.ROTATE_180, (0, 0)), expected_parts=3
    )
    assert report.size_multiset == (0, 0, 0)


# --------------------------------------------------------- flip symmetry


def test_rhombus_mirrors_agree_with_each_other():
    for n in range(1, 13):
        h = solve(rhombus(n), FlipKind.MIRROR_HORIZONTAL).min_moves
        v = solve(rhombus(n), FlipKind.MIRROR_VERTICAL).min_moves
        assert h == v


def test_triangle_rot_and_vertical_mirror_agree():
    # an up triangle is symmetric across its vertical median, so the
    # half-turn and the top-to-bottom mirror pose the same puzzle...
    for n in range(1, 13):
        rot = solve(triangle_up(n), FlipKind.ROTATE_180).min_moves
        mv = solve(triangle_up(n), FlipKind.MIRROR_VERTICAL).min_moves
        assert rot == mv


def test_degenerate_flips_cost_nothing():
    # ...and the left-to-right mirror maps it onto a translate of itself,
    # as does the half-turn for the centrally symmetric rhombus
    for n in range(1, 13):
        assert solve(triangle_up(n), FlipKind.MIRROR_HORIZONTAL).min_moves == 0
        assert solve(rhombus(n), FlipKind.ROTATE_180).min_moves == 0


def test_backend_reports_a_known_kernel():
    assert backend() == "pure"
