import math
import random
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from coinflip import _scan
from coinflip._scan import (
    MAX_GRID_BYTES,
    Grid,
    PairKeys,
    box_grid,
    counter_scan,
    difference_scan,
    kernel_for,
    point_keys,
    product_scan,
    scan_pairs,
)
from coinflip.lattice import NEIGHBOR_OFFSETS, Box, FlipKind, connected_components, flip_points
from coinflip.oracle import (
    MovePlan,
    Placement,
    Placements,
    _size_multiset,
    backend,
    move_plan,
    protrusion_sizes,
    protrusions,
    solve,
    target_set,
)
from coinflip.shapes import FAMILIES, build, hexagon, rhombus, triangle_up
from test_bands import hull_grid

point_sets = st.frozensets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    min_size=1,
    max_size=18,
)


def box_scan(start, flip):
    """Cross-check oracle: enumerate every shift inside the bounding box of
    all start/image coordinate differences and count overlap directly.
    Slower and structured differently from the production pair scan."""
    start = frozenset(start)
    image = target_set(start, Placement(flip, (0, 0)))
    a_lo = min(a for a, _ in start) - max(a for a, _ in image)
    a_hi = max(a for a, _ in start) - min(a for a, _ in image)
    b_lo = min(b for _, b in start) - max(b for _, b in image)
    b_hi = max(b for _, b in start) - min(b for _, b in image)
    best, shifts = 0, []
    for da in range(a_lo, a_hi + 1):
        for db in range(b_lo, b_hi + 1):
            overlap = len(start & target_set(start, Placement(flip, (da, db))))
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
            pts.add((rng.randint(-5, 5), rng.randint(-5, 5)))
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
    """The shape's sorted coins, their sorted image under `flip`, and the
    grid that solve() scans them on."""
    start = sorted(shape)
    return start, sorted(flip_points(start, flip)), box_grid(Box.of(start), flip)


def in_order(scan):
    """A kernel's (best, keys) with its keys sorted, after checking that
    each tied key comes out once, and a list of them ascending."""
    best, keys = scan
    assert len(set(keys)) == len(keys)
    assert isinstance(keys, PairKeys) or keys == sorted(keys)
    return best, sorted(keys)


def assert_kernels_agree(start, flipped, grid):
    product = in_order(product_scan(point_keys(start, flipped, grid)))
    assert product == in_order(counter_scan(point_keys(start, flipped, grid)))


def test_product_and_counter_kernels_agree():
    for shape in corpus():
        for flip in FlipKind:
            assert_kernels_agree(*scan_inputs(shape, flip))


@given(
    point_sets,
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
    st.sampled_from(list(FlipKind)),
)
@settings(max_examples=80, deadline=None)
def test_kernels_agree_on_shifted_shapes(points, offset, flip):
    # a flipped shape is as good a shape; this one sits near the offset
    assert_kernels_agree(*scan_inputs(target_set(points, Placement(flip, offset)), flip))


def line(n):
    return frozenset((a, 0) for a in range(n))


@pytest.mark.parametrize(
    "shape, cell_bytes",
    [
        (line(255), 1),  # overlap 255 fills a one-byte cell exactly
        (line(256), 2),
        (rhombus(16) - {(0, 0)}, 1),  # 255 coins
        (rhombus(16), 2),  # 256 coins
        # two unequal sets on their own hulls, the only scans in which
        # isqrt(pairs) exceeds min(|S|, |F|), the most a cell counts
        ((sorted(line(255)), sorted(line(257))), 1),
        ((sorted(line(256)), sorted(line(300))), 2),
    ],
)
def test_kernels_agree_at_the_cell_width_boundary(shape, cell_bytes):
    if isinstance(shape, tuple):
        scans = [(*shape, hull_grid(*shape))]
    else:
        scans = [scan_inputs(shape, flip) for flip in FlipKind]
    for start, flipped, grid in scans:
        assert _scan._cell_bytes(len(start) * len(flipped)) == cell_bytes
        assert_kernels_agree(start, flipped, grid)


def test_the_cell_width_follows_the_pair_count():
    widths = [_scan._cell_bytes(n**2) for n in (255, 256, 65535, 65536)]
    assert widths == [1, 2, 2, 4]


def scatter(coins, side, seed):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < coins:
        pts.add((rng.randrange(side), rng.randrange(side)))
    return frozenset(pts)


@pytest.mark.parametrize(
    "shape",
    [
        frozenset({(0, 0), (1, 0), (2**40, 0)}),
        scatter(250, 2**13, 7),
        scatter(250, 200, 7),  # fits the byte cap, but the grid is too sparse
    ],
)
def test_sparse_shapes_stay_on_the_counter(shape):
    start, _, grid = scan_inputs(shape, FlipKind.ROTATE_180)
    assert kernel_for(grid, len(start) ** 2) is difference_scan


def test_byte_cap_bounds_the_grid():
    # a dense 2-byte grid just over and just under MAX_GRID_BYTES, with so
    # many pairs that only the cap can turn the product down
    pairs = 65535**2
    assert _scan._cell_bytes(pairs) == 2
    cells_at_cap = MAX_GRID_BYTES // 2
    over = Grid(cells_at_cap + 1, 1, 1, 0, 0, 0, 0)
    under = over._replace(width=cells_at_cap)
    assert _scan._product_ns(over, pairs) == math.inf
    assert kernel_for(under, pairs) is product_scan


def test_dense_shapes_take_the_product():
    for shape in (triangle_up(14), rhombus(40), hexagon(7), triangle_up(160)):
        start, _, grid = scan_inputs(shape, FlipKind.ROTATE_180)
        assert kernel_for(grid, len(start) ** 2) is product_scan
    # every family size the benchmark solves (up to 14 rows, hexagon 7) and
    # tier-1's largest, under every flip, read from the box and coin count
    for name, sizes in (("triangle", (*range(1, 15), 40)),
                        ("rhombus", (*range(1, 15), 40)),
                        ("hexagon", (*range(1, 8), 20))):
        family = FAMILIES[name]
        for n in sizes:
            for flip in FlipKind:
                grid = box_grid(family.box(n), flip)
                kernel = kernel_for(grid, family.coin_count(n) ** 2)
                assert kernel is product_scan, (name, n, flip)


def test_the_kernel_that_ran_follows_from_the_result():
    # kernel_for on the result's grid and pair count names the kernel that
    # solve ran, so a report can say which one it was
    ran = Counter()
    for shape in (*corpus(), scatter(40, 2**40, 7)):
        for flip in FlipKind:
            with (
                patch.object(_scan, "product_scan", wraps=product_scan) as product,
                patch.object(_scan, "difference_scan", wraps=difference_scan) as pair,
            ):
                result = solve(shape, flip)
            calls = {product_scan: product.call_count, difference_scan: pair.call_count}
            kernel = kernel_for(result.optimal_placements.grid, result.total_coins**2)
            assert calls[kernel] == 1 and sum(calls.values()) == 1
            ran[kernel] += 1
    assert ran[product_scan] and ran[difference_scan]


# Coordinates up to 2^40 in size, mixed with small ones so that some
# shapes are compact enough for the product kernel's grid.
far_coords = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
far_flung_sets = st.frozensets(
    st.tuples(far_coords, far_coords),
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


def accepts(points, placement, result) -> bool:
    """Whether move_plan takes `placement` as optimal for `result`."""
    try:
        move_plan(points, placement, result=result)
    except ValueError:
        return False
    return True


def check_against_a_tuple_counter(points, flip, data):
    start, flipped, grid = scan_inputs(points, flip)
    counts = Counter((sa - fa, sb - fb) for sa, sb in start for fa, fb in flipped)
    best = max(counts.values())
    expected = sorted(t for t, c in counts.items() if c == best)
    overlap, keys = in_order(counter_scan(point_keys(start, flipped, grid)))
    assert (overlap, list(map(grid.shift, keys))) == (best, expected)
    assert in_order(scan_pairs(start, flipped, grid)[:2]) == (best, keys)

    result = solve(points, flip)
    placements = result.optimal_placements
    assert placements.grid == grid
    assert all(type(k) is int for k in placements.keys)
    assert placements.keys == sorted(set(placements.keys))
    assert [p.shift for p in placements] == expected
    for placement in placements:
        assert len(points & target_set(points, placement)) == best

    # the lazy view answers like the tuple it decodes to
    placed = tuple(Placement(flip, t) for t in expected)
    assert placements == placed
    assert len(placements) == len(placed)
    assert placements[0] == placed[0] and placements[-1] == placed[-1]
    i = data.draw(st.integers(-len(expected), len(expected) - 1))
    assert placements[i] == placed[i]
    bound = st.none() | st.integers(-len(expected) - 1, len(expected) + 1)
    step = st.none() | st.integers(-3, 3).filter(bool)
    s = slice(data.draw(bound), data.draw(bound), data.draw(step))
    assert placements[s] == tuple(placements)[s]

    # the program's own optimality check accepts exactly the tied shifts:
    # the first and last, their six neighbours, and one drawn far away
    ends = (expected[0], expected[-1])
    probes = [*ends, data.draw(st.tuples(far_coords, far_coords))]
    probes += [(a + da, b + db) for a, b in ends for da, db in NEIGHBOR_OFFSETS]
    for t in probes:
        assert accepts(points, Placement(flip, t), result) == (t in expected)
    other = next(f for f in FlipKind if f != flip)
    assert not accepts(points, Placement(other, expected[0]), result)

    # both kernels agree wherever the product's grid is small enough to build
    if grid.cells * _scan._cell_bytes(len(start) * len(flipped)) <= 1 << 16:
        assert_kernels_agree(start, flipped, grid)


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
    image = target_set(points, Placement(flip, (0, 0)))
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
    plan = move_plan(start, placement, result=solve(start, placement.flip))
    assert len(plan.moves) == 2
    assert plan.apply(start) == target_set(start, placement)


def test_moves_onto_cells_that_other_moves_empty_apply():
    start = {(0, 0), (1, 0)}
    swap = MovePlan(moves=(((0, 0), (1, 0)), ((1, 0), (0, 0))))
    assert swap.apply(start) == start
    chain = MovePlan(moves=(((0, 0), (1, 0)), ((1, 0), (2, 0))))
    assert chain.apply(start) == {(1, 0), (2, 0)}


@pytest.mark.parametrize(
    "moves, reason",
    [
        ((((0, 0), (1, 0)),), "a destination holds a coin that stays"),
        ((((0, 0), (5, 5)), ((0, 0), (6, 6))), "a coin moves twice"),
        ((((0, 0), (5, 5)), ((1, 0), (5, 5))), "two coins move to one cell"),
        ((((2, 2), (5, 5)),), "missing source coins"),
    ],
    ids=["onto-a-stay", "repeated-source", "repeated-destination", "missing-source"],
)
def test_a_plan_that_would_create_or_destroy_coins_does_not_apply(moves, reason):
    with pytest.raises(ValueError, match=f"plan does not apply: {reason}"):
        MovePlan(moves=moves).apply({(0, 0), (1, 0)})


def test_nonoptimal_placement_is_rejected():
    start = triangle_up(4)
    bad = Placement(FlipKind.ROTATE_180, (99, 99))
    result = solve(start, bad.flip)
    with pytest.raises(ValueError, match="not optimal"):
        protrusions(start, bad, result=result)
    with pytest.raises(ValueError, match="not optimal"):
        move_plan(start, bad, result=result)


def test_far_flung_rejection_lists_few_shifts():
    start = scatter(120, 2**40, 11)
    result = solve(start, FlipKind.MIRROR_HORIZONTAL)
    keys = result.optimal_placements._keys
    assert isinstance(keys, PairKeys)
    # the same keys, through a spy that counts how often they are iterated
    spy = CountedPairKeys(keys.ks, keys.kfs, keys.half)
    placements = Placements(FlipKind.MIRROR_HORIZONTAL, spy, result.optimal_placements.grid, spy)
    result = result._replace(optimal_placements=placements)
    assert len(placements) == 120 * 120
    bad = Placement(FlipKind.MIRROR_HORIZONTAL, (2**50, 0))
    with pytest.raises(ValueError, match="not optimal") as exc:
        move_plan(start, bad, result=result)
    # the rejection neither listed nor regenerated the 14,400 tied keys
    assert spy.iterations == 0 and placements._keys is spy
    message = str(exc.value)
    assert "the 14400 optimal shifts" in message
    assert str(placements[4].shift) in message
    assert str(placements[5].shift) not in message
    assert len(message) < 400
    shown = ", ".join(str(p.shift) for p in placements[:5])
    assert message == f"placement {bad} is not optimal; the 14400 optimal shifts are [{shown}, ...]"


@given(point_sets, st.sampled_from(list(FlipKind)), st.data())
@settings(max_examples=60, deadline=None)
def test_a_shift_is_accepted_exactly_when_it_ties(points, flip, data):
    # move_plan accepts a placement by the number of coins it moves: over
    # the difference window, that must pick out exactly the tied shifts
    result = solve(points, flip)
    optimal = shifts_of(result)
    image = target_set(points, Placement(flip, (0, 0)))

    def window(axis):
        lo = min(p[axis] for p in points) - max(p[axis] for p in image)
        hi = max(p[axis] for p in points) - min(p[axis] for p in image)
        return st.integers(lo, hi)

    sampled = data.draw(st.lists(st.tuples(window(0), window(1)), min_size=50, max_size=50))
    for t in optimal + sampled:
        try:
            move_plan(points, Placement(flip, t), result=result)
            accepted = True
        except ValueError as exc:
            assert "not optimal" in str(exc)
            accepted = False
        assert accepted == (t in optimal)


def test_placement_membership_checks_the_flip():
    result = solve(triangle_up(4), FlipKind.ROTATE_180)
    assert Placement(FlipKind.ROTATE_180, (2, 2)) in result.optimal_placements
    assert Placement(FlipKind.MIRROR_VERTICAL, (2, 2)) not in result.optimal_placements
    assert (2, 2) not in result.optimal_placements
    with pytest.raises(ValueError, match="not optimal"):
        move_plan(triangle_up(4), Placement(FlipKind.MIRROR_VERTICAL, (2, 2)), result=result)


def test_a_result_for_another_flip_is_named_in_the_rejection():
    result = solve(triangle_up(4), FlipKind.MIRROR_HORIZONTAL)
    with pytest.raises(ValueError, match="not optimal") as exc:
        protrusions(triangle_up(4), Placement(FlipKind.ROTATE_180, (2, 2)), result=result)
    assert "rot180" in str(exc.value) and "mirror-h" in str(exc.value)
    assert "(3, 0)" not in str(exc.value)


def test_results_compare_and_hash_by_value():
    a = solve(triangle_up(5), FlipKind.ROTATE_180)
    b = solve(sorted(triangle_up(5)), FlipKind.ROTATE_180)
    assert a == b and hash(a) == hash(b)
    placements = tuple(a.optimal_placements)
    assert a.optimal_placements == placements
    assert hash(a.optimal_placements) == hash(placements)
    assert a != solve(triangle_up(5), FlipKind.MIRROR_VERTICAL)


UNSORTED_KEYS = [30, 6, 33, 3, 36, 9]
ASCENDING_KEYS = sorted(UNSORTED_KEYS)
KEY_GRID = Grid(
    width=7, start_rows=5, flipped_rows=5,
    start_a=0, start_b=0, flipped_a=0, flipped_b=0,
)
# coin keys whose pairs sum to the keys above
KEY_PAIRS = PairKeys([0, 27], [3, 6, 9], False)


def listed_placements():
    """Placements over an ascending list of keys, as the kernels return
    them, and the list it holds."""
    keys = list(ASCENDING_KEYS)
    return Placements(FlipKind.MIRROR_VERTICAL, keys, KEY_GRID, KEY_PAIRS), keys


class CountedPairKeys(PairKeys):
    """A PairKeys that counts how often it is iterated."""

    __slots__ = ("iterations",)

    def __init__(self, *args):
        super().__init__(*args)
        self.iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def all_pairs_placements():
    """Placements over UNSORTED_KEYS in the form counter_scan returns when
    every pair ties, each with the PairKeys it holds: a full count (0 and
    27 against 3, 6 and 9) and a half count (the pairs of 0, 3, 6 and 30),
    each iterating the keys out of order."""
    for ks, kfs, half in (([0, 27], [3, 6, 9], False), ([0, 3, 6, 30], [0, 3, 6, 30], True)):
        keys = CountedPairKeys(ks, kfs, half)
        assert sorted(keys) == ASCENDING_KEYS and list(keys) != ASCENDING_KEYS
        keys.iterations = 0
        yield Placements(FlipKind.MIRROR_VERTICAL, keys, KEY_GRID, keys), keys


ASCENDING = tuple(
    Placement(FlipKind.MIRROR_VERTICAL, KEY_GRID.shift(k)) for k in ASCENDING_KEYS
)


def test_len_and_the_first_placement_leave_the_keys_unsorted():
    placements, keys = listed_placements()
    assert len(placements) == len(UNSORTED_KEYS)
    assert placements[0] == ASCENDING[0]
    assert placements.keys is keys and keys == ASCENDING_KEYS
    # a list is held as given: Placements never reorders it
    keys = list(UNSORTED_KEYS)
    placements = Placements(FlipKind.MIRROR_VERTICAL, keys, KEY_GRID, KEY_PAIRS)
    assert placements.keys is keys and keys == UNSORTED_KEYS
    for placements, keys in all_pairs_placements():
        assert len(placements) == len(UNSORTED_KEYS)
        assert placements[0] == ASCENDING[0]
        assert keys.iterations == 0 and placements._keys is keys


@pytest.mark.parametrize(
    "read, expected",
    [
        (lambda p: list(map(KEY_GRID.shift, p.keys)), [q.shift for q in ASCENDING]),
        (lambda p: p[1], ASCENDING[1]),
        (lambda p: p[-1], ASCENDING[-1]),
        (lambda p: tuple(p), ASCENDING),
        (lambda p: tuple(p[2:5]), ASCENDING[2:5]),
        (lambda p: tuple(p[::-1]), ASCENDING[::-1]),
        (lambda p: tuple(p[5:1:-2]), ASCENDING[5:1:-2]),
        (lambda p: p[::-1][0], ASCENDING[-1]),
        (lambda p: p == ASCENDING, True),
        (lambda p: hash(p) == hash(ASCENDING), True),
        (lambda p: repr(p), f"Placements({FlipKind.MIRROR_VERTICAL}, {[q.shift for q in ASCENDING]!r})"),
    ],
    ids=[
        "keys", "index", "last", "iter", "slice", "reversed", "step", "reversed-first",
        "eq", "hash", "repr",
    ],
)
def test_every_other_read_sorts_the_keys_once(read, expected):
    # a list is read as it is held, neither reordered nor copied
    placements, keys = listed_placements()
    assert read(placements) == expected
    assert keys == ASCENDING_KEYS
    assert placements.keys is keys
    assert read(placements) == expected
    # the all-pairs form reads the same, and is listed and sorted once
    for placements, keys in all_pairs_placements():
        assert read(placements) == expected
        assert keys.iterations == 1
        assert placements.keys == ASCENDING_KEYS
        assert read(placements) == expected
        assert keys.iterations == 1


def test_membership_bisects_without_listing_the_keys():
    placements, keys = listed_placements()
    assert ASCENDING[3] in placements and ASCENDING[3] in placements[::-1]
    assert placements.keys is keys and keys == ASCENDING_KEYS
    for placements, keys in all_pairs_placements():
        assert all(p in placements for p in ASCENDING)
        assert Placement(FlipKind.MIRROR_VERTICAL, KEY_GRID.shift(4)) not in placements
        assert keys.iterations == 0 and placements._keys is keys


def window(grid):
    """Every shift of a grid's window, and one row or column past it."""
    a0, b0 = grid.shift(0)
    rows = grid.start_rows + grid.flipped_rows - 1
    return {(a0 + da, b0 + db) for da in range(-1, rows + 1) for db in range(-1, grid.width + 1)}


def around(placements):
    """Each placement's shift, its six neighbours, and the shifts whose db
    lies one row width past either end: unchecked, their keys would name
    the placement's own cell."""
    width = placements.grid.width
    shifts = set()
    for da, db in map(placements.grid.shift, sorted(placements._keys)):
        shifts |= {(da + 1, db - width), (da - 1, db + width), (da, db)}
        shifts |= {(da + x, db + y) for x, y in NEIGHBOR_OFFSETS}
    return shifts


def membership_probes(shifts):
    """Each shift under every flip, as a Placement and as a plain tuple."""
    for t in shifts:
        for flip in FlipKind:
            yield Placement(flip, t)
            yield (flip, t)


def assert_membership_is_a_scan(placements, probes):
    """`in` answers as a scan of the decoded placements does, and leaves
    the keys as they are held."""
    held = placements._keys
    listed = sorted(held) if isinstance(held, PairKeys) else list(held)
    scanned = set(Placements(placements.flip, listed, placements.grid, placements.pairs))
    for value in probes:
        assert (value in placements) == (value in scanned), value
    assert placements._keys is held
    assert isinstance(held, PairKeys) or held == listed


def test_membership_agrees_with_a_scan_on_every_small_family():
    for name in FAMILIES:
        for n in range(1, 9):
            start = build(name, n)
            for flip in FlipKind:
                placements = solve(start, flip).optimal_placements
                assert isinstance(placements._keys, list)
                probes = list(membership_probes(window(placements.grid) | around(placements)))
                for view in (placements, placements[::-1], placements[1::2]):
                    assert_membership_is_a_scan(view, probes)
                # every pair key of the shape's coins against its image, held
                # as counter_scan holds an all-tie result (a half count when
                # the two key lists are equal, as under rot180)
                sorted_start, flipped, grid = scan_inputs(start, flip)
                w = grid.width
                ks = sorted((a - grid.start_a) * w + b - grid.start_b for a, b in sorted_start)
                kfs = sorted((grid.flipped_a - a) * w + grid.flipped_b - b for a, b in flipped)
                all_pairs = PairKeys(ks, kfs, ks == kfs)
                pairs = Placements(flip, all_pairs, grid, all_pairs)
                assert_membership_is_a_scan(pairs, membership_probes(window(grid)))


@pytest.mark.parametrize("coins", [2, 3, 12])
def test_membership_agrees_with_a_scan_on_all_tie_results(coins):
    start = scatter(coins, 2**40, coins)
    for flip in FlipKind:
        placements = solve(start, flip).optimal_placements
        assert isinstance(placements._keys, PairKeys)
        assert placements._keys.half == (flip is FlipKind.ROTATE_180)
        assert_membership_is_a_scan(placements, membership_probes(around(placements)))


@pytest.mark.parametrize(
    "value",
    [None, (), (FlipKind.ROTATE_180,), (FlipKind.ROTATE_180, (2, 2), 0), (2, 2),
     (FlipKind.ROTATE_180, [2, 2]), (FlipKind.ROTATE_180, (2, 2, 0)), "ab"],
    ids=["none", "empty", "flip-alone", "triple", "shift-alone", "list-shift",
         "long-shift", "string"],
)
def test_membership_of_a_value_that_is_not_a_placement_is_false(value):
    placements = solve(triangle_up(4), FlipKind.ROTATE_180).optimal_placements
    assert (value in placements) is False
    assert (value in tuple(placements)) is False
    assert Placement(FlipKind.ROTATE_180, (2, 2)) in placements
    assert (FlipKind.ROTATE_180, (2.0, 2)) in placements


def grown_blob(steps):
    """A connected blob: each step adds a neighbour of an earlier coin."""
    coins = [(0, 0)]
    for pick, direction in steps:
        a, b = coins[pick % len(coins)]
        da, db = NEIGHBOR_OFFSETS[direction]
        coins.append((a + da, b + db))
    return frozenset(coins)


blobs = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 5)), max_size=40).map(grown_blob)


def assert_sizes_are_the_report_sizes(start, flip):
    """protrusion_sizes equals protrusions' size_multiset at every optimal
    placement, padded or not, and raises as it does."""
    result = solve(start, flip)
    for placement in result.optimal_placements:
        sizes = protrusion_sizes(start, placement, result=result)
        assert sizes == protrusions(start, placement, result=result).size_multiset
        assert list(sizes) == sorted(sizes, reverse=True) and 0 not in sizes
        assert sum(sizes) == result.min_moves
        for parts in range(len(sizes), len(sizes) + 3):
            padded = protrusion_sizes(start, placement, parts, result=result)
            assert padded == protrusions(start, placement, parts, result=result).size_multiset
            assert padded == sizes + (0,) * (parts - len(sizes))
        if sizes:
            with pytest.raises(ValueError, match="exceed") as want:
                protrusions(start, placement, len(sizes) - 1, result=result)
            with pytest.raises(ValueError, match="exceed") as got:
                protrusion_sizes(start, placement, len(sizes) - 1, result=result)
            assert str(got.value) == str(want.value)
    far = result.optimal_placements[-1]._replace(shift=(2**50, 0))
    other = far._replace(flip=next(f for f in FlipKind if f != flip))
    for bad in (far, other):
        with pytest.raises(ValueError, match="not optimal") as want:
            protrusions(start, bad, result=result)
        with pytest.raises(ValueError, match="not optimal") as got:
            protrusion_sizes(start, bad, result=result)
        assert str(got.value) == str(want.value)


def test_protrusion_sizes_match_the_report_on_every_family():
    for name in FAMILIES:
        for n in range(1, 13):
            for flip in FlipKind:
                assert_sizes_are_the_report_sizes(build(name, n), flip)


@given(blobs, st.sampled_from(list(FlipKind)))
@settings(max_examples=80, deadline=None)
def test_protrusion_sizes_match_the_report_on_blobs(start, flip):
    assert_sizes_are_the_report_sizes(start, flip)


FAR = 2**70
small_blobs = st.lists(st.tuples(st.integers(0, 63), st.integers(0, 5)), max_size=7).map(grown_blob)


def placed(blobs, offsets):
    """The blobs, each moved by its offset."""
    return frozenset((a + da, b + db) for blob, (da, db) in zip(blobs, offsets) for a, b in blob)


# a single row has key width 1, where the steps ±1 and ±width coincide
# and ±(width - 1) is 0; a single column holds one coin per row of keys
one_rows = st.frozensets(st.integers(-30, 30), min_size=1, max_size=25).map(
    lambda xs: frozenset((a, 4) for a in xs)
)
one_columns = st.frozensets(st.integers(-30, 30), min_size=1, max_size=25).map(
    lambda xs: frozenset((-2, b) for b in xs)
)
separate_blobs = st.lists(small_blobs, min_size=2, max_size=4).map(
    lambda blobs: placed(blobs, [(20 * i, -7 * i) for i in range(len(blobs))])
)
far_clusters = st.tuples(small_blobs, small_blobs, small_blobs).map(
    lambda blobs: placed(blobs, [(-FAR, FAR), (3, -5), (FAR, -FAR)])
)


@given(st.one_of(one_rows, one_columns, separate_blobs, far_clusters), st.sampled_from(list(FlipKind)))
@settings(max_examples=150, deadline=None)
def test_keyed_moving_sizes_match_a_tuple_flood(start, flip):
    # the moving coins found and flooded as keys in the scan's layout, against
    # the start coins outside the target set, flooded as coins; decoded, the
    # moving keys are those coins in order
    result = solve(start, flip)
    placements = result.optimal_placements
    for placement in (*placements[:40], placements[-1]):
        moved = start - target_set(start, placement)
        expected = _size_multiset(map(len, connected_components(moved)), None)
        assert protrusion_sizes(start, placement, result=result) == expected
        plan = move_plan(start, placement, result=result)
        assert [coin for coin, _ in plan.moves] == sorted(moved)


def pair_keys_state(keys):
    """A tie list, or a `PairKeys` as its two key lists and its half flag."""
    if isinstance(keys, PairKeys):
        return "PairKeys", keys.ks, keys.kfs, keys.half
    return "list", keys


@given(st.one_of(one_rows, one_columns, far_clusters, point_sets), st.sampled_from(list(FlipKind)))
@settings(max_examples=150, deadline=None)
def test_solving_from_the_given_box_is_solving_from_the_coins(start, flip):
    # the CLI passes the box it already has; the result, tie keys and pair
    # keys included, is the one solve() finds from Box.of(start)
    alone, boxed = solve(start, flip), solve(start, flip, Box.of(start))
    assert boxed == alone
    assert boxed[:3] == alone[:3]
    ours, theirs = boxed.optimal_placements, alone.optimal_placements
    assert ours.grid == theirs.grid == box_grid(Box.of(start), flip)
    assert pair_keys_state(ours._keys) == pair_keys_state(theirs._keys)
    assert pair_keys_state(ours.pairs) == pair_keys_state(theirs.pairs)
    # the image keyed from the coins is the image keyed from its tuples
    by_points = point_keys(start, flip_points(start, flip), ours.grid)
    assert pair_keys_state(ours.pairs) == pair_keys_state(by_points)


def test_protrusions_reject_too_many_parts():
    # coins on the a-axis with all pairwise coordinate sums distinct: a half
    # turn can match at most two of them, so four isolated coins are left
    # over, which is more clusters than a triangle is allowed
    start = frozenset((a, 0) for a in (0, 2, 6, 14, 24, 40))
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
    start = triangle_up(1)
    report = protrusions(
        start,
        Placement(FlipKind.ROTATE_180, (0, 0)),
        expected_parts=3,
        result=solve(start, FlipKind.ROTATE_180),
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
