import math

import pytest
from hypothesis import given, strategies as st

from coinflip.lattice import (
    Box,
    FlipKind,
    NEIGHBOR_OFFSETS,
    classify_triangle,
    connected_components,
    distance_sq,
    embed,
    flip_points,
    triangle_number_index,
)
from coinflip.oracle import Placement, target_set

coords = st.tuples(st.integers(-200, 200), st.integers(-200, 200))
point_sets = st.frozensets(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
    min_size=1,
    max_size=24,
)


def neighbors(c) -> set:
    """The six lattice points one NEIGHBOR_OFFSETS step from c."""
    return {(c[0] + da, c[1] + db) for da, db in NEIGHBOR_OFFSETS}


def test_flip_images_of_sample_points():
    assert flip_points([(2, 1)], FlipKind.ROTATE_180) == [(-2, -1)]
    assert flip_points([(2, 1)], FlipKind.MIRROR_HORIZONTAL) == [(-3, 1)]
    assert flip_points([(2, 1)], FlipKind.MIRROR_VERTICAL) == [(3, -1)]
    # origin is fixed by every flip
    for kind in FlipKind:
        assert flip_points([(0, 0)], kind) == [(0, 0)]


def test_flips_are_involutions_on_grid():
    grid = [(a, b) for a in range(-50, 51) for b in range(-50, 51)]
    for kind in FlipKind:
        assert flip_points(flip_points(grid, kind), kind) == grid


@given(coords)
def test_flips_are_involutions(p):
    for kind in FlipKind:
        assert flip_points(flip_points([p], kind), kind) == [p]


@given(coords, coords)
def test_flips_preserve_squared_distance(p, q):
    d = distance_sq(p, q)
    for kind in FlipKind:
        assert distance_sq(*flip_points([p, q], kind)) == d


@given(point_sets, st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_translation_preserves_distance_multiset(points, shift):
    ordered = sorted(points)
    moved = [(a + shift[0], b + shift[1]) for a, b in ordered]
    before = [distance_sq(p, q) for p in ordered for q in ordered]
    after = [distance_sq(p, q) for p in moved for q in moved]
    assert before == after


@given(coords)
def test_embedding_matches_squared_distance(p):
    x, y = embed(p)
    dist = math.hypot(x, y)
    assert math.isclose(dist * dist, distance_sq((0, 0), p), abs_tol=1e-6)


@given(coords)
def test_neighbors_are_six_unit_distance_points(p):
    ns = neighbors(p)
    assert len(set(ns)) == 6
    for q in ns:
        assert distance_sq(p, q) == 1
        # adjacency is symmetric
        assert p in neighbors(q)


def test_neighbor_offsets_come_in_opposite_pairs():
    offsets = set(NEIGHBOR_OFFSETS)
    assert len(offsets) == 6
    for da, db in offsets:
        assert (-da, -db) in offsets


@given(point_sets)
def test_flip_set_is_a_bijection(points):
    for kind in FlipKind:
        image = target_set(points, Placement(kind, (0, 0)))
        assert len(image) == len(points)
        assert target_set(image, Placement(kind, (0, 0))) == frozenset(points)


def test_connected_components_splits_distant_point():
    points = {(0, 0), (1, 0), (2, 0), (5, 5)}
    comps = connected_components(points)
    assert [len(c) for c in comps] == [3, 1]
    assert comps[1] == frozenset({(5, 5)})


def test_connected_components_of_empty_set_is_empty():
    assert connected_components(frozenset()) == []
    assert connected_components([]) == []


@given(point_sets)
def test_connected_components_partition_the_input(points):
    comps = connected_components(points)
    seen = set()
    for comp in comps:
        assert comp  # no empty components
        assert not (comp & seen)
        seen |= comp
    assert seen == set(points)
    # canonical order: by smallest member
    mins = [min(c) for c in comps]
    assert mins == sorted(mins)


@given(point_sets)
def test_connected_components_are_maximal(points):
    comps = connected_components(points)
    for comp in comps:
        rest = set(points) - comp
        boundary = {q for p in comp for q in neighbors(p)}
        assert not (boundary & rest)


def test_triangle_number_index():
    assert triangle_number_index(0) == 0
    assert triangle_number_index(1) == 1
    assert triangle_number_index(3) == 2
    assert triangle_number_index(6) == 3
    assert triangle_number_index(5050) == 100
    assert triangle_number_index(2) is None
    assert triangle_number_index(7) is None


def _congruent_to_some_triangle(points):
    """Slow check used to validate classify_triangle: compare the pairwise
    distance multiset against reference triangles of the same size."""
    from coinflip.shapes import triangle_up

    k = triangle_number_index(len(points))
    if k is None:
        return False
    ref = sorted(triangle_up(k))
    pts = sorted(points)
    ref_d = sorted(distance_sq(p, q) for p in ref for q in ref)
    got_d = sorted(distance_sq(p, q) for p in pts for q in pts)
    return ref_d == got_d


def test_classify_triangle_recognises_both_orientations():
    from coinflip.shapes import triangle_up

    for k in range(1, 8):
        up = triangle_up(k)
        down = target_set(up, Placement(FlipKind.ROTATE_180, (0, 0)))
        for shift in [(0, 0), (3, -2), (-7, 11)]:
            # the shifted half-turn of each triangle is a translate of the other
            half_turn = Placement(FlipKind.ROTATE_180, shift)
            orient, size = classify_triangle(target_set(down, half_turn))
            assert (orient, size) == ("up", k)
            orient, size = classify_triangle(target_set(up, half_turn))
            if k == 1:
                assert (orient, size) == ("up", 1)  # single coin: canonical "up"
            else:
                assert (orient, size) == ("down", k)


def test_classify_triangle_rejects_row_of_three():
    row = {(0, 0), (1, 0), (2, 0)}
    assert classify_triangle(row) is None
    assert not _congruent_to_some_triangle(row)


def test_classify_triangle_rejects_non_triangular_counts():
    assert classify_triangle({(0, 0), (1, 0)}) is None


def test_classify_triangle_rejects_bent_shapes():
    bent = {(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (-1, 2)}
    assert classify_triangle(bent) is None
    assert not _congruent_to_some_triangle(bent)


def test_classify_triangle_empty_set_raises():
    with pytest.raises(ValueError):
        classify_triangle(frozenset())


@given(st.integers(1, 6), st.integers(-9, 9), st.integers(-9, 9), st.booleans())
def test_classify_triangle_agrees_with_distance_check(k, da, db, flipped):
    from coinflip.shapes import triangle_up

    tri = triangle_up(k)
    if not flipped:  # the shifted half-turn below turns it back up
        tri = target_set(tri, Placement(FlipKind.ROTATE_180, (0, 0)))
    placed = target_set(tri, Placement(FlipKind.ROTATE_180, (da, db)))
    assert classify_triangle(placed) is not None
    assert _congruent_to_some_triangle(placed)


def up_template(k, a, b):
    """The k-row up triangle with least a and b at (a, b)."""
    return frozenset((a + i, b + j) for j in range(k) for i in range(k - j))


def down_template(k, a, b):
    """The k-row down triangle with greatest a and b at (a, b)."""
    return frozenset((a - i, b - j) for j in range(k) for i in range(k - j))


def template_class(coins):
    """classify_triangle by brute force: build both templates and compare."""
    k = triangle_number_index(len(coins))
    if k is None:
        return None
    a_s, b_s = [a for a, _ in coins], [b for _, b in coins]
    if coins == up_template(k, min(a_s), min(b_s)):
        return ("up", k)
    if coins == down_template(k, max(a_s), max(b_s)):
        return ("down", k)
    return None


@st.composite
def triangular_counts(draw):
    """T(k) distinct coins, k <= 5, from a 5 x 5 window."""
    k = draw(st.integers(1, 5))
    count = k * (k + 1) // 2
    cells = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return draw(st.frozensets(cells, min_size=count, max_size=count))


templates = st.builds(
    lambda k, a, b, up: (up_template if up else down_template)(k, a, b),
    st.integers(1, 5),
    st.integers(-50, 50),
    st.integers(-50, 50),
    st.booleans(),
)


@given(st.one_of(triangular_counts(), templates))
def test_classify_triangle_matches_the_templates(coins):
    assert classify_triangle(coins) == template_class(coins)


lines = st.builds(
    lambda start, step, length: frozenset(
        (start[0] + i * step[0], start[1] + i * step[1]) for i in range(length)
    ),
    coords,
    st.sampled_from(NEIGHBOR_OFFSETS),
    st.integers(1, 12),
)


@given(st.one_of(point_sets, lines))
def test_box_is_the_hull_that_every_flip_maps(points):
    box = Box.of(points)
    assert points <= box.points()
    assert Box.of(box.points()) == box  # some point reaches every bound
    for kind in FlipKind:
        assert Box.of(flip_points(points, kind)) == box.flip(kind)


def test_box_of_nothing_is_refused():
    with pytest.raises(ValueError):
        Box.of([])
