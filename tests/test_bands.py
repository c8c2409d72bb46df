"""The banded Counter kernel, and analyze holding one flip's result at a time.

counter_scan cuts the range of pair keys into ceil(pairs / BAND_PAIRS)
equal bands and counts one band at a time. The fixed cases below patch
BAND_PAIRS so that a few pairs already span several bands; the hypothesis
test in test_oracle.py does the same on random far-flung shapes.

When a shape's image is a translate of its point reflection, as under
rot180 always, the start and flipped keys are equal and counter_scan
counts each pair of coins once; the tests after the fixed cases check
that half count.

When every counted pair ties, as on a far-flung shape, counter_scan keeps
no tie list and returns a PairKeys; the last tests check that form, its
borders, its least keys (PairKeys.head) and its memory, and that every
tie list counter_scan returns otherwise is ascending.
"""

import random
import tracemalloc
import weakref
from collections import Counter
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from coinflip import _scan, cli
from coinflip._scan import BAND_PAIRS, Grid, PairKeys, box_grid, counter_scan, point_keys
from coinflip.lattice import Box, FlipKind, flip_points
from coinflip.shapes import triangle_up


def line(*bs):
    """Points on the b axis, so a shift (0, db) has key db minus a constant."""
    return [(0, b) for b in bs]


def tuple_counter(start, flipped):
    counts = Counter((sa - fa, sb - fb) for sa, sb in start for fa, fb in flipped)
    best = max(counts.values())
    return best, sorted(t for t, c in counts.items() if c == best)


def hull_grid(start, flipped):
    """The Grid of any two point sets, read off their own hulls. The cases
    below scan point sets that are not a shape and its image, which
    box_grid lays out from the shape's hull alone."""
    s, f = Box.of(start), Box.of(flipped)
    return Grid(
        width=s.b_hi - s.b_lo + f.b_hi - f.b_lo + 1,
        start_rows=s.a_hi - s.a_lo + 1,
        flipped_rows=f.a_hi - f.a_lo + 1,
        start_a=s.a_lo,
        start_b=s.b_lo,
        flipped_a=f.a_hi,
        flipped_b=f.b_hi,
    )


def decoded(start, flipped, grid):
    """counter_scan's best and tied shifts, its keys decoded by `grid` in
    ascending order; each tied key comes out once."""
    best, keys = counter_scan(point_keys(start, flipped, grid))
    assert len(set(keys)) == len(keys)
    return best, list(map(grid.shift, sorted(keys)))


def banded(band_pairs, start, flipped):
    with patch.object(_scan, "BAND_PAIRS", band_pairs):
        return decoded(start, flipped, hull_grid(start, flipped))


def test_ties_split_across_bands():
    # shifts 0..12 in 4 bands of 4 keys: the ties at db = 1 and db = 11 fall
    # in the first and third band, and the second band is empty
    start, flipped = line(0, 1, 10, 11), line(0, -1)
    assert banded(2, start, flipped) == (2, [(0, 1), (0, 11)])
    assert banded(2, start, flipped) == tuple_counter(start, flipped)


def test_a_later_band_beats_the_earlier_best():
    # the first band ties at 2 (db = 1, 2), the third ties at 2 again
    # (db = 11), and the last one beats both with 3 (db = 12)
    start, flipped = line(0, 1, 10, 11, 12), line(0, -1, -2)
    assert banded(4, start, flipped) == (3, [(0, 12)])
    assert banded(4, start, flipped) == tuple_counter(start, flipped)


def test_an_earlier_best_outlasts_later_ties():
    # 3 at db = 2 in the first band; the later bands top out at 2
    start, flipped = line(0, 1, 2, 10, 11), line(0, -1, -2)
    assert banded(4, start, flipped) == (3, [(0, 2)])
    assert banded(4, start, flipped) == tuple_counter(start, flipped)


def test_repeated_points_in_one_key_per_band():
    # every band one key wide; the reference kernel counts pairs, so a
    # repeated point, which no caller passes, still counts each time
    start, flipped = [(0, 0), (0, 0), (1, 0)], [(-1, 0), (0, 0)]
    for band_pairs in (1, 2, 3, 6):
        assert banded(band_pairs, start, flipped) == (3, [(1, 0)])


def far_flung(coins, seed):
    rng = random.Random(seed)
    points = set()
    while len(points) < coins:
        points.add((rng.randrange(-(1 << 40), 1 << 40), rng.randrange(-(1 << 40), 1 << 40)))
    return sorted(points)


def test_a_default_scan_over_band_pairs():
    start = far_flung(300, 5)
    flipped = flip_points(start, FlipKind.MIRROR_HORIZONTAL)
    assert len(start) * len(flipped) > BAND_PAIRS  # 90,000 pairs: two bands
    grid = box_grid(Box.of(start), FlipKind.MIRROR_HORIZONTAL)
    assert grid == hull_grid(start, flipped)
    assert decoded(start, flipped, grid) == tuple_counter(start, flipped)


def symmetric_far_flung(half, seed):
    """A far-flung shape that the half-turn maps onto itself: `half` random
    coins and their half-turn image, moved off by a random vector."""
    rng = random.Random(seed)
    ta, tb = rng.randrange(1 << 40), rng.randrange(1 << 40)
    coins = far_flung(half, seed)
    return sorted({*coins, *((ta - a, tb - b) for a, b in coins)})


def test_the_counter_holds_one_band_at_a_time():
    # 600 coins, 360,000 pairs, 6 bands; the half-turn counts 179,700 of
    # them, each unordered pair once. The pairs meet in about 180,000
    # distinct keys and tie only at the symmetry's own shift. A Counter of
    # all pairs peaks at 21.7 MiB here (the one-band kernel, measured), the
    # banded scan at 7.3 MiB.
    start = symmetric_far_flung(300, 11)
    flipped = flip_points(start, FlipKind.ROTATE_180)
    assert len(start) ** 2 > 5 * BAND_PAIRS
    grid = box_grid(Box.of(start), FlipKind.ROTATE_180)
    tracemalloc.start()
    try:
        best, keys = counter_scan(point_keys(start, flipped, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best == len(start) and len(keys) == 1
    assert peak < 12 << 20


class CountingCounter(Counter):
    """A Counter that adds up how many pairs every instance counts."""

    pairs = 0

    def update(self, iterable=None, /, **kwds):
        items = list(iterable or ())
        CountingCounter.pairs += len(items)
        super().update(items, **kwds)


def counted(band_pairs, start, flipped):
    """banded()'s answer, and how many pairs counter_scan counted for it."""
    CountingCounter.pairs = 0
    with patch.object(_scan, "Counter", CountingCounter):
        answer = banded(band_pairs, start, flipped)
    return answer, CountingCounter.pairs


OTHER_MIRROR = {
    FlipKind.MIRROR_HORIZONTAL: FlipKind.MIRROR_VERTICAL,
    FlipKind.MIRROR_VERTICAL: FlipKind.MIRROR_HORIZONTAL,
}

far_coords = st.one_of(st.integers(-3, 3), st.integers(-(2**40), 2**40))
far_points = st.frozensets(st.tuples(far_coords, far_coords), min_size=1, max_size=12)


def point_symmetric(points, flip):
    """A shape that `flip` maps onto a translate of its point reflection,
    so that counter_scan counts each pair once: under rot180 the points
    themselves; under a mirror, the points and their image under the
    other mirror, which is `flip` followed by a half-turn."""
    if flip == FlipKind.ROTATE_180:
        return sorted(points)
    return sorted({*points, *flip_points(points, OTHER_MIRROR[flip])})


@given(far_points, st.sampled_from(list(FlipKind)), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_the_half_count_matches_a_tuple_counter(points, flip, band_pairs):
    start = point_symmetric(points, flip)
    flipped = flip_points(start, flip)
    n = len(start)
    answer, pairs = counted(band_pairs, start, flipped)
    assert pairs == n * (n - 1) // 2
    assert answer == tuple_counter(start, flipped)


# one and two coins, and odd and even tops under the half-turn and a mirror
@pytest.mark.parametrize(
    "start, flip, best",
    [
        ([(5, -7)], FlipKind.ROTATE_180, 1),
        ([(0, 0), (3, 2**40)], FlipKind.ROTATE_180, 2),
        (line(0, 1, 2), FlipKind.ROTATE_180, 3),
        (line(0, 1, 5, 6), FlipKind.ROTATE_180, 4),
        (sorted(triangle_up(3)), FlipKind.MIRROR_VERTICAL, 4),
        (sorted(triangle_up(4)), FlipKind.MIRROR_VERTICAL, 7),
    ],
    ids=["one-coin", "two-coins", "odd-line", "even-line", "even-triangle", "odd-triangle"],
)
@pytest.mark.parametrize("band_pairs", [1, 2, 64])
def test_odd_and_even_half_count_tops(start, flip, best, band_pairs):
    flipped = flip_points(start, flip)
    answer, pairs = counted(band_pairs, start, flipped)
    assert pairs == len(start) * (len(start) - 1) // 2
    assert answer == tuple_counter(start, flipped)
    assert answer[0] == best


def test_a_half_turn_counts_each_pair_once_and_a_mirror_every_pair():
    start = far_flung(300, 5)
    for flip, pairs in [
        (FlipKind.ROTATE_180, 300 * 299 // 2),
        (FlipKind.MIRROR_HORIZONTAL, 300 * 300),
        (FlipKind.MIRROR_VERTICAL, 300 * 300),
    ]:
        flipped = flip_points(start, flip)
        answer, counted_pairs = counted(BAND_PAIRS, start, flipped)
        assert counted_pairs == pairs
        assert answer == tuple_counter(start, flipped)


def assert_all_pairs_form_matches(band_pairs, start, flip):
    """counter_scan agrees with a tuple Counter, returns each tied key once,
    and returns a PairKeys exactly when every counted pair ties; its
    head(1) is the least key it iterates, and a list is ascending.
    Returns the raw scan."""
    flipped = flip_points(start, flip)
    grid = hull_grid(start, flipped)
    CountingCounter.pairs = 0
    with patch.object(_scan, "BAND_PAIRS", band_pairs), patch.object(_scan, "Counter", CountingCounter):
        best, keys = counter_scan(point_keys(start, flipped, grid))
    listed = list(keys)
    assert len(set(listed)) == len(listed) == len(keys)
    assert (best, list(map(grid.shift, sorted(listed)))) == tuple_counter(start, flipped)
    assert isinstance(keys, PairKeys) == (len(keys) == CountingCounter.pairs)
    if isinstance(keys, PairKeys):
        assert keys.head(1) == [min(listed)]
    else:
        assert listed == sorted(listed)
    return best, keys


def dominoes(points):
    """Each point and its neighbour along a: a scatter of dominoes, whose
    scans tie two coins or more at a shift, so that the ties are a list."""
    return sorted({(a + i, b) for a, b in points for i in (0, 1)})


SHAPES = {
    "far-flung": lambda points, flip: sorted(points),
    "point-symmetric": point_symmetric,
    "dominoes": lambda points, flip: dominoes(points),
}


@given(far_points, st.sampled_from(sorted(SHAPES)), st.sampled_from(list(FlipKind)), st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_the_all_pairs_form_matches_a_tuple_counter(points, shape, flip, band_pairs):
    assert_all_pairs_form_matches(band_pairs, SHAPES[shape](points, flip), flip)


key_lists = st.frozensets(st.one_of(st.integers(-20, 20), st.integers(-(2**40), 2**40)), min_size=1, max_size=10)


@given(key_lists, key_lists, st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_head_is_the_least_keys_ascending(ks, kfs, half):
    ks = sorted(ks)
    keys = PairKeys(ks, list(ks) if half else sorted(kfs), half)
    listed = sorted(keys)
    for n in range(1, 8):  # n reaches len(keys) on the small lists
        assert keys.head(n) == listed[:n]


def planted_repeat(coins, flip, seed):
    """Far-flung `coins` plus two coins that repeat one pair key under
    `flip`: a coin x paired with the image of y, and x + v paired with the
    image of y + M·v, where M is the flip's matrix (M·M = 1)."""
    rng = random.Random(seed)
    x, y = coins[0], coins[1]
    v = (rng.randrange(1 << 40), rng.randrange(1 << 40))
    (mv,) = flip_points([v], flip)
    return sorted({*coins, (x[0] + v[0], x[1] + v[1]), (y[0] + mv[0], y[1] + mv[1])})


def centre_hit(coins):
    """Far-flung `coins` plus the half-turn image of coins[1] through
    coins[0], so that under rot180 the pair of coins[1] and its image has
    the diagonal key of coins[0]."""
    (ca, cb), (a, b) = coins[0], coins[1]
    return sorted({*coins, (2 * ca - a, 2 * cb - b)})


# the borders of the all-pairs form: a lone centre, one pair, a planted
# repeat, and a pair key on a centre
@pytest.mark.parametrize(
    "start, flip, best, form",
    [
        ([(5, -7)], FlipKind.ROTATE_180, 1, list),
        ([(0, 0), (3, 2**40)], FlipKind.ROTATE_180, 2, PairKeys),
        (planted_repeat(far_flung(40, 7), FlipKind.MIRROR_HORIZONTAL, 7), FlipKind.MIRROR_HORIZONTAL, 2, list),
        (centre_hit(far_flung(40, 9)), FlipKind.ROTATE_180, 3, list),
    ],
    ids=["one-coin-centre", "two-far-coins", "planted-repeat", "centre-pair"],
)
@pytest.mark.parametrize("band_pairs", [1, 2, 64, BAND_PAIRS])
def test_the_all_pairs_form_at_its_borders(start, flip, best, form, band_pairs):
    answer, keys = assert_all_pairs_form_matches(band_pairs, start, flip)
    assert answer == best and type(keys) is form


def test_an_all_tie_scan_keeps_no_tie_list():
    # 600 coins, 360,000 pairs under mirror-h, each its own shift and all
    # tied. Listing the ties peaked at 20.0 MiB and held 16.8 MiB while
    # the result was alive (measured); without the list, 10.9 and 0.05.
    start = far_flung(600, 13)
    flipped = flip_points(start, FlipKind.MIRROR_HORIZONTAL)
    grid = box_grid(Box.of(start), FlipKind.MIRROR_HORIZONTAL)
    tracemalloc.start()
    try:
        best, keys = counter_scan(point_keys(start, flipped, grid))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert best == 1 and isinstance(keys, PairKeys) and len(keys) == 600 * 600
    assert peak < 14 << 20
    assert held < 1 << 20


def test_analyze_frees_each_flip_before_the_next_solve(capsys, monkeypatch, tmp_path):
    path = tmp_path / "scatter.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in far_flung(40, 3)))
    solve, earlier = cli.oracle.solve, []

    def solve_alone(coins, flip, box=None):
        assert all(ref() is None for ref in earlier), "an earlier result is still alive"
        result = solve(coins, flip, box)
        earlier.append(weakref.ref(result.optimal_placements))
        return result

    monkeypatch.setattr(cli.oracle, "solve", solve_alone)
    assert cli.main(["analyze", "--shape-file", str(path)]) == 0
    assert len(earlier) == len(FlipKind)
    assert capsys.readouterr().out.count("\nflip ") == len(FlipKind)
