"""The banded Counter kernel, and analyze holding one flip's result at a time.

counter_scan cuts the range of pair keys into ceil(pairs / BAND_PAIRS)
equal bands and counts one band at a time. The fixed cases below patch
BAND_PAIRS so that a few pairs already span several bands; the hypothesis
test in test_oracle.py does the same on random far-flung shapes.
"""

import random
import tracemalloc
import weakref
from collections import Counter
from unittest.mock import patch

from coinflip import _scan, cli
from coinflip._scan import BAND_PAIRS, counter_scan, grid_of
from coinflip.lattice import FlipKind, flip_points


def line(*bs):
    """Points on the b axis, so a shift (0, db) has key db minus a constant."""
    return [(0, b) for b in bs]


def tuple_counter(start, flipped):
    counts = Counter((sa - fa, sb - fb) for sa, sb in start for fa, fb in flipped)
    best = max(counts.values())
    return best, sorted(t for t, c in counts.items() if c == best)


def decoded(start, flipped):
    """counter_scan's best and tied shifts, its keys decoded by grid_of."""
    best, keys = counter_scan(start, flipped)
    return best, list(map(grid_of(start, flipped).shift, keys))


def banded(band_pairs, start, flipped):
    with patch.object(_scan, "BAND_PAIRS", band_pairs):
        return decoded(start, flipped)


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
    # the product kernel's fallback case, with every band one key wide
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
    assert decoded(start, flipped) == tuple_counter(start, flipped)


def symmetric_far_flung(half, seed):
    """A far-flung shape that the half-turn maps onto itself: `half` random
    coins and their half-turn image, moved off by a random vector."""
    rng = random.Random(seed)
    ta, tb = rng.randrange(1 << 40), rng.randrange(1 << 40)
    coins = far_flung(half, seed)
    return sorted({*coins, *((ta - a, tb - b) for a, b in coins)})


def test_the_counter_holds_one_band_at_a_time():
    # 600 coins, 360,000 pairs, 6 bands. The pairs meet in about 180,000
    # distinct keys and tie only at the symmetry's own shift. A Counter of
    # all pairs peaks at 21.7 MiB here (the one-band kernel, measured), the
    # banded scan at 7.5 MiB.
    start = symmetric_far_flung(300, 11)
    flipped = flip_points(start, FlipKind.ROTATE_180)
    assert len(start) ** 2 > 5 * BAND_PAIRS
    tracemalloc.start()
    try:
        best, keys = counter_scan(start, flipped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best == len(start) and len(keys) == 1
    assert peak < 12 << 20


def test_analyze_frees_each_flip_before_the_next_solve(capsys, monkeypatch, tmp_path):
    path = tmp_path / "scatter.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in far_flung(40, 3)))
    solve, earlier = cli.oracle.solve, []

    def solve_alone(coins, flip):
        assert all(ref() is None for ref in earlier), "an earlier result is still alive"
        result = solve(coins, flip)
        earlier.append(weakref.ref(result.optimal_placements))
        return result

    monkeypatch.setattr(cli.oracle, "solve", solve_alone)
    assert cli.main(["analyze", "--shape-file", str(path)]) == 0
    assert len(earlier) == len(FlipKind)
    assert capsys.readouterr().out.count("\nflip ") == len(FlipKind)
