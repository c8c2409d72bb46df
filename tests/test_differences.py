"""The difference kernel against the reference Counter kernel.

difference_scan certifies that no pair key repeats, or names the flipped
rows in which one can, from the differences of the point keys, and runs
counter_scan on those rows alone. It must return what counter_scan
returns on every pair: the same best, the same tied keys, and a
`PairKeys` exactly when counter_scan returns one. A spy on counter_scan
tells which of its paths ran: none (no two pairs share a key), the
colliding rows, or every pair (a half count, or a dense fallback when
most rows collide).
"""

import random
from unittest.mock import patch

from hypothesis import event, given, settings, strategies as st

from coinflip import _scan
from coinflip._scan import PairKeys, box_grid, counter_scan, difference_scan, point_keys
from coinflip.lattice import Box, FlipKind, flip_points
from coinflip.shapes import triangle_up


def shifted(coins, offset):
    oa, ob = offset
    return {(oa + a, ob + b) for a, b in coins}


far_coords = st.tuples(*[st.integers(-(2**40), 2**40)] * 2)


def far_scatter(coins):
    return st.frozensets(far_coords, min_size=1, max_size=coins)


@st.composite
def near_scatter(draw):
    """Up to 40 coins within a square of side 2^k, k <= 13: from dense
    (most rows collide) to sparse (a few do, or none)."""
    side = 2 ** draw(st.integers(1, 13))
    coord = st.integers(0, side - 1)
    return draw(st.frozensets(st.tuples(coord, coord), min_size=1, max_size=40))


@st.composite
def triangle_clusters(draw):
    """Up triangles of 1 to 5 rows, each placed at a multiple of 2^35."""
    offsets = st.tuples(*[st.integers(-4, 4).map(lambda m: m << 35)] * 2)
    clusters = draw(st.lists(st.tuples(st.integers(1, 5), offsets), min_size=1, max_size=4))
    return frozenset().union(*(shifted(triangle_up(n), o) for n, o in clusters))


@st.composite
def dominoes(draw):
    """Coins scattered over ±2^40, each the left end of a horizontal domino
    or alone: a few dominoes are a few colliding rows, many are most."""
    corners = draw(st.lists(far_coords, min_size=1, max_size=15))
    ends = draw(st.lists(st.sampled_from((1, 2)), min_size=len(corners), max_size=len(corners)))
    return frozenset((a + i, b) for (a, b), n in zip(corners, ends) for i in range(n))


@st.composite
def row_or_column(draw):
    """Coins on one row or one column, a few cells apart at most."""
    cells = draw(st.frozensets(st.integers(-30, 30), min_size=1, max_size=30))
    fixed = draw(st.integers(-5, 5))
    if draw(st.booleans()):
        return frozenset((c, fixed) for c in cells)
    return frozenset((fixed, c) for c in cells)


@st.composite
def far_clusters(draw):
    """Small clusters whose corners sit at ±2^70."""
    far = st.sampled_from((-(2**70), 0, 2**70))
    small = st.frozensets(st.tuples(*[st.integers(0, 3)] * 2), min_size=1, max_size=6)
    clusters = draw(st.lists(st.tuples(small, st.tuples(far, far)), min_size=1, max_size=3))
    return frozenset().union(*(shifted(coins, o) for coins, o in clusters))


shapes = st.one_of(
    far_scatter(30),
    near_scatter(),
    triangle_clusters(),
    dominoes(),
    row_or_column(),
    far_clusters(),
)


def path_and_result(shape, flip):
    """Both kernels' results on `shape` against its image, after checking
    that they agree, and which path difference_scan took."""
    start = sorted(shape)
    pairs = point_keys(start, flip_points(start, flip), box_grid(Box.of(start), flip))
    with patch.object(_scan, "counter_scan", wraps=counter_scan) as counter:
        best, keys = difference_scan(pairs)
    reference_best, reference_keys = counter_scan(pairs)
    assert best == reference_best
    assert isinstance(keys, PairKeys) == isinstance(reference_keys, PairKeys)
    if isinstance(keys, PairKeys):
        assert keys is pairs and best == 1 + pairs.half
    else:
        assert keys == reference_keys  # both ascending, each key once
    if not counter.called:
        return "distinct"
    (scanned,), _ = counter.call_args
    assert counter.call_count == 1
    if scanned is pairs:
        return "half" if pairs.half else "dense"
    # the colliding rows: some of the flipped keys, ascending, and a best of
    # at least 2, so that a key counted once there is not a tie
    assert scanned.ks is pairs.ks and not scanned.half and best >= 2
    assert scanned.kfs == sorted(set(scanned.kfs)) and set(scanned.kfs) < set(pairs.kfs)
    return "rows"


@given(shapes, st.sampled_from(list(FlipKind)), st.integers(1, 64))
@settings(max_examples=300, deadline=None)
def test_the_difference_kernel_matches_the_reference(shape, flip, band_pairs):
    # 1 to 64 pairs per band: the differences are cut into up to 1600 bands
    with patch.object(_scan, "BAND_PAIRS", band_pairs):
        event(path_and_result(shape, flip))


def test_every_path_runs():
    rng = random.Random(13)
    far = frozenset((rng.randint(-(2**40), 2**40), rng.randint(-(2**40), 2**40)) for _ in range(60))
    near = frozenset((rng.randrange(2**13), rng.randrange(2**13)) for _ in range(250))
    dense = frozenset(shifted(triangle_up(6), (0, 0)) | shifted(triangle_up(4), (2**35, -(2**35))))
    paths = {
        (shape, flip): path_and_result(shape, flip)
        for shape in (far, near, dense)
        for flip in (FlipKind.MIRROR_HORIZONTAL, FlipKind.MIRROR_VERTICAL)
    }
    assert set(paths.values()) == {"distinct", "rows", "dense"}
    assert {path for (shape, _), path in paths.items() if shape is near} == {"rows"}
    assert path_and_result(far, FlipKind.ROTATE_180) == "half"
    with patch.object(_scan, "BAND_PAIRS", 7):
        assert path_and_result(near, FlipKind.MIRROR_HORIZONTAL) == "rows"


def test_the_least_and_the_greatest_difference_are_probed():
    # the least, 1: a start pair one b apart, and a pair whose image under
    # mirror-h is one key apart, give two pairs one key
    rng = random.Random(13)
    far = {(rng.randint(-(2**40), 2**40), rng.randint(-(2**40), 2**40)) for _ in range(10)}
    least = frozenset(far | {(0, 0), (0, 1), (2**41, 0), (2**41 + 1, -1)})
    assert path_and_result(least, FlipKind.MIRROR_HORIZONTAL) == "rows"
    # the greatest, the span of the keys, in a band of its own
    with patch.object(_scan, "BAND_PAIRS", 1):
        for flip in (FlipKind.MIRROR_HORIZONTAL, FlipKind.MIRROR_VERTICAL):
            path_and_result(frozenset({(0, 2), (1, 1), (2, 2)}), flip)
