"""Integer geometry for coins on the triangular (penny-packing) lattice.

Coordinates are axial: a coin at (a, b) sits at a*(1, 0) + b*(1/2, sqrt3/2)
in the plane, so two coins of diameter 1 touch exactly when their squared
distance a*a + a*b + b*b equals 1. Everything here is exact integer
arithmetic; the float embedding exists only for drawing.

A coin is a `Coord`, built once where it enters the program (a shape
generator or the shape-file parser). Public functions accept any iterable
of (a, b) pairs: a frozenset of Coord is used as it is, anything else is
converted once by `as_coin_set`. Every coin they return is a Coord. Work
that never leaves a function (a flipped image fed to the scan, neighbour
probes) uses plain tuples, which hash and compare like Coords at a
fraction of the cost to build.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import partial
from operator import add
from typing import NamedTuple, Optional


class Coord(NamedTuple):
    a: int
    b: int


CoinSet = frozenset  # frozenset[Coord]

# Coord from an (a, b) tuple through the C tuple constructor: the same value
# as Coord(a, b) at about half the cost of its generated Python __new__.
_coord = partial(tuple.__new__, Coord)

_COORD_ONLY = {Coord}


def as_coin_set(coins) -> CoinSet:
    """`coins` as a frozenset of Coord: itself when it already is one,
    else converted once."""
    if type(coins) is frozenset and set(map(type, coins)) <= _COORD_ONLY:
        return coins
    return frozenset(Coord(a, b) for a, b in coins)


#: Offsets of the six unit-distance neighbors.
NEIGHBOR_OFFSETS = (
    Coord(1, 0),
    Coord(-1, 0),
    Coord(0, 1),
    Coord(0, -1),
    Coord(1, -1),
    Coord(-1, 1),
)

SQRT3 = math.sqrt(3.0)


class FlipKind(Enum):
    """Orientation change the puzzle asks for. Values are the CLI names."""

    ROTATE_180 = "rot180"
    MIRROR_HORIZONTAL = "mirror-h"
    MIRROR_VERTICAL = "mirror-v"

    def apply(self, c) -> Coord:
        p, q, r, s = _FLIP_MATRICES[self]
        a, b = c
        return Coord(p * a + q * b, r * a + s * b)


# Every flip is linear, (a, b) -> (p*a + q*b, r*a + s*b). This table, as
# (p, q, r, s), is the one description of each flip.
_FLIP_MATRICES = {
    FlipKind.ROTATE_180: (-1, 0, 0, -1),
    FlipKind.MIRROR_HORIZONTAL: (-1, -1, 0, 1),
    FlipKind.MIRROR_VERTICAL: (1, 1, 0, -1),
}


def rotate180(c) -> Coord:
    """Point reflection through the origin."""
    return FlipKind.ROTATE_180.apply(c)


def mirror_horizontal(c) -> Coord:
    """Reflect across the vertical axis: embedded x negated, y kept."""
    return FlipKind.MIRROR_HORIZONTAL.apply(c)


def mirror_vertical(c) -> Coord:
    """Reflect across the horizontal axis: embedded y negated, x kept."""
    return FlipKind.MIRROR_VERTICAL.apply(c)


def flip_points(coins, flip: FlipKind, shift=(0, 0)) -> list[tuple[int, int]]:
    """The image of `coins` under `flip`, then `shift`, as plain tuples."""
    p, q, r, s = _FLIP_MATRICES[flip]
    da, db = shift
    return [(p * a + q * b + da, r * a + s * b + db) for a, b in coins]


def flip_translate(coins, flip: FlipKind, shift) -> CoinSet:
    """translate(flip_set(coins, flip), shift), in one pass."""
    return frozenset(map(_coord, flip_points(coins, flip, shift)))


def flip_set(coins, flip: FlipKind) -> CoinSet:
    """The image of `coins` under `flip`."""
    return flip_translate(coins, flip, (0, 0))


def translate(coins, shift) -> CoinSet:
    da, db = shift
    return frozenset(Coord(a + da, b + db) for a, b in coins)


def neighbors(c) -> frozenset:
    """The six lattice points at embedded distance exactly 1."""
    a, b = c
    return frozenset(Coord(a + da, b + db) for da, db in NEIGHBOR_OFFSETS)


def distance_sq(c, d) -> int:
    """Exact squared Euclidean distance between two embedded lattice points."""
    da, db = c[0] - d[0], c[1] - d[1]
    return da * da + da * db + db * db


def embed(c) -> tuple[float, float]:
    """Planar position of a coin center (for rendering only)."""
    a, b = c
    return (a + b / 2.0, b * (SQRT3 / 2.0))


def connected_components(coins) -> list[CoinSet]:
    """Partition into maximal touching clusters.

    Components come back ordered by their lexicographically smallest
    member, so reports are deterministic. Seeds are taken in sorted
    order, so each component's seed is its smallest coin and no final
    sort is needed: O(n log n) in all. Neighbour probes are plain tuples;
    a hit pops the stored coin, so every coin returned is an input Coord.
    """
    coins = as_coin_set(coins)
    unvisited = dict(zip(coins, coins))
    pop = unvisited.pop
    components = []
    for seed in sorted(coins):
        if pop(seed, None) is None:
            continue
        component = [seed]
        for a, b in component:  # the list grows as the search reaches coins
            for da, db in NEIGHBOR_OFFSETS:
                c = pop((a + da, b + db), None)
                if c is not None:
                    component.append(c)
        components.append(frozenset(component))
    return components


def triangle_number_index(count: int) -> Optional[int]:
    """k with k(k+1)/2 == count, or None if count is not triangular."""
    if count < 0:
        return None
    k = (math.isqrt(8 * count + 1) - 1) // 2
    return k if k * (k + 1) // 2 == count else None


def classify_triangle(component) -> Optional[tuple[str, int]]:
    """Recognize a coin triangle.

    Returns ("up", k) if the component is a translate of the k-row
    upward triangle {(a, b): a >= 0, b >= 0, a + b <= k - 1}, ("down", k)
    for a translate of its 180-degree image, else None. A single coin is
    both; it reports as ("up", 1).
    """
    coins = as_coin_set(component)
    if not coins:
        raise ValueError("cannot classify an empty component")
    k = triangle_number_index(len(coins))
    if k is None:
        return None
    # k(k+1)/2 distinct coins equal a k-row template exactly when they lie
    # inside it. With (a0, b0) the least and (a1, b1) the greatest
    # coordinates, every coin has a >= a0 and b >= b0, so the coins fill
    # the up template iff every a + b <= a0 + b0 + k - 1, and the down
    # template iff every a + b >= a1 + b1 - (k - 1). No template is built.
    a_s, b_s = zip(*coins)
    sums = list(map(add, a_s, b_s))
    if max(sums) <= min(a_s) + min(b_s) + k - 1:
        return ("up", k)
    if min(sums) >= max(a_s) + max(b_s) - k + 1:
        return ("down", k)
    return None
