"""Integer geometry for coins on the triangular (penny-packing) lattice.

Coordinates are axial: a coin at (a, b) sits at a*(1, 0) + b*(1/2, sqrt3/2)
in the plane, so two coins of diameter 1 touch exactly when their squared
distance a*a + a*b + b*b equals 1. Everything here is exact integer
arithmetic; the float embedding exists only for drawing.

A flip (FlipKind) reaches coins through `flip_points`, which flips and
then shifts them, and boxes through `Box.flip`.

Touching clusters are found on integer keys, not tuples: with a·width + b
as a coin's key and a width that leaves a free cell after each row (or
width 1 when every coin has the same b), a coin's six neighbours are its
key ±width, ±1 and ±(width - 1). `key_components` floods such keys.
`connected_components` keys any coins that way, and the oracle floods
its moving coins in its scan's key layout (`_scan.Grid`), where
width = 2·span_b + 1.

A coin is a plain (a, b) tuple of ints. Public functions accept any
iterable of (a, b) pairs: `as_coin_set` keeps a frozenset as it is and
converts anything else once. A coin that is not a pair raises ValueError
where a function unpacks it.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import add
from typing import NamedTuple, Optional

CoinSet = frozenset  # frozenset[tuple[int, int]]


def as_coin_set(coins) -> CoinSet:
    """`coins` as a frozenset of (a, b) pairs: itself when it already is
    a frozenset, else converted once."""
    if type(coins) is frozenset:
        return coins
    return frozenset((a, b) for a, b in coins)


#: Offsets of the six unit-distance neighbors.
NEIGHBOR_OFFSETS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))

SQRT3 = math.sqrt(3.0)


class FlipKind(Enum):
    """Orientation change the puzzle asks for. Values are the CLI names."""

    ROTATE_180 = "rot180"
    MIRROR_HORIZONTAL = "mirror-h"
    MIRROR_VERTICAL = "mirror-v"


# Every flip is linear, (a, b) -> (p*a + q*b, r*a + s*b). This table, as
# (p, q, r, s), is the one description of each flip.
_FLIP_MATRICES = {
    FlipKind.ROTATE_180: (-1, 0, 0, -1),  # point reflection through the origin
    FlipKind.MIRROR_HORIZONTAL: (-1, -1, 0, 1),  # embedded x negated, y kept
    FlipKind.MIRROR_VERTICAL: (1, 1, 0, -1),  # embedded y negated, x kept
}


# Box bound indices of the axes a, b and a + b: as (ca, cb), the
# coefficients of a and b.
_AXES = {(1, 0): 0, (0, 1): 2, (1, 1): 4}


class Box(NamedTuple):
    """The lattice points with a_lo <= a <= a_hi, b_lo <= b <= b_hi and
    s_lo <= a + b <= s_hi, where some point reaches every bound.

    Triangles, rhombi and hexagons are boxes, and every flip maps a box
    to a box. `Box.of(points)` is the box hull of any point set.
    """

    a_lo: int
    a_hi: int
    b_lo: int
    b_hi: int
    s_lo: int
    s_hi: int

    @classmethod
    def of(cls, points) -> Box:
        """The least box holding every point of a nonempty set."""
        # strict: a coin that is not a pair raises, as where others unpack it
        a_s, b_s = zip(*points, strict=True)
        sums = list(map(add, a_s, b_s))
        return cls(min(a_s), max(a_s), min(b_s), max(b_s), min(sums), max(sums))

    def flip(self, flip: FlipKind) -> Box:
        """The box of this box's image under `flip`. Each flipped axis,
        p*a + q*b, r*a + s*b and their sum, is ±a, ±b or ±(a + b), so its
        bounds are those of one axis here, negated if need be."""
        p, q, r, s = _FLIP_MATRICES[flip]
        return Box(*self._axis(p, q), *self._axis(r, s), *self._axis(p + r, q + s))

    def _axis(self, ca: int, cb: int) -> tuple[int, int]:
        """The least and greatest ca*a + cb*b over the box."""
        if (ca, cb) in _AXES:
            i = _AXES[ca, cb]
            return self[i], self[i + 1]
        i = _AXES[-ca, -cb]
        return -self[i + 1], -self[i]

    def points(self) -> CoinSet:
        """The box's coins."""
        a_lo, a_hi, b_lo, b_hi, s_lo, s_hi = self
        return frozenset(
            (a, b)
            for b in range(b_lo, b_hi + 1)
            for a in range(max(a_lo, s_lo - b), min(a_hi, s_hi - b) + 1)
        )


def flip_points(coins, flip: FlipKind, shift=(0, 0)) -> list[tuple[int, int]]:
    """The image of `coins` under `flip`, then `shift`."""
    p, q, r, s = _FLIP_MATRICES[flip]
    da, db = shift
    return [(p * a + q * b + da, r * a + s * b + db) for a, b in coins]


def distance_sq(c, d) -> int:
    """Exact squared Euclidean distance between two embedded lattice points."""
    da, db = c[0] - d[0], c[1] - d[1]
    return da * da + da * db + db * db


def embed(c) -> tuple[float, float]:
    """Planar position of a coin center (for rendering only)."""
    a, b = c
    return (a + b / 2.0, b * (SQRT3 / 2.0))


def key_components(keys, width: int) -> list[list[int]]:
    """Partition coins given by integer keys into maximal touching clusters.

    Coin (a, b) has key a·width + b + c, for one constant c, and every
    coin's b lies in a range of at most width - 1 values, or width is 1
    and every coin has the same b. Its six neighbours then have the keys
    ±width, ±1 and ±(width - 1) from its own, and no such key names a coin
    that does not touch it: a step past a row's last coin lands in a free
    cell. Components come back ascending by their least key, each a list
    that starts with it. Seeds are taken in sorted order, so no final sort
    is needed: O(n log n) in all.
    """
    unvisited = set(keys)
    remove = unvisited.remove
    diagonal = width - 1
    components = []
    for seed in sorted(unvisited):
        if seed not in unvisited:
            continue
        remove(seed)
        component = [seed]
        append = component.append
        # The six steps are written out: a loop over a tuple of them costs
        # about a third more (51 against 38 µs to flood rhombus 14's 196
        # coins), and a set intersection per coin about twice as much.
        for k in component:  # the list grows as the flood reaches coins
            n = k + width
            if n in unvisited:
                remove(n)
                append(n)
            n = k - width
            if n in unvisited:
                remove(n)
                append(n)
            n = k + 1
            if n in unvisited:
                remove(n)
                append(n)
            n = k - 1
            if n in unvisited:
                remove(n)
                append(n)
            n = k + diagonal
            if n in unvisited:
                remove(n)
                append(n)
            n = k - diagonal
            if n in unvisited:
                remove(n)
                append(n)
        components.append(component)
    return components


def connected_components(coins) -> list[CoinSet]:
    """Partition into maximal touching clusters.

    Components come back ordered by their lexicographically smallest
    member, so reports are deterministic. Each coin gets the key
    (a - min a)·width + (b - min b), with width = span_b + 2, whose order
    is the coins' order; `key_components` floods the keys, and each
    component is decoded once. A set that is one component, as every
    family shape is, is returned as its own component, decoding nothing.
    """
    coins = as_coin_set(coins)
    if not coins:
        return []
    a_s, b_s = zip(*coins, strict=True)  # a coin that is not a pair raises
    a_lo, b_lo = min(a_s), min(b_s)
    width = max(b_s) - b_lo + 2
    keys = [(a - a_lo) * width + b - b_lo for a, b in coins]
    components = key_components(keys, width)
    if len(components) == 1:
        return [coins]
    coin_of = dict(zip(keys, coins))
    return [frozenset(map(coin_of.__getitem__, c)) for c in components]


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
    if len(coins) == 1:
        ((a, b),) = coins  # a coin that is not a pair still raises
        return ("up", 1)
    if not coins:
        raise ValueError("cannot classify an empty component")
    k = triangle_number_index(len(coins))
    if k is None:
        return None
    # k(k+1)/2 distinct coins equal a k-row template exactly when they lie
    # inside it. The coins' box (`Box.of`, which raises for a coin that is
    # not a pair) has every a >= a_lo and b >= b_lo, so they fill the up
    # template placed at (a_lo, b_lo) iff every a + b <= a_lo + b_lo + k - 1,
    # and the down template placed at (a_hi, b_hi) iff every
    # a + b >= a_hi + b_hi - (k - 1). No template is built.
    box = Box.of(coins)
    if box.s_hi <= box.a_lo + box.b_lo + k - 1:
        return ("up", k)
    if box.s_lo >= box.a_hi + box.b_hi - k + 1:
        return ("down", k)
    return None
