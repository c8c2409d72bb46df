"""Brute-force superimposition oracle.

Flip a shape, slide the image over the original through every lattice
translation that can overlap, and keep the placements with maximum
overlap. The coins outside the overlap are exactly the ones that must
move, so min_moves = total - max_overlap is the exact puzzle answer, not
an estimate.

The translation scan is the hot loop; coinflip._scan.scan_pairs runs it.
It has two exact pure-Python kernels: a big-integer product over the
bounding-box grid for dense shapes, and the reference Counter over all
coin pairs for sparse or far-flung ones. A cost model read off the
bounding boxes picks between them per call.

Both kernels name each shift by one integer key, and ascending keys are
ascending (da, db). A far-flung shape can tie hundreds of thousands of
shifts, so solve() keeps the keys as the scan returned them, with the
scan's `_scan.Grid`: an ascending list or, when every coin pair ties, a
`_scan.PairKeys` that holds only the coins' own keys. `Placements`
decodes a placement through that grid (`Grid.shift`) only when it is
read, and lists a `PairKeys` only for a read past its least few keys:
the count and the first placement, all that `analyze` and `solve` read,
`in`, and a rejection's five least shifts never list it. The key layout
stays in `_scan`.

Both kernels are exact, so a placement under the solved flip is optimal
exactly when it moves min_moves coins; protrusions(), protrusion_sizes()
and move_plan() take the solve() result and check that count, not the
keys. protrusion_sizes() gives only the sizes of the coin clusters that
move, all that `solve` and `analyze` print; protrusions() also gives the
clusters they move into and classifies each one, for `verify`.

Coin inputs may be any iterable of (a, b) pairs. A frozenset, as the
shape generators and the shape-file parser return it, is used as it is;
anything else is converted once (lattice.as_coin_set). Every coin
returned (in target_set, Component.coins, MovePlan.moves) is an (a, b)
tuple.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from operator import eq, neg
from typing import NamedTuple, Optional

from coinflip import _scan
from coinflip.lattice import (
    Box,
    FlipKind,
    as_coin_set,
    classify_triangle,
    connected_components,
    flip_points,
)


def backend() -> str:
    """Which scan implementation solve() uses: always "pure".

    Both kernels are pure Python (standard library only); scan_pairs
    picks the big-integer product or the pair Counter per call, by cost.
    """
    return "pure"


class Placement(NamedTuple):
    """One candidate superimposition: flip the shape, then shift it."""

    flip: FlipKind
    shift: tuple[int, int]


class Placements(Sequence):
    """Read-only sequence of the optimal placements of one flip, ascending
    by shift. It holds the scan's tie keys as the scan returned them, an
    ascending list or a `_scan.PairKeys`, and each Placement is decoded
    through `grid` when it is read.

    A list is held as it is. `len`, `[0]` and `in` never iterate a
    `PairKeys`; every other read (`keys`, any other index, iteration,
    slicing, ==, hash and repr) first lists it, once, into a sorted list
    that replaces it. A slice is another Placements over its own list of
    keys, in the slice's order (descending under a negative step).
    Compares equal to a tuple of the same placements, and hashes like
    one. It can be weakly referenced, so that a caller can check that the
    tie keys it holds have been freed."""

    __slots__ = ("flip", "grid", "_keys", "__weakref__")

    def __init__(self, flip: FlipKind, keys: list[int] | _scan.PairKeys, grid: _scan.Grid):
        self.flip, self.grid, self._keys = flip, grid, keys

    @property
    def keys(self) -> list[int]:
        """The tie keys, in the order the placements are read."""
        if isinstance(self._keys, _scan.PairKeys):
            self._keys = sorted(self._keys)
        return self._keys

    def _head(self, n: int) -> list[int]:
        """The first n keys, read without listing a `PairKeys`."""
        keys = self._keys
        return keys.head(n) if isinstance(keys, _scan.PairKeys) else keys[:n]

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, i) -> Placement | Placements:
        if isinstance(i, slice):
            return Placements(self.flip, self.keys[i], self.grid)
        key = self._head(1)[0] if i == 0 else self.keys[i]
        return Placement(self.flip, self.grid.shift(key))

    def __contains__(self, value) -> bool:
        """Whether `value` is one of the placements, found by bisecting the
        keys for its shift's key (`Grid.key`), without decoding a placement
        or listing a `PairKeys`."""
        flip, shift = value if isinstance(value, tuple) and len(value) == 2 else (None, None)
        if flip != self.flip or not (isinstance(shift, tuple) and len(shift) == 2):
            return False
        key, keys = self.grid.key(shift), self._keys
        if key is None:
            return False
        if isinstance(keys, _scan.PairKeys):
            return key in keys
        descending = len(keys) > 1 and keys[0] > keys[-1]  # a slice with a negative step
        i = bisect_left(keys, -key, key=neg) if descending else bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    def __iter__(self):
        flip = self.flip
        for shift in map(self.grid.shift, self.keys):
            yield Placement(flip, shift)

    def __eq__(self, other):
        if not isinstance(other, (Placements, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Placements({self.flip}, {list(map(self.grid.shift, self.keys))!r})"


class OverlapResult(NamedTuple):
    """The exact answer for one flip: coins, best overlap, moves, and
    every placement that reaches it."""

    total_coins: int
    max_overlap: int
    min_moves: int
    optimal_placements: Placements


class Component(NamedTuple):
    """A touching cluster of coins, such as a protrusion, and its triangle
    classification (or None)."""

    coins: frozenset
    size: int
    triangle: Optional[tuple[str, int]]


class ProtrusionReport(NamedTuple):
    placement: Placement
    source_components: tuple[Component, ...]
    target_components: tuple[Component, ...]
    size_multiset: tuple[int, ...]


class MovePlan(NamedTuple):
    """Coins to move, paired lexicographically with their destinations."""

    moves: tuple[tuple[tuple[int, int], tuple[int, int]], ...]

    def apply(self, start) -> frozenset:
        """The coins after every move, made at once. Raises ValueError
        unless each move takes its own start coin to its own free cell,
        so that no coin is created or destroyed."""
        start = as_coin_set(start)
        froms = frozenset(m[0] for m in self.moves)
        tos = frozenset(m[1] for m in self.moves)
        if len(froms) < len(self.moves):
            raise ValueError("plan does not apply: a coin moves twice")
        if len(tos) < len(self.moves):
            raise ValueError("plan does not apply: two coins move to one cell")
        if not froms <= start:
            raise ValueError("plan does not apply: missing source coins")
        stay = start - froms
        if not stay.isdisjoint(tos):
            raise ValueError("plan does not apply: a destination holds a coin that stays")
        return stay | tos


def target_set(start, placement: Placement) -> frozenset:
    """The flipped-and-shifted image the placement superimposes on start."""
    return frozenset(flip_points(start, placement.flip, placement.shift))


def solve(start, flip: FlipKind) -> OverlapResult:
    """Exhaustive search for the minimum number of moves.

    Every translation achieving any overlap at all is evaluated, so the
    reported maximum is exact and optimal_placements holds all maximizing
    shifts in ascending (da, db) order, as a lazy read-only sequence.
    The scan's grid is `_scan.box_grid(Box.of(start), flip)`.
    """
    start = as_coin_set(start)
    if not start:
        raise ValueError("cannot solve an empty coin set")
    grid = _scan.box_grid(Box.of(start), flip)
    best, keys = _scan.scan_pairs(start, flip_points(start, flip), grid)
    return OverlapResult(
        total_coins=len(start),
        max_overlap=best,
        min_moves=len(start) - best,
        optimal_placements=Placements(flip, keys, grid),
    )


# A rejection lists this many optimal shifts, not all of them: a far-flung
# shape can tie hundreds of thousands.
_SHIFTS_SHOWN = 5


def _optimal_sets(start, placement, result):
    """The placement's target set and the start coins that move to it,
    after checking that it is optimal: it moves min_moves coins under the
    result's flip."""
    optimal = result.optimal_placements
    if placement.flip != optimal.flip:
        raise ValueError(
            f"placement {placement} is not optimal: the result is for flip "
            f"{optimal.flip.value}"
        )
    target = target_set(start, placement)
    source = start - target
    if len(source) != result.min_moves:
        shown = ", ".join(str(optimal.grid.shift(key)) for key in optimal._head(_SHIFTS_SHOWN))
        if len(optimal) > _SHIFTS_SHOWN:
            shown += ", ..."
        raise ValueError(
            f"placement {placement} is not optimal; the {len(optimal)} "
            f"optimal shifts are [{shown}]"
        )
    return target, source


def components(coins) -> tuple[Component, ...]:
    """The touching clusters of `coins`, in `connected_components` order,
    each with its size and its `classify_triangle` class."""
    return tuple(
        Component(coins=c, size=len(c), triangle=classify_triangle(c))
        for c in connected_components(coins)
    )


def protrusions(
    start,
    placement: Placement,
    expected_parts: Optional[int] = None,
    *,
    result: OverlapResult,
) -> ProtrusionReport:
    """Decompose an optimal placement into the coin clusters that move.

    Source components are the start coins outside the overlap; target
    components are the uncovered image coins they move into. The size
    multiset is sorted descending and zero-padded to expected_parts
    (3 for triangles, 2 for rhombi; pass None to keep the raw count),
    and more parts than that raise ValueError.

    `result` is solve(start, placement.flip); the placement is rejected
    if it is not one of its optimal ones.
    """
    start = as_coin_set(start)
    target, source = _optimal_sets(start, placement, result)
    source_components = components(source)
    return ProtrusionReport(
        placement=placement,
        source_components=source_components,
        target_components=components(target - start),
        size_multiset=_size_multiset((c.size for c in source_components), expected_parts),
    )


def protrusion_sizes(
    start, placement: Placement, expected_parts: Optional[int] = None, *, result: OverlapResult
) -> tuple[int, ...]:
    """protrusions(...).size_multiset, with the same checks, but without
    the target components, the triangle classes or any Component record."""
    start = as_coin_set(start)
    _, source = _optimal_sets(start, placement, result)
    return _size_multiset(map(len, connected_components(source)), expected_parts)


def _size_multiset(sizes, expected_parts: Optional[int]) -> tuple[int, ...]:
    """The sizes sorted descending and zero-padded to expected_parts;
    raises ValueError when there are more of them."""
    sizes = sorted(sizes, reverse=True)
    if expected_parts is not None:
        if len(sizes) > expected_parts:
            raise ValueError(f"{len(sizes)} protrusions exceed the expected {expected_parts}")
        sizes += [0] * (expected_parts - len(sizes))
    return tuple(sizes)


def move_plan(
    start,
    placement: Placement,
    *,
    result: OverlapResult,
) -> MovePlan:
    """Explicit coin moves realizing an optimal placement.

    Sources and destinations are paired in lexicographic order; any
    pairing costs the same number of moves, this one is just canonical.
    `result` and the check of the placement are as for protrusions().
    """
    start = as_coin_set(start)
    target, source = _optimal_sets(start, placement, result)
    froms = sorted(source)
    tos = sorted(target - start)
    return MovePlan(moves=tuple(zip(froms, tos)))
