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
shifts, so solve() keeps the sorted keys with the scan's `_scan.Grid`,
and `Placements` decodes a placement through that grid (`Grid.shift`,
`Grid.key`) only when it is read. The key layout stays in `_scan`.

Coin inputs may be any iterable of (a, b) pairs. A frozenset of Coord,
as the shape generators and the shape-file parser return it, is used as
it is; anything else is converted once (lattice.as_coin_set). The
flipped image handed to the scan is a list of plain tuples, and every
coin returned (in target_set, Component.coins, MovePlan.moves) is a
Coord.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from itertools import islice
from operator import eq
from typing import NamedTuple, Optional

from coinflip import _scan
from coinflip.lattice import (
    Coord,
    FlipKind,
    as_coin_set,
    classify_triangle,
    connected_components,
    flip_points,
    flip_translate,
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
    by shift. It holds the scan's sorted tie keys, and each Placement is
    decoded through `grid` when it is read; membership is a binary search.
    Compares equal to a tuple of the same placements, and hashes like one.
    It can be weakly referenced, so that a caller can check that the tie
    keys it holds have been freed."""

    __slots__ = ("flip", "keys", "grid", "__weakref__")

    def __init__(self, flip: FlipKind, keys: list[int], grid: _scan.Grid):
        self.flip, self.keys, self.grid = flip, keys, grid

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i) -> Placement:
        return Placement(self.flip, self.grid.shift(self.keys[i]))

    def __iter__(self):
        flip = self.flip
        for shift in map(self.grid.shift, self.keys):
            yield Placement(flip, shift)

    def __contains__(self, placement) -> bool:
        try:
            flip, shift = placement
            key = self.grid.key(shift)
        except (TypeError, ValueError):
            return False
        if flip != self.flip or key is None:
            return False
        i = bisect_left(self.keys, key)
        return i < len(self.keys) and self.keys[i] == key

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
    """A connected protrusion and its triangle classification (or None)."""

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

    moves: tuple[tuple[Coord, Coord], ...]

    def apply(self, start) -> frozenset:
        start = as_coin_set(start)
        froms = frozenset(m[0] for m in self.moves)
        tos = frozenset(m[1] for m in self.moves)
        if not froms <= start:
            raise ValueError("plan does not apply: missing source coins")
        return (start - froms) | tos


def target_set(start, placement: Placement) -> frozenset:
    """The flipped-and-shifted image the placement superimposes on start."""
    return flip_translate(start, placement.flip, placement.shift)


def solve(start, flip: FlipKind) -> OverlapResult:
    """Exhaustive search for the minimum number of moves.

    Every translation achieving any overlap at all is evaluated, so the
    reported maximum is exact and optimal_placements holds all maximizing
    shifts in ascending (da, db) order, as a lazy read-only sequence.
    """
    start = as_coin_set(start)
    if not start:
        raise ValueError("cannot solve an empty coin set")
    best, keys, grid = _scan.scan_pairs(list(start), flip_points(start, flip))
    return OverlapResult(
        total_coins=len(start),
        max_overlap=best,
        min_moves=len(start) - best,
        optimal_placements=Placements(flip, keys, grid),
    )


# A rejection lists this many optimal shifts, not all of them: a far-flung
# shape can tie hundreds of thousands.
_SHIFTS_SHOWN = 5


def _require_optimal(start, placement, result):
    if result is None:
        result = solve(start, placement.flip)
    optimal = result.optimal_placements
    if placement not in optimal:
        shown = ", ".join(str(p.shift) for p in islice(optimal, _SHIFTS_SHOWN))
        if len(optimal) > _SHIFTS_SHOWN:
            shown += ", ..."
        raise ValueError(
            f"placement {placement} is not optimal; the {len(optimal)} "
            f"optimal shifts are [{shown}]"
        )
    return result


def _as_components(coins) -> tuple[Component, ...]:
    return tuple(
        Component(coins=c, size=len(c), triangle=classify_triangle(c))
        for c in connected_components(coins)
    )


def protrusions(
    start,
    placement: Placement,
    expected_parts: Optional[int] = None,
    result: Optional[OverlapResult] = None,
) -> ProtrusionReport:
    """Decompose an optimal placement into the coin clusters that move.

    Source components are the start coins outside the overlap; target
    components are the uncovered image coins they move into. The size
    multiset is sorted descending and zero-padded to expected_parts
    (3 for triangles, 2 for rhombi; pass None to keep the raw count).

    Pass the OverlapResult from solve() to skip re-solving; the placement
    is rejected if it is not one of the optimal ones.
    """
    start = as_coin_set(start)
    _require_optimal(start, placement, result)
    target = target_set(start, placement)
    source_components = _as_components(start - target)
    target_components = _as_components(target - start)
    sizes = sorted((c.size for c in source_components), reverse=True)
    if expected_parts is not None:
        if len(sizes) > expected_parts:
            raise ValueError(
                f"{len(sizes)} protrusions exceed the expected {expected_parts}"
            )
        sizes += [0] * (expected_parts - len(sizes))
    return ProtrusionReport(
        placement=placement,
        source_components=source_components,
        target_components=target_components,
        size_multiset=tuple(sizes),
    )


def move_plan(
    start,
    placement: Placement,
    result: Optional[OverlapResult] = None,
) -> MovePlan:
    """Explicit coin moves realizing an optimal placement.

    Sources and destinations are paired in lexicographic order; any
    pairing costs the same number of moves, this one is just canonical.
    """
    start = as_coin_set(start)
    _require_optimal(start, placement, result)
    target = target_set(start, placement)
    froms = sorted(start - target)
    tos = sorted(target - start)
    return MovePlan(moves=tuple(zip(froms, tos)))
