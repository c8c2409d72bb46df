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

Both kernels name each shift by one integer key, (da - a0)·H + (db - b0)
with H the combined b-extent of the two shapes, so that ascending keys
are ascending (da, db); the product kernel's grid has one row of H cells
per da, and a cell's index is its key. A far-flung shape can tie hundreds
of thousands of shifts, so solve() keeps the sorted keys and
`Placements` decodes a placement only when it is read.

Coin inputs may be any iterable of (a, b) pairs. A frozenset of Coord,
as the shape generators and the shape-file parser return it, is used as
it is; anything else is converted once (lattice.as_coin_set). The
flipped image handed to the scan is a list of plain tuples, and every
coin returned (in target_set, Component.coins, MovePlan.moves) is a
Coord.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice
from operator import attrgetter, eq
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
    by shift. Each Placement is decoded from `shifts` when it is read;
    membership is a binary search. Compares equal to a tuple of the same
    placements, and hashes like one."""

    __slots__ = ("flip", "shifts")

    def __init__(self, flip: FlipKind, shifts: _scan.Shifts):
        self.flip, self.shifts = flip, shifts

    def __len__(self) -> int:
        return len(self.shifts)

    def __getitem__(self, i) -> Placement:
        return Placement(self.flip, self.shifts[i])

    def __iter__(self):
        flip = self.flip
        for shift in self.shifts:
            yield Placement(flip, shift)

    def __contains__(self, placement) -> bool:
        try:
            flip, shift = placement
        except (TypeError, ValueError):
            return False
        return flip == self.flip and shift in self.shifts

    def __eq__(self, other):
        if isinstance(other, Placements):
            return self.flip == other.flip and self.shifts == other.shifts
        if isinstance(other, tuple):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Placements({self.flip}, {list(self.shifts)!r})"


class OverlapResult:
    """The exact answer for one flip: coins, best overlap, moves, and
    every placement that reaches it.

    A value record like the named tuples below, but a slotted class, so
    that a result can be weakly referenced (a tuple cannot). Its fields
    are read-only, it compares and hashes by value, and `_replace` makes
    a changed copy.
    """

    _fields = ("total_coins", "max_overlap", "min_moves", "optimal_placements")
    __slots__ = (*_fields, "__weakref__")

    def __init__(self, total_coins: int, max_overlap: int, min_moves: int,
                 optimal_placements: Placements):
        init = object.__setattr__
        init(self, "total_coins", total_coins)
        init(self, "max_overlap", max_overlap)
        init(self, "min_moves", min_moves)
        init(self, "optimal_placements", optimal_placements)

    _values = property(attrgetter(*_fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values))
        return f"OverlapResult({pairs})"

    def __reduce__(self):
        return OverlapResult, self._values

    def _replace(self, **changes) -> OverlapResult:
        return OverlapResult(**{**dict(zip(self._fields, self._values)), **changes})


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
    best, shifts = _scan.scan_pairs(list(start), flip_points(start, flip))
    return OverlapResult(
        total_coins=len(start),
        max_overlap=best,
        min_moves=len(start) - best,
        optimal_placements=Placements(flip, shifts),
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
