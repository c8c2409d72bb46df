"""Closed-form move counts for flipping coin triangles and rhombi.

Each family has three equivalent calculations:

  old        - floor-divide the coin total (by 3 for triangles, 4 for rhombi)
               and discard the remainder;
  new        - a sum of triangular numbers (three for triangles, two for
               rhombi) selected by the remainder of a row-count division;
  polynomial - the new formula with the triangular numbers multiplied out.

All three agree for every row count; the oracle module confirms the value
is actually the minimum move count.
"""

from __future__ import annotations

from dataclasses import dataclass


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2, with T(0) = 0."""
    if k < 0:
        raise ValueError(f"triangular index must be >= 0, got {k}")
    return k * (k + 1) // 2


@dataclass(frozen=True)
class DivisionWitness:
    """Quotient/remainder pair that picks a branch of the piecewise formulas."""

    m: int
    p: int


@dataclass(frozen=True)
class Decomposition:
    """Triangular numbers (descending, zeros allowed) summing to the move
    count: three for a triangle, two for a rhombus."""

    parts: tuple[int, ...]
    moves: int

    def text(self) -> str:
        return " + ".join(str(p) for p in self.parts)


def _check_rows(rows: int):
    if rows < 1:
        raise ValueError(f"row count must be >= 1, got {rows}")


# -- triangles ---------------------------------------------------------------


def triangle_moves_old(rows: int) -> int:
    """Divide the coin total by 3 and ignore the remainder."""
    _check_rows(rows)
    return triangular(rows) // 3


def triangle_division(rows: int) -> DivisionWitness:
    """Row division selecting the triangle formula branch.

    The quotient is floor((rows - 1) / 3), not floor(rows / 3): with the
    standard quotient the p = 0 branch overshoots (rows = 6 would give 15
    instead of 7). The shifted quotient matches the brute-force oracle on
    all three branches.
    """
    _check_rows(rows)
    return DivisionWitness(m=(rows - 1) // 3, p=rows % 3)


def triangle_moves_new(rows: int) -> Decomposition:
    """Move count as a sum of three triangular numbers."""
    w = triangle_division(rows)
    tm = triangular(w.m)
    tm1 = triangular(w.m + 1)
    if w.p == 1:
        parts = (tm, tm, tm)
    elif w.p == 2:
        parts = (tm1, tm, tm)
    else:
        parts = (tm1, tm1, tm)
    return Decomposition(parts=parts, moves=sum(parts))


def triangle_moves_polynomial(rows: int) -> int:
    """The triangle decomposition multiplied out.

    The p = 1 branch is (3m^2 + 3m) / 2, the correct expansion of
    3 * m(m+1)/2.
    """
    w = triangle_division(rows)
    m = w.m
    if w.p == 1:
        return (3 * m * m + 3 * m) // 2
    if w.p == 2:
        return (3 * m * m + 5 * m + 2) // 2
    return (3 * m * m + 7 * m + 4) // 2


def triangle_move_increment(rows: int) -> int:
    """How many more moves row count `rows` needs than `rows - 1`.

    Equals ceil((rows - 1) / 3): the increments go 1, 1, 1, 2, 2, 2, 3, ...
    """
    if rows < 2:
        raise ValueError(f"increment needs rows >= 2, got {rows}")
    return triangle_moves_new(rows).moves - triangle_moves_new(rows - 1).moves


# -- rhombi ------------------------------------------------------------------


def rhombus_moves_old(rows: int) -> int:
    """Divide the coin total (rows squared) by 4 and ignore the remainder."""
    _check_rows(rows)
    return rows * rows // 4


def rhombus_division(rows: int) -> DivisionWitness:
    """Row division selecting the rhombus formula branch (plain rows = 2m + p)."""
    _check_rows(rows)
    return DivisionWitness(m=rows // 2, p=rows % 2)


def rhombus_moves_new(rows: int) -> Decomposition:
    """Move count as a sum of two triangular numbers."""
    w = rhombus_division(rows)
    if w.p == 1:
        parts = (triangular(w.m), triangular(w.m))
    else:
        parts = (triangular(w.m), triangular(w.m - 1))
    return Decomposition(parts=parts, moves=sum(parts))


def rhombus_moves_polynomial(rows: int) -> int:
    """The rhombus decomposition multiplied out: m^2 + m or m^2."""
    w = rhombus_division(rows)
    return w.m * w.m + (w.m if w.p == 1 else 0)
