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

from typing import NamedTuple


def triangular(k: int) -> int:
    """k-th triangular number k(k+1)/2, with T(0) = 0."""
    if k < 0:
        raise ValueError(f"triangular index must be >= 0, got {k}")
    return k * (k + 1) // 2


class Decomposition(NamedTuple):
    """Triangular numbers (descending, zeros allowed) summing to the move
    count: three for a triangle, two for a rhombus."""

    parts: tuple[int, ...]
    moves: int

    def text(self) -> str:
        return " + ".join(map(str, self.parts))


def _check_rows(rows: int):
    if rows < 1:
        raise ValueError(f"row count must be >= 1, got {rows}")


# -- triangles ---------------------------------------------------------------


def triangle_moves_old(rows: int) -> int:
    """Divide the coin total by 3 and ignore the remainder."""
    _check_rows(rows)
    return triangular(rows) // 3


def triangle_moves_new(rows: int) -> Decomposition:
    """Move count as a sum of three triangular numbers.

    The row division that picks the branch is m = floor((rows - 1) / 3),
    p = rows mod 3. The quotient is shifted: with floor(rows / 3) the
    p = 0 branch overshoots (rows = 6 would give 15 instead of 7). The
    shifted quotient matches the brute-force oracle on all three branches.
    """
    _check_rows(rows)
    m, p = (rows - 1) // 3, rows % 3
    tm = triangular(m)
    tm1 = triangular(m + 1)
    if p == 1:
        parts = (tm, tm, tm)
    elif p == 2:
        parts = (tm1, tm, tm)
    else:
        parts = (tm1, tm1, tm)
    return Decomposition(parts=parts, moves=sum(parts))


def triangle_moves_polynomial(rows: int) -> int:
    """The triangle decomposition multiplied out, with the same shifted
    division as triangle_moves_new.

    The p = 1 branch is (3m^2 + 3m) / 2, the correct expansion of
    3 * m(m+1)/2.
    """
    _check_rows(rows)
    m, p = (rows - 1) // 3, rows % 3
    if p == 1:
        return (3 * m * m + 3 * m) // 2
    if p == 2:
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


def rhombus_moves_new(rows: int) -> Decomposition:
    """Move count as a sum of two triangular numbers, with the plain row
    division rows = 2m + p."""
    _check_rows(rows)
    m, p = divmod(rows, 2)
    if p == 1:
        parts = (triangular(m), triangular(m))
    else:
        parts = (triangular(m), triangular(m - 1))
    return Decomposition(parts=parts, moves=sum(parts))


def rhombus_moves_polynomial(rows: int) -> int:
    """The rhombus decomposition multiplied out: m^2 + m or m^2."""
    _check_rows(rows)
    m, p = divmod(rows, 2)
    return m * m + (m if p == 1 else 0)
