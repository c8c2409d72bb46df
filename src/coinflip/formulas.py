"""Closed-form move counts for flipping coin triangles and rhombi.

Each family has three equivalent calculations:

  old        - floor-divide the coin total (by 3 for triangles, 4 for rhombi)
               and discard the remainder;
  new        - a sum of k triangular numbers, one per protruding triangle
               (k = 3 for triangles, 2 for rhombi);
  polynomial - the new formula with the triangular numbers multiplied out.

The new formula is one rule for both puzzles, the paper's connection
between the rhombus and the triangle: with m, q = divmod(rows - 1, k),
q protrusions have m + 1 rows and the other k - q have m rows.

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


def _split_moves(rows: int, k: int) -> Decomposition:
    """q parts T(m + 1), then k - q parts T(m), for m, q = divmod(rows - 1, k).
    The quotient is shifted: divmod(rows, k) overshoots when k divides rows
    (a 6-row triangle would give 15 moves instead of 7)."""
    _check_rows(rows)
    m, q = divmod(rows - 1, k)
    parts = (triangular(m + 1),) * q + (triangular(m),) * (k - q)
    return Decomposition(parts=parts, moves=sum(parts))


def _split_polynomial(rows: int, k: int) -> int:
    """_split_moves multiplied out: q·T(m + 1) + (k - q)·T(m) is
    (k·m² + (k + 2q)·m + 2q) / 2."""
    _check_rows(rows)
    m, q = divmod(rows - 1, k)
    return (k * m * m + (k + 2 * q) * m + 2 * q) // 2


# -- triangles ---------------------------------------------------------------


def triangle_moves_old(rows: int) -> int:
    """Divide the coin total by 3 and ignore the remainder."""
    _check_rows(rows)
    return triangular(rows) // 3


def triangle_moves_new(rows: int) -> Decomposition:
    """Three triangular numbers: with m, q = divmod(rows - 1, 3),
    (T(m), T(m), T(m)), (T(m+1), T(m), T(m)) or (T(m+1), T(m+1), T(m))
    for q = 0, 1, 2."""
    return _split_moves(rows, 3)


def triangle_moves_polynomial(rows: int) -> int:
    """The triangle decomposition multiplied out: (3m^2 + 3m) / 2,
    (3m^2 + 5m + 2) / 2 or (3m^2 + 7m + 4) / 2 for q = 0, 1, 2."""
    return _split_polynomial(rows, 3)


def triangle_move_increment(rows: int) -> int:
    """How many more moves row count `rows` needs than `rows - 1`:
    ceil((rows - 1) / 3), so the increments go 1, 1, 1, 2, 2, 2, 3, ..."""
    if rows < 2:
        raise ValueError(f"increment needs rows >= 2, got {rows}")
    return triangle_moves_new(rows).moves - triangle_moves_new(rows - 1).moves


# -- rhombi ------------------------------------------------------------------


def rhombus_moves_old(rows: int) -> int:
    """Divide the coin total (rows squared) by 4 and ignore the remainder."""
    _check_rows(rows)
    return rows * rows // 4


def rhombus_moves_new(rows: int) -> Decomposition:
    """Two triangular numbers: with m, q = divmod(rows - 1, 2), (T(m), T(m))
    for odd rows and (T(m+1), T(m)) for even rows."""
    return _split_moves(rows, 2)


def rhombus_moves_polynomial(rows: int) -> int:
    """The rhombus decomposition multiplied out: m^2 + m for odd rows and
    (m + 1)^2 for even rows, with m = (rows - 1) // 2."""
    return _split_polynomial(rows, 2)
