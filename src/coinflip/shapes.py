"""The table of generated shape families, their shapes, and the shape
file format.

A generated shape is a family of FAMILIES and a size: `build(name, n)`.
Any other shape is read from a shape file by `load_custom`.
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from coinflip import formulas
from coinflip.lattice import Box, FlipKind

# The shape-file line grammar, once the line's padding is stripped. int()
# alone would also take "1_0", "+3" and non-ASCII digits, and str.split()
# and str.strip() every Unicode blank, such as a form feed or an NBSP.
_COORDS = re.compile(r"(-?[0-9]+)[ \t]+(-?[0-9]+)")


class ShapeFormatError(ValueError):
    """Raised for malformed shape files; the message starts with the
    1-based line number when there is one."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


def load_custom(source: str) -> frozenset:
    """Parse shape file text: one `a b` coordinate pair per line.

    Each coordinate is an optional minus sign and ASCII digits. The two
    are separated by ASCII spaces or tabs, which may also pad the line.

    `#` starts a comment line; blank lines are ignored; a CR is accepted
    only before an LF. Duplicate coordinates and empty shapes are rejected.
    """
    coins: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(source.replace("\r\n", "\n").split("\n"), start=1):
        if "\r" in raw:
            raise ShapeFormatError("stray carriage return; only CRLF may end a line", lineno)
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        fields = _COORDS.fullmatch(line)
        try:
            if fields is None:
                raise ValueError
            # int() still refuses numbers past its digit limit
            coord = (int(fields[1]), int(fields[2]))
        except ValueError:
            raise ShapeFormatError(
                f"expected two integers `a b`, got {line!r}", lineno
            ) from None
        if coord in coins:
            raise ShapeFormatError(
                f"duplicate coordinate {coord[0]} {coord[1]} "
                f"(first seen on line {coins[coord]})",
                lineno,
            )
        coins[coord] = lineno
    if not coins:
        raise ShapeFormatError("shape file contains no coins")
    return frozenset(coins)


class Family(NamedTuple):
    """One generated shape family: the box of each size, the flip its
    puzzle asks for, and, for the paper's two puzzles, the move-count
    formulas and their table.

    The formulas are `coinflip.formulas.{name}_moves_{old,new,polynomial}`,
    looked up when `formula` is called, so a patched module function is
    the one used. A puzzle has one protrusion per part of `formula("new")(n)`.
    """

    name: str
    box: Callable[[int], Box]  # shape n is box(n).points()
    coin_count: Callable[[int], int]  # len(box(n).points())
    default_flip: FlipKind = FlipKind.ROTATE_180
    # Puzzle families only (the rest keep these defaults):
    cross_check_flips: tuple[FlipKind, ...] = ()  # verify's other flips
    divisor: int | None = None  # the old formula is coin_count // divisor
    old_column: str = ""  # the table's name for coin_count / divisor
    increments: bool = False  # the table shows each row's move increment

    @property
    def is_puzzle(self) -> bool:
        """Whether the paper gives move-count formulas for this family."""
        return self.divisor is not None

    def formula(self, kind: str) -> Callable:
        """The family's "old", "new" or "polynomial" move count."""
        return getattr(formulas, f"{self.name}_moves_{kind}")


FAMILIES = {
    family.name: family
    for family in (
        Family(
            "triangle",
            lambda n: Box(0, n - 1, 0, n - 1, 0, n - 1),
            lambda n: formulas.triangular(n),
            divisor=3,
            old_column="old_formula",
            increments=True,
        ),
        Family(
            "rhombus",
            lambda n: Box(0, n - 1, 0, n - 1, 0, 2 * n - 2),
            lambda n: n * n,
            default_flip=FlipKind.MIRROR_HORIZONTAL,
            cross_check_flips=(FlipKind.MIRROR_VERTICAL,),
            divisor=4,
            old_column="coins_div_4",
        ),
        Family(
            "hexagon",
            lambda k: Box(1 - k, k - 1, 1 - k, k - 1, 1 - k, k - 1),
            lambda k: 3 * k * k - 3 * k + 1,
        ),
    )
}


def family(name: str, n: int) -> Family:
    """FAMILIES[name], once `n` is checked as one of its sizes.

    Raises ValueError for a name not in FAMILIES or a size below 1.
    """
    found = FAMILIES.get(name)
    if found is None:
        raise ValueError(f"unknown shape kind {name!r}")
    if n < 1:
        raise ValueError(f"{name} size must be >= 1, got {n}")
    return found


def build(name: str, n: int) -> frozenset:
    """The coins of shape `name` of size `n`, a family of FAMILIES."""
    return family(name, n).box(n).points()


def triangle_up(n: int) -> frozenset:
    """Upward triangle of n rows: 1 coin on top, n on the bottom edge."""
    return build("triangle", n)


def rhombus(n: int) -> frozenset:
    """Right-leaning rhombus with n coins on each side (n*n total)."""
    return build("rhombus", n)


def hexagon(k: int) -> frozenset:
    """Centered hexagon of side k: 3k^2 - 3k + 1 coins, symmetric under
    180-degree rotation."""
    return build("hexagon", k)
