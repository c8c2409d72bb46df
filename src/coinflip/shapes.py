"""Coin shape generators, the table of generated families, and the shape
file format."""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

from coinflip import formulas
from coinflip.lattice import Coord, FlipKind

# The shape-file integer grammar. int() alone would also take "1_0", "+3"
# and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


class ShapeFormatError(ValueError):
    """Raised for malformed shape files; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def triangle_up(n: int) -> frozenset:
    """Upward triangle of n rows: 1 coin on top, n on the bottom edge."""
    if n < 1:
        raise ValueError(f"triangle needs at least 1 row, got {n}")
    return frozenset(Coord(a, b) for b in range(n) for a in range(n - b))


def rhombus(n: int) -> frozenset:
    """Right-leaning rhombus with n coins on each side (n*n total)."""
    if n < 1:
        raise ValueError(f"rhombus needs at least 1 row, got {n}")
    return frozenset(Coord(a, b) for a in range(n) for b in range(n))


def hexagon(k: int) -> frozenset:
    """Centered hexagon of side k: 3k^2 - 3k + 1 coins, symmetric under
    180-degree rotation."""
    if k < 1:
        raise ValueError(f"hexagon needs side at least 1, got {k}")
    r = k - 1
    return frozenset(
        Coord(a, b)
        for a in range(-r, r + 1)
        for b in range(-r, r + 1)
        if abs(a + b) <= r
    )


def load_custom(source: str) -> frozenset:
    """Parse shape file text: one `a b` coordinate pair per line.

    Each coordinate is an optional minus sign and ASCII digits.

    Lines starting with `#` are comments; blank lines are ignored; CRLF is
    accepted. Duplicate coordinates and empty shapes are rejected.
    """
    coins: dict[Coord, int] = {}
    for lineno, raw in enumerate(source.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if len(parts) != 2 or not all(map(_INTEGER.fullmatch, parts)):
                raise ValueError
            # int() still refuses numbers past its digit limit
            coord = Coord(int(parts[0]), int(parts[1]))
        except ValueError:
            raise ShapeFormatError(
                f"expected two integers `a b`, got {line!r}", lineno
            ) from None
        if coord in coins:
            raise ShapeFormatError(
                f"duplicate coordinate {coord.a} {coord.b} "
                f"(first seen on line {coins[coord]})",
                lineno,
            )
        coins[coord] = lineno
    if not coins:
        raise ShapeFormatError("shape file contains no coins")
    return frozenset(coins)


def serialize(coins) -> str:
    """Inverse of load_custom: sorted `a b` lines, LF-terminated."""
    return "".join(f"{a} {b}\n" for a, b in sorted(coins))


class Family(NamedTuple):
    """One generated shape family: its shapes, the flip its puzzle asks
    for, and, for the paper's two puzzles, the move-count formulas and
    their table.

    The formulas are `coinflip.formulas.{name}_moves_{old,new,polynomial}`,
    looked up when `formula` is called, so a patched module function is
    the one used.
    """

    name: str
    generator: Callable[[int], frozenset]
    coin_count: Callable[[int], int]  # len(generator(n))
    # The vertices of generator(n)'s convex hull. Every flip is linear, so
    # the extremes of a flipped shape's coordinates lie at these too.
    corners: Callable[[int], list[tuple[int, int]]]
    default_flip: FlipKind = FlipKind.ROTATE_180
    # Puzzle families only (the rest keep these defaults):
    protrusion_arity: int | None = None  # protruding triangles per solution
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
            triangle_up,
            lambda n: formulas.triangular(n),
            lambda n: [(0, 0), (n - 1, 0), (0, n - 1)],
            protrusion_arity=3,
            divisor=3,
            old_column="old_formula",
            increments=True,
        ),
        Family(
            "rhombus",
            rhombus,
            lambda n: n * n,
            lambda n: [(0, 0), (n - 1, 0), (0, n - 1), (n - 1, n - 1)],
            default_flip=FlipKind.MIRROR_HORIZONTAL,
            protrusion_arity=2,
            cross_check_flips=(FlipKind.MIRROR_VERTICAL,),
            divisor=4,
            old_column="coins_div_4",
        ),
        Family(
            "hexagon",
            hexagon,
            lambda k: 3 * k * k - 3 * k + 1,
            lambda k: [
                (k - 1, 0), (0, k - 1), (1 - k, k - 1), (1 - k, 0), (0, 1 - k), (k - 1, 1 - k)
            ],
        ),
    )
}


class _ShapeRequest(NamedTuple):
    kind: str
    size: int = 0
    name: str = ""


class ShapeSpec(_ShapeRequest):
    """A named shape request: a family of FAMILIES plus size, or "custom"
    with an optional name. Checked when it is made, `_replace` included."""

    __slots__ = ()

    def __new__(cls, kind: str, size: int = 0, name: str = ""):
        family = FAMILIES.get(kind)
        if family is None and kind != "custom":
            raise ValueError(f"unknown shape kind {kind!r}")
        if family and size < 1:
            raise ValueError(f"{kind} size must be >= 1, got {size}")
        return tuple.__new__(cls, (kind, size, name))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def family(self) -> Family | None:
        return FAMILIES.get(self.kind)

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom {self.name}" if self.name else "custom"
        return f"{self.kind} {self.size}"


def build(spec: ShapeSpec) -> frozenset:
    """Generate the coin set for a non-custom spec."""
    if spec.family is None:
        raise ValueError("custom shapes are loaded from a file, not generated")
    return spec.family.generator(spec.size)


def default_flip(spec: ShapeSpec) -> FlipKind:
    """The flip each family's puzzle asks for.

    Triangles invert by 180-degree rotation; rhombi flip horizontally.
    Hexagons and custom shapes default to the rotation.
    """
    return spec.family.default_flip if spec.family else FlipKind.ROTATE_180


def protrusion_arity(spec: ShapeSpec) -> int | None:
    """Expected protrusion count: 3 for triangles, 2 for rhombi, raw otherwise."""
    return spec.family.protrusion_arity if spec.family else None
