"""Coin shape generators and the shape file format."""

from __future__ import annotations

import re
from dataclasses import dataclass

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


@dataclass(frozen=True)
class ShapeSpec:
    """A named shape request: generator family plus size, or a custom name."""

    kind: str  # "triangle" | "rhombus" | "hexagon" | "custom"
    size: int = 0
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("triangle", "rhombus", "hexagon", "custom"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind != "custom" and self.size < 1:
            raise ValueError(f"{self.kind} size must be >= 1, got {self.size}")

    def label(self) -> str:
        if self.kind == "custom":
            return f"custom {self.name}" if self.name else "custom"
        return f"{self.kind} {self.size}"


def build(spec: ShapeSpec) -> frozenset:
    """Generate the coin set for a non-custom spec."""
    if spec.kind == "triangle":
        return triangle_up(spec.size)
    if spec.kind == "rhombus":
        return rhombus(spec.size)
    if spec.kind == "hexagon":
        return hexagon(spec.size)
    raise ValueError("custom shapes are loaded from a file, not generated")


def default_flip(spec: ShapeSpec) -> FlipKind:
    """The flip each family's puzzle asks for.

    Triangles invert by 180-degree rotation; rhombi flip horizontally.
    Hexagons and custom shapes default to the rotation.
    """
    if spec.kind == "rhombus":
        return FlipKind.MIRROR_HORIZONTAL
    return FlipKind.ROTATE_180


def protrusion_arity(spec: ShapeSpec) -> int | None:
    """Expected protrusion count: 3 for triangles, 2 for rhombi, raw otherwise."""
    if spec.kind == "triangle":
        return 3
    if spec.kind == "rhombus":
        return 2
    return None
