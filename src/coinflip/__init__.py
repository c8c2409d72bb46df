"""coinflip: exact solver and verifier for coin-flipping puzzles.

Flip a triangle of pennies upside down, or mirror a rhombus of coins,
moving as few coins as possible. This package generates the shapes,
finds the exact minimum by exhaustive superimposition search, and checks
the closed-form move-count formulas against that oracle.
"""

from coinflip.formulas import (
    Decomposition,
    rhombus_moves_new,
    rhombus_moves_old,
    rhombus_moves_polynomial,
    triangle_move_increment,
    triangle_moves_new,
    triangle_moves_old,
    triangle_moves_polynomial,
    triangular,
)
from coinflip.lattice import (
    FlipKind,
    classify_triangle,
    connected_components,
    distance_sq,
)
from coinflip.oracle import (
    MovePlan,
    OverlapResult,
    Placement,
    ProtrusionReport,
    backend,
    move_plan,
    protrusion_sizes,
    protrusions,
    solve,
    target_set,
)
from coinflip.shapes import (
    ShapeFormatError,
    hexagon,
    load_custom,
    rhombus,
    triangle_up,
)

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "FlipKind",
    "MovePlan",
    "OverlapResult",
    "Placement",
    "ProtrusionReport",
    "ShapeFormatError",
    "backend",
    "classify_triangle",
    "connected_components",
    "distance_sq",
    "hexagon",
    "load_custom",
    "move_plan",
    "protrusion_sizes",
    "protrusions",
    "rhombus",
    "rhombus_moves_new",
    "rhombus_moves_old",
    "rhombus_moves_polynomial",
    "solve",
    "target_set",
    "triangle_move_increment",
    "triangle_moves_new",
    "triangle_moves_old",
    "triangle_moves_polynomial",
    "triangle_up",
    "triangular",
]
