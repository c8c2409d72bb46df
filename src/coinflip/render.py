"""Superimposition diagrams: ASCII for terminals, SVG for everything else.

Both renderers draw the union of the start shape and the placed image
with three marks: coins that stay (overlap), coins that must move out
(start only), and the holes they move into (image only).
"""

from __future__ import annotations

from coinflip.lattice import SQRT3, Box, as_coin_set, embed

ASCII_GLYPHS = {"stay": "O", "source": ".", "target": "*"}

ASCII_LEGEND = "legend: O = stays put   . = must move   * = destination"


def classify_cells(start, target) -> dict[tuple[int, int], str]:
    """Each coin of start and target, as "stay" (in both), "source" (start
    only) or "target" (target only). It labels only the coins it is given
    and does not check that each is an (a, b) pair; the diagrams do, when
    they place them."""
    cells = dict.fromkeys(as_coin_set(start), "source")
    for c in as_coin_set(target):
        cells[c] = "stay" if c in cells else "target"
    return cells


# An ASCII grid holds lines x columns characters however few coins it
# shows, so far-apart coins would ask for an unbounded string. 16 Mi
# characters is about a 2900 x 5800 grid: far past anything a terminal
# shows, yet bounded. SVG output is one element per coin and has no size cap.
MAX_ASCII_CHARS = 1 << 24

# SVG places each coin at the float centre a + b/2, which is exact while
# |a| and |b| stay below 2^51; past it two coins could share a centre.
MAX_SVG_COORD = 1 << 51


def _grid_box(cells) -> tuple[int, int, int, int]:
    """Top lattice row, leftmost column, line count and column count."""
    cols = [2 * a + b for a, b in cells]
    rows = [b for _, b in cells]
    b_hi, min_col = max(rows), min(cols)
    return b_hi, min_col, b_hi - min(rows) + 1, max(cols) - min_col + 1


def ascii_diagram(start, target) -> str:
    """Character grid of the superimposition.

    Each lattice row (constant b) gets one text line, shifted half a cell
    per row so the layout mimics penny packing: column = 2a + b.
    Raises ValueError, before drawing, when the grid would hold more than
    MAX_ASCII_CHARS characters.
    """
    cells = classify_cells(start, target)
    b_hi, min_col, height, width = _grid_box(cells)
    if height * width > MAX_ASCII_CHARS:
        raise ValueError(
            f"ASCII diagram would be {height} lines x {width} columns = "
            f"{height * width} characters, over the limit of {MAX_ASCII_CHARS}"
        )
    by_row: dict[int, list[tuple[int, str]]] = {}
    for (a, b), kind in cells.items():
        by_row.setdefault(b, []).append((2 * a + b - min_col, ASCII_GLYPHS[kind]))
    lines = []
    for b in range(b_hi, b_hi - height, -1):
        line = [" "] * width
        for col, glyph in by_row.get(b, ()):
            line[col] = glyph
        lines.append("".join(line).rstrip())
    return "\n".join(lines)


_SVG_STYLE = """\
    .stay { fill: #1a1a1a; }
    .source { fill: #ffffff; stroke: #1a1a1a; stroke-width: 0.06; }
    .target { fill: #2f9e44; }"""


def fits_svg(cells) -> bool:
    """Whether every cell's |a| and |b| stay below MAX_SVG_COORD, so that
    svg_diagram can place each one exactly: the bounds of the cells' box
    (`Box.of`, which raises for a cell that is not a pair) do."""
    box = Box.of(cells)
    return max(-box.a_lo, box.a_hi, -box.b_lo, box.b_hi) < MAX_SVG_COORD


def svg_diagram(start, target) -> str:
    """SVG with unit-diameter circles at the exact lattice embedding.

    Raises ValueError, before drawing, when a coin's |a| or |b| reaches
    MAX_SVG_COORD.
    """
    cells = classify_cells(start, target)
    if not fits_svg(cells):
        raise ValueError(
            f"SVG diagram needs every coordinate below {MAX_SVG_COORD} (2^51) "
            "in absolute value to place each coin exactly"
        )
    # the edges: x = a + b/2 is grid column 2a + b halved; svg's y = -b·√3/2
    b_hi, min_col, lines, columns = _grid_box(cells)
    b_lo, max_col = b_hi - lines + 1, min_col + columns - 1
    left, right = min_col / 2.0, max_col / 2.0
    top, bottom = -(b_hi * (SQRT3 / 2.0)), -(b_lo * (SQRT3 / 2.0))
    width, height = right - left + 2.0, bottom - top + 3.2  # room for the legend
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{left - 1.0:.4f} {top - 1.0:.4f} {width:.4f} {height:.4f}" '
        f'width="{width * 24:.0f}" height="{height * 24:.0f}">',
        f"  <style>\n{_SVG_STYLE}\n  </style>",
    ]
    for c in sorted(cells):
        x, y = embed(c)
        out.append(f'  <circle class="{cells[c]}" cx="{x:.4f}" cy="{-y:.4f}" r="0.5"/>')
    legend_y = bottom + 1.6
    for dx, kind, label in (
        (0.0, "stay", "stays"),
        (2.5, "source", "moves"),
        (5.0, "target", "destination"),
    ):
        out.append(
            f'  <circle class="{kind}" cx="{left + dx:.4f}" '
            f'cy="{legend_y:.4f}" r="0.35"/>'
        )
        out.append(
            f'  <text x="{left + dx + 0.55:.4f}" y="{legend_y + 0.18:.4f}" '
            f'font-size="0.5" font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out)
