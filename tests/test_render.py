import hashlib

import pytest
from hypothesis import example, given, settings, strategies as st

from coinflip import cli
from coinflip.lattice import FlipKind, embed
from coinflip.oracle import solve, target_set
from coinflip.render import (
    ASCII_GLYPHS,
    MAX_ASCII_CHARS,
    MAX_SVG_COORD,
    ascii_diagram,
    classify_cells,
    svg_diagram,
)
from coinflip.shapes import hexagon, triangle_up

point_sets = st.frozensets(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    min_size=1,
    max_size=14,
)


def best_target(shape, flip):
    result = solve(shape, flip)
    return result, target_set(shape, result.optimal_placements[0])


def test_classify_cells_partitions_the_union():
    start = triangle_up(4)
    result, target = best_target(start, FlipKind.ROTATE_180)
    cells = classify_cells(start, target)
    assert set(cells) == start | target
    counts = {kind: 0 for kind in ("stay", "source", "target")}
    for kind in cells.values():
        counts[kind] += 1
    assert counts["stay"] == result.max_overlap == 7
    assert counts["source"] == result.min_moves == 3
    assert counts["target"] == result.min_moves == 3


def test_ascii_triangle_2():
    start = triangle_up(2)
    _, target = best_target(start, FlipKind.ROTATE_180)
    # canonical placement is shift (0, 1): keep the left edge, move the
    # right-hand coin around to the new top
    assert ascii_diagram(start, target) == "* O\n O ."


def test_ascii_symmetric_shape_is_all_stays():
    start = hexagon(2)
    _, target = best_target(start, FlipKind.ROTATE_180)
    art = ascii_diagram(start, target)
    assert set(art) <= {"O", " ", "\n"}
    assert art.count("O") == 7


def test_ascii_rows_and_trailing_whitespace():
    start = triangle_up(5)
    _, target = best_target(start, FlipKind.ROTATE_180)
    art = ascii_diagram(start, target)
    lines = art.split("\n")
    for line in lines:
        assert line == line.rstrip()
    # one text line per lattice row of the union
    union_rows = {b for _, b in classify_cells(start, target)}
    assert len(lines) == len(union_rows)


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=40, deadline=None)
def test_ascii_glyph_counts_match_solution(points, flip):
    result, target = best_target(points, flip)
    art = ascii_diagram(points, target)
    assert art.count(ASCII_GLYPHS["stay"]) == result.max_overlap
    assert art.count(ASCII_GLYPHS["source"]) == result.min_moves
    assert art.count(ASCII_GLYPHS["target"]) == result.min_moves


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=40, deadline=None)
def test_ascii_glyphs_sit_at_their_cells(points, flip):
    _, target = best_target(points, flip)
    cells = classify_cells(points, target)
    lines = ascii_diagram(points, target).split("\n")
    b_hi = max(b for _, b in cells)
    min_col = min(2 * a + b for a, b in cells)
    assert len(lines) == b_hi - min(b for _, b in cells) + 1
    assert max(map(len, lines)) == max(2 * a + b for a, b in cells) - min_col + 1
    kind_of = {glyph: kind for kind, glyph in ASCII_GLYPHS.items()}
    drawn = {}
    for i, line in enumerate(lines):
        b = b_hi - i
        for col, glyph in enumerate(line):
            if glyph != " ":
                assert (col + min_col - b) % 2 == 0
                drawn[((col + min_col - b) // 2, b)] = kind_of[glyph]
    assert drawn == cells


def test_far_flung_ascii_extent_is_computed_not_drawn():
    # only the extent is computed: the grid itself would be 2^40 lines long
    start = frozenset({(0, 0), (2**40, 2**40)})
    _, target = best_target(start, FlipKind.ROTATE_180)
    lines, columns = 2**40 + 1, 3 * 2**40 + 1
    assert lines * columns > MAX_ASCII_CHARS
    with pytest.raises(ValueError, match=f"would be {lines} lines x {columns} columns"):
        ascii_diagram(start, target)


@pytest.mark.parametrize(
    "coin", [(MAX_SVG_COORD, 0), (0, -MAX_SVG_COORD)], ids=["a=2^51", "b=-2^51"]
)
def test_svg_refuses_a_coordinate_at_the_bound(coin):
    start = frozenset({(0, 0), coin})
    with pytest.raises(ValueError, match="SVG diagram needs every coordinate below"):
        svg_diagram(start, start)


def test_svg_structure():
    start = triangle_up(4)
    result, target = best_target(start, FlipKind.ROTATE_180)
    doc = svg_diagram(start, target)
    assert doc.startswith("<svg ")
    assert doc.rstrip().endswith("</svg>")
    assert 'xmlns="http://www.w3.org/2000/svg"' in doc
    assert "viewBox=" in doc
    # one unit circle per cell; the three small ones belong to the legend
    assert doc.count('r="0.5"') == len(start | target) == 13
    assert doc.count('r="0.35"') == 3
    assert doc.count('class="stay"') == result.max_overlap + 1
    assert doc.count('class="source"') == result.min_moves + 1
    assert doc.count('class="target"') == result.min_moves + 1
    for label in ("stays", "moves", "destination"):
        assert label in doc


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=20, deadline=None)
def test_svg_circle_counts_match_solution(points, flip):
    result, target = best_target(points, flip)
    doc = svg_diagram(points, target)
    assert doc.count('r="0.5"') == len(frozenset(points) | target)
    assert doc.count('class="stay"') == result.max_overlap + 1


# The bytes of `render triangle 4 --format svg`, as the CLI prints them.
TRIANGLE_4_SVG = (
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1.0000 -3.5981 5.0000 6.6641" width="120" height="160">\n'
    '  <style>\n'
    '    .stay { fill: #1a1a1a; }\n'
    '    .source { fill: #ffffff; stroke: #1a1a1a; stroke-width: 0.06; }\n'
    '    .target { fill: #2f9e44; }\n'
    '  </style>\n'
    '  <circle class="target" cx="0.0000" cy="-1.7321" r="0.5"/>\n'
    '  <circle class="source" cx="0.0000" cy="-0.0000" r="0.5"/>\n'
    '  <circle class="stay" cx="0.5000" cy="-0.8660" r="0.5"/>\n'
    '  <circle class="stay" cx="1.0000" cy="-1.7321" r="0.5"/>\n'
    '  <circle class="source" cx="1.5000" cy="-2.5981" r="0.5"/>\n'
    '  <circle class="stay" cx="1.0000" cy="-0.0000" r="0.5"/>\n'
    '  <circle class="stay" cx="1.5000" cy="-0.8660" r="0.5"/>\n'
    '  <circle class="stay" cx="2.0000" cy="-1.7321" r="0.5"/>\n'
    '  <circle class="target" cx="1.5000" cy="0.8660" r="0.5"/>\n'
    '  <circle class="stay" cx="2.0000" cy="-0.0000" r="0.5"/>\n'
    '  <circle class="stay" cx="2.5000" cy="-0.8660" r="0.5"/>\n'
    '  <circle class="target" cx="3.0000" cy="-1.7321" r="0.5"/>\n'
    '  <circle class="source" cx="3.0000" cy="-0.0000" r="0.5"/>\n'
    '  <circle class="stay" cx="0.0000" cy="2.4660" r="0.35"/>\n'
    '  <text x="0.5500" y="2.6460" font-size="0.5" font-family="sans-serif">stays</text>\n'
    '  <circle class="source" cx="2.5000" cy="2.4660" r="0.35"/>\n'
    '  <text x="3.0500" y="2.6460" font-size="0.5" font-family="sans-serif">moves</text>\n'
    '  <circle class="target" cx="5.0000" cy="2.4660" r="0.35"/>\n'
    '  <text x="5.5500" y="2.6460" font-size="0.5" font-family="sans-serif">destination</text>\n'
    '</svg>\n'
)


def test_svg_bytes_of_triangle_4(capsys):
    assert cli.main(["render", "triangle", "4", "--format", "svg"]) == 0
    assert capsys.readouterr().out == TRIANGLE_4_SVG


# The six corners of a hexagon of radius 2^50 and three coins near its
# centre: each embedded coordinate needs 51 bits, the most an SVG centre
# is placed exactly with. The sha256 of each flip's SVG, and the first
# line, which all three share.
FAR = 2**50
FAR_SHAPE = (
    (FAR, -FAR), (-FAR, FAR), (FAR, 0), (-FAR, 0), (0, FAR), (0, -FAR),
    (0, 0), (1, 0), (0, 1), (3, -1),
)
FAR_SVG_SHA256 = {
    "rot180": "e2bfceee2e77ef06d41d924a3e8d404287fad906323614ac25d975472fd16682",
    "mirror-h": "4e515456e53d411dc4c3ce557258f2c436e18cad2120fb9043e9c810b88775b1",
    "mirror-v": "d00a19c8bc746c80a0a5f3806729f3e6391c963900b5b043ef0a79f1698d72b9",
}
FAR_SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" '
    'viewBox="-1125899906842625.0000 -975057921444246.2500 '
    '2251799813685250.0000 1950115842888493.7500" '
    'width="54043195528446000" height="46802780229323848">'
)


@pytest.mark.parametrize("flip", sorted(FAR_SVG_SHA256))
def test_svg_bytes_of_a_far_flung_shape(flip, capsys, tmp_path):
    path = tmp_path / "far.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in FAR_SHAPE))
    argv = ["render", "--shape-file", str(path), "--format", "svg", "--flip", flip]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0] == FAR_SVG_HEAD
    assert hashlib.sha256(out.encode()).hexdigest() == FAR_SVG_SHA256[flip]


def per_coin_circles(start, target) -> list[str]:
    """The coin circles as svg_diagram drew them one coin at a time, each
    centre through `embed`: the reference for its once-per-row and
    once-per-column formatting."""
    cells = classify_cells(start, target)
    lines = []
    for c in sorted(cells):
        x, y = embed(c)
        lines.append(f'  <circle class="{cells[c]}" cx="{x:.4f}" cy="{-y:.4f}" r="0.5"/>')
    return lines


NEAR = MAX_SVG_COORD - 1
svg_coords = st.one_of(
    st.integers(-4, 4), st.integers(NEAR - 3, NEAR), st.integers(-NEAR, -NEAR + 3)
)
svg_sets = st.frozensets(st.tuples(svg_coords, svg_coords), min_size=1, max_size=12)


@given(svg_sets, svg_sets)
@example(frozenset({(0, -1)}), frozenset({(0, 0)}))  # cx = -0.5
@example(frozenset({(NEAR, NEAR), (-NEAR, -NEAR)}), frozenset({(NEAR, -NEAR), (-NEAR, NEAR)}))
@settings(max_examples=150, deadline=None)
def test_svg_circles_match_a_per_coin_formatter(start, target):
    doc = svg_diagram(start, target).split("\n")
    assert [line for line in doc if line.endswith('r="0.5"/>')] == per_coin_circles(start, target)
