import re

import pytest
from hypothesis import given, settings, strategies as st

from coinflip.lattice import FlipKind, connected_components
from coinflip.oracle import Placement, target_set
from coinflip.shapes import (
    FAMILIES,
    ShapeFormatError,
    build,
    hexagon,
    load_custom,
    rhombus,
    triangle_up,
)


def serialize(coins) -> str:
    """Coins in shape-file syntax: sorted `a b` lines, LF-terminated."""
    return "".join(f"{a} {b}\n" for a, b in sorted(coins))


def test_triangle_point_counts():
    for n in range(1, 101):
        assert len(triangle_up(n)) == n * (n + 1) // 2


def test_triangle_row_structure():
    tri = triangle_up(4)
    # row b holds n - b coins, 0 <= b < n
    for b in range(4):
        row = {p for p in tri if p[1] == b}
        assert len(row) == 4 - b
        assert row == {(a, b) for a in range(4 - b)}


def test_triangle_grows_by_one_row():
    # moving the n-triangle up one row and adding a base row of n+1 coins
    # yields the (n+1)-triangle
    for n in range(1, 20):
        lifted = {(a, b + 1) for a, b in triangle_up(n)}
        base = {(a, 0) for a in range(n + 1)}
        assert lifted | base == triangle_up(n + 1)


def test_rhombus_point_counts_and_extent():
    for n in range(1, 101):
        r = rhombus(n)
        assert len(r) == n * n
    assert rhombus(3) == frozenset(
        (a, b) for a in range(3) for b in range(3)
    )


def test_hexagon_point_counts():
    assert len(hexagon(1)) == 1
    assert len(hexagon(2)) == 7
    assert len(hexagon(3)) == 19
    for k in range(1, 31):
        assert len(hexagon(k)) == 3 * k * k - 3 * k + 1


def test_hexagon_is_fixed_by_half_turn():
    for k in range(1, 8):
        hexa = hexagon(k)
        assert target_set(hexa, Placement(FlipKind.ROTATE_180, (0, 0))) == hexa


def test_generated_shapes_are_connected():
    for n in range(1, 12):
        assert len(connected_components(triangle_up(n))) == 1
        assert len(connected_components(rhombus(n))) == 1
        assert len(connected_components(hexagon(n))) == 1


@pytest.mark.parametrize("maker", [triangle_up, rhombus, hexagon])
def test_generators_reject_nonpositive_size(maker):
    with pytest.raises(ValueError):
        maker(0)
    with pytest.raises(ValueError):
        maker(-3)


def test_load_custom_parses_comments_and_blanks():
    text = "# heading\n\n0 0\n1 0\n\n0 1\n"
    assert load_custom(text) == frozenset({(0, 0), (1, 0), (0, 1)})


def test_load_custom_accepts_crlf_and_negative_coords():
    assert load_custom("-2 5\r\n3 -4\r\n") == frozenset({(-2, 5), (3, -4)})
    assert load_custom("# note\r\n\r\n1 2 \r\n") == frozenset({(1, 2)})


@pytest.mark.parametrize(
    "text", ["1 2\r\r\n", "1 2\r\r\r\r", "1 2\r"], ids=["cr-crlf", "four-crs", "last-cr"]
)
def test_load_custom_refuses_a_stray_carriage_return(text):
    with pytest.raises(ShapeFormatError, match="^line 1: stray carriage return"):
        load_custom(text)


def test_load_custom_takes_ascii_spaces_and_tabs_as_blanks():
    text = "\t-2 \t5 \r\n 3\t-4\t\n"
    assert load_custom(text) == frozenset({(-2, 5), (3, -4)})


def test_load_custom_reports_bad_line_number():
    with pytest.raises(ShapeFormatError) as exc:
        load_custom("0 0\n1 zzz\n")
    assert "line 2" in str(exc.value)


def test_load_custom_rejects_wrong_field_count():
    with pytest.raises(ShapeFormatError) as exc:
        load_custom("1 2 3\n")
    assert "line 1" in str(exc.value)


def test_load_custom_rejects_duplicates_citing_both_lines():
    with pytest.raises(ShapeFormatError) as exc:
        load_custom("0 0\n1 1\n0 0\n")
    msg = str(exc.value)
    assert "line 3" in msg and "line 1" in msg


def test_load_custom_rejects_empty_file():
    with pytest.raises(ShapeFormatError):
        load_custom("# nothing but comments\n\n")


def test_serialize_round_trip():
    shape = triangle_up(5)
    assert load_custom(serialize(shape)) == shape


@given(
    st.frozensets(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        min_size=1,
        max_size=40,
    )
)
def test_serialize_round_trip_random(points):
    assert load_custom(serialize(points)) == points


def test_build_makes_each_family():
    assert build("triangle", 3) == triangle_up(3)
    assert build("rhombus", 2) == rhombus(2)
    assert build("hexagon", 2) == hexagon(2)


def test_build_refuses_unknown_kinds_and_sizes_below_1():
    with pytest.raises(ValueError) as exc:
        build("pyramid", 3)
    assert str(exc.value) == "unknown shape kind 'pyramid'"
    with pytest.raises(ValueError) as exc:
        build("custom", 3)  # customs come from files
    assert str(exc.value) == "unknown shape kind 'custom'"
    for n in (0, -5):
        with pytest.raises(ValueError) as exc:
            build("rhombus", n)
        assert str(exc.value) == f"rhombus size must be >= 1, got {n}"


# The CLI's fallbacks for a shape file (the half-turn, unpadded
# protrusions) are pinned in tests/test_cli.py.
def test_default_flip_per_family():
    assert FAMILIES["triangle"].default_flip is FlipKind.ROTATE_180
    assert FAMILIES["hexagon"].default_flip is FlipKind.ROTATE_180
    assert FAMILIES["rhombus"].default_flip is FlipKind.MIRROR_HORIZONTAL


def test_protrusion_arity_per_family():
    # a puzzle's protrusion count is the part count of its new formula
    for n in range(1, 51):
        assert len(FAMILIES["triangle"].formula("new")(n).parts) == 3
        assert len(FAMILIES["rhombus"].formula("new")(n).parts) == 2
    assert not FAMILIES["hexagon"].is_puzzle


_OLD_COORDS = re.compile(r"(-?[0-9]+)[ \t]+(-?[0-9]+)")


def per_line_parse(source: str) -> frozenset:
    """The shape-file parser as one loop over the lines: the reference for
    load_custom's one-pass read."""
    coins: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(source.replace("\r\n", "\n").split("\n"), start=1):
        if "\r" in raw:
            raise ShapeFormatError("stray carriage return; only CRLF may end a line", lineno)
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        fields = _OLD_COORDS.fullmatch(line)
        try:
            if fields is None:
                raise ValueError
            coord = (int(fields[1]), int(fields[2]))
        except ValueError:
            raise ShapeFormatError(f"expected two integers `a b`, got {line!r}", lineno) from None
        if coord in coins:
            raise ShapeFormatError(
                f"duplicate coordinate {coord[0]} {coord[1]} (first seen on line {coins[coord]})",
                lineno,
            )
        coins[coord] = lineno
    if not coins:
        raise ShapeFormatError("shape file contains no coins")
    return frozenset(coins)


def parsed(parse, text):
    try:
        return parse(text)
    except ShapeFormatError as exc:
        return str(exc)


LINE_FRAGMENTS = [
    # valid: pairs with padding and tabs, -0, comments, blank lines
    "0 0", "1 0", "-3 4", "  5\t-6  ", "\t7 8", "-0 0", "0 -0", "007 12",
    "# a comment", "  # 1 2 3", "#", "#\t\xa0é 1", "", "   ", "\t",
    # invalid: a sign, an underscore, non-ASCII digits and blanks, a
    # trailing comment, a wrong field count, a number past int()'s digit limit
    "+3 1", "1_0 2", "١ 2", "1\xa02", "\xa01 2", "1 2\x0c", "1 2 # c", "1 2 3",
    "1", "x y", "- 1 2", "1 -", "1" * 5000 + " 0",
]
LINE_ENDS = ["\n", "\r\n", "\r", "\r\r\n"]
shape_texts = st.lists(
    st.tuples(st.sampled_from(LINE_FRAGMENTS), st.sampled_from(LINE_ENDS)), max_size=12
).map(lambda lines: "".join(f + end for f, end in lines)) | st.lists(
    st.sampled_from(LINE_FRAGMENTS[:15]), min_size=1, max_size=12
).map(lambda lines: "\n".join(lines))  # no final newline


@given(shape_texts)
@settings(max_examples=400, deadline=None)
def test_one_pass_read_matches_the_per_line_parser(text):
    assert parsed(load_custom, text) == parsed(per_line_parse, text)


@pytest.mark.parametrize(
    "text",
    [
        "  # crlf\r\n\t1\t2 \r\n\r\n-0 0\r\n 3  -1\t\r\n# end\r\n5 5",
        "0 0\n1 0\r2 0\n",
        "0 0\n+3 1\n",
        "0 0\n1\xa00\n",
        "0 0\n1 0\n0 0\n",
        "1" * 5000 + " 0\n",
        "# only\n\n",
        "",
    ],
    ids=["crlf-padding-no-final-lf", "stray-cr", "plus", "nbsp", "duplicate", "digit-limit",
         "comments-only", "empty"],
)
def test_one_pass_read_matches_the_per_line_parser_at_the_edges(text):
    assert parsed(load_custom, text) == parsed(per_line_parse, text)
