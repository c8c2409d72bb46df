import contextlib
import csv
import io
from collections import Counter

import pytest
from hypothesis import event, example, given, settings, strategies as st

from coinflip import cli, formulas, oracle, render
from coinflip.shapes import ShapeFormatError, load_custom, rhombus, triangle_up
from golden_tables import RHOMBUS_TABLE, TRIANGLE_TABLE, moves_of

USAGE = "usage: coinflip [-h] {solve,table,render,verify,analyze} ...\n"


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def run_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.err


def serialize(coins) -> str:
    """Coins in shape-file syntax: sorted `a b` lines, LF-terminated."""
    return "".join(f"{a} {b}\n" for a, b in sorted(coins))


# ---------------------------------------------------------------- solve


def test_solve_triangle_4(capsys):
    code, out = run(capsys, ["solve", "triangle", "4"])
    assert code == 0
    assert "shape: triangle 4" in out
    assert "flip: rot180" in out
    assert "total coins: 10" in out
    assert "min moves: 3" in out
    assert "max overlap: 7" in out
    assert "optimal placements: 1" in out
    assert "canonical shift: (2, 2)" in out
    assert "protrusions: 1 + 1 + 1" in out


def test_solve_rhombus_defaults_to_horizontal_mirror(capsys):
    code, out = run(capsys, ["solve", "rhombus", "4"])
    assert code == 0
    assert "flip: mirror-h" in out
    assert "min moves: 4" in out
    assert "protrusions: 3 + 1" in out


def test_solve_hexagon_needs_no_moves(capsys):
    code, out = run(capsys, ["solve", "hexagon", "3"])
    assert code == 0
    assert "flip: rot180" in out
    assert "min moves: 0" in out


def test_solve_explicit_flip_override(capsys):
    code, out = run(capsys, ["solve", "triangle", "4", "--flip", "mirror-h"])
    assert code == 0
    # the left-right mirror of an up triangle is a translate of itself
    assert "min moves: 0" in out


def test_solve_moves_listing(capsys):
    code, out = run(capsys, ["solve", "triangle", "2", "--moves"])
    assert code == 0
    assert "moves (1):" in out
    assert "(1, 0) -> (-1, 1)" in out


def test_solve_shape_file(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(serialize(triangle_up(4)))
    code, out = run(capsys, ["solve", "--shape-file", str(path)])
    assert code == 0
    assert f"shape: custom {path}" in out
    assert "min moves: 3" in out


def test_each_family_sets_its_default_flip_and_pads_its_protrusions(capsys):
    code, out = run(capsys, ["solve", "triangle", "2"])
    assert code == 0
    assert "flip: rot180\n" in out
    assert "protrusions: 1 + 0 + 0\n" in out
    code, out = run(capsys, ["solve", "rhombus", "2"])
    assert code == 0
    assert "flip: mirror-h\n" in out
    assert "protrusions: 1 + 0\n" in out


def test_a_shape_file_takes_the_half_turn_and_unpadded_protrusions(capsys, tmp_path):
    # the coins of triangle 2, whose family pads its protrusions to three
    path = tmp_path / "tri.txt"
    path.write_text(serialize(triangle_up(2)))
    code, out = run(capsys, ["solve", "--shape-file", str(path)])
    assert code == 0
    assert f"shape: custom {path}\nflip: rot180\n" in out
    assert "protrusions: 1\n" in out
    # the coins of rhombus 2, whose family defaults to mirror-h
    path.write_text(serialize(rhombus(2)))
    code, out = run(capsys, ["solve", "--shape-file", str(path)])
    assert code == 0
    assert "flip: rot180\n" in out


# ---------------------------------------------------------------- table


def expected_triangle_csv():
    lines = ["rows,total_coins,old_formula,moves,increment,decomposition"]
    for rows, total, old, inc, decomp in TRIANGLE_TABLE:
        inc_text = "" if inc is None else str(inc)
        lines.append(f'{rows},{total},{old},{moves_of(old)},{inc_text},"{decomp}"')
    return "\n".join(lines) + "\n"


def expected_rhombus_csv():
    lines = ["rows,total_coins,coins_div_4,moves,decomposition"]
    for rows, total, old, decomp in RHOMBUS_TABLE:
        lines.append(f'{rows},{total},{old},{moves_of(old)},"{decomp}"')
    return "\n".join(lines) + "\n"


def test_triangle_csv_matches_reference_table(capsys):
    code, out = run(capsys, ["table", "triangle", "28", "--format", "csv"])
    assert code == 0
    assert out == expected_triangle_csv()


def test_rhombus_csv_matches_reference_table(capsys):
    code, out = run(capsys, ["table", "rhombus", "21", "--format", "csv"])
    assert code == 0
    assert out == expected_rhombus_csv()


def test_csv_round_trips_through_a_csv_reader(capsys):
    _, out = run(capsys, ["table", "triangle", "10", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rows", "total_coins", "old_formula", "moves", "increment", "decomposition"]
    assert len(rows) == 11
    got = rows[4]  # rows=4
    assert got == ["4", "10", "3.3333333333", "3", "1", "1 + 1 + 1"]


def test_table_output_is_deterministic(capsys):
    _, first = run(capsys, ["table", "triangle", "15", "--format", "csv"])
    _, second = run(capsys, ["table", "triangle", "15", "--format", "csv"])
    assert first == second
    _, md1 = run(capsys, ["table", "rhombus", "12"])
    _, md2 = run(capsys, ["table", "rhombus", "12"])
    assert md1 == md2


def test_markdown_table_shape(capsys):
    code, out = run(capsys, ["table", "rhombus", "18"])
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0].startswith("| rows | total_coins | coins_div_4 |")
    assert set(lines[1]) <= {"|", " ", "-", ":"}
    assert len(lines) == 2 + 18
    assert lines[-1] == "| 18 | 324 | 81 | 81 | 45 + 36 |"


def test_verbose_diff_prints_subtraction(capsys):
    code, out = run(capsys, ["table", "triangle", "5", "--verbose-diff"])
    assert code == 0
    assert "5 - 3 = 2" in out
    # first row has no predecessor, so no subtraction of the form "1 - ..."
    _, csv_out = run(
        capsys, ["table", "triangle", "5", "--format", "csv", "--verbose-diff"]
    )
    assert csv_out.split("\n")[1].split(",")[4] == ""


def test_exact_division_rendering():
    assert cli.exact_div_text(1, 3) == "0.3333333333"
    assert cli.exact_div_text(1, 4) == "0.25"
    assert cli.exact_div_text(9, 4) == "2.25"
    assert cli.exact_div_text(21, 3) == "7"
    assert cli.exact_div_text(406, 3) == "135.3333333333"


# ---------------------------------------------------------------- render


def test_render_ascii_triangle_4(capsys):
    code, out = run(capsys, ["render", "triangle", "4"])
    assert code == 0
    grid = out.split("\n\n")[0]
    assert grid.count("O") == 7
    assert grid.count(".") == 3
    assert grid.count("*") == 3
    assert "legend: O = stays put" in out
    assert "placement 0/0: flip rot180, shift (2, 2), 3 moves" in out


def test_render_ascii_counts_via_glyph_lines(capsys):
    _, out = run(capsys, ["render", "triangle", "5"])
    grid = out.split("\n\n")[0]
    assert grid.count("O") == 10
    assert grid.count(".") == 5
    assert grid.count("*") == 5


def test_render_placement_index_selects_alternate_optimum(capsys):
    code, out = run(capsys, ["render", "triangle", "5", "--placement", "2"])
    assert code == 0
    assert "placement 2/2: flip rot180, shift (3, 3), 5 moves" in out


def test_render_svg(capsys):
    code, out = run(capsys, ["render", "triangle", "4", "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg ")
    assert out.count('r="0.5"') == 13


def test_render_rejects_out_of_range_placement(capsys):
    code, err = run_error(capsys, ["render", "triangle", "4", "--placement", "1"])
    assert code == 2
    assert "valid indices are 0..0" in err


# ---------------------------------------------------------------- verify


def test_verify_small_sweep_passes(capsys):
    code, out = run(capsys, ["verify", "6"])
    assert code == 0
    assert "verified rows 1..6: formulas and oracle agree" in out
    # one progress line per row
    assert sum(1 for line in out.split("\n") if line.startswith("rows ")) == 6


def test_verify_reports_counterexample(capsys, monkeypatch):
    monkeypatch.setattr(cli.formulas, "triangle_moves_polynomial", lambda n: 999)
    code, out = run(capsys, ["verify", "4"])
    assert code == 1
    assert "FAIL at rows=1: triangle formulas disagree" in out
    assert "polynomial=999" in out


def test_verify_flags_a_defect_at_a_later_row(capsys, monkeypatch):
    real = formulas.triangle_moves_old

    def skewed(n):
        return real(n) + (1 if n == 3 else 0)

    monkeypatch.setattr(cli.formulas, "triangle_moves_old", skewed)
    code, out = run(capsys, ["verify", "5"])
    assert code == 1
    assert "FAIL at rows=3" in out
    assert "rows 2:" in out  # earlier rows still pass


# ----------------------------------------------------------------- errors


def test_missing_shape_is_a_usage_error(capsys):
    code, err = run_error(capsys, ["solve"])
    assert code == 2
    assert "required" in err


def test_missing_size_is_a_usage_error(capsys):
    code, err = run_error(capsys, ["solve", "triangle"])
    assert code == 2
    assert "needs a size" in err


def test_custom_without_file_is_a_usage_error(capsys):
    code, err = run_error(capsys, ["solve", "custom"])
    assert code == 2
    assert "--shape-file" in err


def test_shape_file_conflicts_with_family(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0 0\n")
    code, err = run_error(
        capsys, ["solve", "triangle", "3", "--shape-file", str(path)]
    )
    assert code == 2
    assert "cannot be combined" in err


def test_unreadable_shape_file(capsys, tmp_path):
    code, err = run_error(
        capsys, ["solve", "--shape-file", str(tmp_path / "missing.txt")]
    )
    assert code == 2
    assert "cannot read shape file" in err


def test_malformed_shape_file_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0\n1 nope\n")
    code, err = run_error(capsys, ["solve", "--shape-file", str(path)])
    assert code == 2
    assert "line 2" in err


def test_a_shape_file_that_is_not_utf8_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 0\n1 \xff\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--shape-file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 6: "
        "invalid start byte\n"
    )


def refuses_line_2(capsys, tmp_path, text):
    with pytest.raises(ShapeFormatError, match="line 2"):
        load_custom(text)
    path = tmp_path / "shape.txt"
    path.write_text(text, encoding="utf-8")
    code, err = run_error(capsys, ["solve", "--shape-file", str(path)])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("field", ["1_0", "+3", "\u0661"])
def test_shape_file_integers_are_plain_ascii(capsys, tmp_path, field):
    refuses_line_2(capsys, tmp_path, f"0 0\n{field} 1\n")


# str.split() and str.strip() take each of these blanks as a space
@pytest.mark.parametrize(
    "line", ["1\xa02", "1\x0c0", "\u30001 2", "1\x1f2", "1 2\x85", "\xa0"]
)
def test_shape_file_blanks_are_ascii_spaces_and_tabs(capsys, tmp_path, line):
    refuses_line_2(capsys, tmp_path, f"0 0\n{line}\n")


def test_a_crlf_shape_file_solves_like_its_lf_copy(capsys, tmp_path):
    text = "# blob\n0 0\n1 0 \n\n0 1\n2 0\n"
    outs = []
    for name, ending in (("lf.txt", "\n"), ("crlf.txt", "\r\n")):
        path = tmp_path / name
        path.write_bytes(text.replace("\n", ending).encode())
        assert cli.main(["solve", "--shape-file", str(path)]) == 0
        outs.append(capsys.readouterr().out.replace(name, "shape.txt"))
    assert outs[0] == outs[1]


# the CLI reads a file's own line ends, so it refuses what load_custom does
@pytest.mark.parametrize(
    "line", ["1 2\r\r\n", "1 2\r\r\r\r", "1 2\r"], ids=["cr-crlf", "four-crs", "last-cr"]
)
def test_shape_file_refuses_a_stray_carriage_return(capsys, tmp_path, line):
    refuses_line_2(capsys, tmp_path, f"0 0\n{line}")


SHAPE_ERRORS = [
    (["solve", "triangle", "0"], "triangle size must be >= 1, got 0"),
    (["render", "rhombus", "-1"], "rhombus size must be >= 1, got -1"),
    (["analyze", "hexagon", "0"], "hexagon size must be >= 1, got 0"),
    (["solve", "custom"], "custom shapes need --shape-file"),
    (["solve"], "a shape (or --shape-file) is required"),
]


@pytest.mark.parametrize(
    "argv, message", SHAPE_ERRORS, ids=[" ".join(argv) for argv, _ in SHAPE_ERRORS]
)
def test_a_bad_shape_prints_the_usage_line_and_its_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", USAGE + f"coinflip: error: {message}\n")


# errors a handler raises after parsing, as UsageError or ScanBudgetError;
# main prints each through the full parser
HANDLER_ERRORS = [
    (["table", "triangle", "0"], "max_rows must be >= 1"),
    (["verify", "0"], "max_rows must be >= 1"),
    (["render", "triangle", "4", "--placement", "9"],
     "placement index 9 out of range; valid indices are 0..0"),
    (["solve", "triangle", "2000"], "the translation scan would take about 1.6e+06 s "
     "(4004001000000 coin pairs), over the budget of 600 s"),
    # forms the quick path declines, which reach the handler through argparse
    (["render", "triangle", "4", "--plac", "9"],
     "placement index 9 out of range; valid indices are 0..0"),
    (["render", "triangle", "4", "--placement=9"],
     "placement index 9 out of range; valid indices are 0..0"),
    (["solve", "--mov", "triangle", "2000"], "the translation scan would take about "
     "1.6e+06 s (4004001000000 coin pairs), over the budget of 600 s"),
]


@pytest.mark.parametrize(
    "argv, message", HANDLER_ERRORS, ids=[" ".join(argv) for argv, _ in HANDLER_ERRORS]
)
def test_a_handler_error_prints_the_usage_line_and_its_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", USAGE + f"coinflip: error: {message}\n")


def test_a_shape_file_takes_no_size(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0 0\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "custom", "5", "--shape-file", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", USAGE + "coinflip: error: --shape-file cannot be combined with size 5\n"
    )


def test_an_empty_shape_file_path_is_still_a_shape_file(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "triangle", "4", "--shape-file", ""])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", USAGE + "coinflip: error: --shape-file cannot be combined with shape 'triangle'\n"
    )
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--shape-file", ""])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(USAGE + "coinflip: error: cannot read shape file: ")


def test_nonpositive_sizes_are_usage_errors(capsys):
    for argv in (
        ["solve", "triangle", "0"],
        ["table", "triangle", "0"],
        ["verify", "0"],
    ):
        code, err = run_error(capsys, argv)
        assert code == 2, argv


def test_unknown_subcommand_exits_2(capsys):
    code, _ = run_error(capsys, ["frobnicate"])
    assert code == 2


# ---------------------------------------------------------------- analyze


def test_analyze_triangle(capsys):
    code, out = run(capsys, ["analyze", "triangle", "3"])
    assert code == 0
    assert "total coins: 6" in out
    assert "connected components: 1" in out
    assert "component 0: 6 coins, up triangle, 3 rows" in out
    assert "flip rot180: 2 moves" in out
    assert "flip mirror-h: 0 moves" in out


def test_analyze_custom_disconnected(capsys, tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("0 0\n5 5\n")
    code, out = run(capsys, ["analyze", "--shape-file", str(path)])
    assert code == 0
    assert "connected components: 2" in out
    assert "1 coins, up triangle, 1 rows" in out


def test_analyze_lists_each_component_in_order(capsys, tmp_path):
    # four clusters far apart, listed by their least coin: a pair, an up
    # triangle, a down triangle of 3 coins and a line of 3, which is not one
    up = {(i, j) for j in range(3) for i in range(3 - j)}
    down = {(100 - i, 50 - j) for j in range(2) for i in range(2 - j)}
    line = {(200, 0), (201, 0), (202, 0)}
    pair = {(-40, 5), (-40, 6)}
    path = tmp_path / "four.txt"
    path.write_text(serialize(line | pair | down | up))
    code, out = run(capsys, ["analyze", "--shape-file", str(path)])
    assert code == 0
    assert [text for text in out.splitlines() if "component" in text] == [
        "connected components: 4",
        "  component 0: 2 coins, not a triangle",
        "  component 1: 6 coins, up triangle, 3 rows",
        "  component 2: 3 coins, down triangle, 2 rows",
        "  component 3: 3 coins, not a triangle",
    ]


def test_solve_and_analyze_build_only_the_components_they_list(capsys, tmp_path, monkeypatch):
    # they print protrusion sizes alone: no Component record, no triangle
    # class, except analyze's one listing of the shape's own components
    calls = Counter()

    def spy(name):
        real = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)

    spy("components")
    spy("classify_triangle")
    path = tmp_path / "two.txt"
    path.write_text("0 0\n1 0\n5 5\n")
    for argv in (["solve", "triangle", "10"], ["solve", "rhombus", "6", "--moves"],
                 ["solve", "--shape-file", str(path), "--flip", "mirror-v"]):
        assert run(capsys, argv)[0] == 0
        assert calls == {}, argv
    for argv, listed in ((["analyze", "hexagon", "3"], 1), (["analyze", "--shape-file", str(path)], 2)):
        calls.clear()
        code, out = run(capsys, argv)
        assert code == 0 and f"connected components: {listed}\n" in out
        assert calls == {"components": 1, "classify_triangle": listed}, argv


def test_render_refuses_an_oversized_ascii_grid(capsys, tmp_path):
    # two coins whose grid is 4096 lines x 4098 columns, just over the cap;
    # drawn anyway it would still finish in a fraction of a second
    path = tmp_path / "far.txt"
    path.write_text("0 0\n-4096 4095\n")
    code, err = run_error(capsys, ["render", "--shape-file", str(path)])
    assert code == 2
    assert "4096 lines x 4098 columns = 16785408 characters" in err
    assert str(render.MAX_ASCII_CHARS) in err
    code, out = run(capsys, ["render", "--shape-file", str(path), "--format", "svg"])
    assert code == 0
    assert out.count('r="0.5"') == 2


@pytest.mark.parametrize("far, hinted", [(2**40, True), (2**60, False)], ids=["2^40", "2^60"])
def test_render_suggests_svg_only_for_a_shape_svg_can_draw(capsys, tmp_path, far, hinted):
    path = tmp_path / "far.txt"
    path.write_text(f"0 0\n{far} 0\n")
    code, err = run_error(capsys, ["render", "--shape-file", str(path)])
    assert code == 2
    assert f"over the limit of {render.MAX_ASCII_CHARS}" in err
    assert err.endswith("; use --format svg\n") == hinted
    svg = ["render", "--shape-file", str(path), "--format", "svg"]
    if hinted:
        assert run(capsys, svg)[0] == 0
    else:
        assert run_error(capsys, svg)[0] == 2


@pytest.mark.parametrize(
    "text",
    [
        # two coins a float centre would merge, one drawn as "stay", one as "source"
        f"{2**60} 0\n{2**60 + 1} 0\n0 0\n",
        # a centre past the float range
        f"0 0\n{10**400} 0\n",
    ],
    ids=["2^60", "10^400"],
)
def test_render_svg_refuses_coordinates_a_float_cannot_place(capsys, tmp_path, text):
    path = tmp_path / "far.txt"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli.main(["render", "--shape-file", str(path), "--format", "svg"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "",
        USAGE + "coinflip: error: SVG diagram needs every coordinate below "
        "2251799813685248 (2^51) in absolute value to place each coin exactly\n",
    )


def test_render_svg_places_coins_just_inside_the_bound(capsys, tmp_path):
    # symmetric under the half-turn, so every coin stays and none moves out
    m = render.MAX_SVG_COORD - 1
    half = {(m, 0), (m - 1, 0), (0, m), (1, m - 1)}
    coins = half | {(-a, -b) for a, b in half}
    path = tmp_path / "edge.txt"
    path.write_text("".join(f"{a} {b}\n" for a, b in coins))
    code, out = run(capsys, ["render", "--shape-file", str(path), "--format", "svg"])
    assert code == 0
    circles = [line for line in out.splitlines() if 'r="0.5"' in line]
    assert len(circles) == len(coins)
    assert len({line.split(" r=")[0] for line in circles}) == len(coins)


# ------------------------------------------------------------ parser build


def parse_outcome(parser, argv, capsys):
    try:
        namespace = vars(parser.parse_args(argv))
        code = None
    except SystemExit as exc:
        namespace, code = None, exc.code
    if namespace is not None:
        namespace["func"] = namespace["func"].__name__
    out, err = capsys.readouterr()
    return code, out, err, namespace


def test_main_builds_only_the_invoked_command(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def spy():
        built.append(real())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", spy)
    # a valid command line builds no parser
    assert cli.main(["table", "triangle", "2"]) == 0
    assert built == []
    # a handler's error, and a command line argparse must reject, each
    # build the full parser once
    for argv in (["render", "triangle", "4", "--placement", "9"], ["sol"]):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert len(built) == 1


# ------------------------------------------------------------- quick parse

# valid argv, every -h and parse errors: the quick path must read each
# exactly as the full parser does, or decline it.
PARSER_ARGV = [
    ["solve", "triangle", "4"],
    ["solve", "rhombus", "3", "--flip", "mirror-v", "--moves"],
    ["solve", "--shape-file", "shape.txt"],
    ["table", "triangle", "5", "--format", "csv", "--verbose-diff"],
    ["render", "hexagon", "2", "--placement", "1", "--format", "svg"],
    ["verify", "3"],
    ["analyze", "triangle", "3"],
    *([name, "-h"] for name in ("solve", "table", "render", "verify", "analyze")),
    ["solve"],
    ["solve", "triangle", "4", "extra"],
    ["solve", "triangle", "four"],
    ["solve", "square", "4"],
    ["solve", "triangle", "4", "--flip", "sideways"],
    ["table", "triangle"],
    ["table", "square", "3"],
    ["render", "triangle", "4", "--format", "png"],
    ["analyze", "triangle", "3", "--moves"],
    ["verify", "3", "4"],
    ["verify"],
    [],
    ["-h"],
    ["frobnicate"],
    ["sol"],
    ["--", "solve"],
]


# one argv of each op shape the benchmark's puzzle_stream runs
STREAM_ARGV = [
    ["solve", "triangle", "4"],
    ["solve", "rhombus", "3", "--moves"],
    ["analyze", "hexagon", "2"],
    ["render", "triangle", "5", "--placement", "2"],
    ["render", "rhombus", "4", "--format", "svg", "--placement", "1"],
    ["solve", "--shape-file", "blob.txt"],
    ["solve", "--shape-file", "blob.txt", "--moves"],
    ["analyze", "--shape-file", "blob.txt"],
    ["render", "--shape-file", "blob.txt", "--placement", "0"],
    ["render", "--shape-file", "blob.txt", "--format", "svg", "--placement", "3"],
    ["table", "triangle", "9", "--format", "csv"],
    ["table", "rhombus", "3", "--format", "markdown", "--verbose-diff"],
]


def full_parse(argv):
    """vars() of the full parser's namespace for argv, or None if it exits."""
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.setenv("COLUMNS", "80")
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def quick_parse(argv):
    namespace = cli._quick_parse(argv)
    return None if namespace is None else vars(namespace)


@pytest.mark.parametrize("argv", PARSER_ARGV + STREAM_ARGV, ids=" ".join)
def test_the_quick_path_takes_every_argv_argparse_accepts_here(argv):
    # so that a quick path which always declined could not pass the fuzz below
    expected = full_parse(argv)
    assert quick_parse(argv) == expected
    assert expected is not None or argv not in STREAM_ARGV


ARGUMENTS = [arg for _, arguments, _ in cli.COMMANDS.values() for arg in arguments]
OPTION_STRINGS = sorted({name for names, _ in ARGUMENTS for name in names if name[0] == "-"})
CHOICES = sorted({str(c) for _, keywords in ARGUMENTS for c in keywords.get("choices", ())})
# what argparse reads in ways a plain reading might not
ODD_TOKENS = ["--mov", "--flip=rot180", "--", "-", "-h", "-3", "+5", " 7", "1_0", "\u0663", ""]
ANY_TOKEN = st.sampled_from([*cli.COMMANDS, *OPTION_STRINGS, *CHOICES, "0", "4", *ODD_TOKENS])


@st.composite
def command_lines(draw):
    """A command, some of its positionals, then some of its options. Half
    the lines are clean: a known command and valid values, which the quick
    path often reads. The other half mixes any token into the values and
    appends up to two more."""
    noisy = draw(st.booleans())
    command = draw(st.sampled_from([*cli.COMMANDS, *(("sol", "-h", "") if noisy else ())]))
    arguments = cli.COMMANDS[command][1] if command in cli.COMMANDS else ARGUMENTS
    positionals = [keywords for names, keywords in arguments if names[0][0] != "-"]
    options = [(names[0], keywords) for names, keywords in arguments if names[0][0] == "-"]

    def value_of(keywords):
        values = [str(c) for c in keywords.get("choices", ())] or ["0", "1", "4", "9"]
        valid = st.sampled_from(values)
        return draw(st.one_of(valid, ANY_TOKEN) if noisy else valid)

    given_positionals = positionals[: draw(st.integers(0, len(positionals)))]
    argv = [command, *(value_of(keywords) for keywords in given_positionals)]
    for name, keywords in draw(st.lists(st.sampled_from(options), max_size=3)) if options else ():
        argv += [name] if "action" in keywords else [name, value_of(keywords)]
    return argv + (draw(st.lists(ANY_TOKEN, max_size=2)) if noisy else [])


@given(command_lines())
# a positional after an option, which argparse reads differently from one
# Python version to the next
@example(["solve", "triangle", "--moves", "4"])
@example(["table", "--format", "csv", "triangle", "4"])
@example(["solve", "--shape-file"])  # an option without its value
@settings(max_examples=400, deadline=None)
def test_the_quick_path_reads_what_argparse_reads_or_declines(argv):
    quick = quick_parse(argv)
    event("quick path" if quick is not None else "argparse")
    if quick is not None:
        assert quick == full_parse(argv)


def test_the_quick_path_reads_every_keyword_of_the_argument_table():
    read, ignored = {"nargs", "type", "choices", "default", "action"}, {"help", "metavar"}
    for names, keywords in ARGUMENTS:
        assert set(keywords) <= read | ignored, names
        assert keywords.get("action", "store_true") == "store_true", names
        assert keywords.get("nargs", "?") == "?", names


def test_full_parser_errors_name_the_command_argument(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    usage = "usage: coinflip [-h] {solve,table,render,verify,analyze} ...\n"
    for argv, message in (
        ([], "the following arguments are required: command\n"),
        (["sol"], "argument command: invalid choice: "),
    ):
        code, _, err, _ = parse_outcome(cli.build_parser(), argv, capsys)
        assert code == 2
        assert err.startswith(f"{usage}coinflip: error: {message}")
