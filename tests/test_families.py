"""The family table and the commands driven by it: `table` and `verify`."""

import contextlib
import math
import tracemalloc

import pytest

from coinflip import cli, formulas, oracle
from coinflip.lattice import Box, FlipKind
from coinflip.shapes import FAMILIES, build

VERIFY_6 = """\
rows 1: triangle 0 moves (1 placements), rhombus 0 moves (1 placements) ok
rows 2: triangle 1 moves (3 placements), rhombus 1 moves (2 placements) ok
rows 3: triangle 2 moves (3 placements), rhombus 2 moves (1 placements) ok
rows 4: triangle 3 moves (1 placements), rhombus 4 moves (2 placements) ok
rows 5: triangle 5 moves (3 placements), rhombus 6 moves (1 placements) ok
rows 6: triangle 7 moves (3 placements), rhombus 9 moves (2 placements) ok
verified rows 1..6: formulas and oracle agree
"""


def _rows_before(n):
    """VERIFY_6's progress lines for the rows before row n."""
    return "".join(VERIFY_6.splitlines(keepends=True)[: n - 1])


def run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


# ---------------------------------------------------------------- families


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_describes_its_shapes(name):
    family = FAMILIES[name]
    assert family.name == name
    for n in range(1, 26):
        coins = build(name, n)
        assert Box.of(coins) == family.box(n)
        assert family.coin_count(n) == len(coins)
        if family.is_puzzle:
            assert family.formula("old")(n) == len(coins) // family.divisor
            assert family.formula("new")(n).moves == family.formula("polynomial")(n)


def test_puzzle_families_are_the_ones_with_formulas():
    assert list(cli.PUZZLES) == ["triangle", "rhombus"]
    assert FAMILIES["triangle"].formula("new") is formulas.triangle_moves_new
    assert FAMILIES["rhombus"].formula("old") is formulas.rhombus_moves_old
    for name, parts in (("triangle", 3), ("rhombus", 2)):
        assert {len(FAMILIES[name].formula("new")(n).parts) for n in range(1, 51)} == {parts}
    hexagon = FAMILIES["hexagon"]
    assert not hexagon.is_puzzle
    assert hexagon.cross_check_flips == ()


@pytest.mark.parametrize("name", list(cli.PUZZLES))
def test_the_optimal_placements_choose_the_larger_parts(name):
    # rows - 1 = k*q + r: each optimum makes r of the k parts the larger,
    # so there is one optimal placement per choice of those r parts
    family = FAMILIES[name]
    for rows in range(1, 41):
        k = len(family.formula("new")(rows).parts)
        coins = build(name, rows)
        for flip in (family.default_flip, *family.cross_check_flips):
            result = oracle.solve(coins, flip)
            assert len(result.optimal_placements) == math.comb(k, (rows - 1) % k), (rows, flip)


# ------------------------------------------------------------------- table


class _Sink:
    """A stdout that keeps only the line count and the last write."""

    def __init__(self):
        self.lines = 0
        self.tail = ""

    def write(self, text):
        self.lines += text.count("\n")
        self.tail = text
        return len(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)

    def flush(self):
        pass


def test_table_streams_its_rows():
    # Building the whole table before writing it peaks at tens of MB here;
    # row by row it stays near 20 kB.
    sink = _Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert cli.main(["table", "triangle", "100000", "--format", "csv"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.lines == 100_001
    assert ("\n" + sink.tail).endswith(
        '\n100000,5000050000,1666683333.3333333333,1666683333,33333,'
        '"555561111 + 555561111 + 555561111"\n'
    )
    assert peak < 1_000_000, f"table peaked at {peak} traced bytes"


# ------------------------------------------------------------------ verify


def loop_div_text(numerator, divisor):
    """The digit-at-a-time long division, to 10 digits, that exact_div_text replaced."""
    q, r = divmod(numerator, divisor)
    if r == 0:
        return str(q)
    digits = []
    while r and len(digits) < 10:
        r *= 10
        d, r = divmod(r, divisor)
        digits.append(str(d))
    return f"{q}." + "".join(digits)


def test_exact_div_text_matches_long_division():
    numerators = range(2000)
    for divisor in range(1, 300):
        divisors = [divisor] * len(numerators)
        assert list(map(cli.exact_div_text, numerators, divisors)) == list(
            map(loop_div_text, numerators, divisors)
        )


def test_verify_prints_every_row(capsys):
    assert run(capsys, ["verify", "6"]) == (0, VERIFY_6)


def _skew_solve(monkeypatch, flip, total):
    """Make oracle.solve report one move too many for `flip` on shapes of
    `total` coins."""
    real = cli.oracle.solve

    def solve(coins, kind):
        result = real(coins, kind)
        if kind is flip and result.total_coins == total:
            result = result._replace(min_moves=result.min_moves + 1)
        return result

    monkeypatch.setattr(cli.oracle, "solve", solve)


def test_verify_dumps_a_triangle_oracle_mismatch(capsys, monkeypatch):
    _skew_solve(monkeypatch, FlipKind.ROTATE_180, 6)  # the 3-row triangle
    assert run(capsys, ["verify", "5"]) == (1, _rows_before(3) + (
        "FAIL at rows=3: triangle oracle disagrees with formulas\n"
        "  rot180=3 formulas=2\n"
    ))


def test_verify_dumps_a_rhombus_oracle_mismatch(capsys, monkeypatch):
    _skew_solve(monkeypatch, FlipKind.MIRROR_VERTICAL, 9)  # the 3-row rhombus
    assert run(capsys, ["verify", "5"]) == (1, _rows_before(3) + (
        "FAIL at rows=3: rhombus oracle disagrees with formulas\n"
        "  mirror-h=2 mirror-v=3 formulas=2\n"
    ))


def _skew_protrusions(monkeypatch, arity, total):
    """Make oracle.protrusions report an extra one-coin protrusion when
    asked for `arity` parts on a start shape of `total` coins."""
    real = cli.oracle.protrusions

    def protrusions(start, placement, expected_parts=None, result=None):
        report = real(start, placement, expected_parts=expected_parts, result=result)
        if expected_parts == arity and len(start) == total:
            report = report._replace(size_multiset=report.size_multiset + (1,))
        return report

    monkeypatch.setattr(cli.oracle, "protrusions", protrusions)


def test_verify_dumps_a_triangle_protrusion_mismatch(capsys, monkeypatch):
    _skew_protrusions(monkeypatch, 3, 10)  # the 4-row triangle
    assert run(capsys, ["verify", "5"]) == (1, _rows_before(4) + (
        "FAIL at rows=4: triangle protrusions at shift (2, 2)\n"
        "  sizes=(1, 1, 1, 1) expected=(1, 1, 1) source=[1, 1, 1] "
        "target=[1, 1, 1] non-triangles=0\n"
    ))


def test_verify_dumps_a_rhombus_protrusion_mismatch(capsys, monkeypatch):
    _skew_protrusions(monkeypatch, 2, 16)  # the 4-row rhombus
    assert run(capsys, ["verify", "5"]) == (1, _rows_before(4) + (
        "FAIL at rows=4: rhombus protrusions at shift (4, 0)\n"
        "  sizes=(3, 1, 1) expected=(3, 1) source=[3, 1] "
        "target=[3, 1] non-triangles=0\n"
    ))


def test_verify_dumps_protrusions_that_exceed_the_parts(capsys, monkeypatch):
    # split each component of more than one coin in two: the 4-row
    # rhombus's 3-coin protrusion becomes two, one more than its 2 parts
    real = cli.oracle.components

    def components(coins):
        split = []
        for c in real(coins):
            if c.size == 1:
                split.append(c)
            else:
                first, *rest = sorted(c.coins)
                split += real({first}) + real(rest)
        return tuple(split)

    monkeypatch.setattr(cli.oracle, "components", components)
    assert run(capsys, ["verify", "5"]) == (1, _rows_before(4) + (
        "FAIL at rows=4: rhombus protrusions at shift (4, 0)\n"
        "  3 protrusions exceed the expected 2\n"
    ))
