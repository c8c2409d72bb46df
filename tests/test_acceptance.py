"""End-to-end acceptance checks.

Each test covers one headline requirement, prints a single PASS/FAIL
line (visible with `pytest tests/test_acceptance.py -v -s`), and
enforces the runtime budget where one applies. Reference values live in
golden_tables.py; everything here goes through the public API or the
CLI entry point.
"""

import contextlib
import io
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from coinflip import cli, formulas, oracle, shapes
from coinflip.lattice import FlipKind, distance_sq, flip_points
from golden_tables import RHOMBUS_TABLE, TRIANGLE_TABLE, moves_of, parts_of


@contextlib.contextmanager
def criterion(num, name, budget_s=None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None and elapsed > budget_s:
            raise AssertionError(
                f"runtime {elapsed:.3f}s exceeds the {budget_s}s budget"
            )
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed * 1000:.1f} ms)")


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_01_triangle_table_reproduction():
    with criterion(1, "triangle table rows 1..28", budget_s=1.0):
        code, out = run_cli(["table", "triangle", "28", "--format", "csv"])
        assert code == 0
        lines = out.rstrip("\n").split("\n")
        assert len(lines) == 29
        for line, (rows, total, old, inc, decomp) in zip(lines[1:], TRIANGLE_TABLE):
            f = line.split(",", 5)
            assert int(f[0]) == rows
            assert int(f[1]) == total
            assert f[2] == old
            assert int(f[3]) == moves_of(old)
            assert f[4] == ("" if inc is None else str(inc))
            assert " ".join(f[5].strip('"').split()) == decomp


def test_02_rhombus_table_reproduction():
    with criterion(2, "rhombus table rows 1..21", budget_s=1.0):
        code, out = run_cli(["table", "rhombus", "21"])
        assert code == 0
        body = out.rstrip("\n").split("\n")[2:]
        assert len(body) == 21
        for line, (rows, total, old, decomp) in zip(body, RHOMBUS_TABLE):
            f = [c.strip() for c in line.strip("|").split("|")]
            assert int(f[0]) == rows
            assert int(f[1]) == total
            assert f[2] == old
            assert int(f[3]) == moves_of(old)
            assert f[4] == decomp


def test_03_triangle_headline():
    with criterion(3, "triangle(4) needs 3 moves, 7 overlap", budget_s=0.010):
        result = oracle.solve(shapes.triangle_up(4), FlipKind.ROTATE_180)
        assert result.min_moves == 3
        assert result.max_overlap == 7


def test_04_rhombus_headline():
    with criterion(4, "rhombus(4) needs 4 moves", budget_s=0.010):
        result = oracle.solve(shapes.rhombus(4), FlipKind.MIRROR_HORIZONTAL)
        assert result.min_moves == 4


def test_05_oracle_formula_equivalence_sweep():
    with criterion(5, "oracle equals formulas, rows 1..40", budget_s=60.0):
        for n in range(1, 41):
            tri = oracle.solve(shapes.triangle_up(n), FlipKind.ROTATE_180).min_moves
            assert tri == formulas.triangle_moves_old(n)
            assert tri == formulas.triangle_moves_new(n).moves
            assert tri == formulas.triangle_moves_polynomial(n)
            rho = shapes.rhombus(n)
            r_h = oracle.solve(rho, FlipKind.MIRROR_HORIZONTAL).min_moves
            r_v = oracle.solve(rho, FlipKind.MIRROR_VERTICAL).min_moves
            assert r_h == r_v == formulas.rhombus_moves_old(n)
            assert r_h == formulas.rhombus_moves_new(n).moves
            assert r_h == formulas.rhombus_moves_polynomial(n)


def test_06_protrusion_structure():
    with criterion(6, "protrusion structure, rows 1..30", budget_s=120.0):
        for n in range(1, 31):
            start = shapes.triangle_up(n)
            result = oracle.solve(start, FlipKind.ROTATE_180)
            expected = formulas.triangle_moves_new(n).parts
            if n <= len(TRIANGLE_TABLE):
                assert expected == parts_of(TRIANGLE_TABLE[n - 1][4])
            for placement in result.optimal_placements:
                rep = oracle.protrusions(
                    start, placement, expected_parts=3, result=result
                )
                assert rep.size_multiset == expected
                for comp in rep.source_components + rep.target_components:
                    assert comp.triangle is not None

            rho = shapes.rhombus(n)
            r_res = oracle.solve(rho, FlipKind.MIRROR_HORIZONTAL)
            r_expected = formulas.rhombus_moves_new(n).parts
            if n <= len(RHOMBUS_TABLE):
                assert r_expected == parts_of(RHOMBUS_TABLE[n - 1][3])
            for placement in r_res.optimal_placements:
                rep = oracle.protrusions(
                    rho, placement, expected_parts=2, result=r_res
                )
                assert rep.size_multiset == r_expected
                for comp in rep.source_components + rep.target_components:
                    assert comp.triangle is not None


def test_07_triangle_5_multiplicity():
    with criterion(7, "triangle(5) has 3 optima, each 3+1+1"):
        start = shapes.triangle_up(5)
        result = oracle.solve(start, FlipKind.ROTATE_180)
        assert len(result.optimal_placements) >= 3
        assert result.min_moves == 5
        for placement in result.optimal_placements:
            rep = oracle.protrusions(start, placement, expected_parts=3, result=result)
            assert rep.size_multiset == (3, 1, 1)
            assert sum(rep.size_multiset) == 5


def test_08_hexagon_symmetry_degeneration():
    with criterion(8, "hexagons flip in place, k 1..10", budget_s=1.0):
        for k in range(1, 11):
            result = oracle.solve(shapes.hexagon(k), FlipKind.ROTATE_180)
            assert result.min_moves == 0


def test_09_piecewise_branch_regressions():
    with criterion(9, "piecewise closed forms at rows 7 and 6"):
        assert formulas.triangle_moves_polynomial(7) == 9
        assert formulas.triangle_moves_new(6).moves == 7


# criterion 10: the property laws, run as hypothesis suites

coords = st.tuples(st.integers(-100, 100), st.integers(-100, 100))
point_sets = st.frozensets(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    min_size=1,
    max_size=16,
)


@given(coords)
@settings(max_examples=200)
def _prop_involution(p):
    for kind in FlipKind:
        assert flip_points(flip_points([p], kind), kind) == [p]


@given(coords, coords)
@settings(max_examples=200)
def _prop_isometry(p, q):
    d = distance_sq(p, q)
    for kind in FlipKind:
        assert distance_sq(*flip_points([p, q], kind)) == d


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=60, deadline=None)
def _prop_conservation(points, flip):
    result = oracle.solve(points, flip)
    assert result.min_moves + result.max_overlap == result.total_coins


@given(point_sets, st.sampled_from(list(FlipKind)))
@settings(max_examples=60, deadline=None)
def _prop_move_plan(points, flip):
    result = oracle.solve(points, flip)
    placement = result.optimal_placements[0]
    plan = oracle.move_plan(points, placement, result=result)
    assert plan.apply(points) == oracle.target_set(points, placement)


def test_10_property_suites():
    with criterion(10, "property suites (involution/isometry/conservation/plan/increment)"):
        _prop_involution()
        _prop_isometry()
        _prop_conservation()
        _prop_move_plan()
        for rows in range(2, 101):
            assert formulas.triangle_move_increment(rows) == math.ceil(
                (rows - 1) / 3
            )
