"""A family shape too large to scan is refused from its coin count,
before a single coin is built.

No test here builds a large shape or starts a scan: the CLI test replaces
the shape builder with a stub that fails.
"""

import pytest

from coinflip import cli
from coinflip._scan import MAX_GRID_BYTES, Grid, ScanBudgetError, check_point_count, estimate_ns

HUGE_TRIANGLE_ERROR = (
    "usage: coinflip [-h] {solve,table,render,verify,analyze} ...\n"
    "coinflip: error: the translation scan would take about 1e+13 s "
    "(25000500002500000000 coin pairs), over the budget of 600 s\n"
)


def test_cli_refuses_a_huge_family_before_building_it(capsys, monkeypatch):
    def build(spec):
        raise AssertionError(f"built {spec}")

    monkeypatch.setattr(cli.shapes, "build", build)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "triangle", "100000"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", HUGE_TRIANGLE_ERROR)


def test_the_check_starts_where_the_product_grid_is_over_its_cap():
    check_point_count(MAX_GRID_BYTES // 4)
    points = MAX_GRID_BYTES // 4 + 1
    with pytest.raises(ScanBudgetError) as exc:
        check_point_count(points)
    # what scan_pairs would estimate: every point in a 4-byte cell of its own
    grid = Grid(points, 1, 1, 0, 0, 0, 0, cell_bytes=4)
    assert exc.value.pairs == points**2
    assert exc.value.estimate_ns == estimate_ns(grid, points**2)
