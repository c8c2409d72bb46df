"""The scan budget: a scan estimated over MAX_SCAN_NS, or a Counter scan
estimated over MAX_SCAN_BYTES, is refused up front.

Only estimates and synthetic Grids are used here; no test starts a scan
anywhere near the budget. The CLI refusals replace both kernels with
stubs that fail, so a broken guard fails the test instead of scanning.
"""

import math
import random
import tracemalloc
from unittest.mock import patch

import pytest

from coinflip import _scan, cli, oracle
from coinflip._scan import (
    MAX_GRID_BYTES,
    MAX_SCAN_BYTES,
    MAX_SCAN_NS,
    Grid,
    ScanBudgetError,
    box_grid,
    counter_bytes,
    counter_scan,
    estimate_ns,
    kernel_for,
    product_scan,
    scan_pairs,
)
from coinflip.lattice import Box, FlipKind, flip_points
from coinflip.oracle import solve
from coinflip.shapes import FAMILIES, build, hexagon, rhombus, triangle_up


def triangle_grid(n):
    """The Grid of triangle_up(n) against its half-turn, without the coins."""
    coins = n * (n + 1) // 2
    return Grid(2 * n - 1, n, n, 0, 0, 0, 0), coins**2


def test_triangle_grid_matches_box_grid():
    for n in (1, 4, 23, 40):
        start = triangle_up(n)
        grid, pairs = triangle_grid(n)
        assert box_grid(Box.of(start), FlipKind.ROTATE_180) == grid
        assert pairs == len(start) ** 2
    # the CLI's pre-build check reads every family's box and coin count
    for name, family in FAMILIES.items():
        for n in range(1, 41):
            coins = build(name, n)
            assert Box.of(coins) == family.box(n)
            assert family.coin_count(n) == len(coins)


def test_solve_scans_the_grid_the_cli_checks():
    for name, family in FAMILIES.items():
        for n in range(1, 13):
            coins = build(name, n)
            for flip in FlipKind:
                grid = solve(coins, flip).optimal_placements.grid
                assert grid == box_grid(family.box(n), flip)


def test_solve_takes_one_hull_per_call():
    # the image's hull is the flipped hull of the coins, not measured again
    for shape in (triangle_up(5), frozenset({(0, 0), (1, 0), (2**40, -3)})):
        for flip in FlipKind:
            with patch.object(Box, "of", wraps=Box.of) as hull:
                solve(shape, flip)
            assert hull.call_count == 1


def test_dense_fall_off_starts_at_1025_rows():
    below, pairs_below = triangle_grid(1024)
    above, pairs_above = triangle_grid(1025)
    below_bytes = below.cells * _scan._cell_bytes(pairs_below)
    assert below_bytes <= MAX_GRID_BYTES < above.cells * _scan._cell_bytes(pairs_above)
    # the product kernel at the byte cap stays within the budget...
    assert kernel_for(below, pairs_below) is product_scan
    assert estimate_ns(below, pairs_below) < MAX_SCAN_NS / 5
    # ...and one row more falls to a Counter of 2.76e11 pairs
    assert _scan._product_ns(above, pairs_above) == math.inf
    assert estimate_ns(above, pairs_above) > 100 * MAX_SCAN_NS


def test_large_sparse_shapes_are_over_budget():
    # 100k far-flung coins: a byte-capped grid, so the Counter's 10^10 pairs
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0)
    assert estimate_ns(far, 100_000**2) > 5 * MAX_SCAN_NS
    assert estimate_ns(far, 1_000**2) < MAX_SCAN_NS / 1000


def test_tested_and_benchmarked_inputs_are_far_below_the_budget():
    # the largest shapes that tier-1 and the benchmark scan
    for shape in (triangle_up(40), rhombus(40), hexagon(7)):
        grid = box_grid(Box.of(shape), FlipKind.ROTATE_180)
        assert estimate_ns(grid, len(shape) ** 2) < MAX_SCAN_NS / 10_000
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0)
    assert estimate_ns(far, 600**2) < MAX_SCAN_NS / 1000  # sparse_custom's 2^40 shape


def refuse_to_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("a scan over the budget was started")

    monkeypatch.setattr(_scan, "product_scan", fail)
    monkeypatch.setattr(_scan, "counter_scan", fail)


def test_scan_pairs_refuses_before_either_kernel_runs(monkeypatch):
    start = [(a, 0) for a in range(10)]
    flipped = flip_points(start, FlipKind.ROTATE_180)
    grid = box_grid(Box.of(start), FlipKind.ROTATE_180)
    assert scan_pairs(start, flipped, grid)[0] == 10
    cost = estimate_ns(grid, 100)
    monkeypatch.setattr(_scan, "MAX_SCAN_NS", cost / 2)
    refuse_to_scan(monkeypatch)
    with pytest.raises(ScanBudgetError) as exc:
        scan_pairs(start, flipped, grid)
    assert isinstance(exc.value, ValueError)
    assert exc.value.estimate_ns == cost
    assert exc.value.pairs == 100


def test_cli_refuses_an_over_budget_scan(capsys, monkeypatch, tmp_path):
    # 40,000 coins on a line 2^20 apart: the grid is past the byte cap, and
    # the Counter's 1.6e9 pairs are estimated at 640 s
    path = tmp_path / "line.txt"
    path.write_text("".join(f"{i << 20} 0\n" for i in range(40_000)))
    refuse_to_scan(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--shape-file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "would take about 640 s (1600000000 coin pairs)" in captured.err
    assert f"over the budget of {MAX_SCAN_NS // 10**9} s" in captured.err


# -- memory ---------------------------------------------------------------


def test_large_far_flung_shapes_are_over_the_memory_cap():
    # 38,000 far-flung coins pass the time budget, but the Counter could
    # hold one key per pair: 1.4e9 keys
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0)
    pairs = 38_000**2
    assert estimate_ns(far, pairs) < MAX_SCAN_NS
    assert counter_bytes(far, pairs) > 50 * MAX_SCAN_BYTES


def test_the_memory_cap_refuses_nothing_the_product_accepts():
    # the product's largest grids, at each cell width, with a pair count
    # that sets the width; below 256 coins the Counter is the cheaper
    # kernel, and holds at most 65,025 keys
    for pairs, cell_bytes in ((255**2, 1), (65535**2, 2), (10**15, 4)):
        assert _scan._cell_bytes(pairs) == cell_bytes
        grid = Grid(MAX_GRID_BYTES // cell_bytes, 1, 1, 0, 0, 0, 0)
        assert _scan._product_ns(grid, pairs) < math.inf
        kernel = counter_scan if cell_bytes == 1 else product_scan
        assert kernel_for(grid, pairs) is kernel


def test_tested_and_benchmarked_scans_are_far_below_the_memory_cap():
    for shape in (triangle_up(40), rhombus(40), hexagon(7)):
        grid = box_grid(Box.of(shape), FlipKind.ROTATE_180)
        assert 40 * counter_bytes(grid, len(shape) ** 2) < MAX_SCAN_BYTES
    # sparse_custom's 600 coins within 2^40 and 250 coins within 2^13
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0)
    assert 40 * counter_bytes(far, 600**2) < MAX_SCAN_BYTES
    square = Grid(2**14, 2**13, 2**13, 0, 0, 0, 0)
    assert 40 * counter_bytes(square, 250**2) < MAX_SCAN_BYTES


def test_the_estimate_bounds_a_one_band_scan():
    # every pair key distinct, all in one band: the most the Counter can hold
    rng = random.Random(17)
    start = sorted({(rng.randrange(1 << 40), rng.randrange(1 << 40)) for _ in range(300)})
    flipped = flip_points(start, FlipKind.MIRROR_HORIZONTAL)
    pairs = len(start) * len(flipped)
    grid = box_grid(Box.of(start), FlipKind.MIRROR_HORIZONTAL)
    with patch.object(_scan, "BAND_PAIRS", pairs):
        tracemalloc.start()
        try:
            best, keys = counter_scan(start, flipped, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert best == 1 and len(keys) == pairs
    estimate = counter_bytes(grid, pairs)
    assert estimate / 2 < peak <= estimate


def test_scan_pairs_refuses_the_counter_before_it_runs(monkeypatch):
    start = [(a << 30, 0) for a in range(10)]
    flipped = flip_points(start, FlipKind.ROTATE_180)
    grid = box_grid(Box.of(start), FlipKind.ROTATE_180)
    assert kernel_for(grid, 100) is counter_scan
    assert scan_pairs(start, flipped, grid)[0] == 10
    memory = counter_bytes(grid, 100)
    monkeypatch.setattr(_scan, "MAX_SCAN_BYTES", memory - 1)
    refuse_to_scan(monkeypatch)
    with pytest.raises(ScanBudgetError) as exc:
        scan_pairs(start, flipped, grid)
    assert exc.value.estimate_bytes == memory
    assert exc.value.estimate_ns == estimate_ns(grid, 100)
    assert exc.value.pairs == 100
    monkeypatch.setattr(_scan, "MAX_SCAN_BYTES", memory)
    monkeypatch.setattr(_scan, "counter_scan", lambda *args: ("best", "keys"))
    assert scan_pairs(start, flipped, grid) == ("best", "keys")


def test_cli_refuses_a_scan_over_the_memory_cap(capsys, monkeypatch, tmp_path):
    # 38,000 coins on a line 2^20 apart: 1.44e9 pairs, estimated at 578 s,
    # within the time budget, but at 128 bytes for each of up to 1.44e9 keys
    path = tmp_path / "line.txt"
    path.write_text("".join(f"{i << 20} 0\n" for i in range(38_000)))
    refuse_to_scan(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--shape-file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        "coinflip: error: the translation scan would need about 172 GiB of memory "
        "(1444000000 coin pairs), over the cap of 2 GiB\n"
    )


def write_scatter(path, last_line=""):
    """5000 coins scattered over ±2^40, one a line, then `last_line`:
    2.5e7 pairs, within the time budget, but about 3 GiB of Counter keys
    under the half-turn, the first flip."""
    rng = random.Random(40)
    coins = {(rng.randint(-(2**40), 2**40), rng.randint(-(2**40), 2**40)) for _ in range(5000)}
    assert len(coins) == 5000
    path.write_text("".join(f"{a} {b}\n" for a, b in coins) + last_line)
    return coins


def test_analyze_refuses_an_over_budget_file_before_any_output(capsys, monkeypatch, tmp_path):
    path = tmp_path / "scatter.txt"
    coins = write_scatter(path)
    refuse_to_scan(monkeypatch)

    def components(coins):
        raise AssertionError("analyze reported on a shape it then refused")

    monkeypatch.setattr(oracle, "components", components)
    with pytest.raises(ScanBudgetError) as scan:
        solve(coins, FlipKind.ROTATE_180)
    assert scan.value.estimate_bytes > MAX_SCAN_BYTES
    assert "need about 3.07 GiB of memory" in str(scan.value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--shape-file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(f"coinflip: error: {scan.value}\n")


def test_a_malformed_over_budget_file_is_refused_for_its_format(capsys, monkeypatch, tmp_path):
    # the file is parsed whole before its box exists, so the format error wins
    path = tmp_path / "scatter.txt"
    write_scatter(path, "7 x\n")
    refuse_to_scan(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--shape-file", str(path)])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.endswith(
        f"coinflip: error: {path}: line 5001: expected two integers `a b`, got '7 x'\n"
    )
