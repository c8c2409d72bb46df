"""The scan budget: a scan estimated over MAX_SCAN_NS, or a Counter scan
estimated over MAX_SCAN_BYTES, is refused up front.

Only estimates and synthetic Grids are used here; no test starts a scan
anywhere near the budget. The CLI refusals replace both kernels with
stubs that fail, so a broken guard fails the test instead of scanning.
"""

import random
import tracemalloc
from unittest.mock import patch

import pytest

from coinflip import _scan, cli
from coinflip._scan import (
    MAX_GRID_BYTES,
    MAX_SCAN_BYTES,
    MAX_SCAN_NS,
    Grid,
    ScanBudgetError,
    counter_bytes,
    counter_scan,
    estimate_ns,
    grid_of,
    prefers_product,
    scan_pairs,
)
from coinflip.lattice import FlipKind, flip_points
from coinflip.shapes import FAMILIES, ShapeSpec, hexagon, rhombus, triangle_up


def triangle_grid(n):
    """The Grid of triangle_up(n) against its half-turn, without the coins."""
    coins = n * (n + 1) // 2
    cell_bytes = 1 if coins < 1 << 8 else 2 if coins < 1 << 16 else 4
    return Grid(2 * n - 1, n, n, 0, 0, 0, 0, cell_bytes=cell_bytes), coins**2


def test_triangle_grid_matches_grid_of():
    for n in (1, 4, 23, 40):
        start = triangle_up(n)
        grid, pairs = triangle_grid(n)
        assert grid_of(list(start), flip_points(start, FlipKind.ROTATE_180)) == grid
        assert pairs == len(start) ** 2
    # the CLI's pre-build check reads every family's grid off its corners
    for name, family in FAMILIES.items():
        for n in range(1, 41):
            coins = family.generator(n)
            assert len(coins) == family.coin_count(n)
            for flip in FlipKind:
                built = grid_of(list(coins), flip_points(coins, flip))
                assert cli._family_grid(ShapeSpec(name, n), flip) == built


def test_dense_fall_off_starts_at_1025_rows():
    below, pairs_below = triangle_grid(1024)
    above, pairs_above = triangle_grid(1025)
    assert below.cells * below.cell_bytes <= MAX_GRID_BYTES < above.cells * above.cell_bytes
    # the product kernel at the byte cap stays within the budget...
    assert prefers_product(below, pairs_below)
    assert estimate_ns(below, pairs_below) < MAX_SCAN_NS / 5
    # ...and one row more falls to a Counter of 2.76e11 pairs
    assert not prefers_product(above, pairs_above)
    assert estimate_ns(above, pairs_above) > 100 * MAX_SCAN_NS


def test_large_sparse_shapes_are_over_budget():
    # 100k far-flung coins: a byte-capped grid, so the Counter's 10^10 pairs
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0, cell_bytes=4)
    assert estimate_ns(far, 100_000**2) > 5 * MAX_SCAN_NS
    assert estimate_ns(far, 1_000**2) < MAX_SCAN_NS / 1000


def test_tested_and_benchmarked_inputs_are_far_below_the_budget():
    # the largest shapes that tier-1 and the benchmark scan
    for shape in (triangle_up(40), rhombus(40), hexagon(7)):
        start = list(shape)
        grid = grid_of(start, flip_points(start, FlipKind.ROTATE_180))
        assert estimate_ns(grid, len(start) ** 2) < MAX_SCAN_NS / 10_000
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0, cell_bytes=2)
    assert estimate_ns(far, 600**2) < MAX_SCAN_NS / 1000  # sparse_custom's 2^40 shape


def refuse_to_scan(monkeypatch):
    def fail(*args):
        raise AssertionError("a scan over the budget was started")

    monkeypatch.setattr(_scan, "product_scan", fail)
    monkeypatch.setattr(_scan, "counter_scan", fail)


def test_scan_pairs_refuses_before_either_kernel_runs(monkeypatch):
    start = [(a, 0) for a in range(10)]
    flipped = [(-a, 0) for a in range(10)]
    assert scan_pairs(start, flipped)[0] == 10
    cost = estimate_ns(grid_of(start, flipped), 100)
    monkeypatch.setattr(_scan, "MAX_SCAN_NS", cost / 2)
    refuse_to_scan(monkeypatch)
    with pytest.raises(ScanBudgetError) as exc:
        scan_pairs(start, flipped)
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
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0, cell_bytes=2)
    pairs = 38_000**2
    assert estimate_ns(far, pairs) < MAX_SCAN_NS
    assert counter_bytes(far, pairs) > 50 * MAX_SCAN_BYTES


def test_the_memory_cap_refuses_nothing_the_product_accepts():
    # the product's largest grids, at each cell width; its fallback to the
    # Counter (repeated points) holds at most one key per cell
    for cell_bytes in (1, 2, 4):
        grid = Grid(MAX_GRID_BYTES // cell_bytes, 1, 1, 0, 0, 0, 0, cell_bytes=cell_bytes)
        assert prefers_product(grid, 10**15)
        assert counter_bytes(grid, 10**15) <= MAX_SCAN_BYTES


def test_tested_and_benchmarked_scans_are_far_below_the_memory_cap():
    for shape in (triangle_up(40), rhombus(40), hexagon(7)):
        start = list(shape)
        grid = grid_of(start, flip_points(start, FlipKind.ROTATE_180))
        assert 40 * counter_bytes(grid, len(start) ** 2) < MAX_SCAN_BYTES
    # sparse_custom's 600 coins within 2^40 and 250 coins within 2^13
    far = Grid(2**41, 2**41, 2**41, 0, 0, 0, 0, cell_bytes=2)
    assert 40 * counter_bytes(far, 600**2) < MAX_SCAN_BYTES
    square = Grid(2**14, 2**13, 2**13, 0, 0, 0, 0, cell_bytes=1)
    assert 40 * counter_bytes(square, 250**2) < MAX_SCAN_BYTES


def test_the_estimate_bounds_a_one_band_scan():
    # every pair key distinct, all in one band: the most the Counter can hold
    rng = random.Random(17)
    start = sorted({(rng.randrange(1 << 40), rng.randrange(1 << 40)) for _ in range(300)})
    flipped = flip_points(start, FlipKind.MIRROR_HORIZONTAL)
    pairs = len(start) * len(flipped)
    with patch.object(_scan, "BAND_PAIRS", pairs):
        tracemalloc.start()
        try:
            best, keys = counter_scan(start, flipped)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert best == 1 and len(keys) == pairs
    estimate = counter_bytes(grid_of(start, flipped), pairs)
    assert estimate / 2 < peak <= estimate


def test_scan_pairs_refuses_the_counter_before_it_runs(monkeypatch):
    start = [(a << 30, 0) for a in range(10)]
    flipped = [(-a << 30, 0) for a in range(10)]
    grid = grid_of(start, flipped)
    assert not prefers_product(grid, 100)
    assert scan_pairs(start, flipped)[0] == 10
    memory = counter_bytes(grid, 100)
    monkeypatch.setattr(_scan, "MAX_SCAN_BYTES", memory - 1)
    refuse_to_scan(monkeypatch)
    with pytest.raises(ScanBudgetError) as exc:
        scan_pairs(start, flipped)
    assert exc.value.estimate_bytes == memory
    assert exc.value.estimate_ns == estimate_ns(grid, 100)
    assert exc.value.pairs == 100
    monkeypatch.setattr(_scan, "MAX_SCAN_BYTES", memory)
    monkeypatch.setattr(_scan, "counter_scan", lambda *args: ("best", "keys"))
    assert scan_pairs(start, flipped) == ("best", "keys", grid)


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
