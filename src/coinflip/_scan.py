"""Translation scan: the exact hot loop of the oracle.

The overlap of `start` with the flipped image shifted by t is the number
of point pairs (s, f) with s = f + t. Any translation outside the
difference set s - f has overlap 0, and for nonempty inputs some
translation reaches overlap >= 1, so the maximum over the difference set
is the maximum over all translations. Two pure-Python kernels compute it
exactly and return identical results:

- `counter_scan`, the reference kernel: a Counter over the differences of
  all |S|·|F| pairs. Its cost follows the pair count alone.
- `product_scan`: Kronecker substitution. Each point set becomes a 0/1
  grid packed into the digits of one big integer, and a single CPython
  multiplication yields the exact overlap at every shift of the
  bounding-box correlation grid. Its cost follows the grid size.

`scan_pairs` reads both bounding boxes, estimates each kernel's cost
(`prefers_product`) and runs the cheaper one. Dense shapes such as the
triangle and rhombus families have grids far smaller than their pair
counts; far-flung or sparse shapes do not, and stay on the Counter.
"""

import sys
from array import array
from collections import Counter
from typing import NamedTuple

# Cost model, in nanoseconds, measured on CPython 3.11 on a 2-core x86
# VM. The Counter spends about 400 ns per pair. The product kernel spends
# about 200 ns per grid cell to fill and read the grid, plus the
# multiplication: CPython multiplies big integers by Karatsuba, about
# 0.3 ns x (grid bytes) ** log2(3) on grids this sparse.
_NS_PER_PAIR = 400
_NS_PER_CELL = 200
_NS_PER_KARATSUBA_BYTE = 0.3
_KARATSUBA_EXPONENT = 1.585

# The product kernel never builds a grid beyond this many bytes.
MAX_GRID_BYTES = 16 << 20

_TYPECODES = {1: "B", 2: "H", 4: "I"}


class Grid(NamedTuple):
    """Layout of the correlation grid of `start` against `flipped`.

    Cell (da - a0) + (db - b0) * width holds the overlap at shift
    (da, db), where a0 = start_a - flipped_a and b0 = start_b - flipped_b.
    Each cell is `cell_bytes` wide, enough that no count carries into the
    next cell.
    """

    width: int  # span_a(start) + span_a(flipped) + 1
    start_rows: int  # span_b(start) + 1
    flipped_rows: int  # span_b(flipped) + 1
    start_a: int  # min_a(start)
    start_b: int  # min_b(start)
    flipped_a: int  # max_a(flipped)
    flipped_b: int  # max_b(flipped)
    cell_bytes: int

    @property
    def cells(self) -> int:
        return self.width * (self.start_rows + self.flipped_rows - 1)


def grid_of(start, flipped) -> Grid:
    """The product kernel's grid layout, from the bounding boxes alone."""
    sa = [p[0] for p in start]
    sb = [p[1] for p in start]
    fa = [p[0] for p in flipped]
    fb = [p[1] for p in flipped]
    most = min(len(start), len(flipped))  # no overlap exceeds this
    cell_bytes = 1 if most < 1 << 8 else 2 if most < 1 << 16 else 4
    return Grid(
        width=max(sa) - min(sa) + max(fa) - min(fa) + 1,
        start_rows=max(sb) - min(sb) + 1,
        flipped_rows=max(fb) - min(fb) + 1,
        start_a=min(sa),
        start_b=min(sb),
        flipped_a=max(fa),
        flipped_b=max(fb),
        cell_bytes=cell_bytes,
    )


def prefers_product(grid: Grid, pairs: int) -> bool:
    """True when the product kernel is estimated cheaper than the Counter
    on `pairs` point pairs, and its grid fits within MAX_GRID_BYTES."""
    grid_bytes = grid.cells * grid.cell_bytes
    if grid_bytes > MAX_GRID_BYTES:
        return False
    product_ns = (
        _NS_PER_CELL * grid.cells
        + _NS_PER_KARATSUBA_BYTE * grid_bytes**_KARATSUBA_EXPONENT
    )
    return product_ns <= _NS_PER_PAIR * pairs


def counter_scan(start, flipped):
    """Reference kernel: count the difference of every pair."""
    counts = Counter(
        (sa - fa, sb - fb) for sa, sb in start for fa, fb in flipped
    )
    best = max(counts.values())
    shifts = sorted(t for t, c in counts.items() if c == best)
    return best, shifts


def product_scan(start, flipped, grid=None):
    """Kronecker-substitution kernel: one big-integer product.

    Start coins go to cells (a - min_a, b - min_b) of one grid and flipped
    coins, reversed, to (max_a - a, max_b - b) of another, both with rows
    of `width` cells. Multiplying the two integers adds those offsets, so
    each cell of the product counts the pairs with one difference (da, db),
    laid out as `Grid` describes.
    """
    g = grid or grid_of(start, flipped)
    nb, width = g.cell_bytes, g.width
    s = bytearray(nb * width * g.start_rows)
    for a, b in start:
        s[nb * ((b - g.start_b) * width + a - g.start_a)] = 1
    f = bytearray(nb * width * g.flipped_rows)
    for a, b in flipped:
        f[nb * ((g.flipped_b - b) * width + g.flipped_a - a)] = 1
    if s.count(1) != len(start) or f.count(1) != len(flipped):
        # A repeated point: 0/1 cells cannot hold its multiplicity.
        return counter_scan(start, flipped)
    product = int.from_bytes(s, "little") * int.from_bytes(f, "little")
    counts = array(_TYPECODES[nb], product.to_bytes(nb * g.cells, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    best = max(counts)
    a0, b0 = g.start_a - g.flipped_a, g.start_b - g.flipped_b
    shifts = []
    i = counts.index(best)
    while i >= 0:
        shifts.append((a0 + i % width, b0 + i // width))
        try:
            i = counts.index(best, i + 1)
        except ValueError:
            i = -1
    shifts.sort()
    return best, shifts


def scan_pairs(start, flipped):
    """Best overlap over all translations of `flipped` onto `start`.

    Both arguments are sequences of (a, b) integer pairs. Returns
    (max_overlap, shifts) where shifts lists every (da, db) achieving the
    maximum, sorted ascending. The kernel is chosen by `prefers_product`;
    both give the same answer.
    """
    if not start or not flipped:
        raise ValueError("scan_pairs requires nonempty point lists")
    grid = grid_of(start, flipped)
    if prefers_product(grid, len(start) * len(flipped)):
        return product_scan(start, flipped, grid)
    return counter_scan(start, flipped)
