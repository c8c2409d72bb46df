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

Both kernels name a shift (da, db) by one integer key, laid out as `Grid`
describes: key = (da - a0)·H + (db - b0), where a0 = min_a(S) - max_a(F),
b0 = min_b(S) - max_b(F) and H = span_b(S) + span_b(F) + 1. Since
0 <= db - b0 < H, ascending keys are ascending (da, db). A start point
has key (a - min_a S)·H + (b - min_b S), a flipped point
(max_a F - a)·H + (max_b F - b), and a pair's key is the sum of the two.
The product kernel's grid is this layout itself, one row of H cells per
a, so a cell's index is its key. Results come back as `Shifts`, which
keeps the tied keys and decodes a shift only when it is read.

`scan_pairs` reads both bounding boxes, estimates each kernel's cost
(`prefers_product`) and runs the cheaper one. Dense shapes such as the
triangle and rhombus families have grids far smaller than their pair
counts; far-flung or sparse shapes do not, and stay on the Counter.
"""

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from collections.abc import Sequence
from operator import eq
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

# scan_pairs refuses a scan estimated to take longer than this. The product
# kernel at MAX_GRID_BYTES is estimated at about 90 s, so only the Counter,
# on more than about 1.5e9 pairs, can exceed it: a dense shape past the
# byte cap (a triangle of 1025 rows or more) or a 40k-coin sparse one.
MAX_SCAN_NS = 600 * 10**9

_TYPECODES = {1: "B", 2: "H", 4: "I"}


class Grid(NamedTuple):
    """Shift-key layout of `start` against `flipped`, from the bounding boxes.

    The correlation grid has one row per da, each of `width` cells: cell
    (da - a0)·width + (db - b0) holds the overlap at shift (da, db), where
    a0 = start_a - flipped_a and b0 = start_b - flipped_b. That cell index
    is the shift's key in both kernels. Each cell is `cell_bytes` wide,
    enough that no count carries into the next cell.
    """

    width: int  # span_b(start) + span_b(flipped) + 1, the H of the key
    start_rows: int  # span_a(start) + 1
    flipped_rows: int  # span_a(flipped) + 1
    start_a: int  # min_a(start)
    start_b: int  # min_b(start)
    flipped_a: int  # max_a(flipped)
    flipped_b: int  # max_b(flipped)
    cell_bytes: int

    @property
    def cells(self) -> int:
        return self.width * (self.start_rows + self.flipped_rows - 1)

    def shifts(self, keys) -> "Shifts":
        """The shifts named by `keys`, which must be sorted ascending."""
        return Shifts(
            keys, self.start_a - self.flipped_a, self.start_b - self.flipped_b, self.width
        )


def grid_of(start, flipped) -> Grid:
    """The shift-key layout, from the bounding boxes alone."""
    sa, sb = zip(*start)
    fa, fb = zip(*flipped)
    most = min(len(start), len(flipped))  # no overlap exceeds this
    cell_bytes = 1 if most < 1 << 8 else 2 if most < 1 << 16 else 4
    start_a, start_b, flipped_a, flipped_b = min(sa), min(sb), max(fa), max(fb)
    return Grid(
        width=max(sb) - start_b + flipped_b - min(fb) + 1,
        start_rows=max(sa) - start_a + 1,
        flipped_rows=flipped_a - min(fa) + 1,
        start_a=start_a,
        start_b=start_b,
        flipped_a=flipped_a,
        flipped_b=flipped_b,
        cell_bytes=cell_bytes,
    )


class Shifts(Sequence):
    """Read-only sequence of shifts (da, db), ascending, kept as sorted
    integer keys and decoded on access. Compares equal to a list of the
    same shifts and, like a list, is unhashable."""

    __slots__ = ("keys", "a0", "b0", "width")

    def __init__(self, keys, a0: int, b0: int, width: int):
        self.keys = keys
        self.a0, self.b0, self.width = a0, b0, width

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i) -> tuple[int, int]:
        da, db = divmod(self.keys[i], self.width)
        return (self.a0 + da, self.b0 + db)

    def __iter__(self):
        a0, b0, width = self.a0, self.b0, self.width
        for key in self.keys:
            da, db = divmod(key, width)
            yield (a0 + da, b0 + db)

    def __contains__(self, shift) -> bool:
        try:
            a, b = shift
            i = bisect_left(self.keys, (a - self.a0) * self.width + b - self.b0)
        except (TypeError, ValueError):
            return False
        # Decoding the key found rejects a shift whose db - b0 falls outside
        # [0, width) and so aliases the key of another shift.
        return i < len(self.keys) and self[i] == shift

    def __eq__(self, other):
        if not isinstance(other, (Shifts, list)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"Shifts({list(self)!r})"


def _product_ns(grid: Grid) -> float:
    """Estimated product-kernel time; infinite beyond MAX_GRID_BYTES."""
    grid_bytes = grid.cells * grid.cell_bytes
    if grid_bytes > MAX_GRID_BYTES:
        return math.inf
    return (
        _NS_PER_CELL * grid.cells
        + _NS_PER_KARATSUBA_BYTE * grid_bytes**_KARATSUBA_EXPONENT
    )


def prefers_product(grid: Grid, pairs: int) -> bool:
    """True when the product kernel is estimated cheaper than the Counter
    on `pairs` point pairs, and its grid fits within MAX_GRID_BYTES."""
    return _product_ns(grid) <= _NS_PER_PAIR * pairs


def estimate_ns(grid: Grid, pairs: int) -> float:
    """Estimated time of the kernel scan_pairs picks: the cheaper one."""
    return min(_product_ns(grid), _NS_PER_PAIR * pairs)


class ScanBudgetError(ValueError):
    """A scan estimated to exceed MAX_SCAN_NS, refused before it starts."""

    def __init__(self, estimate_ns: float, pairs: int):
        self.estimate_ns, self.pairs = estimate_ns, pairs
        super().__init__(
            f"the translation scan would take about {estimate_ns / 1e9:.3g} s "
            f"({pairs} coin pairs), over the budget of {MAX_SCAN_NS / 1e9:.0f} s"
        )


def counter_scan(start, flipped, grid=None):
    """Reference kernel: count the shift key of every pair."""
    g = grid or grid_of(start, flipped)
    width = g.width
    ks = sorted((a - g.start_a) * width + b - g.start_b for a, b in start)
    kfs = sorted((g.flipped_a - a) * width + g.flipped_b - b for a, b in flipped)
    # Ascending rows enter new keys in ascending runs, which the final
    # sort merges instead of sorting from scratch.
    counts = Counter()
    for kf in kfs:
        counts.update(map(kf.__add__, ks))
    best = max(counts.values())
    keys = [k for k, c in counts.items() if c == best]
    keys.sort()
    return best, g.shifts(keys)


def product_scan(start, flipped, grid=None):
    """Kronecker-substitution kernel: one big-integer product.

    Start coins go to cell (a - min_a)·width + (b - min_b) of one grid and
    flipped coins, reversed, to (max_a - a)·width + (max_b - b) of another.
    Multiplying the two integers adds those offsets, so each cell of the
    product counts the pairs of one shift key, and the tied cells are found
    in ascending key order.
    """
    g = grid or grid_of(start, flipped)
    nb, width = g.cell_bytes, g.width
    s = bytearray(nb * width * g.start_rows)
    for a, b in start:
        s[nb * ((a - g.start_a) * width + b - g.start_b)] = 1
    f = bytearray(nb * width * g.flipped_rows)
    for a, b in flipped:
        f[nb * ((g.flipped_a - a) * width + g.flipped_b - b)] = 1
    if s.count(1) != len(start) or f.count(1) != len(flipped):
        # A repeated point: 0/1 cells cannot hold its multiplicity.
        return counter_scan(start, flipped, g)
    product = int.from_bytes(s, "little") * int.from_bytes(f, "little")
    counts = array(_TYPECODES[nb], product.to_bytes(nb * g.cells, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    best = max(counts)
    keys = []
    i = counts.index(best)
    while i >= 0:
        keys.append(i)
        try:
            i = counts.index(best, i + 1)
        except ValueError:
            i = -1
    return best, g.shifts(keys)


def scan_pairs(start, flipped):
    """Best overlap over all translations of `flipped` onto `start`.

    Both arguments are sequences of (a, b) integer pairs. Returns
    (max_overlap, shifts) where shifts is a `Shifts` of every (da, db)
    achieving the maximum, ascending. The kernel is chosen by
    `prefers_product`; both give the same answer. Raises ScanBudgetError,
    before either kernel allocates anything, when `estimate_ns` is over
    MAX_SCAN_NS.
    """
    if not start or not flipped:
        raise ValueError("scan_pairs requires nonempty point lists")
    grid = grid_of(start, flipped)
    pairs = len(start) * len(flipped)
    cost = estimate_ns(grid, pairs)
    if cost > MAX_SCAN_NS:
        raise ScanBudgetError(cost, pairs)
    if prefers_product(grid, pairs):
        return product_scan(start, flipped, grid)
    return counter_scan(start, flipped, grid)
