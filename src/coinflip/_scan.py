"""Translation scan: the exact hot loop of the oracle.

The overlap of `start` with the flipped image shifted by t is the number
of point pairs (s, f) with s = f + t. Any translation outside the
difference set s - f has overlap 0, and for nonempty inputs some
translation reaches overlap >= 1, so the maximum over the difference set
is the maximum over all translations. Two pure-Python kernels compute it
exactly and return identical results:

- `counter_scan`, the reference kernel: Counters over the differences of
  all |S|·|F| pairs, one ascending band of shift keys at a time, so that
  it holds one band's counts plus the tied keys found so far. Its cost
  follows the pair count alone.
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
a, so a cell's index is its key. Both kernels return the tied keys,
sorted; the layout stays in this module, and callers decode a key with
`Grid.shift` and encode a shift with `Grid.key`.

`scan_pairs` reads both bounding boxes into a `Grid` and runs the kernel
that `kernel_for` picks from the grid and the pair count: the cheaper
one by the cost model (`prefers_product`). Dense shapes such as the
triangle and rhombus families have grids far smaller than their pair
counts; far-flung or sparse shapes do not, and stay on the Counter.
`kernel_for` refuses, before either kernel allocates anything, a scan
estimated to take longer than MAX_SCAN_NS, or a Counter scan whose keys
could need more than MAX_SCAN_BYTES (`counter_bytes`). A caller that
knows a shape's grid and size without its points (the CLI, from a
family's hull corners) checks it the same way before building it.
"""

import math
import sys
from array import array
from bisect import bisect_left
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

# kernel_for refuses a scan estimated to take longer than this. The product
# kernel at MAX_GRID_BYTES is estimated at about 90 s, so only the Counter,
# on more than about 1.5e9 pairs, can exceed it: a dense shape past the
# byte cap (a triangle of 1025 rows or more) or a 40k-coin sparse one.
MAX_SCAN_NS = 600 * 10**9

# Memory of the Counter kernel per distinct key, measured with tracemalloc
# on CPython 3.11: at most about 91 bytes for the key's dict entry, its
# share of the hash table (held twice while the table grows) and its slot
# in the tie list, plus the key's own int, 28 bytes up to 30 bits and 4
# bytes more for each further 30 bits.
_COUNTER_BYTES_PER_KEY = 96

# kernel_for refuses a Counter scan estimated to need more memory than
# this. The product kernel's grid is capped far lower (MAX_GRID_BYTES).
MAX_SCAN_BYTES = 2 << 30

# counter_scan counts at most about this many pairs into one Counter at a
# time, unless many pairs share a narrow range of keys (see counter_scan).
BAND_PAIRS = 1 << 16

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

    def shift(self, key: int) -> tuple[int, int]:
        """The shift (da, db) that `key` names."""
        da, db = divmod(key, self.width)
        return (self.start_a - self.flipped_a + da, self.start_b - self.flipped_b + db)

    def key(self, shift) -> int | None:
        """The key of `shift`, or None when db - b0 falls outside
        [0, width), where the key would alias another shift's."""
        da, db = shift
        db -= self.start_b - self.flipped_b
        if not 0 <= db < self.width:
            return None
        return (da - self.start_a + self.flipped_a) * self.width + db


def cell_bytes(most: int) -> int:
    """Bytes per product-grid cell, so that a count up to `most` never
    carries into the next cell."""
    return 1 if most < 1 << 8 else 2 if most < 1 << 16 else 4


def grid_of(start, flipped) -> Grid:
    """The shift-key layout, from the bounding boxes alone."""
    sa, sb = zip(*start)
    fa, fb = zip(*flipped)
    start_a, start_b, flipped_a, flipped_b = min(sa), min(sb), max(fa), max(fb)
    return Grid(
        width=max(sb) - start_b + flipped_b - min(fb) + 1,
        start_rows=max(sa) - start_a + 1,
        flipped_rows=flipped_a - min(fa) + 1,
        start_a=start_a,
        start_b=start_b,
        flipped_a=flipped_a,
        flipped_b=flipped_b,
        cell_bytes=cell_bytes(min(len(start), len(flipped))),  # no overlap exceeds this
    )


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
    """Estimated time of the kernel kernel_for picks: the cheaper one."""
    return min(_product_ns(grid), _NS_PER_PAIR * pairs)


def counter_bytes(grid: Grid, pairs: int) -> int:
    """Estimated peak memory of the Counter kernel, in bytes.

    A scan holds at most min(pairs, grid.cells) distinct keys, each no
    larger than grid.cells. Banding usually keeps far fewer alive at once
    (see counter_scan), but a shape whose pairs crowd into one band, or
    whose every key ties, holds them all.
    """
    key_bytes = _COUNTER_BYTES_PER_KEY + sys.getsizeof(grid.cells)
    return min(pairs, grid.cells) * key_bytes


class ScanBudgetError(ValueError):
    """A scan estimated to exceed MAX_SCAN_NS, or MAX_SCAN_BYTES when
    `estimate_bytes` is given, refused before it starts."""

    def __init__(self, estimate_ns: float, pairs: int, estimate_bytes: int | None = None):
        self.estimate_ns, self.pairs = estimate_ns, pairs
        self.estimate_bytes = estimate_bytes
        if estimate_bytes is None:
            cost = f"take about {estimate_ns / 1e9:.3g} s"
            cap = f"the budget of {MAX_SCAN_NS / 1e9:.0f} s"
        else:
            cost = f"need about {estimate_bytes / 2**30:.3g} GiB of memory"
            cap = f"the cap of {MAX_SCAN_BYTES / 2**30:.3g} GiB"
        super().__init__(f"the translation scan would {cost} ({pairs} coin pairs), over {cap}")


def counter_scan(start, flipped, grid=None):
    """Reference kernel: count the shift key of every pair, one band of
    keys at a time.

    ks and kfs are the sorted start and flipped keys, so the pair keys lie
    in [ks[0] + kfs[0], ks[-1] + kfs[-1]]. That range is cut into
    ceil(pairs / BAND_PAIRS) equal bands [lo, hi), scanned in ascending
    order; a scan of at most BAND_PAIRS pairs is one band. In a band, each
    flipped key kf pairs with the start keys from lo - kf up to hi - kf, a
    slice of ks found by bisection, and the band's pairs are counted in a
    Counter of its own. A running best keeps the tied keys: a band's ties,
    sorted, are appended when they equal the best and replace the list
    when they beat it, so the keys come out ascending.

    Memory is one band's distinct keys plus the ties, where a Counter of
    every pair would hold all the distinct keys at once. Bands split key
    space, not pairs: a shape whose pairs crowd into one band still holds
    them all, as does a scan in which every key ties (see counter_bytes).
    """
    g = grid or grid_of(start, flipped)
    width = g.width
    ks = sorted((a - g.start_a) * width + b - g.start_b for a, b in start)
    kfs = sorted((g.flipped_a - a) * width + g.flipped_b - b for a, b in flipped)
    first, end = ks[0] + kfs[0], ks[-1] + kfs[-1] + 1
    bands = -(-len(ks) * len(kfs) // BAND_PAIRS)
    step = -(-(end - first) // bands)
    best, keys = 0, []
    for lo in range(first, end, step):
        hi = lo + step
        counts = Counter()
        for kf in kfs:
            # one band takes every row whole: no bisects, no copies
            row = ks if bands == 1 else ks[bisect_left(ks, lo - kf) : bisect_left(ks, hi - kf)]
            counts.update(map(kf.__add__, row))
        if not counts:
            continue
        top = max(counts.values())
        if top >= best:
            # Ascending rows enter new keys in ascending runs, which this
            # sort merges instead of sorting from scratch.
            ties = [k for k, c in counts.items() if c == top]
            ties.sort()
            if top > best:
                best, keys = top, ties
            else:
                keys += ties
    return best, keys


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
    return best, keys


def kernel_for(grid: Grid, pairs: int):
    """The kernel to scan `pairs` point pairs laid out as `grid`:
    product_scan when `prefers_product`, else counter_scan.

    Raises ScanBudgetError when `estimate_ns` is over MAX_SCAN_NS or, for
    the Counter, `counter_bytes` is over MAX_SCAN_BYTES. Time is checked
    first. It reads only the grid and the pair count, so a caller that
    knows them can check a scan before building its points.
    """
    cost = estimate_ns(grid, pairs)
    if cost > MAX_SCAN_NS:
        raise ScanBudgetError(cost, pairs)
    if prefers_product(grid, pairs):
        return product_scan
    memory = counter_bytes(grid, pairs)
    if memory > MAX_SCAN_BYTES:
        raise ScanBudgetError(cost, pairs, memory)
    return counter_scan


def scan_pairs(start, flipped):
    """Best overlap over all translations of `flipped` onto `start`.

    Both arguments are sequences of (a, b) integer pairs. Returns
    (max_overlap, keys, grid): the sorted keys of every shift achieving
    the maximum, which `grid.shift` decodes. Raises ScanBudgetError, before
    either kernel allocates anything, when `kernel_for` refuses the scan.
    """
    if not start or not flipped:
        raise ValueError("scan_pairs requires nonempty point lists")
    grid = grid_of(start, flipped)
    best, keys = kernel_for(grid, len(start) * len(flipped))(start, flipped, grid)
    return best, keys, grid
