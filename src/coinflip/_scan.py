"""Translation scan: the exact hot loop of the oracle.

The overlap of `start` with the flipped image shifted by t is the number
of point pairs (s, f) with s = f + t. Any translation outside the
difference set s - f has overlap 0, and for nonempty inputs some
translation reaches overlap >= 1, so the maximum over the difference set
is the maximum over all translations. Two pure-Python kernels compute it
exactly and return the same overlap and the same tied keys. Each takes
two nonempty collections of distinct points and their `Grid`, as
`scan_pairs` passes them:

- `counter_scan`, the reference kernel: Counters over the differences of
  all |S|·|F| pairs, one ascending band of shift keys at a time, so that
  it holds one band's counts plus the tied keys found so far, and no tie
  list at all when every pair ties. Its cost follows the pair count
  alone. When the image is a translate of the shape's point reflection,
  as under rot180 always, the start and flipped keys are equal, and it
  counts each of the |S|(|S| - 1)/2 unordered pairs once.
- `product_scan`: Kronecker substitution. Each point set becomes a 0/1
  grid packed into the digits of one big integer, and a single CPython
  multiplication yields the exact overlap at every shift of the
  bounding-box correlation grid; equal grids, as under rot180, are
  squared. Its cost follows the grid size, and each cell is sized from
  the pair count alone (`_cell_bytes`).

Both kernels name a shift (da, db) by one integer key, laid out as `Grid`
describes: key = (da - a0)·H + (db - b0), where a0 = min_a(S) - max_a(F),
b0 = min_b(S) - max_b(F) and H = span_b(S) + span_b(F) + 1. Since
0 <= db - b0 < H, ascending keys are ascending (da, db). A start point
has key (a - min_a S)·H + (b - min_b S), a flipped point
(max_a F - a)·H + (max_b F - b), and a pair's key is the sum of the two.
The product kernel's grid is this layout itself, one row of H cells per
a, so a cell's index is its key. Both kernels return the tied keys, each
once, as an ascending list, except that `counter_scan` returns a
`PairKeys` when every pair ties: it regenerates the keys from the point
keys and gives the least few without listing them (`PairKeys.head`).
The layout stays in this module, and callers decode a key with
`Grid.shift`.

`scan_pairs` runs the kernel that `kernel_for` picks from the grid and
the pair count: the cheaper one by the cost model.
Dense shapes such as the triangle and rhombus families have grids far
smaller than their pair counts; far-flung or sparse shapes do not, and
stay on the Counter. `kernel_for` refuses, before either kernel
allocates anything, a scan estimated to take longer than MAX_SCAN_NS, or
a Counter scan whose keys could need more than MAX_SCAN_BYTES
(`counter_bytes`). A flip maps a shape's `lattice.Box` hull onto its
image's (`Box.flip`), so the grid is `box_grid(hull, flip)`, the one
call with which `oracle.solve` scans and the CLI checks a shape before
building it.
"""

import math
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from itertools import compress
from typing import NamedTuple

from coinflip.lattice import Box, FlipKind

# Cost model, in nanoseconds, measured on CPython 3.11 on a 2-core x86
# VM. The Counter spends about 400 ns per pair, charged for all |S|·|F|
# pairs. A half count (rot180) counts only |S|(|S| - 1)/2 of them, so its
# estimate is conservative by about 2x, on purpose: the kernel choice and
# every refusal stay those of the full count. The product kernel spends
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
    is the shift's key in both kernels.
    """

    width: int  # span_b(start) + span_b(flipped) + 1, the H of the key
    start_rows: int  # span_a(start) + 1
    flipped_rows: int  # span_a(flipped) + 1
    start_a: int  # min_a(start)
    start_b: int  # min_b(start)
    flipped_a: int  # max_a(flipped)
    flipped_b: int  # max_b(flipped)

    @property
    def cells(self) -> int:
        return self.width * (self.start_rows + self.flipped_rows - 1)

    def shift(self, key: int) -> tuple[int, int]:
        """The shift (da, db) that `key` names."""
        da, db = divmod(key, self.width)
        return (self.start_a - self.flipped_a + da, self.start_b - self.flipped_b + db)

    def key(self, shift) -> int | None:
        """The key that `shift()` decodes to `shift`, or None when its db lies outside a row."""
        da = shift[0] - self.start_a + self.flipped_a
        db = shift[1] - self.start_b + self.flipped_b
        return da * self.width + db if 0 <= db < self.width else None


def box_grid(box: Box, flip: FlipKind) -> Grid:
    """The shift-key layout of a shape with hull `box` against its image
    under `flip`, whose hull is `box.flip(flip)`."""
    image = box.flip(flip)
    return Grid(
        width=box.b_hi - box.b_lo + image.b_hi - image.b_lo + 1,
        start_rows=box.a_hi - box.a_lo + 1,
        flipped_rows=image.a_hi - image.a_lo + 1,
        start_a=box.a_lo,
        start_b=box.b_lo,
        flipped_a=image.a_hi,
        flipped_b=image.b_hi,
    )


def _cell_bytes(pairs: int) -> int:
    """Bytes per product-grid cell for a scan of `pairs` point pairs. A cell
    counts at most min(|S|, |F|) <= isqrt(pairs) of them, so no count
    carries into the next cell."""
    most = math.isqrt(pairs)
    return 1 if most < 1 << 8 else 2 if most < 1 << 16 else 4


def _product_ns(grid: Grid, pairs: int) -> float:
    """Estimated product-kernel time; infinite beyond MAX_GRID_BYTES."""
    grid_bytes = grid.cells * _cell_bytes(pairs)
    if grid_bytes > MAX_GRID_BYTES:
        return math.inf
    return (
        _NS_PER_CELL * grid.cells
        + _NS_PER_KARATSUBA_BYTE * grid_bytes**_KARATSUBA_EXPONENT
    )


def estimate_ns(grid: Grid, pairs: int) -> float:
    """Estimated time of the kernel kernel_for picks: the cheaper one."""
    return min(_product_ns(grid, pairs), _NS_PER_PAIR * pairs)


def counter_bytes(grid: Grid, pairs: int) -> int:
    """Estimated peak memory of the Counter kernel, in bytes.

    A scan holds at most min(pairs, grid.cells) distinct keys, each no
    larger than grid.cells. Banding usually keeps far fewer alive at once
    (see counter_scan), but a shape whose pairs crowd into one band holds
    them all in one Counter. A scan in which every key ties lists none
    of them (it returns `PairKeys`), but that does not lower the bound:
    a one-band scan peaks while its Counter's table grows, before any tie
    is listed. 300 coins at 2^40 in one band peak at 10.87 MiB against an
    estimate of 11.33 MiB (tracemalloc, CPython 3.11).
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


class PairKeys:
    """Every pair key of the sorted start keys `ks` and flipped keys `kfs`,
    each once: |S|·|F| sums, or for a half count (`ks == kfs`) the
    |S|(|S| - 1)/2 sums of two different start keys. counter_scan returns
    it in place of a list when every pair ties.

    It holds only the two key lists. `len` is O(1), and `head(n)` reads
    only the first n + 1 keys of each list; iteration regenerates the
    keys row by row, one flipped key at a time, not in ascending order.
    """

    __slots__ = ("ks", "kfs", "half")

    def __init__(self, ks: list[int], kfs: list[int], half: bool):
        self.ks, self.kfs, self.half = ks, kfs, half

    def __len__(self) -> int:
        n = len(self.ks)
        return n * (n - 1) // 2 if self.half else n * len(self.kfs)

    def head(self, n: int) -> list[int]:
        """The n least keys, ascending. Each is a sum among the first n + 1
        keys of each list, since the point keys are distinct: once i
        reaches n, the n sums ks[0..n-1] + kfs[j] lie below ks[i] + kfs[j]
        (likewise for j), and in a half count, once j reaches n + 1, the
        n sums ks[0] + ks[1..n] lie below ks[i] + ks[j]."""
        return sorted(PairKeys(self.ks[: n + 1], self.kfs[: n + 1], self.half))[:n]

    def __contains__(self, key) -> bool:
        """Whether some pair sums to `key`: a bisection of kfs for key - ks[i]
        per start key, over j > i only in a half count."""
        kfs, n = self.kfs, len(self.kfs)
        for i, k in enumerate(self.ks, 1):
            j = bisect_left(kfs, key - k, i if self.half else 0)
            if j < n and kfs[j] == key - k:
                return True
        return False

    def __iter__(self):
        ks, half = self.ks, self.half
        for i, kf in enumerate(self.kfs, 1):
            yield from map(kf.__add__, ks[i:] if half else ks)


def counter_scan(start, flipped, grid: Grid):
    """Reference kernel: count the shift key of every pair, one band of
    keys at a time.

    ks and kfs are the sorted start and flipped keys, so the pair keys lie
    in [ks[0] + kfs[0], ks[-1] + kfs[-1]]. That range is cut into
    ceil(pairs / BAND_PAIRS) equal bands [lo, hi), scanned in ascending
    order; a scan of at most BAND_PAIRS pairs is one band. In a band, each
    flipped key kf pairs with the start keys from lo - kf up to hi - kf, a
    slice of ks found by bisection (the whole row when there is one band),
    and the band's pairs are counted in a Counter of its own.

    When ks == kfs, pairs (i, j) and (j, i) share a key. That is so when
    the image is a translate of the shape's point reflection: under
    rot180 always, and under one mirror when the shape is symmetric under
    the other (the up triangle under mirror-v). Then each row starts
    after kf's own index in ks, so that only the pairs i < j are counted:
    a key's overlap is twice its count, plus 1 when it is a diagonal key
    2·ks[i]. A band's diagonal keys are 2·x for the centres x in ks within
    [ceil(lo / 2), ceil(hi / 2)), found by bisection; a full count has no
    centres. The bands stay those of the full count, so that a band holds
    no more distinct keys than it would there: each band counts about
    half as many pairs.

    One tie rule serves both counts. With top the band's greatest count
    (0 for an empty band), the band's best is 2·top + 1, tied by the
    diagonal keys counted top times, when there are any; otherwise it is
    top, or 2·top for a half count, tied by the keys counted top times.
    A running best keeps the tied keys: a band's ties are appended when
    they equal the best and replace the list when they beat it.

    A band whose Counter holds as many keys as it counted pairs counted
    each key once, so its top is 1 (0 when empty), read without a pass
    over the counts. Unless a centre is hit, its best is 1, or 2 for a
    half count, and any band with a repeated key or a centre hit beats
    that. So it lists no ties: if the scan ends at that best, every band
    was such a band, every counted pair ties and each key is distinct,
    and the scan returns them as one `PairKeys`. Otherwise the ties are a
    list, ascending: each band's ties are sorted (its diagonal keys come
    out ascending), and the bands are ascending. Either way each tied key
    comes out once.

    Memory is one band's distinct keys plus the listed ties, where a
    Counter of every pair would hold all the distinct keys at once. On a
    600-coin scatter over ±2^40 under mirror-h, where all 360,000 pairs
    tie, the scan peaks at 10.9 MiB and its result holds 0.05 MiB
    (tracemalloc, CPython 3.11). Bands split key space, not pairs: a
    shape whose pairs crowd into one band still holds them all (see
    counter_bytes).
    """
    width = grid.width
    ks = sorted((a - grid.start_a) * width + b - grid.start_b for a, b in start)
    kfs = sorted((grid.flipped_a - a) * width + grid.flipped_b - b for a, b in flipped)
    half = ks == kfs
    first, end = ks[0] + kfs[0], ks[-1] + kfs[-1] + 1
    bands = -(-len(ks) * len(kfs) // BAND_PAIRS)
    step = -(-(end - first) // bands)
    best, keys = 0, []
    for lo in range(first, end, step):
        hi = lo + step
        counts, pairs = Counter(), 0
        for i, kf in enumerate(kfs, 1):
            j = i if half else 0  # a half count pairs kf with the keys after it
            row = ks[bisect_left(ks, lo - kf, j) : bisect_left(ks, hi - kf, j)]
            pairs += len(row)
            counts.update(map(kf.__add__, row))
        centres = ks[bisect_left(ks, -(-lo // 2)) : bisect_left(ks, -(-hi // 2))] if half else []
        distinct = len(counts) == pairs  # each of the band's keys counted once
        top = min(pairs, 1) if distinct else max(counts.values())
        odd = [2 * x for x in centres if counts[2 * x] == top]
        if odd:
            top, ties = 2 * top + 1, odd
        else:
            ties = [] if distinct else sorted(compress(counts, map(top.__eq__, counts.values())))
            top *= 1 + half
        if top > best:
            best, keys = top, ties
        elif top == best:
            keys += ties
    if best == 1 + half:  # only bands of distinct keys reach it: every pair ties
        return best, PairKeys(ks, kfs, half)
    return best, keys


def product_scan(start, flipped, grid: Grid):
    """Kronecker-substitution kernel: one big-integer product.

    Start coins go to cell (a - min_a)·width + (b - min_b) of one grid and
    flipped coins, reversed, to (max_a - a)·width + (max_b - b) of another.
    Multiplying the two integers adds those offsets, so each cell of the
    product counts the pairs of one shift key, and the tied cells are found
    in ascending key order. Under rot180 the two grids are equal, and the
    product is a square, which CPython computes faster than a product of
    two different integers.
    """
    nb, width = _cell_bytes(len(start) * len(flipped)), grid.width
    s = bytearray(nb * width * grid.start_rows)
    for a, b in start:
        s[nb * ((a - grid.start_a) * width + b - grid.start_b)] = 1
    f = bytearray(nb * width * grid.flipped_rows)
    for a, b in flipped:
        f[nb * ((grid.flipped_a - a) * width + grid.flipped_b - b)] = 1
    x = int.from_bytes(s, "little")
    product = x * x if s == f else x * int.from_bytes(f, "little")
    counts = array(_TYPECODES[nb], product.to_bytes(nb * grid.cells, "little"))
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
    product_scan when its estimate is at most the Counter's, else counter_scan.

    Raises ScanBudgetError when `estimate_ns` is over MAX_SCAN_NS or, for
    the Counter, `counter_bytes` is over MAX_SCAN_BYTES. Time is checked
    first. It reads only the grid and the pair count, so a caller that
    knows them can check a scan before building its points.
    """
    cost = estimate_ns(grid, pairs)
    if cost > MAX_SCAN_NS:
        raise ScanBudgetError(cost, pairs)
    if _product_ns(grid, pairs) <= cost:
        return product_scan
    memory = counter_bytes(grid, pairs)
    if memory > MAX_SCAN_BYTES:
        raise ScanBudgetError(cost, pairs, memory)
    return counter_scan


def scan_pairs(start, flipped, grid: Grid):
    """Best overlap over all translations of `flipped` onto `start`.

    Both point arguments are nonempty collections of distinct (a, b)
    pairs, laid out as `grid` (`box_grid`). Returns (max_overlap, keys):
    the tied keys, each once, as an ascending list or a `PairKeys`, for
    `grid.shift` to decode.
    `kernel_for` picks the kernel, or refuses the scan before either
    allocates (ScanBudgetError).
    """
    if not start or not flipped:
        raise ValueError("scan_pairs requires nonempty point lists")
    return kernel_for(grid, len(start) * len(flipped))(start, flipped, grid)
