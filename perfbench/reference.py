"""Reference answers for benchmark ops, computed without importing coinflip.

Everything here is untimed and independent of the package under test:

- the best overlap and its tied shifts come from counting, for every
  translation t, the pairs (s, f) with s = f + t, found by sorting all
  pair differences in numpy (the package uses a hash Counter or a
  compiled kernel), and the canonical shift is confirmed by a direct
  set intersection |S & (F + t)|;
- family move counts also come from the paper's closed forms, and the
  scan must agree with them;
- protrusions, move lists, components, triangle classes, tables and
  the ASCII and SVG diagrams are recomputed here, so every output is
  compared byte for byte.

`check(argv, rc, out, shapes)` tells whether one op's exit code and
stdout match these answers.
"""

from __future__ import annotations

import math

import numpy as np

FLIPS = {
    "rot180": lambda a, b: (-a, -b),
    "mirror-h": lambda a, b: (-a - b, b),
    "mirror-v": lambda a, b: (a + b, -b),
}
FLIP_ORDER = ("rot180", "mirror-h", "mirror-v")
DEFAULT_FLIP = {"triangle": "rot180", "rhombus": "mirror-h", "hexagon": "rot180", "custom": "rot180"}
ARITY = {"triangle": 3, "rhombus": 2}
NEIGHBORS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def family_coins(kind: str, n: int) -> frozenset:
    if kind == "triangle":
        return frozenset((a, b) for b in range(n) for a in range(n - b))
    if kind == "rhombus":
        return frozenset((a, b) for a in range(n) for b in range(n))
    if kind == "hexagon":
        r = n - 1
        return frozenset(
            (a, b) for a in range(-r, r + 1) for b in range(-r, r + 1) if abs(a + b) <= r
        )
    raise ValueError(f"unknown family {kind!r}")


def closed_form_moves(kind: str, n: int) -> int:
    """The paper's move counts: floor(T(n)/3), floor(n^2/4); hexagons are fixed."""
    return {"triangle": n * (n + 1) // 2 // 3, "rhombus": n * n // 4, "hexagon": 0}[kind]


def flipped(coins, flip: str) -> list:
    f = FLIPS[flip]
    return [f(a, b) for a, b in coins]


class Scan:
    """Best overlap of `coins` with its flipped image, and every tied shift."""

    def __init__(self, coins: frozenset, flip: str):
        s = np.array(sorted(coins), dtype=np.int64)
        f = np.array(flipped(coins, flip), dtype=np.int64)
        da = (s[:, None, 0] - f[None, :, 0]).ravel()
        db = (s[:, None, 1] - f[None, :, 1]).ravel()
        order = np.lexsort((db, da))
        da, db = da[order], db[order]
        new = np.ones(da.size, dtype=bool)
        new[1:] = (da[1:] != da[:-1]) | (db[1:] != db[:-1])
        starts = np.flatnonzero(new)
        counts = np.diff(np.append(starts, da.size))
        self.best = int(counts.max())
        tied = starts[counts == self.best]
        self.da, self.db = da[tied], db[tied]  # ascending (da, db)
        self.count = int(tied.size)
        self.total = len(coins)
        self.moves = self.total - self.best
        direct = len(coins & target(coins, flip, self.shift(0)))
        if direct != self.best:
            raise AssertionError(f"reference scan disagrees with direct intersection: {direct} != {self.best}")

    def shift(self, i: int) -> tuple[int, int]:
        return (int(self.da[i]), int(self.db[i]))


def target(coins, flip: str, shift) -> frozenset:
    da, db = shift
    return frozenset((a + da, b + db) for a, b in flipped(coins, flip))


def components(coins) -> list[frozenset]:
    """Six-neighbour clusters, ordered by their smallest coin."""
    remaining = set(coins)
    out = []
    while remaining:
        todo = [remaining.pop()]
        comp = set(todo)
        while todo:
            a, b = todo.pop()
            for da, db in NEIGHBORS:
                q = (a + da, b + db)
                if q in remaining:
                    remaining.remove(q)
                    comp.add(q)
                    todo.append(q)
        out.append(frozenset(comp))
    return sorted(out, key=min)


def triangle_class(comp: frozenset) -> str:
    k = (math.isqrt(8 * len(comp) + 1) - 1) // 2
    if k * (k + 1) // 2 == len(comp):
        a0, b0 = min(a for a, _ in comp), min(b for _, b in comp)
        if comp == {(a0 + i, b0 + j) for j in range(k) for i in range(k - j)}:
            return f"up triangle, {k} rows"
        a1, b1 = max(a for a, _ in comp), max(b for _, b in comp)
        if comp == {(a1 - i, b1 - j) for j in range(k) for i in range(k - j)}:
            return f"down triangle, {k} rows"
    return "not a triangle"


def multiset_text(sizes) -> str:
    return " + ".join(str(s) for s in sizes) if sizes else "(none)"


def protrusion_sizes(coins, flip, shift, arity=None) -> list[int]:
    sizes = sorted((len(c) for c in components(coins - target(coins, flip, shift))), reverse=True)
    if arity is not None:
        sizes += [0] * (arity - len(sizes))
    return sizes


# -- shapes and their cached scans ---------------------------------------------


class Shape:
    """A coin set as the CLI names it: `kind` plus size, or a shape file."""

    def __init__(self, kind: str, coins: frozenset, size: int = 0, path: str = ""):
        self.kind, self.coins, self.size, self.path = kind, coins, size, path
        self._scans = {}

    @classmethod
    def family(cls, kind: str, n: int) -> "Shape":
        return cls(kind, family_coins(kind, n), size=n)

    def argv(self) -> list[str]:
        return ["--shape-file", self.path] if self.kind == "custom" else [self.kind, str(self.size)]

    def label(self) -> str:
        return f"custom {self.path}" if self.kind == "custom" else f"{self.kind} {self.size}"

    def scan(self, flip: str) -> Scan:
        if flip not in self._scans:
            scan = Scan(self.coins, flip)
            if self.kind != "custom" and flip == DEFAULT_FLIP[self.kind]:
                expected = closed_form_moves(self.kind, self.size)
                if scan.moves != expected:
                    raise AssertionError(f"{self.label()}: scan says {scan.moves} moves, closed form {expected}")
            self._scans[flip] = scan
        return self._scans[flip]


# -- expected outputs ----------------------------------------------------------


def solve_text(shape: Shape, with_moves: bool) -> str:
    flip = DEFAULT_FLIP[shape.kind]
    sc = shape.scan(flip)
    shift = sc.shift(0)
    sizes = protrusion_sizes(shape.coins, flip, shift, ARITY.get(shape.kind))
    lines = [
        f"shape: {shape.label()}",
        f"flip: {flip}",
        f"total coins: {sc.total}",
        f"min moves: {sc.moves}",
        f"max overlap: {sc.best}",
        f"optimal placements: {sc.count}",
        f"canonical shift: {shift}",
        f"protrusions: {multiset_text(sizes)}",
    ]
    if with_moves:
        tgt = target(shape.coins, flip, shift)
        pairs = list(zip(sorted(shape.coins - tgt), sorted(tgt - shape.coins)))
        lines.append(f"moves ({len(pairs)}):")
        lines += [f"  ({a}, {b}) -> ({c}, {d})" for (a, b), (c, d) in pairs]
    return "\n".join(lines) + "\n"


def analyze_text(shape: Shape) -> str:
    coins = shape.coins
    comps = components(coins)
    lines = [
        f"shape: {shape.label()}",
        f"total coins: {len(coins)}",
        f"coordinate ranges: a {min(a for a, _ in coins)}..{max(a for a, _ in coins)}, "
        f"b {min(b for _, b in coins)}..{max(b for _, b in coins)}",
        f"connected components: {len(comps)}",
    ]
    lines += [f"  component {i}: {len(c)} coins, {triangle_class(c)}" for i, c in enumerate(comps)]
    for flip in FLIP_ORDER:
        sc = shape.scan(flip)
        sizes = protrusion_sizes(coins, flip, sc.shift(0))
        lines.append(
            f"flip {flip}: {sc.moves} moves, overlap {sc.best}, "
            f"{sc.count} placements, protrusions {multiset_text(sizes)}"
        )
    return "\n".join(lines) + "\n"


def placement_cells(shape: Shape, index: int) -> dict:
    """Each coin of start or image: "stay" (both), "source" (start), "target" (image)."""
    flip = DEFAULT_FLIP[shape.kind]
    tgt = target(shape.coins, flip, shape.scan(flip).shift(index))
    return {
        c: "stay" if c in shape.coins and c in tgt else ("source" if c in shape.coins else "target")
        for c in shape.coins | tgt
    }


def render_ascii_text(shape: Shape, index: int) -> str:
    glyph = {"stay": "O", "source": ".", "target": "*"}
    cells = placement_cells(shape, index)
    cols = [2 * a + b for a, b in cells]
    rows = [b for _, b in cells]
    lines = []
    for row in range(max(rows), min(rows) - 1, -1):
        line = [" "] * (max(cols) - min(cols) + 1)
        for (a, b), kind in cells.items():
            if b == row:
                line[2 * a + b - min(cols)] = glyph[kind]
        lines.append("".join(line).rstrip())
    sc = shape.scan(DEFAULT_FLIP[shape.kind])
    lines += [
        "",
        "legend: O = stays put   . = must move   * = destination",
        f"placement {index}/{sc.count - 1}: flip {DEFAULT_FLIP[shape.kind]}, "
        f"shift {sc.shift(index)}, {sc.moves} moves",
    ]
    return "\n".join(lines) + "\n"


SVG_STYLE = (
    "    .stay { fill: #1a1a1a; }\n"
    "    .source { fill: #ffffff; stroke: #1a1a1a; stroke-width: 0.06; }\n"
    "    .target { fill: #2f9e44; }"
)


def render_svg_text(shape: Shape, index: int) -> str:
    """Unit-diameter circles at the exact lattice embedding, then a legend row."""
    cells = placement_cells(shape, index)
    half = math.sqrt(3.0) / 2.0
    placed = [(a + b / 2.0, -(b * half), cells[a, b]) for a, b in sorted(cells)]
    xs = [p[0] for p in placed]
    ys = [p[1] for p in placed]
    width, height = max(xs) - min(xs) + 2.0, max(ys) - min(ys) + 3.2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{min(xs) - 1.0:.4f} {min(ys) - 1.0:.4f} {width:.4f} {height:.4f}" '
        f'width="{width * 24:.0f}" height="{height * 24:.0f}">',
        f"  <style>\n{SVG_STYLE}\n  </style>",
    ]
    out += [f'  <circle class="{kind}" cx="{x:.4f}" cy="{y:.4f}" r="0.5"/>' for x, y, kind in placed]
    legend_y = max(ys) + 1.6
    for dx, kind, label in ((0.0, "stay", "stays"), (2.5, "source", "moves"), (5.0, "target", "destination")):
        out.append(f'  <circle class="{kind}" cx="{min(xs) + dx:.4f}" cy="{legend_y:.4f}" r="0.35"/>')
        out.append(
            f'  <text x="{min(xs) + dx + 0.55:.4f}" y="{legend_y + 0.18:.4f}" '
            f'font-size="0.5" font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


TABLE_COLUMNS = {
    "triangle": ("rows", "total_coins", "old_formula", "moves", "increment", "decomposition"),
    "rhombus": ("rows", "total_coins", "coins_div_4", "moves", "decomposition"),
}


def decimal_text(numerator: int, divisor: int, max_digits: int = 10) -> str:
    """numerator/divisor by long division: bare when whole, else at most max_digits decimals."""
    whole, rest = divmod(numerator, divisor)
    digits = ""
    while rest and len(digits) < max_digits:
        digit, rest = divmod(rest * 10, divisor)
        digits += str(digit)
    return f"{whole}.{digits}" if digits else str(whole)


def table_text(family: str, rows: int, fmt: str, verbose: bool, shapes) -> str:
    """Moves from the scan, parts from the protrusions at the canonical shift."""
    flip, header = DEFAULT_FLIP[family], TABLE_COLUMNS[family]
    body, prev = [], None
    for n in range(1, rows + 1):
        shape = shapes.family(family, n)
        sc = shape.scan(flip)
        fields = [str(n), str(sc.total), decimal_text(sc.total, 3 if family == "triangle" else 4), str(sc.moves)]
        if family == "triangle":
            if prev is None:
                fields.append("")
            else:
                fields.append(f"{sc.moves} - {prev} = {sc.moves - prev}" if verbose else str(sc.moves - prev))
            prev = sc.moves
        fields.append(multiset_text(protrusion_sizes(shape.coins, flip, sc.shift(0), ARITY[family])))
        body.append(fields)
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(f[:-1] + [f'"{f[-1]}"']) for f in body]
    else:
        lines = [
            "| " + " | ".join(header) + " |",
            "|" + "|".join(" :--- " if c == "decomposition" else " ---: " for c in header) + "|",
        ]
        lines += ["| " + " | ".join(f) + " |" for f in body]
    return "\n".join(lines) + "\n"


def verify_text(rows: int, shapes) -> str:
    lines = []
    for n in range(1, rows + 1):
        tri = shapes.family("triangle", n).scan("rot180")
        rho = shapes.family("rhombus", n).scan("mirror-h")
        lines.append(
            f"rows {n}: triangle {tri.moves} moves ({tri.count} placements), "
            f"rhombus {rho.moves} moves ({rho.count} placements) ok"
        )
    lines.append(f"verified rows 1..{rows}: formulas and oracle agree")
    return "\n".join(lines) + "\n"


class ShapeBook:
    """Family shapes by (kind, size) and custom shapes by path, each scanned once."""

    def __init__(self):
        self._families = {}
        self.custom = {}

    def family(self, kind: str, n: int) -> Shape:
        if (kind, n) not in self._families:
            self._families[kind, n] = Shape.family(kind, n)
        return self._families[kind, n]

    def add_custom(self, path: str, coins: frozenset) -> Shape:
        self.custom[path] = Shape("custom", frozenset(coins), path=path)
        return self.custom[path]

    def resolve(self, argv: list[str]) -> Shape:
        if "--shape-file" in argv:
            return self.custom[argv[argv.index("--shape-file") + 1]]
        return self.family(argv[1], int(argv[2]))


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check(argv: list[str], rc: int, out: str, shapes: ShapeBook) -> bool:
    """True when one op's exit code and stdout match the reference answer."""
    if rc != 0:
        return False
    cmd = argv[0]
    if cmd == "verify":
        return out == verify_text(int(argv[1]), shapes)
    if cmd == "table":
        return out == table_text(argv[1], int(argv[2]), _flag(argv, "--format", "markdown"),
                                 "--verbose-diff" in argv, shapes)
    shape = shapes.resolve(argv)
    if cmd == "solve":
        return out == solve_text(shape, "--moves" in argv)
    if cmd == "analyze":
        return out == analyze_text(shape)
    if cmd == "render":
        index = int(_flag(argv, "--placement", 0))
        if _flag(argv, "--format", "ascii") == "svg":
            return out == render_svg_text(shape, index)
        return out == render_ascii_text(shape, index)
    raise ValueError(f"no reference for command {cmd!r}")
