"""Seeded workloads: the CLI ops of one pass, a warm-up op, and their shapes.

Each workload function takes a random.Random, a ShapeBook for reference
answers and the directory (relative to the repository root) to write
shape files into, and returns (ops, warmup). Shape files are written
here, before anything is timed; the program only ever sees the files
and argv lists.
"""

from __future__ import annotations

import os

from reference import DEFAULT_FLIP, NEIGHBORS, ShapeBook


def write_shape(workdir: str, name: str, coins, rng, book: ShapeBook):
    """Write coins in shape-file syntax, lines shuffled, with a comment header."""
    lines = [f"{a} {b}\n" for a, b in sorted(coins)]
    rng.shuffle(lines)
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {name}: {len(lines)} coins\n\n" + "".join(lines))
    return book.add_custom(path, coins)


def blob(rng, size: int) -> frozenset:
    """A connected blob grown one random neighbour at a time, then moved."""
    coins = {(0, 0)}
    while len(coins) < size:
        a, b = rng.choice(sorted(coins))
        da, db = rng.choice(NEIGHBORS)
        coins.add((a + da, b + db))
    oa, ob = rng.randint(-40, 40), rng.randint(-40, 40)
    return frozenset((a + oa, b + ob) for a, b in coins)


def scatter(rng, count: int, lo: int, hi: int) -> frozenset:
    coins = set()
    while len(coins) < count:
        coins.add((rng.randint(lo, hi), rng.randint(lo, hi)))
    return frozenset(coins)


def triangle_clusters(rng, clusters: int, spread: int) -> frozenset:
    """Up and down coin triangles of 1-6 rows, far apart from each other."""
    coins = set()
    for _ in range(clusters):
        k, sign = rng.randint(1, 6), rng.choice((1, -1))
        oa, ob = rng.randint(-spread, spread), rng.randint(-spread, spread)
        coins |= {(oa + sign * i, ob + sign * j) for j in range(k) for i in range(k - j)}
    return frozenset(coins)


def verify_sweep(rng, book, workdir):
    # verify has no input beyond its row count; the seed changes nothing.
    return [["verify", "30"]], ["verify", "6"]


STREAM_FAMILIES = (("triangle", 14), ("rhombus", 14), ("hexagon", 7))
STREAM_BLOBS = 24
STREAM_REPEATS = 4
STREAM_TABLES = 20


def puzzle_stream(rng, book, workdir):
    # Every shape gets every op kind the same number of times; the seed
    # picks blob geometry, placement indices, table options and the order,
    # so the cost of a pass barely depends on the seed.
    shapes = [book.family(kind, n) for kind, top in STREAM_FAMILIES for n in range(1, top + 1)]
    for i in range(STREAM_BLOBS):
        size = 10 + round(i * 110 / (STREAM_BLOBS - 1))
        shapes.append(write_shape(workdir, f"blob{i:02d}.txt", blob(rng, size), rng, book))
    ops = []
    for _ in range(STREAM_REPEATS):
        for shape in shapes:
            args = shape.argv()
            count = shape.scan(DEFAULT_FLIP[shape.kind]).count
            ops += [
                ["solve", *args],
                ["solve", *args, "--moves"],
                ["analyze", *args],
                ["render", *args, "--placement", str(rng.randrange(count))],
                ["render", *args, "--format", "svg", "--placement", str(rng.randrange(count))],
            ]
    for i in range(STREAM_TABLES):
        op = ["table", ("triangle", "rhombus")[i % 2], str(rng.randint(1, 14)),
              "--format", rng.choice(("markdown", "csv"))]
        ops.append(op + ["--verbose-diff"] * rng.randint(0, 1))
    rng.shuffle(ops)
    return ops, ops[0]


SPARSE_SQUARES = 3
SPARSE_SQUARE_COINS = 250


def sparse_custom(rng, book, workdir):
    # Boxes far larger than the pair count; the 2^40 shape forces the pure
    # kernel and ties 900k placements, the 2^13 squares stay below 2^30.
    # The squares are the middle ops, so op_p50_ms takes its samples from
    # all three of them; together they scan less than the 2^40 shape decodes.
    far = write_shape(workdir, "far600.txt", scatter(rng, 600, -(1 << 40), 1 << 40), rng, book)
    squares = [write_shape(workdir, f"square{i}.txt", scatter(rng, SPARSE_SQUARE_COINS, 0, (1 << 13) - 1), rng, book)
               for i in range(SPARSE_SQUARES)]
    tris = write_shape(workdir, "triangles.txt", triangle_clusters(rng, 12, 1 << 35), rng, book)
    warm = write_shape(workdir, "warmup.txt", scatter(rng, 40, -(1 << 40), 1 << 40), rng, book)
    ops = [["analyze", *shape.argv()] for shape in (far, *squares, tris)]
    return ops, ["analyze", *warm.argv()]


WORKLOADS = {"verify_sweep": verify_sweep, "puzzle_stream": puzzle_stream, "sparse_custom": sparse_custom}
