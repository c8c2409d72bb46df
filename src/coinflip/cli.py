"""coinflip command line: solve, table, render, verify, analyze.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error, or
a scan refused as over budget (see coinflip._scan.MAX_SCAN_NS and
MAX_SCAN_BYTES).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator

from coinflip import formulas, oracle, shapes
from coinflip._scan import Grid, ScanBudgetError, cell_bytes, grid_of, kernel_for
from coinflip.lattice import FlipKind, classify_triangle, connected_components, flip_points

FLIP_NAMES = {f.value: f for f in FlipKind}
PUZZLES = {name: f for name, f in shapes.FAMILIES.items() if f.is_puzzle}


# -- tables -------------------------------------------------------------------


def exact_div_text(numerator: int, divisor: int, max_digits: int = 10) -> str:
    """Exact decimal rendering of numerator/divisor.

    Terminating expansions print in full ("0.25"); non-terminating ones
    are cut at max_digits ("0.3333333333"). Integers print bare.
    """
    q, r = divmod(numerator, divisor)
    if r == 0:
        return str(q)
    digits, rest = divmod(r * 10**max_digits, divisor)
    text = str(digits).zfill(max_digits)
    # a terminating expansion ends at its last nonzero digit
    return f"{q}." + (text if rest else text.rstrip("0"))


def table_columns(family: shapes.Family) -> tuple[str, ...]:
    increment = ("increment",) if family.increments else ()
    return ("rows", "total_coins", family.old_column, "moves", *increment, "decomposition")


def table_fields(family: shapes.Family, max_rows: int, verbose: bool) -> Iterator[list[str]]:
    """The column texts of each row of a puzzle family's move-count table."""
    moves_new = family.formula("new")
    prev = None
    for n in range(1, max_rows + 1):
        dec = moves_new(n)
        coins = family.coin_count(n)
        fields = [str(n), str(coins), exact_div_text(coins, family.divisor), str(dec.moves)]
        if family.increments:
            if prev is None:
                fields.append("")
            elif verbose:
                fields.append(f"{dec.moves} - {prev} = {dec.moves - prev}")
            else:
                fields.append(str(dec.moves - prev))
        fields.append(dec.text())
        prev = dec.moves
        yield fields


def format_table_csv(header: tuple[str, ...], rows: Iterable[list[str]]) -> Iterator[str]:
    yield ",".join(header) + "\n"
    for fields in rows:
        fields[-1] = f'"{fields[-1]}"'  # decomposition contains spaces
        yield ",".join(fields) + "\n"


def format_table_markdown(header: tuple[str, ...], rows: Iterable[list[str]]) -> Iterator[str]:
    yield "| " + " | ".join(header) + " |\n"
    yield "|" + "|".join(" ---: " if c != "decomposition" else " :--- " for c in header) + "|\n"
    for fields in rows:
        yield "| " + " | ".join(fields) + " |\n"


# -- shape resolution ---------------------------------------------------------


def _add_shape_args(sub: argparse.ArgumentParser):
    sub.add_argument(
        "shape",
        nargs="?",
        choices=[*shapes.FAMILIES, "custom"],
        help="shape family (or 'custom' with --shape-file)",
    )
    sub.add_argument("size", nargs="?", type=int, help="rows (triangle/rhombus) or side (hexagon)")
    sub.add_argument("--shape-file", metavar="PATH", help="load a custom shape file")


def _family_grid(spec: shapes.ShapeSpec, flip: FlipKind) -> Grid:
    """The scan's Grid for a family shape under `flip`, read off the
    shape's hull corners: the shapes are convex and the flips linear, so
    the corners span the same boxes as the coins."""
    corners = spec.family.corners(spec.size)
    grid = grid_of(corners, flip_points(corners, flip))
    return grid._replace(cell_bytes=cell_bytes(spec.family.coin_count(spec.size)))


def _resolve_shape(args, parser, every_flip=False):
    """The shape that `args` names, its coins, and the flips to solve it
    under: every flip in FlipKind order when `every_flip`, else --flip or
    the shape's default. A family shape is built only once `kernel_for`
    accepts the scan of each of those flips, so that a shape too large to
    scan is refused before building it could exhaust memory."""
    if args.shape_file:
        if args.shape not in (None, "custom"):
            parser.error(f"--shape-file cannot be combined with shape '{args.shape}'")
        try:
            with open(args.shape_file, encoding="utf-8") as fh:
                coins = shapes.load_custom(fh.read())
        except OSError as exc:
            parser.error(f"cannot read shape file: {exc}")
        except shapes.ShapeFormatError as exc:
            parser.error(f"{args.shape_file}: {exc}")
        spec = shapes.ShapeSpec("custom", name=args.shape_file)
    else:
        if args.shape is None:
            parser.error("a shape (or --shape-file) is required")
        if args.shape == "custom":
            parser.error("custom shapes need --shape-file")
        if args.size is None:
            parser.error(f"{args.shape} needs a size")
        try:
            spec = shapes.ShapeSpec(args.shape, size=args.size)
        except ValueError as exc:
            parser.error(str(exc))
    if every_flip:
        flips = tuple(FlipKind)
    else:
        flips = (FLIP_NAMES[args.flip] if args.flip else shapes.default_flip(spec),)
    if spec.family:
        pairs = spec.family.coin_count(spec.size) ** 2
        for flip in flips:
            kernel_for(_family_grid(spec, flip), pairs)
        coins = shapes.build(spec)
    return spec, coins, flips


def _multiset_text(sizes) -> str:
    return " + ".join(str(s) for s in sizes) if sizes else "(none)"


# -- subcommands --------------------------------------------------------------


def cmd_solve(args, parser) -> int:
    spec, coins, (flip,) = _resolve_shape(args, parser)
    result = oracle.solve(coins, flip)
    canonical = result.optimal_placements[0]
    report = oracle.protrusions(
        coins, canonical, expected_parts=shapes.protrusion_arity(spec), result=result
    )
    print(f"shape: {spec.label()}")
    print(f"flip: {flip.value}")
    print(f"total coins: {result.total_coins}")
    print(f"min moves: {result.min_moves}")
    print(f"max overlap: {result.max_overlap}")
    print(f"optimal placements: {len(result.optimal_placements)}")
    print(f"canonical shift: {canonical.shift}")
    print(f"protrusions: {_multiset_text(report.size_multiset)}")
    if args.moves:
        plan = oracle.move_plan(coins, canonical, result=result)
        print(f"moves ({len(plan.moves)}):")
        for src, dst in plan.moves:
            print(f"  ({src.a}, {src.b}) -> ({dst.a}, {dst.b})")
    return 0


def cmd_table(args, parser) -> int:
    if args.max_rows < 1:
        parser.error("max_rows must be >= 1")
    family = PUZZLES[args.family]
    fmt = format_table_csv if args.format == "csv" else format_table_markdown
    # row by row, so memory stays flat however many rows are asked for
    rows = table_fields(family, args.max_rows, args.verbose_diff)
    sys.stdout.writelines(fmt(table_columns(family), rows))
    return 0


def cmd_render(args, parser) -> int:
    from coinflip import render  # only this command draws; the others skip loading it

    spec, coins, (flip,) = _resolve_shape(args, parser)
    result = oracle.solve(coins, flip)
    count = len(result.optimal_placements)
    if not 0 <= args.placement < count:
        parser.error(
            f"placement index {args.placement} out of range; "
            f"valid indices are 0..{count - 1}"
        )
    placement = result.optimal_placements[args.placement]
    target = oracle.target_set(coins, placement)
    if args.format == "svg":
        print(render.svg_diagram(coins, target))
    else:
        try:
            art = render.ascii_diagram(coins, target)
        except ValueError as exc:
            parser.error(f"{exc}; use --format svg")
        print(art)
        print()
        print(render.ASCII_LEGEND)
        print(
            f"placement {args.placement}/{count - 1}: flip {flip.value}, "
            f"shift {placement.shift}, {result.min_moves} moves"
        )
    return 0


def _component_sizes(components) -> list[int]:
    return sorted((c.size for c in components), reverse=True)


def _verify_fail(n: int, what: str, detail: str) -> int:
    print(f"FAIL at rows={n}: {what}")
    print(detail)
    return 1


def run_verify(max_rows: int) -> int:
    """Formula-vs-oracle sweep over the puzzle families; stops with a
    counterexample dump on mismatch."""
    for n in range(1, max_rows + 1):
        done = []
        for family in PUZZLES.values():
            name = family.name
            new = family.formula("new")(n)
            old = family.formula("old")(n)
            poly = family.formula("polynomial")(n)
            if not (old == new.moves == poly):
                return _verify_fail(
                    n, f"{name} formulas disagree",
                    f"  old={old} new={new.moves} polynomial={poly}",
                )
            coins = shapes.build(shapes.ShapeSpec(name, n))
            flips = (family.default_flip, *family.cross_check_flips)
            results = [oracle.solve(coins, flip) for flip in flips]
            if any(r.min_moves != new.moves for r in results):
                found = " ".join(f"{f.value}={r.min_moves}" for f, r in zip(flips, results))
                return _verify_fail(
                    n, f"{name} oracle disagrees with formulas",
                    f"  {found} formulas={new.moves}",
                )
            result = results[0]
            for placement in result.optimal_placements:
                rep = oracle.protrusions(
                    coins, placement, expected_parts=family.protrusion_arity, result=result
                )
                bad = [c for c in rep.source_components if c.triangle is None]
                src = _component_sizes(rep.source_components)
                tgt = _component_sizes(rep.target_components)
                if bad or rep.size_multiset != new.parts or src != tgt:
                    return _verify_fail(
                        n, f"{name} protrusions at shift {placement.shift}",
                        f"  sizes={rep.size_multiset} expected={new.parts} "
                        f"source={src} target={tgt} non-triangles={len(bad)}",
                    )
            done.append(f"{name} {new.moves} moves ({len(result.optimal_placements)} placements)")
        print(f"rows {n}: {', '.join(done)} ok")
    print(f"verified rows 1..{max_rows}: formulas and oracle agree")
    return 0


def cmd_verify(args, parser) -> int:
    if args.max_rows < 1:
        parser.error("max_rows must be >= 1")
    return run_verify(args.max_rows)


def cmd_analyze(args, parser) -> int:
    spec, coins, flips = _resolve_shape(args, parser, every_flip=True)
    print(f"shape: {spec.label()}")
    print(f"total coins: {len(coins)}")
    a_lo, a_hi = min(c.a for c in coins), max(c.a for c in coins)
    b_lo, b_hi = min(c.b for c in coins), max(c.b for c in coins)
    print(f"coordinate ranges: a {a_lo}..{a_hi}, b {b_lo}..{b_hi}")
    components = connected_components(coins)
    print(f"connected components: {len(components)}")
    for i, comp in enumerate(components):
        cls = classify_triangle(comp)
        desc = f"{cls[0]} triangle, {cls[1]} rows" if cls else "not a triangle"
        print(f"  component {i}: {len(comp)} coins, {desc}")
    for flip in flips:
        print(_flip_summary(coins, flip))
    return 0


def _flip_summary(coins, flip: FlipKind) -> str:
    """analyze's line for one flip. Its result, which can hold hundreds of
    thousands of tied shifts, is freed on return, before the next solve."""
    result = oracle.solve(coins, flip)
    report = oracle.protrusions(coins, result.optimal_placements[0], result=result)
    return (
        f"flip {flip.value}: {result.min_moves} moves, "
        f"overlap {result.max_overlap}, "
        f"{len(result.optimal_placements)} placements, "
        f"protrusions {_multiset_text(report.size_multiset)}"
    )


# -- entry point --------------------------------------------------------------


def _solve_arguments(sub: argparse.ArgumentParser):
    _add_shape_args(sub)
    sub.add_argument("--flip", choices=sorted(FLIP_NAMES), help="flip kind (default per family)")
    sub.add_argument("--moves", action="store_true", help="print the explicit move list")


def _table_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("family", choices=list(PUZZLES))
    sub.add_argument("max_rows", type=int)
    sub.add_argument("--format", choices=["markdown", "csv"], default="markdown")
    sub.add_argument(
        "--verbose-diff",
        action="store_true",
        help="print increments as subtractions, e.g. '5 - 3 = 2'",
    )


def _render_arguments(sub: argparse.ArgumentParser):
    _add_shape_args(sub)
    sub.add_argument("--flip", choices=sorted(FLIP_NAMES))
    sub.add_argument("--placement", type=int, default=0, help="optimal placement index")
    sub.add_argument("--format", choices=["ascii", "svg"], default="ascii")


def _verify_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("max_rows", type=int)


# name -> (help, add_arguments, handler), in the order help lists them
COMMANDS = {
    "solve": ("minimum moves to flip a shape", _solve_arguments, cmd_solve),
    "table": ("move-count table for a shape family", _table_arguments, cmd_table),
    "render": ("draw a superimposition diagram", _render_arguments, cmd_render),
    "verify": ("check formulas against the oracle", _verify_arguments, cmd_verify),
    "analyze": ("structure report for a shape", _add_shape_args, cmd_analyze),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The coinflip parser, with every subcommand or only `command`.

    Configuring a subparser costs far more than parsing with it (each
    ArgumentParser and add_argument looks up gettext and the terminal
    size), so main() configures only the subcommand it was given. Any
    other argv (none, -h, an unknown command) gets the full parser, whose
    help and error messages list every command.

    A one-command parser pins the subcommand metavar to the full list, so
    the top-level usage line it prints with an error (an unrecognized
    argument, or a handler's parser.error) is the one the full parser
    prints. The full parser keeps the default metavar, because
    a pinned one would also rename the action in its "invalid choice" and
    "required" messages.
    """
    parser = argparse.ArgumentParser(
        prog="coinflip",
        description="Exact solver for flipping coin shapes on the triangular lattice",
    )
    pinned = {} if command is None else {"metavar": "{" + ",".join(COMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", required=True, **pinned)
    for name, (help_text, add_arguments, handler) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ScanBudgetError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
