"""coinflip command line: solve, table, render, verify, analyze.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from coinflip import formulas, oracle, render, shapes
from coinflip.lattice import FlipKind, classify_triangle, connected_components

FLIP_NAMES = {f.value: f for f in FlipKind}


# -- tables -------------------------------------------------------------------


@dataclass(frozen=True)
class TableRow:
    rows: int
    total_coins: int
    old_formula: str
    moves: int
    increment: int | None  # None on the first row
    decomposition: str


def exact_div_text(numerator: int, divisor: int, max_digits: int = 10) -> str:
    """Exact decimal rendering of numerator/divisor.

    Terminating expansions print in full ("0.25"); non-terminating ones
    are cut at max_digits ("0.3333333333"). Integers print bare.
    """
    q, r = divmod(numerator, divisor)
    if r == 0:
        return str(q)
    digits = []
    while r and len(digits) < max_digits:
        r *= 10
        d, r = divmod(r, divisor)
        digits.append(str(d))
    return f"{q}." + "".join(digits)


def triangle_table(max_rows: int) -> list[TableRow]:
    out = []
    prev_moves = None
    for n in range(1, max_rows + 1):
        dec = formulas.triangle_moves_new(n)
        out.append(
            TableRow(
                rows=n,
                total_coins=formulas.triangular(n),
                old_formula=exact_div_text(formulas.triangular(n), 3),
                moves=dec.moves,
                increment=None if prev_moves is None else dec.moves - prev_moves,
                decomposition=dec.text(),
            )
        )
        prev_moves = dec.moves
    return out


def rhombus_table(max_rows: int) -> list[TableRow]:
    out = []
    for n in range(1, max_rows + 1):
        dec = formulas.rhombus_moves_new(n)
        out.append(
            TableRow(
                rows=n,
                total_coins=n * n,
                old_formula=exact_div_text(n * n, 4),
                moves=dec.moves,
                increment=None,
                decomposition=dec.text(),
            )
        )
    return out


def _increment_text(row: TableRow, verbose: bool) -> str:
    if row.increment is None:
        return ""
    if verbose:
        prev = row.moves - row.increment
        return f"{row.moves} - {prev} = {row.increment}"
    return str(row.increment)


TRIANGLE_COLUMNS = ("rows", "total_coins", "old_formula", "moves", "increment", "decomposition")
RHOMBUS_COLUMNS = ("rows", "total_coins", "coins_div_4", "moves", "decomposition")


def _row_fields(family: str, row: TableRow, verbose: bool) -> list[str]:
    fields = [str(row.rows), str(row.total_coins), row.old_formula, str(row.moves)]
    if family == "triangle":
        fields.append(_increment_text(row, verbose))
    fields.append(row.decomposition)
    return fields


def format_table_csv(family: str, table: list[TableRow], verbose: bool = False) -> str:
    header = TRIANGLE_COLUMNS if family == "triangle" else RHOMBUS_COLUMNS
    lines = [",".join(header)]
    for row in table:
        fields = _row_fields(family, row, verbose)
        fields[-1] = f'"{fields[-1]}"'  # decomposition contains spaces
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def format_table_markdown(family: str, table: list[TableRow], verbose: bool = False) -> str:
    header = TRIANGLE_COLUMNS if family == "triangle" else RHOMBUS_COLUMNS
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join(" ---: " if c != "decomposition" else " :--- " for c in header) + "|",
    ]
    for row in table:
        lines.append("| " + " | ".join(_row_fields(family, row, verbose)) + " |")
    return "\n".join(lines) + "\n"


# -- shape resolution ---------------------------------------------------------


def _add_shape_args(sub: argparse.ArgumentParser):
    sub.add_argument(
        "shape",
        nargs="?",
        choices=["triangle", "rhombus", "hexagon", "custom"],
        help="shape family (or 'custom' with --shape-file)",
    )
    sub.add_argument("size", nargs="?", type=int, help="rows (triangle/rhombus) or side (hexagon)")
    sub.add_argument("--shape-file", metavar="PATH", help="load a custom shape file")


def _resolve_shape(args, parser) -> tuple[shapes.ShapeSpec, frozenset]:
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
        return shapes.ShapeSpec("custom", name=args.shape_file), coins
    if args.shape is None:
        parser.error("a shape (or --shape-file) is required")
    if args.shape == "custom":
        parser.error("custom shapes need --shape-file")
    if args.size is None:
        parser.error(f"{args.shape} needs a size")
    try:
        spec = shapes.ShapeSpec(args.shape, size=args.size)
        return spec, shapes.build(spec)
    except ValueError as exc:
        parser.error(str(exc))


def _resolve_flip(args, spec: shapes.ShapeSpec) -> FlipKind:
    if args.flip:
        return FLIP_NAMES[args.flip]
    return shapes.default_flip(spec)


def _multiset_text(sizes) -> str:
    return " + ".join(str(s) for s in sizes) if sizes else "(none)"


# -- subcommands --------------------------------------------------------------


def cmd_solve(args, parser) -> int:
    spec, coins = _resolve_shape(args, parser)
    flip = _resolve_flip(args, spec)
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
    if args.family == "triangle":
        table = triangle_table(args.max_rows)
    else:
        table = rhombus_table(args.max_rows)
    fmt = format_table_csv if args.format == "csv" else format_table_markdown
    sys.stdout.write(fmt(args.family, table, verbose=args.verbose_diff))
    return 0


def cmd_render(args, parser) -> int:
    spec, coins = _resolve_shape(args, parser)
    flip = _resolve_flip(args, spec)
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
    """Formula-vs-oracle sweep; stops with a counterexample dump on mismatch."""
    for n in range(1, max_rows + 1):
        t_new = formulas.triangle_moves_new(n)
        t_old = formulas.triangle_moves_old(n)
        t_poly = formulas.triangle_moves_polynomial(n)
        if not (t_old == t_new.moves == t_poly):
            return _verify_fail(
                n, "triangle formulas disagree",
                f"  old={t_old} new={t_new.moves} polynomial={t_poly}",
            )
        tri = shapes.triangle_up(n)
        t_res = oracle.solve(tri, FlipKind.ROTATE_180)
        if t_res.min_moves != t_new.moves:
            return _verify_fail(
                n, "triangle oracle disagrees with formulas",
                f"  oracle={t_res.min_moves} formulas={t_new.moves} "
                f"placements={[p.shift for p in t_res.optimal_placements]}",
            )
        for placement in t_res.optimal_placements:
            rep = oracle.protrusions(tri, placement, expected_parts=3, result=t_res)
            bad = [c for c in rep.source_components if c.triangle is None]
            src = _component_sizes(rep.source_components)
            tgt = _component_sizes(rep.target_components)
            if bad or rep.size_multiset != t_new.parts or src != tgt:
                return _verify_fail(
                    n, f"triangle protrusions at shift {placement.shift}",
                    f"  sizes={rep.size_multiset} expected={t_new.parts} "
                    f"source={src} target={tgt} non-triangles={len(bad)}",
                )

        r_new = formulas.rhombus_moves_new(n)
        r_old = formulas.rhombus_moves_old(n)
        r_poly = formulas.rhombus_moves_polynomial(n)
        if not (r_old == r_new.moves == r_poly):
            return _verify_fail(
                n, "rhombus formulas disagree",
                f"  old={r_old} new={r_new.moves} polynomial={r_poly}",
            )
        rho = shapes.rhombus(n)
        r_h = oracle.solve(rho, FlipKind.MIRROR_HORIZONTAL)
        r_v = oracle.solve(rho, FlipKind.MIRROR_VERTICAL)
        if not (r_h.min_moves == r_v.min_moves == r_new.moves):
            return _verify_fail(
                n, "rhombus oracle disagrees",
                f"  mirror-h={r_h.min_moves} mirror-v={r_v.min_moves} "
                f"formulas={r_new.moves}",
            )
        for placement in r_h.optimal_placements:
            rep = oracle.protrusions(rho, placement, expected_parts=2, result=r_h)
            bad = [c for c in rep.source_components if c.triangle is None]
            src = _component_sizes(rep.source_components)
            tgt = _component_sizes(rep.target_components)
            if bad or rep.size_multiset != r_new.parts or src != tgt:
                return _verify_fail(
                    n, f"rhombus protrusions at shift {placement.shift}",
                    f"  sizes={rep.size_multiset} expected={r_new.parts} "
                    f"source={src} target={tgt} non-triangles={len(bad)}",
                )
        print(
            f"rows {n}: triangle {t_new.moves} moves "
            f"({len(t_res.optimal_placements)} placements), "
            f"rhombus {r_new.moves} moves "
            f"({len(r_h.optimal_placements)} placements) ok"
        )
    print(f"verified rows 1..{max_rows}: formulas and oracle agree")
    return 0


def cmd_verify(args, parser) -> int:
    if args.max_rows < 1:
        parser.error("max_rows must be >= 1")
    return run_verify(args.max_rows)


def cmd_analyze(args, parser) -> int:
    spec, coins = _resolve_shape(args, parser)
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
    for flip in FlipKind:
        result = oracle.solve(coins, flip)
        report = oracle.protrusions(
            coins, result.optimal_placements[0], result=result
        )
        print(
            f"flip {flip.value}: {result.min_moves} moves, "
            f"overlap {result.max_overlap}, "
            f"{len(result.optimal_placements)} placements, "
            f"protrusions {_multiset_text(report.size_multiset)}"
        )
    return 0


# -- entry point --------------------------------------------------------------


def _solve_arguments(sub: argparse.ArgumentParser):
    _add_shape_args(sub)
    sub.add_argument("--flip", choices=sorted(FLIP_NAMES), help="flip kind (default per family)")
    sub.add_argument("--moves", action="store_true", help="print the explicit move list")


def _table_arguments(sub: argparse.ArgumentParser):
    sub.add_argument("family", choices=["triangle", "rhombus"])
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
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
