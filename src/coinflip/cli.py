"""coinflip command line: solve, table, render, verify, analyze.

Each command's arguments are stated once, as data, in COMMANDS. A plain
command line (the command, its positionals, then options spelled in full,
each with its value) is read from that table by _quick_parse, without
importing argparse. Any other command line, -h and every parse error
included, goes to the argparse parser that build_parser makes from the
same table, so argparse alone decides what is accepted. It also prints
every help and error message, a handler's UsageError or ScanBudgetError too.

Exit codes: 0 success; 1 verification failure; 2 usage or parse error, or
a scan refused as over budget (see coinflip._scan.MAX_SCAN_NS and
MAX_SCAN_BYTES); 141 stdout closed by its reader before the output ended,
the status a shell reports for a writer killed by SIGPIPE.
"""

from __future__ import annotations

import math
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

from coinflip import formulas, oracle, shapes
from coinflip._scan import ScanBudgetError, box_grid, kernel_for
from coinflip.lattice import Box, FlipKind

if TYPE_CHECKING:
    import argparse

FLIP_NAMES = {f.value: f for f in FlipKind}
PUZZLES = {name: f for name, f in shapes.FAMILIES.items() if f.is_puzzle}
_DECIMAL_DIGITS = 10


class UsageError(Exception):
    """A parsed command line that its handler refuses; main prints it as a parse error."""


# -- tables -------------------------------------------------------------------


def exact_div_text(numerator: int, divisor: int) -> str:
    """Exact decimal rendering of numerator/divisor.

    Terminating expansions print in full ("0.25"); non-terminating ones
    are cut at _DECIMAL_DIGITS ("0.3333333333"). Integers print bare.
    """
    q, r = divmod(numerator, divisor)
    if r == 0:
        return str(q)
    digits, rest = divmod(r * 10**_DECIMAL_DIGITS, divisor)
    text = str(digits).zfill(_DECIMAL_DIGITS)
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


def _check_scans(box: Box, count: int, flips):
    """Raise ScanBudgetError if kernel_for refuses any flip's scan of `count` coins in `box`."""
    for flip in flips:
        kernel_for(box_grid(box, flip), count * count)


def _resolve_shape(args, every_flip=False):
    """The shape that `args` names: its label, its family (None for a
    shape file), its coins, their box (`Box.of(coins)`), and the flips to
    solve it under: every flip in FlipKind order when `every_flip`, else
    --flip or the family's default (the half-turn for a shape file). Their
    scans are checked from the shape's box before a family shape is built
    or anything is printed, so that a shape too large to scan is refused
    before building it exhausts memory."""
    if args.shape_file is not None:
        if args.shape not in (None, "custom"):
            raise UsageError(f"--shape-file cannot be combined with shape '{args.shape}'")
        if args.size is not None:
            raise UsageError(f"--shape-file cannot be combined with size {args.size}")
        try:
            with open(args.shape_file, encoding="utf-8", newline="") as fh:  # keep every CR
                coins = shapes.load_custom(fh.read())
        except OSError as exc:
            raise UsageError(f"cannot read shape file: {exc}")
        except (shapes.ShapeFormatError, UnicodeDecodeError) as exc:
            raise UsageError(f"{args.shape_file}: {exc}")
        label, family = f"custom {args.shape_file}", None
        box, count = Box.of(coins), len(coins)
    else:
        if args.shape is None:
            raise UsageError("a shape (or --shape-file) is required")
        if args.shape == "custom":
            raise UsageError("custom shapes need --shape-file")
        if args.size is None:
            raise UsageError(f"{args.shape} needs a size")
        try:
            family = shapes.family(args.shape, args.size)
        except ValueError as exc:
            raise UsageError(str(exc))
        label = f"{args.shape} {args.size}"
        box, count = family.box(args.size), family.coin_count(args.size)
    if every_flip:
        flips = tuple(FlipKind)
    else:
        default = family.default_flip if family else FlipKind.ROTATE_180
        flips = (FLIP_NAMES[args.flip] if args.flip else default,)
    _check_scans(box, count, flips)
    if family:
        coins = shapes.build(args.shape, args.size)
    return label, family, coins, box, flips


def _multiset_text(sizes) -> str:
    return " + ".join(str(s) for s in sizes) if sizes else "(none)"


# -- subcommands --------------------------------------------------------------


def cmd_solve(args) -> int:
    label, family, coins, _, (flip,) = _resolve_shape(args)
    result = oracle.solve(coins, flip)
    canonical = result.optimal_placements[0]
    parts = len(family.formula("new")(args.size).parts) if family and family.is_puzzle else None
    sizes = oracle.protrusion_sizes(coins, canonical, expected_parts=parts, result=result)
    print(f"shape: {label}")
    print(f"flip: {flip.value}")
    print(f"total coins: {result.total_coins}")
    print(f"min moves: {result.min_moves}")
    print(f"max overlap: {result.max_overlap}")
    print(f"optimal placements: {len(result.optimal_placements)}")
    print(f"canonical shift: {canonical.shift}")
    print(f"protrusions: {_multiset_text(sizes)}")
    if args.moves:
        plan = oracle.move_plan(coins, canonical, result=result)
        print(f"moves ({len(plan.moves)}):")
        for src, dst in plan.moves:
            print(f"  {src} -> {dst}")
    return 0


def cmd_table(args) -> int:
    if args.max_rows < 1:
        raise UsageError("max_rows must be >= 1")
    family = PUZZLES[args.family]
    fmt = format_table_csv if args.format == "csv" else format_table_markdown
    # row by row, so memory stays flat however many rows are asked for
    rows = table_fields(family, args.max_rows, args.verbose_diff)
    sys.stdout.writelines(fmt(table_columns(family), rows))
    return 0


def cmd_render(args) -> int:
    from coinflip import render  # only this command draws; the others skip loading it

    _, _, coins, _, (flip,) = _resolve_shape(args)
    result = oracle.solve(coins, flip)
    count = len(result.optimal_placements)
    if not 0 <= args.placement < count:
        raise UsageError(
            f"placement index {args.placement} out of range; "
            f"valid indices are 0..{count - 1}"
        )
    placement = result.optimal_placements[args.placement]
    target = oracle.target_set(coins, placement)
    if args.format == "svg":
        try:
            svg = render.svg_diagram(coins, target)
        except ValueError as exc:
            raise UsageError(str(exc))
        print(svg)
    else:
        try:
            art = render.ascii_diagram(coins, target)
        except ValueError as exc:
            hint = "; use --format svg" if render.fits_svg(coins | target) else ""
            raise UsageError(f"{exc}{hint}")
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


def cmd_verify(args) -> int:
    """Formula-vs-oracle sweep over the puzzle families; stops with a
    counterexample dump on mismatch. Checks its last, largest row's scans first.

    Per row and family: the three formulas agree; every flip's oracle finds
    their move count; every flip has C(k, (rows - 1) mod k) optimal
    placements, one per choice of the k parts that are one row larger; and
    every placement of the default flip moves k triangles of the formula's
    sizes into triangles of the same sizes."""
    max_rows = args.max_rows
    if max_rows < 1:
        raise UsageError("max_rows must be >= 1")
    checks = [(f, (f.default_flip, *f.cross_check_flips)) for f in PUZZLES.values()]
    for family, flips in checks:
        _check_scans(family.box(max_rows), family.coin_count(max_rows), flips)
    for n in range(1, max_rows + 1):
        done = []
        for family, flips in checks:
            name = family.name
            new = family.formula("new")(n)
            old = family.formula("old")(n)
            poly = family.formula("polynomial")(n)
            if not (old == new.moves == poly):
                return _verify_fail(
                    n, f"{name} formulas disagree",
                    f"  old={old} new={new.moves} polynomial={poly}",
                )
            coins = shapes.build(name, n)
            results = [oracle.solve(coins, flip) for flip in flips]
            if any(r.min_moves != new.moves for r in results):
                found = " ".join(f"{f.value}={r.min_moves}" for f, r in zip(flips, results))
                return _verify_fail(
                    n, f"{name} oracle disagrees with formulas",
                    f"  {found} formulas={new.moves}",
                )
            k = len(new.parts)
            choices = math.comb(k, (n - 1) % k)
            if any(len(r.optimal_placements) != choices for r in results):
                found = " ".join(
                    f"{f.value}={len(r.optimal_placements)}" for f, r in zip(flips, results)
                )
                return _verify_fail(
                    n, f"{name} optimal placements disagree with C({k}, {(n - 1) % k})",
                    f"  {found} expected={choices}",
                )
            result = results[0]
            for placement in result.optimal_placements:
                what = f"{name} protrusions at shift {placement.shift}"
                try:
                    rep = oracle.protrusions(coins, placement, k, result=result)
                except ValueError as exc:  # more protrusions than parts
                    return _verify_fail(n, what, f"  {exc}")
                bad = [c for c in rep.source_components if c.triangle is None]
                src = _component_sizes(rep.source_components)
                tgt = _component_sizes(rep.target_components)
                if bad or rep.size_multiset != new.parts or src != tgt:
                    return _verify_fail(
                        n, what, f"  sizes={rep.size_multiset} expected={new.parts} "
                        f"source={src} target={tgt} non-triangles={len(bad)}",
                    )
            done.append(f"{name} {new.moves} moves ({len(result.optimal_placements)} placements)")
        print(f"rows {n}: {', '.join(done)} ok")
    print(f"verified rows 1..{max_rows}: formulas and oracle agree")
    return 0


def cmd_analyze(args) -> int:
    label, _, coins, box, flips = _resolve_shape(args, every_flip=True)
    print(f"shape: {label}")
    print(f"total coins: {len(coins)}")
    print(f"coordinate ranges: a {box.a_lo}..{box.a_hi}, b {box.b_lo}..{box.b_hi}")
    components = oracle.components(coins)
    print(f"connected components: {len(components)}")
    for i, (_, size, cls) in enumerate(components):
        desc = f"{cls[0]} triangle, {cls[1]} rows" if cls else "not a triangle"
        print(f"  component {i}: {size} coins, {desc}")
    for flip in flips:
        print(_flip_summary(coins, flip))
    return 0


def _flip_summary(coins, flip: FlipKind) -> str:
    """analyze's line for one flip. Its result, which can hold hundreds of
    thousands of tied shifts, is freed on return, before the next solve."""
    result = oracle.solve(coins, flip)
    sizes = oracle.protrusion_sizes(coins, result.optimal_placements[0], result=result)
    return (
        f"flip {flip.value}: {result.min_moves} moves, "
        f"overlap {result.max_overlap}, "
        f"{len(result.optimal_placements)} placements, "
        f"protrusions {_multiset_text(sizes)}"
    )


# -- entry point --------------------------------------------------------------


# Each command's arguments as (names, add_argument keywords). build_parser
# hands them to argparse; _quick_parse reads "nargs", "type", "choices",
# "default" and "action" ("store_true"), and ignores "help" and "metavar".
_SHAPE_ARGUMENTS = (
    (("shape",), {
        "nargs": "?",
        "choices": [*shapes.FAMILIES, "custom"],
        "help": "shape family (or 'custom' with --shape-file)",
    }),
    (("size",), {"nargs": "?", "type": int, "help": "rows (triangle/rhombus) or side (hexagon)"}),
    (("--shape-file",), {"metavar": "PATH", "help": "load a custom shape file"}),
)

# name -> (help, arguments, handler), in the order help lists them
COMMANDS = {
    "solve": ("minimum moves to flip a shape", (
        *_SHAPE_ARGUMENTS,
        (("--flip",), {"choices": sorted(FLIP_NAMES), "help": "flip kind (default per family)"}),
        (("--moves",), {"action": "store_true", "help": "print the explicit move list"}),
    ), cmd_solve),
    "table": ("move-count table for a shape family", (
        (("family",), {"choices": list(PUZZLES)}),
        (("max_rows",), {"type": int}),
        (("--format",), {"choices": ["markdown", "csv"], "default": "markdown"}),
        (("--verbose-diff",), {
            "action": "store_true",
            "help": "print increments as subtractions, e.g. '5 - 3 = 2'",
        }),
    ), cmd_table),
    "render": ("draw a superimposition diagram", (
        *_SHAPE_ARGUMENTS,
        (("--flip",), {"choices": sorted(FLIP_NAMES)}),
        (("--placement",), {"type": int, "default": 0, "help": "optimal placement index"}),
        (("--format",), {"choices": ["ascii", "svg"], "default": "ascii"}),
    ), cmd_render),
    "verify": ("check formulas against the oracle", (
        (("max_rows",), {"type": int}),
    ), cmd_verify),
    "analyze": ("structure report for a shape", _SHAPE_ARGUMENTS, cmd_analyze),
}


def build_parser() -> argparse.ArgumentParser:
    """The coinflip argparse parser, made from COMMANDS.

    argparse is imported and the parser built only when it must print:
    main() builds it for a command line that _quick_parse declines (help,
    a parse error, or a form the quick path does not read), and to print
    a handler's UsageError or ScanBudgetError with the usage line.
    """
    import argparse  # loaded only for help and errors

    parser = argparse.ArgumentParser(
        prog="coinflip",
        description="Exact solver for flipping coin shapes on the triangular lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, keywords in arguments:
            p.add_argument(*names, **keywords)
        p.set_defaults(func=handler)
    return parser


def _quick_parse(argv: list[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, read from COMMANDS
    without argparse, for a command line of the plain form

        COMMAND [POSITIONAL]... [OPTION [VALUE]]...

    where each option is spelled in full and no value starts with '-'.
    `type` and `choices` are applied as argparse applies them. None for
    any other command line, which argparse then parses: help, every error,
    abbreviations, --opt=value, '--', values starting with '-', and a
    positional after an option (argparse's reading of an optional
    positional there differs between Python versions)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, arguments, handler = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    positionals, options = [], {}
    for names, keywords in arguments:
        dest = names[0].lstrip("-").replace("-", "_")
        values[dest] = keywords.get("default", False if "action" in keywords else None)
        if names[0].startswith("-"):
            options.update(dict.fromkeys(names, (dest, keywords)))
        else:
            positionals.append((dest, keywords))
    tokens = iter(argv[1:])
    after_option = False
    for token in tokens:
        if token in options:
            after_option = True
            dest, keywords = options[token]
            if keywords.get("action") == "store_true":
                values[dest] = True
                continue
            token = next(tokens, "-")  # a missing value is refused as one starting with '-'
        elif after_option or not positionals:
            return None
        else:
            dest, keywords = positionals.pop(0)
        if token.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(token)
        except (TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
    if any(keywords.get("nargs") != "?" for _, keywords in positionals):
        return None  # a required positional is missing
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _quick_parse(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (UsageError, ScanBudgetError) as exc:
        build_parser().error(str(exc))
    except BrokenPipeError:
        # The reader closed stdout. Send what is still buffered to devnull,
        # so that the flush at exit does not fail again, and exit as a
        # writer killed by SIGPIPE would (1 means a verify failure).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
