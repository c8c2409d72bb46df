"""A family shape too large to scan is refused from its box, before a
single coin is built, and so is a `verify` sweep whose last row is.

No test here builds a large shape or starts a scan: the CLI tests replace
the shape builder (and, for `verify`, the solver) with a stub that fails,
and the size tests read only the box of each family.
"""

import pytest

from coinflip import cli, shapes
from coinflip._scan import ScanBudgetError
from coinflip.lattice import FlipKind

USAGE = "usage: coinflip [-h] {solve,table,render,verify,analyze} ...\n"

HUGE_TRIANGLE_ERROR = (
    USAGE + "coinflip: error: the translation scan would take about 1e+13 s "
    "(25000500002500000000 coin pairs), over the budget of 600 s\n"
)


class Built(Exception):
    """Raised by the stub builder: the CLI got as far as building."""


def refuse_to_build(monkeypatch):
    def build(name, n):
        raise Built(name, n)

    monkeypatch.setattr(cli.shapes, "build", build)


def test_cli_refuses_a_huge_family_before_building_it(capsys, monkeypatch):
    refuse_to_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "triangle", "100000"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", HUGE_TRIANGLE_ERROR)


@pytest.mark.parametrize(
    "argv, estimate",
    [
        # analyze checks every flip before it builds or prints: mirror-h is
        # the first over budget, where rot180 alone would pass
        (["analyze", "rhombus", "1000"], "4e+05 s (1000000000000 coin pairs)"),
        (["solve", "hexagon", "513"], "2.48e+05 s (620895144961 coin pairs)"),
    ],
    ids=["analyze rhombus 1000", "solve hexagon 513"],
)
def test_cli_refuses_each_flip_it_would_solve_before_building(capsys, monkeypatch, argv, estimate):
    refuse_to_build(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        USAGE + f"coinflip: error: the translation scan would take about {estimate}, "
        "over the budget of 600 s\n"
    )


def test_cli_checks_only_the_flip_it_will_solve(monkeypatch):
    # rhombus 900 is over budget under the mirrors, not under the half-turn
    refuse_to_build(monkeypatch)
    with pytest.raises(Built):
        cli.main(["solve", "rhombus", "900", "--flip", "rot180"])
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "rhombus", "900"])
    assert exc.value.code == 2


def test_verify_checks_its_last_row_before_its_first(capsys, monkeypatch):
    # rhombus 837 is the first row over budget (its mirrors); without the
    # up-front check the sweep would scan rows 1-836 for about 12 h first
    refuse_to_build(monkeypatch)

    def solve(coins, flip):
        raise AssertionError("verify solved a row before checking its last")

    monkeypatch.setattr(cli.oracle, "solve", solve)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "837"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        USAGE + "coinflip: error: the translation scan would take about 1.96e+05 s "
        "(490796923761 coin pairs), over the budget of 600 s\n"
    )
    # one row fewer passes the check and starts building row 1
    with pytest.raises(Built) as built:
        cli.main(["verify", "836"])
    assert built.value.args == ("triangle", 1)


def refused(name, n, flip):
    family = shapes.FAMILIES[name]
    try:
        cli._check_scans(family.box(n), family.coin_count(n), (flip,))
    except ScanBudgetError:
        return True
    return False


# The first size refused before building, per family and flip: where the
# product grid passes its byte cap and the Counter is over the budget.
FIRST_REFUSED = {
    ("triangle", "rot180"): 1025,
    ("triangle", "mirror-h"): 1025,
    ("triangle", "mirror-v"): 1025,
    ("rhombus", "rot180"): 1025,
    ("rhombus", "mirror-h"): 837,
    ("rhombus", "mirror-v"): 837,
    ("hexagon", "rot180"): 513,
    ("hexagon", "mirror-h"): 513,
    ("hexagon", "mirror-v"): 513,
}


@pytest.mark.parametrize("name, flip", list(FIRST_REFUSED))
def test_first_family_sizes_refused_before_building(name, flip):
    first = FIRST_REFUSED[name, flip]
    flip = FlipKind(flip)
    assert not any(refused(name, n, flip) for n in range(1, first))
    assert all(refused(name, n, flip) for n in (first, first + 1, 2 * first, 100_000))
