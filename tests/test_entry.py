"""The package run as `python -m coinflip`, in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from coinflip import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_module_runs_the_cli(capsys):
    argv = ["solve", "triangle", "5", "--moves"]
    assert cli.main(argv) == 0
    out = python("-m", "coinflip", *argv)
    assert out.returncode == 0
    assert out.stdout == capsys.readouterr().out


def test_module_exit_code_for_usage_errors():
    assert python("-m", "coinflip", "solve", "triangle").returncode == 2


def test_cli_import_leaves_numpy_out():
    out = python("-c", "import sys, coinflip.cli; print('numpy' in sys.modules)")
    assert out.stdout.strip() == "False"


# Loaded on every call, these would cost start-up time that no command
# needs: the records are named tuples, only `render` draws, and argparse
# (which loads gettext) is built only for help and errors.
SLOW_IMPORTS = {"dataclasses", "inspect", "coinflip.render", "argparse", "gettext"}


def test_cli_import_leaves_slow_modules_out():
    # Compared with the modules loaded before, so that one a site hook
    # preloads cannot hide a new import.
    out = python(
        "-c",
        "import sys; before = set(sys.modules); import coinflip.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))",
    )
    assert out.returncode == 0, out.stderr
    added = set(out.stdout.split())
    assert "coinflip.cli" in added
    assert not added & SLOW_IMPORTS


def test_a_valid_command_line_leaves_argparse_out():
    out = python(
        "-c",
        "import sys; before = set(sys.modules); from coinflip.cli import main; "
        "main(['solve', 'triangle', '4']); "
        "print(sorted({'argparse', 'gettext'} & (set(sys.modules) - before)))",
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.endswith("protrusions: 1 + 1 + 1\n[]\n")


@pytest.mark.parametrize("argv", [
    ["render", "triangle", "4"],
    ["render", "triangle", "4", "--format", "svg"],
], ids=" ".join)
def test_module_renders_like_the_cli(capsys, argv):
    assert cli.main(argv) == 0
    out = python("-m", "coinflip", *argv)
    assert out.returncode == 0, out.stderr
    assert out.stdout == capsys.readouterr().out


@pytest.mark.parametrize("argv", [[], ["solve", "triangle", "4", "extra"]], ids=" ".join)
def test_module_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    out = python("-m", "coinflip", *argv)
    assert out.returncode == 2
    assert out.stderr == expected


def buffered_cli(*argv, **kwargs):
    """`python -m coinflip` as a shell pipeline runs it: stdout buffered,
    stderr captured."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "coinflip", *argv], env=env, stderr=subprocess.PIPE, **kwargs
    )


def test_a_reader_that_stops_early_ends_the_output_quietly():
    # as `coinflip table ... | head -2`: the table's 3.8 MB are far more
    # than the pipe holds, so the writer is still going when head exits
    argv = ["table", "triangle", "50000", "--format", "csv"]
    with buffered_cli(*argv, stdout=subprocess.PIPE) as proc:
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
    assert head == [b"rows,total_coins,old_formula,moves,increment,decomposition\n",
                    b'1,1,0.3333333333,0,,"0 + 0 + 0"\n']
    assert proc.returncode == 141
    assert err == b""


def test_output_to_a_closed_reader_is_dropped_quietly():
    # every line fits the stdout buffer, so the write fails at its flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with buffered_cli("solve", "triangle", "4", stdout=write_end) as proc:
            err = proc.stderr.read()
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert err == b""
