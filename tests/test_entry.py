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


@pytest.mark.parametrize("argv", [[], ["solve", "triangle", "4", "extra"]], ids=" ".join)
def test_module_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr().err
    out = python("-m", "coinflip", *argv)
    assert out.returncode == 2
    assert out.stderr == expected
