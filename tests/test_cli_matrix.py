"""A byte-level matrix of command-line cases, replayed in-process.

Every subcommand runs with every ``--format`` it takes, next to the
refusals.  ``fixtures/cli_matrix.json`` pins, per case, the exit code,
the SHA-256 of stdout and, for an error the CLI raises itself, its
``rookorder: error:`` line.  argparse's own refusals pin no text, as
their usage lines differ between Python versions.  Each case runs a
second time with ``--out``: stdout is then empty, and the file holds the
pinned bytes, or does not exist when the command failed.

Re-record the pins (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_matrix.py > tests/fixtures/cli_matrix.json
"""

import contextlib
import functools
import hashlib
import io
import json
import os

import pytest

from rookorder import cli

PINS = os.path.join(os.path.dirname(__file__), "fixtures", "cli_matrix.json")

CASES = [
    ["orbit", "--n", "3", "--k", "2"],
    ["orbit", "--n", "3", "--k", "2", "--format", "json"],
    ["orbit", "--n", "3", "--k", "2", "--format", "tsv"],
    ["orbit", "--n", "4", "--k", "2", "--format", "json"],
    ["orbit", "--n", "4", "--k", "0"],
    ["orbit", "--n", "1", "--k", "1", "--format", "json"],
    ["orbit", "--n", "2", "--k", "2", "--format", "tsv"],
    ["rpoly", "0001", "0003"],
    ["rpoly", "0001", "0003", "--format", "json"],
    ["rpoly", "0012", "0023"],
    ["rpoly", "0012", "0023", "--format", "json"],
    ["rpoly", "0010", "0003"],
    ["rpoly", "0010", "0003", "--format", "json"],
    ["rpoly", "0001", "0001"],
    ["rpoly", "0012", "3400", "--format", "json"],
    ["rpoly", "123", "321"],
    ["rpoly", "[0,0,1,2]", "0023", "--format", "json"],
    ["mobius", "0012", "0023"],
    ["mobius", "0012", "0023", "--format", "json"],
    ["mobius", "0012", "3400", "--format", "json"],
    ["mobius", "0010", "0003"],
    ["mobius", "000", "000"],
    ["descents", "0420"],
    ["descents", "0420", "--format", "json"],
    ["descents", "0012"],
    ["descents", "0012", "--format", "json"],
    ["descents", "000", "--format", "json"],
    ["descents", "321"],
    ["descents", "[1]"],
    ["order", "0001", "0003"],
    ["order", "0001", "0003", "--format", "json"],
    ["order", "0001", "0012"],
    ["order", "0001", "0012", "--format", "json"],
    ["order", "321", "123"],
    ["hasse", "0001", "0003"],
    ["hasse", "0012", "0023", "--format", "dot"],
    ["hasse", "0001", "0001"],
    ["hasse", "--n", "3", "--k", "2"],
    ["hasse", "--n", "1", "--k", "0"],
    ["hasse", "--n", "4", "--k", "2", "--format", "dot"],
    ["table", "descents"],
    ["table", "length2", "--format", "tsv"],
    *(["verify", suite, "--n", n] for n in ("1", "2")
      for suite in ("putcha", "lifting", "delta", "descents", "hecke", "all")),
    ["verify", "all", "--n", "2", "--format", "json"],
    # refusals the CLI raises itself
    ["descents", "0a12"],
    ["descents", "[true,0]"],
    ["descents", "0112"],
    ["descents", ""],
    ["descents", "123456789"],
    ["rpoly", "0001", "0012"],
    ["mobius", "0001", "0012", "--format", "json"],
    ["hasse", "0001", "0012"],
    ["rpoly", "0001", "001"],
    ["order", "0001", "001"],
    ["hasse", "0010", "0003"],
    ["orbit", "--n", "9", "--k", "1"],
    ["orbit", "--n", "0", "--k", "0"],
    ["orbit", "--n", "9"],
    ["orbit", "--n", "4", "--k", "5"],
    ["orbit", "--n", "4", "--k", "-1", "--format", "json"],
    ["orbit", "--n", "4"],
    ["hasse", "--n", "4"],
    ["hasse", "--n", "9", "--k", "1"],
    ["hasse", "--n", "3", "--k", "4"],
    ["hasse", "0001"],
    ["hasse", "0001", "--n", "9"],
    ["verify", "putcha", "--n", "7"],
    ["verify", "all", "--n", "0"],
    ["verify", "hecke", "--n", "9"],
    # refusals of argparse
    ["rpoly", "012", "210", "--format", "tsv"],
    ["table", "nonsense"],
    ["orbit", "--n", "x", "--k", "1"],
    ["descents"],
    ["verify", "nosuch", "--n", "2"],
    ["order", "0001", "0012", "--k", "1"],
]


def run_case(argv):
    """The pin of one in-process run: exit code, SHA-256 of the UTF-8
    stdout, and stderr when the CLI itself reported an error (None on
    success and for argparse's refusals)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse
            code = exc.code
        else:
            error = err.getvalue() or None
    return {"argv": list(argv), "rc": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "error": error}


@functools.cache
def _pins():
    with open(PINS, encoding="utf-8") as fh:
        return {tuple(pin["argv"]): pin for pin in json.load(fh)}


def test_pins_cover_every_case():
    assert list(_pins()) == list(map(tuple, CASES))


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_case_matches_its_pin(argv, tmp_path):
    pin = _pins()[tuple(argv)]
    assert run_case(argv) == pin
    target = tmp_path / "out"
    written = run_case([*argv, "--out", str(target)])
    assert (written["rc"], written["error"]) == (pin["rc"], pin["error"])
    assert written["stdout_sha256"] == hashlib.sha256(b"").hexdigest()
    if pin["rc"] == 2:
        assert not target.exists()
    else:
        assert hashlib.sha256(target.read_bytes()).hexdigest() == pin["stdout_sha256"]


if __name__ == "__main__":
    print("[\n" + ",\n".join(json.dumps(run_case(argv)) for argv in CASES) + "\n]")
