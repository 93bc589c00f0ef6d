"""Byte-identical command-line output.

Every query of the benchmark's golden pool (``bench/cli_golden.json``)
is replayed in-process through ``cli.main``; its exit code and the
SHA-256 of its stdout must match the recorded ones.  The JSON reports
of ``rookorder verify all --n N`` for N = 1..4 are pinned the same way.
Nothing is written under ``bench/``.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from rookorder import cli

GOLDEN = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "cli_golden.json")

VERIFY_ALL_SHA256 = {
    1: "fdc38abb85719cd0b6e7ce8682d3401e1bce3a15194bf02a167da49191e5c3c8",
    2: "66f85ded376e196581a1c0aacf1cf683bb37686453d9cfbcd0bf69f8f0c5aa24",
    3: "b8a6ded291709d16e036655ca10a9b401e5502bf36a1f052b173e0456d1fee4e",
    4: "9b999c3e2f4c223daa7e9d146cd511b3877cdfd238e8d9db41761f0fdd880559",
}


def run_cli(argv):
    """(exit code, SHA-256 of the UTF-8 stdout) of one in-process query."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _strata():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["strata"]


@pytest.mark.parametrize("entries", [pytest.param(entries, id=stratum)
                                     for stratum, entries in sorted(_strata().items())])
def test_golden_queries_byte_identical(entries):
    mismatched = [entry["argv"] for entry in entries
                  if run_cli(entry["argv"]) != (entry["rc"], entry["sha256"])]
    assert not mismatched, mismatched


@pytest.mark.parametrize("n", sorted(VERIFY_ALL_SHA256))
def test_verify_all_json_byte_identical(n):
    assert run_cli(["verify", "all", "--n", str(n)]) == (0, VERIFY_ALL_SHA256[n])
