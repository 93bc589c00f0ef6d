"""Byte-identical command-line output.

Every query of the benchmark's golden pool (``bench/cli_golden.json``)
is replayed in-process through ``cli.main``; its exit code and the
SHA-256 of its stdout must match the recorded ones.  The JSON reports
of ``rookorder verify all --n N`` for N = 1..5, and of each single suite
at n = 4, are pinned the same way.
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
    5: "7c3f4c6c2d3ea6ea51391e9ed1eb19578bcf8373cc17829cd00f20208f65c6ee",
}

# ``verify <suite> --n 4``: pins the order of one suite's reports
VERIFY_SUITE_SHA256 = {
    "putcha": "a1592d119cb253bab725edfdcad8967aa01be46d55700a03042a336e0017c5b1",
    "lifting": "a26d771356ab12f1450d095181ee9ff32e5547287529be0e45324175b4e19958",
    "delta": "c34d5d5d8abb2f2112f4a98914b711878e925bcce44073d1acd90a6e98fc7fd2",
    "descents": "d6a29340220cbed6e909b299918d23bc4a67f747fda7b8a1221ccb6a68bd725e",
    "hecke": "50ed536216c5efb7251c1e3c498d0bbe0f7da6274bbb481194c9f8e264a34ad6",
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


@pytest.mark.parametrize("suite", sorted(VERIFY_SUITE_SHA256))
def test_verify_suite_json_byte_identical(suite):
    assert run_cli(["verify", suite, "--n", "4"]) == (0, VERIFY_SUITE_SHA256[suite])
