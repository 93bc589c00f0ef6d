import json
import os
import subprocess
import sys

import pytest

import rookorder
from faults import case, cases
from rookorder import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_single_queries_build_no_orbit(capsys, fresh_orbits):
    # rpoly, mobius and hasse answer from the interval's own poset, even
    # on a whole orbit, so none of them builds the whole-orbit poset
    from rookorder import order
    for argv in (["rpoly", "0012", "3400"], ["mobius", "0012", "3400"],
                 ["hasse", "--n", "4", "--k", "2"]):
        assert run(capsys, *argv)[0] == 0
    assert order.orbit_poset.cache_info().currsize == 0


def test_orbit_listing(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "2", "--k", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # header + 4 elements
    assert lines[1].split()[0] == "01"


def test_orbit_json_roundtrip(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "4", "--k", "2",
                       "--format", "json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 72
    assert records[0]["sigma"] == "0012"
    assert records[0]["des_L"] == [] and records[0]["des_R"] == []


def test_orbit_requires_k(capsys):
    code, _, err = run(capsys, "orbit", "--n", "4")
    assert code == 2
    assert "error" in err


def test_orbit_rank_zero(capsys):
    code, out, _ = run(capsys, "orbit", "--n", "4", "--k", "0")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_rpoly_text(capsys):
    code, out, _ = run(capsys, "rpoly", "0001", "0003")
    assert code == 0
    assert out == "R = q^2 - q\nR(0) = 0\nmu = 0\nshape = linear\n"
    code, out, _ = run(capsys, "rpoly", "0012", "0023")
    assert code == 0
    assert out == "R = q^2 - 2q + 1\nR(0) = 1\nmu = 1\nshape = diamond\n"


def test_rpoly_trivial_and_incomparable(capsys):
    code, out, _ = run(capsys, "rpoly", "0001", "0001")
    assert code == 0
    assert out.startswith("R = 1\n")
    assert "mu = 1" in out
    code, out, _ = run(capsys, "rpoly", "0010", "0003")
    assert code == 0
    assert out == "R = 0\nR(0) = 0\nmu = 0\nshape = incomparable\n"


@pytest.mark.parametrize("command", ["rpoly", "mobius", "hasse"])
def test_rpoly_different_orbits_exits_2(capsys, command):
    code, out, err = run(capsys, command, "0001", "0012")
    assert code == 2
    assert out == ""
    assert "0001 and 0012 lie in different orbits" in err


def test_rpoly_json(capsys):
    code, out, _ = run(capsys, "rpoly", "0001", "0003", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["rpoly"] == {"var": "q", "coeffs": [0, -1, 1]}
    assert record["mobius"] == 0
    assert record["shape"] == "linear"


def test_mobius(capsys):
    code, out, _ = run(capsys, "mobius", "0012", "0023")
    assert code == 0
    assert out == "mu = 1\nR(0) = 1\n"


def test_descents(capsys):
    code, out, _ = run(capsys, "descents", "0420")
    assert code == 0
    assert out == "des_L = s1,s3\ndes_R = s2,s3\n"
    code, out, _ = run(capsys, "descents", "0012", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["des_L"] == [] and record["des_R"] == []


def test_order_command(capsys):
    code, out, _ = run(capsys, "order", "0001", "0003")
    assert code == 0
    assert "0001 <= 0003: true" in out
    assert "0003 <= 0001: false" in out
    # cross-orbit comparison is allowed
    code, out, _ = run(capsys, "order", "0001", "0012")
    assert code == 0
    assert "0001 <= 0012: true" in out


def test_hasse_interval(capsys):
    code, out, _ = run(capsys, "hasse", "0001", "0003")
    assert code == 0
    assert out.count("->") == 2 and out.count("[len=") == 3
    code, out, _ = run(capsys, "hasse", "0012", "0023")
    assert code == 0
    assert out.count("->") == 4 and out.count("[len=") == 4
    code, out, _ = run(capsys, "hasse", "0001", "0001")
    assert code == 0
    assert out.count("->") == 0 and out.count("[len=") == 1


def test_hasse_orbit_and_errors(capsys):
    code, out, _ = run(capsys, "hasse", "--n", "2", "--k", "1")
    assert code == 0
    assert out.count("[len=") == 4
    code, _, err = run(capsys, "hasse", "0010", "0003")
    assert code == 2
    code, _, err = run(capsys, "hasse", "0001")
    assert code == 2


@pytest.mark.parametrize("flag", [["--k", "1"], ["--n", "7"]])
def test_hasse_of_two_elements_refuses_n_and_k(capsys, flag):
    # the interval names its own orbit, so an --n or --k beside it is an
    # error, not ignored; the default --n still serves --k alone
    code, out, err = run(capsys, "hasse", "0012", "0023", *flag)
    assert (code, out) == (2, "")
    assert err.startswith("rookorder: error:") and err.count("\n") == 1
    assert run(capsys, "hasse", "--k", "1")[:2] == \
        run(capsys, "hasse", "--n", "4", "--k", "1")[:2]


def test_table_descents_matches_fixture(capsys):
    code, out, _ = run(capsys, "table", "descents")
    assert code == 0
    with open(os.path.join(FIXTURES, "descent_examples.tsv"), encoding="utf-8") as fh:
        assert out == fh.read()


def test_table_length2_matches_fixture(capsys):
    code, out, _ = run(capsys, "table", "length2")
    assert code == 0
    with open(os.path.join(FIXTURES, "length2_intervals.tsv"), encoding="utf-8") as fh:
        assert out == fh.read()


@pytest.mark.parametrize("argv", [
    ["rpoly", "012", "210", "--format", "tsv"],
    ["hasse", "--n", "2", "--k", "1", "--format", "json"],
    ["orbit", "--n", "2", "--k", "1", "--format", "dot"],
    ["verify", "putcha", "--n", "2", "--format", "text"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_unsupported_format_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format" in captured.err


def test_table_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["table", "nonsense"])
    assert info.value.code == 2
    capsys.readouterr()


def test_verify_putcha(capsys):
    code, out, _ = run(capsys, "verify", "putcha", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(not r["violations"] for r in payload["reports"])


def test_verify_other_suites(capsys):
    for suite in ("lifting", "descents", "delta", "hecke"):
        code, out, _ = run(capsys, "verify", suite, "--n", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True


def test_verify_all_builds_each_orbit_once(fresh_orbits):
    # every suite runs on one orbit before the next, so each of the four
    # orbits of R_3 is built once, and the reports still come suite by
    # suite, then rank by rank
    from rookorder import order, verify
    reports = verify.run_suite("all", 3)
    assert order.orbit_poset.cache_info().misses == 4
    assert [r.name for r in reports] == [f"{label} n=3 k={k}"
                                         for checks in verify._CHECKS.values()
                                         for k in range(4) for label, _ in checks]


def test_verify_reports_violations_with_exit_1(capsys, monkeypatch):
    from rookorder import verify
    from rookorder.reports import Report

    def broken(name, n):
        return [Report(name="stub", checked=1,
                       violations=[{"theta": "01", "sigma": "10"}])]

    monkeypatch.setattr(verify, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "putcha", "--n", "2")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["reports"][0]["violations"]


# The verify certificates under injected faults are rows of
# ``faults.FAULTS``; each name below checks its rows.
test_verify_lifting_certificate = case("R4-k2-lifting-a")
test_verify_nonempty_descent_certificate = case("R3-k1-no-descent")
test_verify_delta_certificate_carries_the_one_sum = case("R3-k1-r-min-max-plus-q")
test_verify_descent_rule_certificate = case("R3-k1-descent-rule-empty")
test_verify_hecke_expansion_certificate = case("R3-k0-bar-diagonal-dropped")
test_verify_hecke_involution_certificate = case("R3-k1-h-min-max-plus-one")
test_verify_hecke_fault_off_the_bases_falls_back_to_the_sums = case("R3-k1-h-off-the-bases")
test_verify_hecke_involution_certificate_of_a_barred_fault = \
    case("R3-k1-bar-min-max-plus-one")
test_verify_hecke_certificates_need_no_laurent_path = case("R3-k1-bar-min-max-plus-one")
_COLUMN_COMPARE = {
    "barred-off-by-one": "R3-k1-bar-min-max-plus-one",
    "r-off-by-one": "R3-k1-r-min-max-plus-one", "barred-outside": "R3-k1-bar-q-outside",
    "r-outside": "R3-k1-r-q-outside", "r-dropped": "R3-k1-r-min-max-dropped",
    "both-outside": "R3-k1-both-q-outside", "support-moved": "R3-k1-support-moved",
    "dropped-from-both": "R3-k1-both-min-max-dropped"}
test_verify_hecke_column_compare_reports_each_fault = cases(_COLUMN_COMPARE)
test_verify_under_each_fault_reads_as_the_full_sums = cases({
    **_COLUMN_COMPARE, "r-off-by-q": "R3-k1-r-min-max-plus-q",
    "barred-diagonal-dropped": "R3-k0-bar-diagonal-dropped",
    "hecke-off-by-one": "R3-k1-h-min-max-plus-one", "hecke-off-the-bases": "R3-k1-h-off-the-bases",
    "base-doubled-k0": "R3-k0-hecke-base-doubled", "base-doubled-k1": "R3-k1-hecke-base-doubled"})


@pytest.mark.parametrize("argv, flag", [
    (["verify", "delta", "--n", "2", "--k", "5"], "--k"),
    (["table", "descents", "--n", "3"], "--n"),
    (["table", "descents", "--k", "9"], "--k"),
    (["rpoly", "0001", "0003", "--k", "7"], "--k"),
    (["mobius", "0012", "0023", "--n", "4"], "--n"),
    (["descents", "0420", "--n", "4"], "--n"),
    (["order", "0001", "0012", "--k", "1"], "--k"),
])
def test_flags_a_command_does_not_read_exit_2(capsys, argv, flag):
    # only orbit and hasse read --n and --k, and verify reads --n: any
    # other use of either flag is refused by name
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_verify_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "verify", "all", "--n", "9")
    assert code == 2
    assert "1..6" in err


def test_element_out_of_desk_scale_exits_2(capsys):
    code, _, err = run(capsys, "descents", "123456789")
    assert code == 2
    assert "desk scale" in err


def test_byte_identical_reruns(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "orbit", "--n", "3", "--k", "2",
                           "--format", "tsv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "verify", "delta", "--n", "2")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "diagram.dot"
    code, out, _ = run(capsys, "hasse", "0001", "0003", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().count("->") == 2


@pytest.mark.parametrize("argv", [["descents", "0012"], ["verify", "putcha", "--n", "2"]],
                         ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, where):
    # a directory, or a path whose parent directory is missing, is a
    # usage error: one error line naming the path, nothing on stdout and
    # nothing left on disk
    target = tmp_path if where == "directory" else tmp_path / "missing" / "out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith("rookorder: error: ") and err.count("\n") == 1
    assert str(target) in err
    assert list(tmp_path.iterdir()) == []


def _cold_env():
    src = os.path.dirname(os.path.dirname(rookorder.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cold(*argv):
    """Run the CLI in a fresh interpreter under a 30 s timeout."""
    return subprocess.run([sys.executable, "-m", "rookorder", *argv],
                          capture_output=True, text=True, timeout=30,
                          env=_cold_env())


# Runs ``python -m rookorder`` and then writes the process's peak RSS to
# stderr.  VmHWM belongs to the memory image made by exec, so unlike the
# rusage of the child it does not count the test process it was forked from.
PEAK_RSS = """\
import runpy, sys
try:
    runpy.run_module("rookorder", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
"""


def run_cold_with_peak_rss(*argv):
    """(exit code, stdout, peak RSS in MB) of the CLI in a fresh
    interpreter under a 30 s timeout."""
    done = subprocess.run([sys.executable, "-c", PEAK_RSS, *argv],
                          capture_output=True, text=True, timeout=30,
                          env=_cold_env())
    peak_kb = int(done.stderr.splitlines()[-1].split()[1])
    return done.returncode, done.stdout, peak_kb / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
@pytest.mark.parametrize("argv,expected", [
    # two-element intervals of R_8 in orbits of 564480 and 322560
    # elements; stdout as recorded when every query indexed its orbit
    pytest.param(("rpoly", "12345600", "12346500"),
                 "R = q - 1\nR(0) = -1\nmu = -1\nshape = linear\n", id="rpoly"),
    pytest.param(("mobius", "12345600", "12346500"),
                 "mu = -1\nR(0) = -1\n", id="mobius"),
    pytest.param(("hasse", "12345600", "12346500"),
                 'digraph hasse {\n  rankdir=BT;\n  "12345600" [len=12];\n'
                 '  "12346500" [len=13];\n  "12345600" -> "12346500";\n}\n',
                 id="hasse"),
    pytest.param(("mobius", "12345670", "12345760"),
                 "mu = -1\nR(0) = -1\n", id="mobius-k7"),
])
def test_small_interval_at_n8_indexes_only_the_interval(argv, expected):
    code, out, peak_mb = run_cold_with_peak_rss(*argv)
    assert (code, out) == (0, expected)
    assert peak_mb < 40, f"peak RSS {peak_mb:.1f} MB"


@pytest.mark.parametrize("command", ["rpoly", "mobius"])
def test_whole_orbit_interval_finishes(command):
    # [123456, 654321] is all of S_6: a cold process must answer within
    # the timeout, with mu = R(0) = -1 on a higher-length interval
    done = run_cold(command, "123456", "654321", "--format", "json")
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout)
    if command == "rpoly":
        assert record["constant_term"] == record["mobius"] == -1
        assert record["shape"] == "higher-length"
    else:
        assert record == {"mobius": -1, "r_constant_term": -1}


@pytest.mark.parametrize("theta,sigma,expected", [
    # full rank against the zero matrix, where the coset-witness
    # criterion would range over all of S_8 x S_8
    ("87654321", "00000000",
     "87654321 <= 00000000: false\n00000000 <= 87654321: true\n"),
    # two rank-1 elements of R_8
    ("10000000", "00000001",
     "10000000 <= 00000001: false\n00000001 <= 10000000: true\n"),
], ids=["rank8-zero", "rank1-rank1"])
def test_order_at_n8_finishes(theta, sigma, expected):
    done = run_cold("order", theta, sigma)
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
