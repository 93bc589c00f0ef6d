import json
import os
import subprocess
import sys

import pytest

import rookorder
from oracles import hecke_to_json
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


def _first_violation(capsys, suite, label):
    """Run ``verify <suite> --n 3``, which must exit 1, and return the first
    violation certificate of the first failing report."""
    code, out, _ = run(capsys, "verify", suite, "--n", "3")
    assert code == 1
    failing = [r for r in json.loads(out)["reports"] if r["violations"]]
    assert failing
    assert failing[0]["name"].startswith(f"{label} n=3 k=")
    return failing[0]["violations"][0]


def test_verify_lifting_certificate(capsys, monkeypatch):
    # s_1 reads as raising every element, so clause (a) applies to every
    # pair under s_1, and fails where s_1 swaps theta and sigma
    from rookorder import order
    original = order.orbit_action

    def corrupted(n, k, side):
        (to, _), *rest = original(n, k, side)
        return ((to, (1,) * len(to)), *rest)

    monkeypatch.setattr(order, "orbit_action", corrupted)
    cert = _first_violation(capsys, "lifting", "lifting")
    assert set(cert) == {"theta", "sigma", "s", "clause", "holds"}
    assert (cert["clause"], cert["holds"]) == ("a", False)


def test_verify_nonempty_descent_certificate(capsys, monkeypatch):
    # every s_i reads as raising or fixing every element, so no element
    # of positive length descends
    from rookorder import order
    original = order.orbit_action

    def corrupted(n, k, side):
        return tuple((to, tuple(map(abs, step))) for to, step in original(n, k, side))

    monkeypatch.setattr(order, "orbit_action", corrupted)
    cert = _first_violation(capsys, "descents", "nonempty-descent")
    assert cert["kind"] == "no-descent"
    assert set(cert) == {"kind", "element", "length"}


def _q_added_to_r_at_min_max(packing, columns):
    from rookorder.polynomials import Q
    columns[len(columns) - 1][0] += packing.pack(Q)


def test_verify_delta_certificate_carries_the_one_sum(capsys, corrupt_fill):
    # the fault sits in the packed input of the sums: R[min, max] of the
    # R_3 k = 1 table is filled off by q, which changes exactly one sum,
    # and the certificate carries that sum decoded
    from rookorder import renner
    corrupt_fill("R", 3, 1, _q_added_to_r_at_min_max)
    cert = _first_violation(capsys, "delta", "delta")
    assert set(cert) == {"theta", "sigma", "sum"}
    ends = renner.orbit_minimum(3, 1), renner.orbit_maximum(3, 1)
    assert (cert["theta"], cert["sigma"]) == tuple(map(renner.format_element, ends))
    assert cert["sum"] == "q"


def test_verify_descent_rule_certificate(capsys, monkeypatch):
    from rookorder import analysis
    monkeypatch.setattr(analysis, "descent_sets",
                        lambda sigma: (frozenset(), frozenset()))
    cert = _first_violation(capsys, "descents", "descent-rule")
    assert set(cert) == {"element", "standard_form_rule", "raw"}
    assert cert["standard_form_rule"] == [[], []]


def _barred_diagonal_dropped(packing, barred):
    barred[0].pop(0)


def test_verify_hecke_expansion_certificate(capsys, corrupt_fill, fallback):
    # the fault sits in the packed barred row of the rank-0 element: its
    # diagonal entry, R[sigma, sigma] read off bar(A_sigma), is dropped
    # in the full Hecke fill, which the fallback reads
    corrupt_fill("Bar", 3, 0, _barred_diagonal_dropped)
    cert = _first_violation(capsys, "hecke", "hecke")
    assert set(cert) == {"theta", "sigma", "via_bar", "via_recurrence"}
    assert cert["theta"] == cert["sigma"]
    assert cert["via_bar"] != cert["via_recurrence"]


def _off_by_one_hecke_entry(packing, rows):
    rows[-1][0] += 1  # bar(A_max), scaled; index 0 is the minimum


def test_verify_hecke_involution_certificate(capsys, corrupt_fill, fallback):
    # the fault sits in the packed input of bar o bar: one coefficient of
    # bar(A_max) is filled off by one, so bar(bar(A_max)) is not A_max;
    # max is no Hecke base, so only the fallback reads it
    from rookorder import hecke, renner
    from rookorder.polynomials import Laurent
    top = renner.orbit_maximum(3, 1)
    corrupt_fill("H", 3, 1, _off_by_one_hecke_entry)
    code, out, _ = run(capsys, "verify", "hecke", "--n", "3")
    assert code == 1
    certs = [v for r in json.loads(out)["reports"] for v in r["violations"]
             if v.get("kind") == "not-involutive"]
    assert [cert["sigma"] for cert in certs] == [renner.format_element(top)]
    assert set(certs[0]) == {"kind", "sigma", "bar_squared"}
    assert certs[0]["bar_squared"] != hecke_to_json({top: Laurent.from_int(1)})


def _off_by_one_off_the_bases(packing, rows):
    # one entry of the columns of bar(A_sigma) alone off by one, at the
    # first column of R_3 k = 1 that is no Hecke base: the barred columns,
    # which the R table checks, do not read it, only bar o bar does
    from rookorder import rpoly
    t = next(t for t in range(len(rows)) if t not in rpoly.orbit_bounds(3, 1)[1])
    rows[t][min(rows[t])] += 1


def _base_doubled(k):
    # the column, or the barred column, of the last Hecke base of the
    # rank-k orbit of R_3 doubled; at k = 0, the one column of the orbit
    def corrupt(packing, table):
        from rookorder import rpoly
        b = max(rpoly.orbit_bounds(3, k)[1])
        table[b] = {a: 2 * x for a, x in table[b].items()}
    return corrupt


def test_verify_hecke_fault_off_the_bases_falls_back_to_the_sums(capsys, corrupt_fill,
                                                                  monkeypatch, fallback):
    # on the fallback, the only path that reads a column off the bases,
    # the local certificate of bar o bar refuses the table, so the rows
    # are summed, and the fault gives not-involutive certificates alone
    from rookorder import hecke, rpoly
    corrupt_fill("H", 3, 1, _off_by_one_off_the_bases)
    summed, product_rows = [], rpoly.product_rows
    monkeypatch.setattr(rpoly, "product_rows",
                        lambda left, *args: summed.append(len(left)) or product_rows(left, *args))
    certs = _hecke_certificates(capsys)
    assert list(certs) == ["not-involutive"]
    assert summed == [len(rpoly.orbit_table(3, 1))]
    assert not hecke.certify(*hecke.orbit_bars(3, 1), 3, 1)


def _off_by_one_barred_entry(packing, barred):
    # R[min, max] as read off bar(A_max), scaled
    barred[-1][0] += 1


def _hecke_certificates(capsys):
    # the violations of ``verify hecke --n 3``, which must exit 1, by kind
    code, out, _ = run(capsys, "verify", "hecke", "--n", "3")
    assert code == 1
    certs = {}
    for report in json.loads(out)["reports"]:
        for v in report["violations"]:
            certs.setdefault(v.get("kind", "expansion"), []).append(v)
    return certs


def test_verify_hecke_involution_certificate_of_a_barred_fault(capsys, corrupt_fill,
                                                               fallback):
    # the fault sits in the packed barred row of the maximum, which only
    # bar o bar of the maximum reads: its certificate is that row's sum,
    # held against the Laurent path, sum over theta of
    # bar(c_theta(max)) bar(A_theta), with bar(c_theta(max)) decoded
    # from the corrupted barred row
    from rookorder import hecke, order, renner, rpoly
    from rookorder.polynomials import Laurent
    corrupt_fill("Bar", 3, 1, _off_by_one_barred_entry)
    certs = _hecke_certificates(capsys)["not-involutive"]
    top = renner.orbit_maximum(3, 1)
    assert [cert["sigma"] for cert in certs] == [renner.format_element(top)]
    barred, packing = hecke.orbit_bars(3, 1)[1], rpoly.orbit_packing(3, 1)
    poset = order.orbit_poset(3, 1)
    unscale = Laurent.q_power(renner.idempotent_length(3, 1) - renner.length(top))
    expected = {}
    for a, x in barred[-1].items():
        hecke.add_scaled(expected, hecke.bar_Asigma(poset.elements[a]),
                         packing.unpack(x) * unscale)
    assert certs[0]["bar_squared"] == hecke_to_json(hecke.canonical(expected))
    assert certs[0]["bar_squared"] != hecke_to_json({top: Laurent.from_int(1)})


def test_verify_hecke_certificates_need_no_laurent_path(capsys, corrupt_fill,
                                                        monkeypatch, fallback):
    # the suite decodes its certificates from the packed ints it checked
    from rookorder import hecke

    def laurent_path(*args):
        raise AssertionError("the Hecke suite took the Laurent path")

    for name in ("bar_element", "bar_Asigma", "rpoly_via_bar"):
        monkeypatch.setattr(hecke, name, laurent_path)
    corrupt_fill("Bar", 3, 1, _off_by_one_barred_entry)
    certs = _hecke_certificates(capsys)
    assert set(certs) == {"expansion", "not-involutive"}
    assert set(certs["expansion"][0]) == {"theta", "sigma", "via_bar", "via_recurrence"}


def _q_at_max_in_the_column_of_the_minimum(packing, columns):
    # an entry at (max, min), outside the down set of the minimum, in the
    # barred Hecke table or in the R table
    from rookorder.polynomials import Q
    columns[0][len(columns) - 1] = packing.pack(Q)


def _r_at_min_max(change):
    # change(value) in place of R[min, max] in the R table
    def corrupt(packing, columns):
        top = len(columns) - 1
        value = change(columns[top].pop(0))
        if value is not None:
            columns[top][0] = value
    return corrupt


def _only_q_in_the_barred_row_of_the_minimum(packing, barred):
    # the diagonal entry of the barred row of min moved to (max, min)
    barred[0].clear()
    _q_at_max_in_the_column_of_the_minimum(packing, barred)


def _min_max_dropped_from_the_barred_column(packing, barred):
    barred[-1].pop(0)  # R[min, max] as read off bar(A_max), scaled


@pytest.mark.parametrize("corruptions, expansion, support, involutive", [
    # one barred value off by one
    ([("Bar", _off_by_one_barred_entry)], [("001", "300", "R + 1", "R")], [], False),
    # one R value off by one
    ([("R", _r_at_min_max(lambda x: x + 1))], [("001", "300", "R", "R + 1")], [], True),
    # a barred entry outside the down set of its sigma
    ([("Bar", _q_at_max_in_the_column_of_the_minimum)], [("300", "001", "q", "0")], [], False),
    # an R entry outside the down set of its sigma, read off R's whole
    # column
    ([("R", _q_at_max_in_the_column_of_the_minimum)], [("300", "001", "0", "q")], [], True),
    # an R entry dropped inside the down set of its sigma
    ([("R", _r_at_min_max(lambda x: None))], [("001", "300", "R", "0")], [], True),
    # the same entry added to both tables outside the down set: the
    # columns agree as dicts, and only their support fails, at the value
    # both hold
    ([("Bar", _q_at_max_in_the_column_of_the_minimum),
      ("R", _q_at_max_in_the_column_of_the_minimum)], [], [("300", "001", "q")], False),
    # that entry in both, and the barred row's one entry inside dropped:
    # the support keeps its size but leaves the down set
    ([("Bar", _only_q_in_the_barred_row_of_the_minimum),
      ("R", _q_at_max_in_the_column_of_the_minimum)],
     [("001", "001", "0", "1")], [("300", "001", "q")], False),
    # an entry inside the down set dropped from both columns of max: the
    # columns agree, and the support lacks it
    ([("Bar", _min_max_dropped_from_the_barred_column),
      ("R", _r_at_min_max(lambda x: None))], [], [("001", "300", "0")], False),
], ids=["barred-off-by-one", "r-off-by-one", "barred-outside", "r-outside", "r-dropped",
        "both-outside", "support-moved", "dropped-from-both"])
def test_verify_hecke_column_compare_reports_each_fault(capsys, corrupt_fill, corruptions,
                                                         expansion, support, involutive,
                                                         request):
    # the barred column of each sigma is compared whole with the column of
    # sigma in the R table: each fault of R_3 k = 1 below gives these
    # expansion certificates, decoded from the ints compared, with R the
    # true R[001, 300], and where the columns agree but the support test
    # fails, these support certificates; bar o bar reads only the Hecke
    # table.  A fault of H or Bar is in the full Hecke fill alone, which
    # the report reads on its fallback
    from rookorder import rpoly
    from rookorder.polynomials import ONE, Q
    for table, change in corruptions:
        corrupt_fill(table, 3, 1, change)
    if any(table in ("H", "Bar") for table, _ in corruptions):
        request.getfixturevalue("fallback")
    certs = _hecke_certificates(capsys)
    r = rpoly.rpoly((0, 0, 1), (3, 0, 0))
    values = {"R": r, "R + 1": r + 1, "q": Q, "1": ONE, "0": Q - Q}
    assert certs.pop("expansion", []) == [
        {"theta": theta, "sigma": sigma, "via_bar": values[via_bar].to_json(),
         "via_recurrence": values[via_recurrence].to_json()}
        for theta, sigma, via_bar, via_recurrence in expansion]
    assert certs.pop("support", []) == [
        {"kind": "support", "theta": theta, "sigma": sigma, "value": values[value].to_json()}
        for theta, sigma, value in support]
    involution = [cert["sigma"] for cert in certs.pop("not-involutive", [])]
    assert not certs and involution == ([] if involutive else [(expansion or support)[-1][1]])


@pytest.mark.parametrize("corruptions", [
    [("R", 1, _q_added_to_r_at_min_max)],
    [("Bar", 0, _barred_diagonal_dropped)],
    [("H", 1, _off_by_one_hecke_entry)],
    [("Bar", 1, _off_by_one_barred_entry)],
    [("R", 1, _r_at_min_max(lambda x: x + 1))],
    [("Bar", 1, _q_at_max_in_the_column_of_the_minimum)],
    [("R", 1, _r_at_min_max(lambda x: None))],
    [("Bar", 1, _q_at_max_in_the_column_of_the_minimum),
     ("R", 1, _q_at_max_in_the_column_of_the_minimum)],
    [("Bar", 1, _only_q_in_the_barred_row_of_the_minimum),
     ("R", 1, _q_at_max_in_the_column_of_the_minimum)],
    [("Bar", 1, _min_max_dropped_from_the_barred_column),
     ("R", 1, _r_at_min_max(lambda x: None))],
    [("H", 1, _off_by_one_off_the_bases)],
    [("H", 0, _base_doubled(0)), ("Bar", 0, _base_doubled(0))],
    [("H", 1, _base_doubled(1)), ("Bar", 1, _base_doubled(1))],
], ids=["r-off-by-q", "barred-diagonal-dropped", "hecke-off-by-one", "barred-off-by-one",
        "r-off-by-one", "barred-outside", "r-dropped", "both-outside", "support-moved",
        "dropped-from-both", "hecke-off-the-bases", "base-doubled-k0", "base-doubled-k1"])
def test_verify_under_each_fault_reads_as_the_full_sums(capsys, corrupt_fill, monkeypatch,
                                                       drop_product, corruptions, request):
    # each fault the tests above inject into the tables of R_3 gives the
    # output of delta and hecke that summing every sigma gives, as with
    # the local certificate refusing every orbit, that the Hecke tables
    # built from base sums over
    # every term, with no length skip, give, and that the Hecke tables
    # built under the oracle's full bound fill give
    from oracles import full_bound_check, orbit_sum_every_term
    from rookorder import hecke, order
    for table, k, change in corruptions:
        corrupt_fill(table, 3, k, change)
    if any(table in ("H", "Bar") for table, _, _ in corruptions):
        request.getfixturevalue("fallback")
    outputs = [run(capsys, "verify", suite, "--n", "3") for suite in ("delta", "hecke")]
    assert outputs[1][0] == 1
    with monkeypatch.context() as patch:
        patch.setattr(hecke, "certify", lambda *args: False)
        drop_product(3, 3)  # the orbit still resident, with its certificate
        assert [run(capsys, "verify", suite, "--n", "3")
                for suite in ("delta", "hecke")] == outputs
    drop_product(3, 3)
    with monkeypatch.context() as patch:
        patch.setattr(hecke, "_orbit_sum", orbit_sum_every_term)
        order.orbit_poset.cache_clear()
        assert [run(capsys, "verify", suite, "--n", "3")
                for suite in ("delta", "hecke")] == outputs
    monkeypatch.setattr(hecke, "_check_bounds", full_bound_check)
    order.orbit_poset.cache_clear()
    assert [run(capsys, "verify", suite, "--n", "3") for suite in ("delta", "hecke")] == outputs


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
