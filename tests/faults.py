"""The one table of injected faults (``FAULTS``), with the one injector
(``inject``) and the one full-path switch (``full_path``) that every
fault test goes through.

A row (``Fault``) changes one orbit (n, k) of R_n through targets:

- "R", "R'", "H", "Bar": the tables that ``rpoly._fill``, the one fill
  of the orbit tables, fills; change(packing, columns) edits the
  columns, one per sigma, in place.  R and R' start from the minimum,
  the Hecke tables H and Bar (kinds R' and R) from their base columns.
  The one R table (``rpoly.orbit_table``) is read by the delta and
  Hecke reports.  R' is filled by the orbit's certificate
  (``hecke.certificate``), which both read, by the delta report where
  that refuses, and by the per-pair product (``rpoly.delta_rows``).  H
  and Bar are filled only for the full Hecke tables
  (``hecke.orbit_bars``), which the Hecke report's full path and the
  Laurent path read; its clean path reads the base columns
  (``hecke.base_columns``), which no fill fills, so a fault of H or
  Bar turns that clean path off with it.
- "mobius": change(mu, length gap) in place of mu in every Mobius row
  (``order.mobius_row``) that a row sweep of the orbit fills.
- "action": change(actions) in place of the orbit's s_i-actions
  (``order.orbit_action``) on either side.
- "descents": change(sets) in place of the standard-form descent sets
  (``analysis.descent_sets``) of each sigma of the orbit.

``inject`` fails, when it is undone, if its change never changed
anything.  A row holds the exit code and a digest of the stdout of
``rookorder verify <suite> --n <n>`` for each suite named, with the
Laurent path made to raise; the ``SKIPS`` under whose ``full_path`` the
orbit's reports stay the same; optionally a mutant, one local check of
``hecke.certify`` made to pass, with its outputs; and ``then``, more
assertions.  A digest pins the whole report, so those of a fault and
its mutant show that the mutant's check alone saw the fault.  To add a
row, give its suites with no digests and copy those its test prints.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
from typing import Callable, NamedTuple

import pytest

from oracles import (bar_squared_row, decode_bar_squared, full_bound_check, hecke_to_json,
                     lifting_by_pairs, orbit_sum_every_term, putcha_by_pairs)
from rookorder import analysis, cli, hecke, order, renner, rpoly, verify, weyl
from rookorder.polynomials import Laurent, ONE, Q

# the Hecke tables by the kind of their fill and whether it starts from
# base columns
_TABLES = {("R", False): "R", ("R'", False): "R'", ("R'", True): "H", ("R", True): "Bar"}

# Each skip or certificate that ``full_path`` turns off: the suites that
# read it (the first holds it), where it lives, its full path, and the
# kept values built through it, dropped when it is switched.
SKIPS = {
    "star": (("putcha",), order, "orbit_star",
             lambda n, k: tuple(range(len(order.orbit_poset(n, k).elements))), ()),
    "certificate": (("delta", "hecke"), hecke, "certify", lambda *args: False,
                    (hecke.certificate,)),
    "clean": (("hecke",), verify, "_bases_agree", lambda *args: False, ()),
    "length": (("hecke",), hecke, "_orbit_sum", orbit_sum_every_term,
               (hecke.base_columns, hecke.orbit_bars)),
    "bounds": (("hecke",), hecke, "_check_bounds", full_bound_check,
               (hecke.base_columns, hecke.orbit_bars)),
}


def _drop(builds):
    wrapped = {build.__wrapped__ for build in builds}
    for key in [key for key in order.kept if isinstance(key, tuple) and key[0] in wrapped]:
        del order.kept[key]


@contextlib.contextmanager
def full_path(name=None):
    """The skip or certificate ``name`` of ``SKIPS`` turned off, or every
    one of them, with what was kept through it dropped before and after."""
    names = list(SKIPS) if name is None else [name]
    builds = [build for name in names for build in SKIPS[name][4]]
    with pytest.MonkeyPatch.context() as patch:
        for name in names:
            patch.setattr(*SKIPS[name][1:4])
        _drop(builds)
        try:
            yield
        finally:
            _drop(builds)


def _fill_fault(n, k, table, change, changed):
    fill = rpoly._fill

    def faulted(m, j, kind, packing=None, bases=None):
        columns = fill(m, j, kind, packing, bases)
        if (m, j) == (n, k) and _TABLES.get((kind, bases is not None)) == table:
            before = [dict(column) for column in columns]
            change(packing, columns)
            changed.append(before != columns)
        return columns
    return rpoly, "_fill", faulted


def _mobius_fault(n, k, change, changed):
    # the orbit is told by its down rows, which a row sweep passes as
    # ``downs.__getitem__`` and ``IntervalPoset.mobius`` as its ``down``
    mobius_row, poset = order.mobius_row, order.orbit_poset(n, k)
    downs, lengths = list(poset.downs), poset.lengths

    def faulted(bottom, up, down):
        row, owner = mobius_row(bottom, up, down), getattr(down, "__self__", None)
        if isinstance(owner, order.IntervalPoset):
            owner = owner.downs if len(owner.elements) == len(downs) else None
        if owner != downs:
            return row
        out = {}
        for t in order.bits(up):
            mu = change(order.mobius_at(row, t), lengths[t] - lengths[bottom])
            if mu:
                out[mu] = out.get(mu, 0) | 1 << t
        changed.append(out != row)
        return out
    return order, "mobius_row", faulted


# the patch point of each other target, and the orbit of a call to it
_CALLS = {"action": (order, "orbit_action", lambda n, k, side: (n, k)),
          "descents": (analysis, "descent_sets", lambda sigma: (len(sigma), renner.rank(sigma)))}


def _call_fault(n, k, target, change, changed):
    owner, name, orbit = _CALLS[target]
    call = getattr(owner, name)

    def faulted(*args):
        value = call(*args)
        if orbit(*args) != (n, k):
            return value
        out = change(value)
        changed.append(out != value)
        return out
    return owner, name, faulted


@contextlib.contextmanager
def inject(target, n, k, change):
    """The fault change(...) on ``target`` of the rank-k orbit of R_n,
    installed at the target's one patch point (module docstring)."""
    changed = []
    with pytest.MonkeyPatch.context() as patch, contextlib.ExitStack() as stack:
        if target in _TABLES.values():
            patch.setattr(*_fill_fault(n, k, target, change, changed))
            if target in ("H", "Bar"):
                stack.enter_context(full_path("clean"))
        elif target == "mobius":
            patch.setattr(*_mobius_fault(n, k, change, changed))
        else:
            patch.setattr(*_call_fault(n, k, target, change, changed))
        yield
    if not any(changed):
        pytest.fail(f"a fault of {target} on R_{n} k={k} never changed it")


# The changes of the rows.  A fill change takes (packing, columns); b
# and a below count from the end when negative, so -1 is the maximum.

def entry(b, a, delta):
    # delta, packed, added to entry a of column b; None drops the entry
    def fault(packing, columns):
        column, a_ = columns[b], a % len(columns)
        if delta is None:
            column.pop(a_)
        else:
            column[a_] = column.get(a_, 0) + packing.pack(delta)
    return fault


def _bases(n, k):
    return rpoly.orbit_bounds(n, k)[1]


def off_the_bases(n, k):
    # the first column that is no Hecke base, off by one at its smallest a
    def fault(packing, columns):
        b = next(b for b in range(1, len(columns)) if b not in _bases(n, k))
        columns[b][min(columns[b])] += 1
    return fault


def base_doubled(n, k):
    # the column of the last Hecke base doubled
    def fault(packing, columns):
        b = max(_bases(n, k))
        columns[b] = {a: 2 * x for a, x in columns[b].items()}
    return fault


def coefficient_fault(n, k, b, a, delta, tables=("H", "Bar")):
    """The (target, change) pairs that add ``delta`` to c_a(b), the
    coefficient of A_a in bar(A_b), scaled as the Hecke table H stores
    it, and its bar as Bar does, in each table named; b and a are
    indices, -1 for the maximum, or words."""
    def fault(table):
        def change(packing, columns):
            poset, e = order.orbit_poset(n, k), renner.idempotent_length(n, k)
            b_, a_ = (poset.index.get(i, i) % len(columns) for i in (b, a))
            value = (delta * Laurent.q_power(e - poset.lengths[a_]) if table == "H"
                     else delta.bar() * Laurent.q_power(poset.lengths[b_] - e))
            columns[b_][a_] = columns[b_].get(a_, 0) + packing.pack(value)
        return table, change
    return [fault(table) for table in tables]


def _star(n, k):
    # star by index, from the words, so that a fault does not move where
    # ``full_path("star")`` makes ``order.orbit_star`` the identity
    poset = order.orbit_poset(n, k)
    return [poset.index[order.star(word)] for word in poset.elements]


def one_sided(n, k):
    # one entry off by one at the first a that star moves, in the last
    # column that holds it
    def fault(packing, columns):
        star = _star(n, k)
        a = next(a for a in range(len(star)) if star[a] != a)
        columns[max(b for b, column in enumerate(columns) if a in column)][a] += 1
    return fault


def first_moved(n, k):
    # the entry (a, b) off by one that comes first of those star moves
    def fault(packing, columns):
        star = _star(n, k)
        a, b = max(sorted((a, b) for b, column in enumerate(columns) for a in column),
                   key=lambda ab: (star[ab[0]], star[ab[1]]) != ab)
        columns[b][a] += 1
    return fault


def symmetric(n, k):
    # R[a, max] and R[a*, max*] = R[a*, max] off by the same q
    def fault(packing, columns):
        star, top = _star(n, k), len(columns) - 1
        a = max(columns[top])
        for theta in {a, star[a]}:
            columns[top][theta] += packing.pack(Q)
    return fault


def min_row_off_by_one(packing, columns):
    # R[min, b] off by one at every b above the minimum
    for column in columns[1:]:
        column[0] += 1


def _diagonal_stored_as_zero(packing, columns):
    # every diagonal entry held as a stored 0, which the steps of the
    # certificate meet at indices that s raises and that it lowers
    for b, column in enumerate(columns):
        column[b] = 0


def _first_action(change):
    # change(to, step) in place of the action of s_1
    return lambda actions: (change(*actions[0]), *actions[1:])


# The assertions of ``then``, on the outputs {suite: (exit code, stdout)}.

def _violations(outputs, suite, n, k):
    reports = json.loads(outputs[suite][1])["reports"]
    return next(r["violations"] for r in reports if r["name"] == f"{suite} n={n} k={k}")


def _first_violation(suite, label, n, k, keys, **values):
    # the first failing report is the orbit's, and its first violation has
    # exactly these keys and these values
    def then(outputs):
        failing = [r for r in json.loads(outputs[suite][1])["reports"] if r["violations"]]
        assert failing[0]["name"] == f"{label} n={n} k={k}"
        cert = failing[0]["violations"][0]
        assert set(cert) == set(keys) and {key: cert[key] for key in values} == values, cert
    return then


def _min_max_alone(n, k):
    # the delta and Hecke reports of the orbit flag (min, max) alone
    def then(outputs):
        ends = tuple(map(renner.format_element, (renner.orbit_minimum(n, k),
                                                 renner.orbit_maximum(n, k))))
        for suite in ("delta", "hecke"):
            assert [(v["theta"], v["sigma"]) for v in _violations(outputs, suite, n, k)] == \
                [ends], suite
    return then


def _only_barred_steps_see(n, k):
    # on the Hecke report's clean path, only (b) on R refuses the tables:
    # the bases agree, the supports are the down sets, and (a) and (c)
    # hold on the full H, which equals R' there; the report flags the one
    # entry off
    def then(outputs):
        (rows, barred), table = hecke.base_columns(n, k), rpoly.orbit_table(n, k)
        plan, bits = rpoly.orbit_plan(n, k), rpoly.orbit_packing(n, k).bits
        bases, full_rows = _bases(n, k), hecke.orbit_bars(n, k)[0]
        assert verify._bases_agree(rows, hecke.certificate(n, k)[1])
        assert verify._bases_agree(barred, table)
        assert verify._supports_are_downs(table, order.orbit_poset(n, k).downs)
        assert hecke._left_steps_act(full_rows, plan, bits)
        assert hecke._base_rows_are_identity(full_rows, table, bases)
        assert not hecke._barred_steps_act(table, plan, bases, bits)
        b = next(b for b in range(1, len(table)) if b not in bases)
        elements = order.orbit_poset(n, k).elements
        assert [(v["theta"], v["sigma"]) for v in _violations(outputs, "hecke", n, k)] \
            == [(renner.format_element(elements[min(table[b])]),
                 renner.format_element(elements[b]))]
    return then


def _hecke_certs(expansion, support, involutive):
    # the certificates of ``verify hecke --n 3`` by kind, with R the true
    # R[001, 300] of the rank-1 orbit
    def then(outputs):
        certs = {}
        for report in json.loads(outputs["hecke"][1])["reports"]:
            for v in report["violations"]:
                certs.setdefault(v.get("kind", "expansion"), []).append(v)
        r = rpoly.rpoly((0, 0, 1), (3, 0, 0))
        values = {"R": r, "R + 1": r + 1, "q": Q, "1": ONE, "0": Q - Q}
        assert certs.pop("expansion", []) == [
            {"theta": theta, "sigma": sigma, "via_bar": values[via_bar].to_json(),
             "via_recurrence": values[via_recurrence].to_json()}
            for theta, sigma, via_bar, via_recurrence in expansion]
        assert certs.pop("support", []) == [
            {"kind": "support", "theta": theta, "sigma": sigma, "value": values[value].to_json()}
            for theta, sigma, value in support]
        involution = certs.pop("not-involutive", [])
        assert all(set(cert) == {"kind", "sigma", "bar_squared"} for cert in involution)
        assert not certs and [cert["sigma"] for cert in involution] == \
            ([] if involutive else [(expansion or support)[-1][1]])
    return then


def _not_involutive(outputs, n, k):
    return [v for v in _violations(outputs, "hecke", n, k)
            if v.get("kind") == "not-involutive"]


def _max_by_the_laurent_path(n, k, barred=False, one=False):
    # the not-involutive certificate of max, no Hecke base, is
    # bar(bar(A_max)) by the Laurent path, which is not A_max: with
    # ``barred``, the sum over theta of bar(c_theta(max)) bar(A_theta),
    # decoded from the faulted barred column; else read off the faulted
    # H, as the packed bar o bar row of max decodes too.  With ``one``,
    # that is the report's one certificate, over several lengths
    def then(outputs):
        poset, top = order.orbit_poset(n, k), renner.orbit_maximum(n, k)
        assert len(poset.elements) - 1 not in _bases(n, k)
        laurent, packing = {}, rpoly.orbit_packing(n, k)
        if barred:
            unscale = Laurent.q_power(renner.idempotent_length(n, k) - renner.length(top))
            for a, x in hecke.orbit_bars(n, k)[1][-1].items():
                hecke.add_scaled(laurent, hecke.bar_Asigma(poset.elements[a]),
                                 packing.unpack(x) * unscale)
        else:
            laurent = hecke.bar_element(hecke.bar_Asigma(top))
            assert decode_bar_squared(*bar_squared_row(n, k, len(poset.elements) - 1), top) \
                == hecke.canonical(laurent)
        laurent = hecke.canonical(laurent)
        assert laurent != {top: Laurent.from_int(1)}
        certs = {cert["sigma"]: cert["bar_squared"] for cert in _not_involutive(outputs, n, k)}
        assert certs[renner.format_element(top)] == hecke_to_json(laurent)
        if one:
            assert len(certs) == 1 and len({renner.length(w) for w in laurent}) > 1
    return then


def _not_involutive_at(n, k, words, base=None):
    # the orbit's not-involutive certificates are those of ``words``, and
    # none is the identity; ``base`` is a Hecke base
    def then(outputs):
        certs = _not_involutive(outputs, n, k)
        assert [cert["sigma"] for cert in certs] == list(map(renner.format_element, words))
        assert all(cert["bar_squared"] != hecke_to_json(
            {renner.parse_element(cert["sigma"]): Laurent.from_int(1)}) for cert in certs)
        assert base is None or order.orbit_poset(n, k).index[base] in _bases(n, k)
    return then


def _summed_once_and_refused(n, k):
    # the Hecke report gives not-involutive certificates alone, summing
    # one product, of every row of the orbit, and the certificate
    # refuses the full tables
    def then(outputs):
        reports = json.loads(outputs["hecke"][1])["reports"]
        assert {v.get("kind") for r in reports for v in r["violations"]} == {"not-involutive"}
        summed, product_rows = [], rpoly.product_rows
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rpoly, "product_rows", lambda left, right:
                          summed.append(len(left)) or product_rows(left, right))
            assert _run_verify("hecke", n) == outputs["hecke"]
        assert summed == [len(rpoly.orbit_table(n, k))]
        assert not hecke.certify(*hecke.orbit_bars(n, k), n, k)
    return then


def _both(*thens):
    def then(outputs):
        for then_ in thens:
            then_(outputs)
    return then


def _putcha_like_the_oracle(n, k):
    # on a whole orbit and on every other element of it
    def then(outputs):
        for elements in (renner.orbit(n, k), renner.orbit(n, k)[::2]):
            report = analysis.verify_putcha_conjecture(elements)
            expected = putcha_by_pairs(elements)
            assert report.violations and (report.checked, report.violations) == \
                (expected.checked, expected.violations)
    return then


def _lifting_like_the_oracle(n, k, broken):
    # the report is the oracle's, and every failing pair breaks only the
    # mutant's one condition
    def then(outputs):
        report, expected = analysis.lifting_violations(n, k), lifting_by_pairs(n, k)
        assert report.violations and (report.checked, report.violations) == \
            (expected.checked, expected.violations)
        poset, (to, _) = order.orbit_poset(n, k), order.orbit_action(n, k, "left")[0]

        def below(x, y):
            return order.leq(poset.elements[x], poset.elements[y])

        for cert in report.violations:
            a, b = (poset.index[renner.parse_element(cert[end])] for end in ("theta", "sigma"))
            fails = {"a"} if cert["clause"] == "a" else {
                condition for condition, holds in (("s theta <= sigma", below(to[a], b)),
                                                   ("theta <= s sigma", below(a, to[b])))
                if not holds}
            assert (set(cert), cert["s"], cert["holds"], fails) == \
                ({"theta", "sigma", "s", "clause", "holds"}, 1, False, {broken}), cert
    return then


class Fault(NamedTuple):
    id: str
    n: int
    k: int
    changes: list  # (target, change) pairs
    verify: dict  # suite -> "<exit code> <first 16 hex digits of the stdout's SHA-256>"
    same: tuple = ()  # names of ``SKIPS`` whose full path gives the orbit the same reports
    mutant: tuple | None = None  # (check of ``hecke.certify``, its outputs)
    then: Callable | None = None  # more assertions, on the outputs


_EVERY_SUM = ("certificate", "length", "bounds")
# the outputs of a suite that passes: delta and Hecke on R_3
_DELTA3, _HECKE3 = "0 5884ee7329527dad", "0 ab83bce9254c474b"

FAULTS = [
    # R_3: the faults of the CLI certificates and of the Hecke column
    # compare, each as every sigma summed reads it
    Fault("R3-k1-r-min-max-plus-q", 3, 1, [("R", entry(-1, 0, Q))],
          {"delta": "1 2bacbb828e6c4f5a", "hecke": "1 c09a8460d8b9edc2"}, _EVERY_SUM,
          then=_first_violation("delta", "delta", 3, 1, ("theta", "sigma", "sum"),
                                theta="001", sigma="300", sum="q")),
    Fault("R3-k0-bar-diagonal-dropped", 3, 0, [("Bar", entry(0, 0, None))],
          {"delta": _DELTA3, "hecke": "1 bb044921abbaa361"}, _EVERY_SUM,
          then=_first_violation("hecke", "hecke", 3, 0,
                                ("theta", "sigma", "via_bar", "via_recurrence"),
                                theta="000", sigma="000", via_bar={"var": "q", "coeffs": []},
                                via_recurrence={"var": "q", "coeffs": [1]})),
    # the column of max in H off at the minimum, which only (a) of the
    # certificate reads, as max is no Hecke base
    Fault("R3-k1-h-min-max-plus-one", 3, 1, [("H", entry(-1, 0, ONE))],
          {"delta": _DELTA3, "hecke": "1 2a0521daabbb1758"}, _EVERY_SUM,
          mutant=("_left_steps_act", {"hecke": _HECKE3}),
          then=_not_involutive_at(3, 1, [renner.orbit_maximum(3, 1)])),
    # the barred column of max off there, which only (b) reads
    Fault("R3-k1-bar-min-max-plus-one", 3, 1, [("Bar", entry(-1, 0, ONE))],
          {"delta": _DELTA3, "hecke": "1 21bb655d80b957fe"}, _EVERY_SUM,
          mutant=("_barred_steps_act", {"hecke": "1 4b23592144cd90ec"}),
          then=_both(_hecke_certs([("001", "300", "R + 1", "R")], [], False),
                     _max_by_the_laurent_path(3, 1, barred=True))),
    # R there, which only (b) on R sees, for both reports
    Fault("R3-k1-r-min-max-plus-one", 3, 1, [("R", entry(-1, 0, ONE))],
          {"delta": "1 ec6fe7716a15be64", "hecke": "1 a372869313595a25"}, (*_EVERY_SUM, "clean"),
          mutant=("_barred_steps_act", {"delta": _DELTA3, "hecke": _HECKE3}),
          then=_hecke_certs([("001", "300", "R", "R + 1")], [], True)),
    Fault("R3-k1-bar-q-outside", 3, 1, [("Bar", entry(0, -1, Q))],
          {"delta": _DELTA3, "hecke": "1 7f6aa91e2abf6367"}, _EVERY_SUM,
          then=_hecke_certs([("300", "001", "q", "0")], [], False)),
    Fault("R3-k1-r-q-outside", 3, 1, [("R", entry(0, -1, Q))],
          {"delta": "1 69c3dcc007830e50", "hecke": "1 114c034fbf4f3ab8"}, _EVERY_SUM,
          then=_hecke_certs([("300", "001", "0", "q")], [], True)),
    Fault("R3-k1-r-min-max-dropped", 3, 1, [("R", entry(-1, 0, None))],
          {"delta": "1 6f96a640ddc4f93e", "hecke": "1 5336ee2fc4aab67a"}, _EVERY_SUM,
          then=_hecke_certs([("001", "300", "R", "0")], [], True)),
    # the same entry in both tables outside the down set: the columns
    # agree, and only their support fails, at the value both hold
    Fault("R3-k1-both-q-outside", 3, 1, [("Bar", entry(0, -1, Q)), ("R", entry(0, -1, Q))],
          {"delta": "1 69c3dcc007830e50", "hecke": "1 26544e7c95ead4a2"}, _EVERY_SUM,
          then=_hecke_certs([], [("300", "001", "q")], False)),
    # that entry in both, and the barred column's one entry inside
    # dropped: the support keeps its size but leaves the down set
    Fault("R3-k1-support-moved", 3, 1, [("Bar", entry(0, 0, None)),
                                        ("Bar", entry(0, -1, Q)), ("R", entry(0, -1, Q))],
          {"delta": "1 69c3dcc007830e50", "hecke": "1 366667e939e79f47"}, _EVERY_SUM,
          then=_hecke_certs([("001", "001", "0", "1")], [("300", "001", "q")], False)),
    Fault("R3-k1-both-min-max-dropped", 3, 1, [("Bar", entry(-1, 0, None)),
                                               ("R", entry(-1, 0, None))],
          {"delta": "1 6f96a640ddc4f93e", "hecke": "1 25cb8b4f359487de"}, _EVERY_SUM,
          then=_hecke_certs([], [("001", "300", "0")], False)),
    # a column of H alone off the bases, which the barred columns, and so
    # the R table, do not read: only bar o bar sees it
    Fault("R3-k1-h-off-the-bases", 3, 1, [("H", off_the_bases(3, 1))],
          {"delta": _DELTA3, "hecke": "1 7a1573ec27005def"}, _EVERY_SUM,
          then=_summed_once_and_refused(3, 1)),
    # the one column of the rank-0 orbit doubled in H and Bar: every left
    # step fixes it, so that only the sum of its row in (c) sees it
    Fault("R3-k0-hecke-base-doubled", 3, 0, [("H", base_doubled(3, 0)),
                                             ("Bar", base_doubled(3, 0))],
          {"delta": _DELTA3, "hecke": "1 084d3cd78206bd4e"}, _EVERY_SUM,
          mutant=("_base_rows_are_identity", {"hecke": "1 f5386829b8e4c34f"}),
          then=_not_involutive_at(3, 0, [renner.orbit_maximum(3, 0)])),
    Fault("R3-k1-hecke-base-doubled", 3, 1, [("H", base_doubled(3, 1)),
                                             ("Bar", base_doubled(3, 1))],
          {"delta": _DELTA3, "hecke": "1 50d7c8c9b95df56b"}, _EVERY_SUM),
    # c_min(max) off by one in H and Bar, scaled as each stores it
    Fault("R3-k1-hecke-min-max-plus-one", 3, 1,
          coefficient_fault(3, 1, -1, 0, Laurent.from_int(1)),
          {"hecke": "1 c4707ba4f03f4b59"}, ("certificate",),
          then=_max_by_the_laurent_path(3, 1, one=True)),
    Fault("R3-k3-hecke-min-max-plus-one", 3, 3,
          coefficient_fault(3, 3, -1, 0, Laurent.from_int(1)),
          {"hecke": "1 c10c1347d83680ba"}, ("certificate",),
          then=_max_by_the_laurent_path(3, 3)),
    # bar(A_id), id a Hecke base, gains q^3 A_w0 in H, a term the scaled
    # columns of c can hold (their bars cannot), past the diagonal of
    # every sigma but w0: it moves the coefficient of A_w0 in
    # bar(bar(A_sigma)) for every sigma
    Fault("R3-k3-h-id-to-w0", 3, 3,
          coefficient_fault(3, 3, weyl.identity(3), (3, 2, 1), Laurent.q_power(3), ("H",)),
          {"hecke": "1 f9d3cf74fe2eada3"}, ("certificate",),
          then=_not_involutive_at(3, 3, renner.orbit(3, 3), base=weyl.identity(3))),
    # the faults of R and R' that the delta report must flag; on (R', R),
    # R' at (min, max) only (a) sees, R there (above) only (b), and the
    # rank-0 column doubled in both only (c)
    Fault("R3-k1-r'-min-max-plus-one", 3, 1, [("R'", entry(-1, 0, ONE))],
          {"delta": "1 ec6fe7716a15be64"}, ("certificate",),
          mutant=("_left_steps_act", {"delta": _DELTA3})),
    Fault("R3-k0-base-doubled", 3, 0, [("R", base_doubled(3, 0)), ("R'", base_doubled(3, 0))],
          {"delta": "1 a40058553ee475c2", "hecke": "1 a4fd828b022acd71"},
          ("certificate", "clean"), mutant=("_base_rows_are_identity", {"delta": _DELTA3})),
    Fault("R3-k1-base-doubled", 3, 1, [("R", base_doubled(3, 1)), ("R'", base_doubled(3, 1))],
          {"delta": "1 36f3554b1619bde5", "hecke": "1 79916f635025bf96"},
          ("certificate", "clean")),
    Fault("R3-k1-r-symmetric", 3, 1, [("R", symmetric(3, 1))],
          {"delta": "1 ac91e48b0efd8bee", "hecke": "1 0df124ca4c6ddebf"},
          ("certificate", "clean")),
    Fault("R3-k1-r-off-the-bases", 3, 1, [("R", off_the_bases(3, 1))],
          {"delta": "1 5b1e75b52d194e04", "hecke": "1 b23106e7b8460596"},
          ("certificate", "clean"), then=_only_barred_steps_see(3, 1)),
    # R'[min, b] off by one at the first b that is no Hecke base, which is
    # also the first entry that star moves (``first_moved``)
    Fault("R3-k1-r'-off-the-bases", 3, 1, [("R'", off_the_bases(3, 1))],
          {"delta": "1 80d5a3771fab75fd"}, ("certificate",)),
    Fault("R3-k1-r'-diagonal-stored-zero", 3, 1, [("R'", _diagonal_stored_as_zero)],
          {"delta": "1 ac74caa741e0249d"}, ("certificate",)),
    # R_4 k = 2
    Fault("R4-k2-r-min-max-plus-one", 4, 2, [("R", entry(-1, 0, ONE))],
          {"delta": "1 aa81f4534d289cfa", "hecke": "1 7d9e4b2ca918a195"}, ("certificate", "clean"),
          then=_min_max_alone(4, 2)),
    Fault("R4-k2-r-min-row", 4, 2, [("R", min_row_off_by_one)],
          {"delta": "1 2d0a9e32a3bfec48", "hecke": "1 c8c89fe07b25d543"}, ("certificate",)),
    Fault("R4-k2-r-one-sided", 4, 2, [("R", one_sided(4, 2))],
          {"delta": "1 4bc06c5c4f7121f4", "hecke": "1 3f514f383e44d31e"}, ("certificate",)),
    Fault("R4-k2-r'-one-sided", 4, 2, [("R'", one_sided(4, 2))],
          {"delta": "1 bac9520b9afe1fd5"}, ("certificate",)),
    Fault("R4-k2-r-symmetric", 4, 2, [("R", symmetric(4, 2))],
          {"delta": "1 f04351d75f7c8245", "hecke": "1 8217b0ca3aa0b7db"}, ("certificate",)),
    Fault("R4-k2-r-off-the-bases", 4, 2, [("R", off_the_bases(4, 2))],
          {"delta": "1 ebb0043a1b5fb8c9", "hecke": "1 adf4b7bb42552624"},
          ("certificate", "clean"), then=_only_barred_steps_see(4, 2)),
    Fault("R4-k2-r'-off-the-bases", 4, 2, [("R'", off_the_bases(4, 2))],
          {"delta": "1 e1ea5494a2f20343"}, ("certificate",)),
    Fault("R4-k2-base-doubled", 4, 2, [("R", base_doubled(4, 2)), ("R'", base_doubled(4, 2))],
          {"delta": "1 0867f766a018bea7", "hecke": "1 8b2653e496eab05f"},
          ("certificate", "clean")),
    Fault("R4-k2-r'-diagonal-stored-zero", 4, 2, [("R'", _diagonal_stored_as_zero)],
          {"delta": "1 c8fa44429eb926d1"}, ("certificate",)),
    # Mobius rows, s-actions and descent sets
    Fault("R3-k2-mobius-gap-2-plus-one", 3, 2,
          [("mobius", lambda mu, gap: mu + 1 if gap == 2 else mu)],
          {"putcha": "1 fd48ff5257174c97"}, ("star",),
          then=_first_violation("putcha", "putcha", 3, 2,
                                ("theta", "sigma", "mobius", "expected", "interval"))),
    # linear length-2 intervals read mu = 2: no M_(+1) or M_(-1) changes,
    # so only the no-other-value part of the row check sees it
    Fault("R4-k2-mobius-linear-reads-2", 4, 2,
          [("mobius", lambda mu, gap: 2 if gap == 2 and mu == 0 else mu)],
          {"putcha": "1 dbb740304c40faeb"}, ("star",), then=_putcha_like_the_oracle(4, 2)),
    Fault("R4-k2-mobius-gap-1-negated", 4, 2,
          [("mobius", lambda mu, gap: -mu if gap == 1 else mu)],
          {"putcha": "1 4e8ac16130f3b23e"}, ("star",)),
    # corrupted s_1 actions, each breaking one lifting condition: clause
    # (a) s theta < s sigma, or in clause (b) s theta <= sigma or
    # theta <= s sigma; each is one containment of the row check.  s_1
    # raises every element, so clause (a) applies to every pair
    Fault("R4-k2-lifting-a", 4, 2,
          [("action", _first_action(lambda to, step: (to, (1,) * len(to))))],
          {"lifting": "1 b7ac3aa227f6b9ba"}, then=_lifting_like_the_oracle(4, 2, "a")),
    # s_1 sends 0013 where it sends 0012: s theta = s sigma is not above
    Fault("R4-k2-lifting-a-strict", 4, 2,
          [("action", _first_action(lambda to, step: ((to[0], to[0], *to[2:]), step)))],
          {"lifting": "1 860335f6b7a1893e"}, then=_lifting_like_the_oracle(4, 2, "a")),
    # s_1 sends every element it fixes to the maximum
    Fault("R4-k2-lifting-b-up", 4, 2, [("action", _first_action(lambda to, step: (
              tuple(len(to) - 1 if d == 0 else t for t, d in zip(to, step)), step)))],
          {"lifting": "1 c09b45e1409ff681"},
          then=_lifting_like_the_oracle(4, 2, "s theta <= sigma")),
    # s_1 sends every element it lowers to the minimum
    Fault("R4-k2-lifting-b-row", 4, 2, [("action", _first_action(lambda to, step: (
              tuple(0 if d < 0 else t for t, d in zip(to, step)), step)))],
          {"lifting": "1 be3a045990a7c354"},
          then=_lifting_like_the_oracle(4, 2, "theta <= s sigma")),
    # every s_i raises or fixes every element: none of positive length
    # descends
    Fault("R3-k1-no-descent", 3, 1,
          [("action", lambda actions: tuple((to, tuple(map(abs, step))) for to, step in actions))],
          {"descents": "1 e9d8e1e7fb109c06"},
          then=_first_violation("descents", "nonempty-descent", 3, 1,
                                ("kind", "element", "length"), kind="no-descent")),
    Fault("R3-k1-descent-rule-empty", 3, 1,
          [("descents", lambda sets: (frozenset(), frozenset()))],
          {"descents": "1 19044b17579c7b48"},
          then=_first_violation("descents", "descent-rule", 3, 1,
                                ("element", "standard_form_rule", "raw"),
                                standard_form_rule=[[], []])),
]


def _laurent_path(*args):
    raise AssertionError("a verify suite took the Laurent path")


def _run_verify(suite, n):
    # (exit code, stdout) of ``rookorder verify <suite> --n <n>``, as the
    # command gives them to ``cli.main`` to print
    with pytest.MonkeyPatch.context() as patch:
        for name in ("bar_element", "bar_Asigma", "rpoly_via_bar"):
            patch.setattr(hecke, name, _laurent_path)
        text, code = cli.cmd_verify(argparse.Namespace(suite=suite, n=n))
    return code, text


def _digest(outputs):
    return {suite: f"{code} {hashlib.sha256(out.encode()).hexdigest()[:16]}"
            for suite, (code, out) in outputs.items()}


@contextlib.contextmanager
def _installed(fault):
    with contextlib.ExitStack() as stack:
        order.orbit_poset.cache_clear()
        stack.callback(order.orbit_poset.cache_clear)
        for target, change in fault.changes:
            stack.enter_context(inject(target, fault.n, fault.k, change))
        yield


def _outputs(fault, suites):
    return {suite: _run_verify(suite, fault.n) for suite in suites}


def _orbit_reports(fault, suites, outputs):
    # [checked, violations] of each report of the row's orbit, as the
    # checks give them now and as ``outputs`` printed them
    orbit = f" n={fault.n} k={fault.k}"
    return ({label + orbit: json.loads(json.dumps([r.checked, r.violations])) for suite in suites
             for label, check in verify._CHECKS[suite] for r in [check(fault.n, fault.k)]},
            {r["name"]: [r["checked"], r["violations"]] for suite in suites
             for r in json.loads(outputs[suite][1])["reports"] if r["name"].endswith(orbit)})


@functools.cache
def _attempt(fault_id):
    fault = next(fault for fault in FAULTS if fault.id == fault_id)
    try:
        with _installed(fault):
            outputs = _outputs(fault, fault.verify)
            assert _digest(outputs) == fault.verify, _digest(outputs)
            for name in fault.same:
                suites = [suite for suite in fault.verify if suite in SKIPS[name][0]]
                with full_path(name):
                    now, printed = _orbit_reports(fault, suites, outputs)
                assert now == printed, name
            if fault.mutant:
                part, expected = fault.mutant
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(hecke, part, lambda *args: True)
                    _drop([hecke.certificate])
                    mutant = _outputs(fault, expected)
                _drop([hecke.certificate])
                assert _digest(mutant) == expected, (part, _digest(mutant))
                # the mutant's certificate passes, so it sums no row
                assert not any("not-involutive" in out for _, out in mutant.values()), part
                assert all(mutant[suite] != outputs[suite] for suite in mutant), part
            if fault.then:
                fault.then(outputs)
        return outputs, None
    except (Exception, pytest.fail.Exception) as error:
        return None, error


def check(fault_id):
    """The outputs {suite: (exit, stdout)} of the row ``fault_id``, whose
    expectations are checked once per session and reported again."""
    outputs, error = _attempt(fault_id)
    if error:
        raise error
    return outputs


def case(*fault_ids):
    """A test that checks the rows ``fault_ids``, under an older name."""
    def test():
        for fault_id in fault_ids:
            check(fault_id)
    return test


def cases(fault_ids):
    """A test with one case per {case id: row id}, each checking its row."""
    def test(fault_id):
        check(fault_id)
    return pytest.mark.parametrize("fault_id", list(fault_ids.values()),
                                   ids=list(fault_ids))(test)
