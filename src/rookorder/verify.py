"""Verification sweeps over whole ranks, grouped into named suites.

One table, ``_CHECKS``, maps each suite to ``(label, check)`` pairs,
where a check is an ``(n, k) -> Report`` function on one orbit.  The
one loop, ``run_suite``, runs them; only it names a report
``"<label> n=<n> k=<k>"`` and times it.  Every check is exhaustive.
"""

from __future__ import annotations

import time

from . import analysis, hecke, order, renner, rpoly
from .polynomials import Kronecker, ZERO
from .reports import Report

__all__ = ["SUITES", "packed_bar_squared", "hecke_oracle_report", "run_suite"]


def _delta_identity(n: int, k: int) -> Report:
    """The delta identity on every ordered pair of the orbit, one packed
    row of sums per theta; only a failing sum is decoded."""
    report = Report(name="delta")
    table = rpoly.orbit_table(n, k)
    elements = order.orbit_poset(n, k).elements
    for a, theta in enumerate(elements):
        row = table.delta_row(a)
        report.checked += len(row)
        if row[a] == 1 and row.count(0) == len(row) - 1:
            continue
        for b, total in enumerate(row):
            if total != (1 if a == b else 0):
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(elements[b]),
                    "sum": str(table.packing.unpack(total)),
                })
    return report


def _descent_rule(n: int, k: int) -> Report:
    """The standard-form descent rule agrees with ``renner.descents``."""
    report = Report(name="descent-rule")
    for sigma in renner.orbit(n, k):
        report.checked += 1
        via_rule = analysis.descent_sets(sigma)
        raw = renner.descents(sigma, "left"), renner.descents(sigma, "right")
        if via_rule != raw:
            report.violations.append({
                "element": renner.format_element(sigma),
                "standard_form_rule": [sorted(via_rule[0]), sorted(via_rule[1])],
                "raw": [sorted(raw[0]), sorted(raw[1])],
            })
    return report


def packed_bar_squared(n: int, k: int) -> tuple[Kronecker, list[list[int]]]:
    """bar(bar(A_sigma)) for every sigma of one orbit, packed: entry
    [b][nu] is the packed q^(l(b) - l(nu)) times the coefficient of A_nu
    in bar(bar(A_b)), by the indices of ``order.orbit_poset(n, k)``.

    With bar(A_sigma) = sum over theta of c_theta(sigma) A_theta,
    bar(bar(A_sigma)) = sum over theta of bar(c_theta(sigma)) bar(A_theta),
    so row sigma is one ``rpoly.triple_sums`` of the barred row
    {theta: bar(c_theta(sigma))} against the rows {nu: c_nu(theta)},
    both read straight off ``hecke.orbit_bars(n, k)``.  Their scales
    multiply to q^(l(sigma) - l(nu)) in every term, which is 1 at
    nu = sigma.  The supports are those of the table, so the sums assume
    nothing about them.
    """
    packing, rows, barred = hecke.orbit_bars(n, k)
    return packing, [rpoly.triple_sums(row, rows) for row in barred]


def hecke_oracle_report(n: int, k: int) -> Report:
    """Compare the bar-involution expansion with the R table on one
    orbit, and check that bar is an involution there.

    Both tables are packed at one width B, and the barred row of sigma
    holds q^(l(sigma) - l(e)) bar(c_theta(sigma)), which must be
    R[theta, sigma]: so it must equal the column of sigma in the R
    table, int for int, at every theta <= sigma and hold nothing else.
    The involution is checked packed (``packed_bar_squared``): row sigma
    must be 1 at sigma and 0 elsewhere.  Only a failing sigma is
    decoded: ``hecke.rpoly_via_bar`` and ``hecke.bar_element`` build its
    certificates.
    """
    report = Report(name="hecke")
    table = rpoly.orbit_table(n, k)
    _, _, barred = hecke.orbit_bars(n, k)
    _, bar_squared = packed_bar_squared(n, k)
    poset = order.orbit_poset(n, k)
    size = len(poset.elements)
    for b, sigma in enumerate(poset.elements):
        report.checked += size
        if barred[b] != {a: table.rows[a][b] for a in order.bits(poset.downs[b])}:
            expansion = hecke.rpoly_via_bar(sigma)
            for a, theta in enumerate(poset.elements):
                from_bar = expansion.get(theta, ZERO)
                from_recurrence = table.r(a, b)
                if from_bar != from_recurrence:
                    report.violations.append({
                        "theta": renner.format_element(theta),
                        "sigma": renner.format_element(sigma),
                        "via_bar": from_bar.to_json(),
                        "via_recurrence": from_recurrence.to_json(),
                    })
        report.checked += 1
        row = bar_squared[b]
        if row[b] != 1 or row.count(0) != size - 1:
            report.violations.append({
                "kind": "not-involutive",
                "sigma": renner.format_element(sigma),
                "bar_squared": hecke.hecke_to_json(
                    hecke.bar_element(hecke.bar_Asigma(sigma))),
            })
    return report


# The lambdas look each sweep up when they run, so a patched one runs.
_CHECKS = {
    "putcha": [("putcha", lambda n, k:
                analysis.verify_putcha_conjecture(renner.orbit(n, k)))],
    "lifting": [("lifting", lambda n, k: analysis.lifting_violations(n, k))],
    "delta": [("delta", _delta_identity)],
    "descents": [("nonempty-descent", lambda n, k:
                  analysis.check_nonempty_descent(renner.orbit(n, k))),
                 ("descent-rule", _descent_rule)],
    "hecke": [("hecke", lambda n, k: hecke_oracle_report(n, k))],
}

SUITES = ("all", *_CHECKS)


def run_suite(name: str, n: int) -> list[Report]:
    """One report per check and orbit of R_n: suite by suite (every
    suite for ``"all"``), then rank by rank, then check by check.

    >>> [r.name for r in run_suite("descents", 1)]  # doctest: +NORMALIZE_WHITESPACE
    ['nonempty-descent n=1 k=0', 'descent-rule n=1 k=0',
     'nonempty-descent n=1 k=1', 'descent-rule n=1 k=1']
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    for checks in _CHECKS.values() if name == "all" else [_CHECKS[name]]:
        for k in range(n + 1):
            for label, check in checks:
                start = time.perf_counter()
                report = check(n, k)
                report.runtime_ms = (time.perf_counter() - start) * 1000.0
                report.name = f"{label} n={n} k={k}"
                reports.append(report)
    return reports
