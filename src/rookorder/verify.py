"""Verification sweeps over whole ranks, grouped into named suites.

One table, ``_CHECKS``, maps each suite to ``(label, check)`` pairs,
where a check is an ``(n, k) -> Report`` function on one orbit.  The
one loop, ``run_suite``, runs them; only it names a report
``"<label> n=<n> k=<k>"`` and times it.  Every check is exhaustive.
"""

from __future__ import annotations

import itertools
import time

from . import analysis, hecke, renner, rpoly
from .polynomials import Kronecker, Laurent, ZERO
from .reports import Report

__all__ = ["SUITES", "packed_bar_squared", "hecke_oracle_report", "run_suite"]


def _delta_identity(n: int, k: int) -> Report:
    """The delta identity on every ordered pair of the orbit, one sum each."""
    report = Report(name="delta")
    for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
        report.checked += 1
        total = rpoly.delta_identity_sum(theta, sigma)
        if total != Laurent.from_int(1 if theta == sigma else 0):
            report.violations.append({
                "theta": renner.format_element(theta),
                "sigma": renner.format_element(sigma),
                "sum": str(total),
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
    [b][nu] is the packed coefficient of A_nu in bar(bar(A_b)), by the
    indices of ``order.orbit_poset(n, k)``.

    With bar(A_sigma) = sum over theta of c_theta(sigma) A_theta,
    bar(bar(A_sigma)) = sum over theta of bar(c_theta(sigma)) bar(A_theta),
    so row sigma is one ``rpoly.triple_sums`` of the packed row
    {theta: bar(c_theta(sigma))} against the packed rows
    {nu: c_nu(theta)}, both read off ``hecke.orbit_bars(n, k)``, which
    ``hecke.bar_element`` reads too.  The supports are those of the
    table, so the sums assume nothing about them.
    """
    bars = hecke.orbit_bars(n, k)
    barred = [{a: c.bar() for a, c in row.items()} for row in bars]
    packing = Kronecker(itertools.chain(*(row.values() for row in barred),
                                        *(row.values() for row in bars)),
                        terms=len(bars))
    inner_rows = rpoly.pack_rows(bars, packing)
    return packing, [rpoly.triple_sums(row, inner_rows)
                     for row in rpoly.pack_rows(barred, packing)]


def hecke_oracle_report(n: int, k: int) -> Report:
    """Compare the bar-involution expansion with the R table on one
    orbit, and check that bar is an involution there.

    The involution is checked packed (``packed_bar_squared``): with the
    offset D of the packing, row sigma must hold the packed q^(2D) at
    sigma and 0 elsewhere.  ``hecke.bar_element`` builds the certificate
    of a failing sigma.
    """
    report = Report(name="hecke")
    table = rpoly.orbit_table(n, k)
    packing, bar_squared = packed_bar_squared(n, k)
    for b, sigma in enumerate(table.poset.elements):
        expansion = hecke.rpoly_via_bar(sigma)
        for a, theta in enumerate(table.poset.elements):
            report.checked += 1
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
        if row[b] != packing.one or any(row[:b]) or any(row[b + 1:]):
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
