"""Verification sweeps over whole ranks, grouped into named suites.

Each suite covers every orbit of R_n and returns one Report per check.
Every suite is exhaustive: the delta identity runs on all same-orbit
pairs and the Hecke oracle on every orbit.
"""

from __future__ import annotations

import itertools
import time

from . import analysis, hecke, renner, rpoly
from .polynomials import Laurent, ZERO
from .reports import Report

SUITES = ("all", "putcha", "lifting", "delta", "descents", "hecke")

__all__ = ["SUITES", "putcha_suite", "lifting_suite", "delta_suite",
           "descents_suite", "hecke_suite", "run_suite"]


def putcha_suite(n: int) -> list[Report]:
    reports = []
    for k in range(n + 1):
        report = analysis.verify_putcha_conjecture(renner.orbit(n, k))
        report.name = f"putcha n={n} k={k}"
        reports.append(report)
    return reports


def lifting_suite(n: int) -> list[Report]:
    reports = []
    for k in range(n + 1):
        report = analysis.lifting_violations(n, k)
        report.name = f"lifting n={n} k={k}"
        reports.append(report)
    return reports


def delta_suite(n: int) -> list[Report]:
    reports = []
    for k in range(n + 1):
        start = time.perf_counter()
        report = Report(name=f"delta n={n} k={k}")
        for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
            report.checked += 1
            if not rpoly.verify_delta_identity(theta, sigma):
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(sigma),
                    "sum": str(rpoly.delta_identity_sum(theta, sigma)),
                })
        report.runtime_ms = (time.perf_counter() - start) * 1000.0
        reports.append(report)
    return reports


def descents_suite(n: int) -> list[Report]:
    """Every positive-length element must descend somewhere, and the
    standard-form descent rule must agree with ``renner.descents``."""
    reports = []
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        report = analysis.check_nonempty_descent(elems)
        report.name = f"nonempty-descent n={n} k={k}"
        reports.append(report)
        start = time.perf_counter()
        agree = Report(name=f"descent-rule n={n} k={k}")
        for sigma in elems:
            agree.checked += 1
            via_rule = analysis.descent_sets(sigma)
            raw = renner.descents(sigma, "left"), renner.descents(sigma, "right")
            if via_rule != raw:
                agree.violations.append({
                    "element": renner.format_element(sigma),
                    "standard_form_rule": [sorted(via_rule[0]), sorted(via_rule[1])],
                    "raw": [sorted(raw[0]), sorted(raw[1])],
                })
        agree.runtime_ms = (time.perf_counter() - start) * 1000.0
        reports.append(agree)
    return reports


def hecke_oracle_report(n: int, k: int) -> Report:
    """Compare the bar-involution expansion with the recurrence on one
    orbit, and check that bar is an involution there."""
    start = time.perf_counter()
    report = Report(name=f"hecke n={n} k={k}")
    elems = renner.orbit(n, k)
    for sigma in elems:
        expansion = hecke.rpoly_via_bar(sigma)
        for theta in elems:
            report.checked += 1
            from_bar = expansion.get(theta, ZERO)
            from_recurrence = rpoly.rpoly(theta, sigma)
            if from_bar != from_recurrence:
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(sigma),
                    "via_bar": from_bar.to_json(),
                    "via_recurrence": from_recurrence.to_json(),
                })
        report.checked += 1
        back = hecke.bar_element(hecke.bar_Asigma(sigma))
        if not hecke.elements_equal(back, {sigma: Laurent.from_int(1)}):
            report.violations.append({
                "kind": "not-involutive",
                "sigma": renner.format_element(sigma),
                "bar_squared": hecke.hecke_to_json(back),
            })
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


def hecke_suite(n: int) -> list[Report]:
    return [hecke_oracle_report(n, k) for k in range(n + 1)]


def run_suite(name: str, n: int) -> list[Report]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    reports = []
    if name in ("all", "putcha"):
        reports += putcha_suite(n)
    if name in ("all", "lifting"):
        reports += lifting_suite(n)
    if name in ("all", "delta"):
        reports += delta_suite(n)
    if name in ("all", "descents"):
        reports += descents_suite(n)
    if name in ("all", "hecke"):
        reports += hecke_suite(n)
    return reports
