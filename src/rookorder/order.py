"""Bruhat-Chevalley order on the rook monoid.

The order is computed from standard forms: for theta = u e v^-1 and
sigma = x f y^-1,

    theta <= sigma  iff  e <= f and, for some w in W(f) W_e,
                         u <= xw and yw <= v  in Bruhat order on W.

Within a single orbit W e W the monoid length function is the rank
function of the induced poset, which licenses building cover relations
from length gaps of one.  An independent rank-matrix dominance test is
provided for cross-validation only; ``leq`` itself always goes through
the criterion above.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

from . import renner, weyl
from .renner import Word
from .reports import Report

__all__ = [
    "leq", "dominance_leq", "require_same_orbit", "interval_elements",
    "IntervalPoset", "interval", "mobius_direct", "transitive_reduction",
    "check_graded", "hasse_dot",
]


@lru_cache(maxsize=None)
def _witness_set(n: int, kf: int, ke: int) -> tuple[Word, ...]:
    """The set product W(f) W_e, deduplicated, shortest elements first."""
    wf = weyl.parabolic_subgroup(
        renner.centralizer_gens(renner.rank_idempotent(n, kf)), n)
    we = weyl.parabolic_subgroup(
        renner.stabilizer_gens(renner.rank_idempotent(n, ke)), n)
    prod = {weyl.compose(a, b) for a in wf for b in we}
    return tuple(sorted(prod, key=lambda w: (weyl.length(w), w)))


@lru_cache(maxsize=None)
def leq(theta: Word, sigma: Word) -> bool:
    """Bruhat-Chevalley order on R_n.

    >>> leq((0, 0, 0, 1), (0, 0, 0, 3))
    True
    """
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    if theta == sigma:
        return True
    ke = renner.rank(theta)
    kf = renner.rank(sigma)
    if ke > kf:
        return False
    u, _, v = renner.standard_form(theta)
    x, _, y = renner.standard_form(sigma)
    for w in _witness_set(len(theta), kf, ke):
        if weyl.bruhat_leq(u, weyl.compose(x, w)) and \
                weyl.bruhat_leq(weyl.compose(y, w), v):
            return True
    return False


def dominance_leq(theta: Word, sigma: Word) -> bool:
    """Rank-matrix dominance test, for cross-validation of ``leq``.

    theta <= sigma iff for all k, j the count of entries >= j among the
    first k columns of theta is at most the same count for sigma.  The
    orientation is calibrated against ``leq`` on all of R_2 and R_3
    before being trusted at n = 4 (see the test suite).
    """
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    n = len(theta)
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            ct = sum(1 for a in theta[:k] if a >= j)
            cs = sum(1 for a in sigma[:k] if a >= j)
            if ct > cs:
                return False
    return True


def require_same_orbit(theta: Word, sigma: Word) -> tuple[int, int]:
    """(n, k) of the orbit holding both elements; ValueError otherwise."""
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    k = renner.rank(theta)
    if renner.rank(sigma) != k:
        raise ValueError(
            f"{renner.format_element(theta)} and {renner.format_element(sigma)} "
            f"lie in different orbits")
    return len(theta), k


@lru_cache(maxsize=None)
def interval_elements(theta: Word, sigma: Word) -> tuple[Word, ...]:
    """All tau in the common orbit with theta <= tau <= sigma, by (length, word)."""
    n, k = require_same_orbit(theta, sigma)
    return tuple(tau for tau in renner.orbit(n, k)
                 if leq(theta, tau) and leq(tau, sigma))


@dataclass(frozen=True)
class IntervalPoset:
    bottom: Word
    top: Word
    elements: tuple[Word, ...]
    covers: tuple[tuple[Word, Word], ...]


def interval(theta: Word, sigma: Word) -> IntervalPoset:
    """The interval [theta, sigma] inside one orbit, with cover relations.

    Covers are the comparable pairs at length gap one, which is the
    transitive reduction because length is the orbit rank function (the
    tests cross-check this against a generic reduction at small n).
    """
    require_same_orbit(theta, sigma)
    if not leq(theta, sigma):
        raise ValueError(
            f"{renner.format_element(theta)} is not below "
            f"{renner.format_element(sigma)}")
    elems = interval_elements(theta, sigma)
    covers = tuple(
        (a, b)
        for a in elems for b in elems
        if renner.length(b) - renner.length(a) == 1 and leq(a, b)
    )
    return IntervalPoset(theta, sigma, elems, covers)


@lru_cache(maxsize=None)
def mobius_direct(theta: Word, sigma: Word) -> int:
    """Mobius function of an orbit poset, by the defining recursion.

    Returns 0 when theta is not below sigma.
    """
    require_same_orbit(theta, sigma)
    if theta == sigma:
        return 1
    if not leq(theta, sigma):
        return 0
    return -sum(mobius_direct(theta, tau)
                for tau in interval_elements(theta, sigma)
                if tau != sigma)


def transitive_reduction(elements, leq_fn) -> list[tuple]:
    """Generic Hasse edges of a finite poset: a < b with nothing between."""
    elements = list(elements)
    edges = []
    for a in elements:
        for b in elements:
            if a == b or not leq_fn(a, b):
                continue
            if any(c != a and c != b and leq_fn(a, c) and leq_fn(c, b)
                   for c in elements):
                continue
            edges.append((a, b))
    return edges


def check_graded(orbit_elements) -> Report:
    """Verify that length is the rank function of a full-orbit poset.

    Uses the generic transitive reduction (independent of length) and
    checks every cover step raises length by exactly 1, that heights
    computed from covers agree with length, and that the orbit has a
    unique minimum and maximum.
    """
    start = time.perf_counter()
    elems = sorted(orbit_elements, key=lambda w: (renner.length(w), w))
    report = Report(name="graded")
    covers = transitive_reduction(elems, leq)
    ups: dict[Word, list[Word]] = {w: [] for w in elems}
    downs: dict[Word, list[Word]] = {w: [] for w in elems}
    for a, b in covers:
        ups[a].append(b)
        downs[b].append(a)
        report.checked += 1
        if renner.length(b) - renner.length(a) != 1:
            report.violations.append({
                "kind": "cover-step",
                "lower": renner.format_element(a),
                "upper": renner.format_element(b),
                "lengths": [renner.length(a), renner.length(b)],
            })
    minima = [w for w in elems if not downs[w]]
    maxima = [w for w in elems if not ups[w]]
    for kind, found in (("minimum", minima), ("maximum", maxima)):
        report.checked += 1
        if len(found) != 1:
            report.violations.append({
                "kind": f"non-unique-{kind}",
                "elements": [renner.format_element(w) for w in found],
            })
    # elems come sorted by length, so lower covers are ready when needed;
    # .get keeps the sweep total even on a broken poset being reported
    height = {elems[0]: 0}
    for w in elems[1:]:
        height[w] = max((height.get(a, 0) + 1 for a in downs[w]), default=0)
    base = renner.length(elems[0])
    for w in elems:
        report.checked += 1
        if height[w] != renner.length(w) - base:
            report.violations.append({
                "kind": "height-vs-length",
                "element": renner.format_element(w),
                "height": height[w],
                "length": renner.length(w),
            })
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


def hasse_dot(poset: IntervalPoset) -> str:
    """DOT digraph of a Hasse diagram; edges point from lower to higher."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for w in poset.elements:
        lines.append(
            f'  "{renner.format_element(w)}" [len={renner.length(w)}];')
    for a, b in sorted(poset.covers,
                       key=lambda e: (renner.length(e[0]), e[0], e[1])):
        lines.append(
            f'  "{renner.format_element(a)}" -> "{renner.format_element(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
