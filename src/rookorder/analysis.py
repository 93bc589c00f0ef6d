"""Descent sets, interval shapes, lifting, and conjecture verification.

The headline facts being checked at desk scale:

* every element of positive length has a left or a right descent, and
  each orbit has exactly one length-0 element with both sets empty;
* a length-2 interval has 3 elements (linear) or 4 (diamond), and the
  constant term R(0) vanishes iff a linear length-2 subinterval exists,
  so intervals with R(0) = 0 cannot appear as Weyl group subintervals;
* the Mobius function of an orbit interval is (-1)^(length difference)
  when every length-2 subinterval is a diamond and 0 otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from . import order, renner, rpoly, weyl
from .order import IntervalPoset
from .renner import Word
from .reports import Report

__all__ = [
    "descent_sets", "check_nonempty_descent",
    "linear_length2_pairs", "find_linear_length2",
    "embeddable_in_weyl_necessary", "check_lifting", "lifting_violations",
    "verify_putcha_conjecture", "IntervalClassification", "classify_interval",
]


def descent_sets(sigma: Word) -> tuple[frozenset[int], frozenset[int]]:
    """Descent sets computed from the standard form sigma = x e y^-1.

    Left descents are the left descents of x.  A simple reflection s is
    a right descent iff l(sy) > l(y) and either sy is again a minimal
    coset representative for W(e), or sy = y s' with s' a simple
    reflection inside W(e) and l(x s') < l(x).  Agreement with
    ``renner.descents`` (the local rule ``renner.length_step``), which
    the R-polynomial recurrence uses, is a tested property.
    """
    n = len(sigma)
    x, e, y = renner.standard_form(sigma)
    left = weyl.left_descents(x)
    centralizer = renner.centralizer_gens(e)
    x_right = weyl.right_descents(x)
    right = set()
    for i in range(1, n):
        sy = weyl.compose(weyl.simple_reflection(n, i), y)
        if weyl.length(sy) <= weyl.length(y):
            continue
        if weyl.min_coset_rep(sy, centralizer) == sy:
            right.add(i)
            continue
        # sy = y s' with s' = y^-1 s y; require s' simple, in W(e), lowering x
        s_prime = weyl.compose(weyl.inverse(y), sy)
        js = [j for j in range(1, n)
              if s_prime == weyl.simple_reflection(n, j)]
        if js and js[0] in centralizer and js[0] in x_right:
            right.add(i)
    return left, frozenset(right)


def check_nonempty_descent(orbit_elements) -> Report:
    """Every positive-length element descends somewhere; the unique
    length-0 element has both descent sets empty."""
    start = time.perf_counter()
    report = Report(name="nonempty-descent")
    zero_length = []
    for sigma in orbit_elements:
        report.checked += 1
        left, right = renner.descents(sigma, "left"), renner.descents(sigma, "right")
        if renner.length(sigma) == 0:
            zero_length.append(sigma)
            if left or right:
                report.violations.append({
                    "kind": "descent-at-minimum",
                    "element": renner.format_element(sigma),
                    "des_L": sorted(left), "des_R": sorted(right),
                })
        elif not left and not right:
            report.violations.append({
                "kind": "no-descent",
                "element": renner.format_element(sigma),
                "length": renner.length(sigma),
            })
    if len(zero_length) != 1:
        report.violations.append({
            "kind": "length-zero-count",
            "elements": [renner.format_element(w) for w in zero_length],
        })
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


def linear_length2_pairs(theta: Word, sigma: Word) -> tuple[tuple[Word, Word], ...]:
    """All pairs (alpha, beta) inside [theta, sigma] whose interval is a
    linear length-2 one (3 elements in total), by (length, word) of alpha
    and then of beta."""
    poset, inside = order.interval_mask(theta, sigma)
    pairs = []
    for a in order.bits(inside):
        up = poset.up(a)
        for b in order.bits(up & inside & poset.level(poset.lengths[a] + 2)):
            if (up & poset.down(b)).bit_count() == 3:
                pairs.append((poset.elements[a], poset.elements[b]))
    return tuple(pairs)


def find_linear_length2(theta: Word, sigma: Word) -> Optional[tuple[Word, Word]]:
    """A linear length-2 subinterval of [theta, sigma], if one exists.

    Existence is equivalent to R[theta, sigma](0) = 0, which is what
    makes the interval impossible to embed in a Weyl group.
    """
    if not order.leq(theta, sigma):
        raise ValueError("find_linear_length2 requires theta <= sigma")
    pairs = linear_length2_pairs(theta, sigma)
    return pairs[0] if pairs else None


def embeddable_in_weyl_necessary(theta: Word, sigma: Word) -> bool:
    """Necessary condition for [theta, sigma] to be a Weyl group
    subinterval: R(0) != 0.  False certifies non-embeddability."""
    if not order.leq(theta, sigma):
        raise ValueError("embeddable_in_weyl_necessary requires theta <= sigma")
    return rpoly.rpoly(theta, sigma).constant_term != 0


def check_lifting(theta: Word, sigma: Word, i: int) -> tuple[str, bool]:
    """Evaluate the lifting property for the triple (theta, sigma, s_i).

    Clause (a): theta < s theta and sigma < s sigma imply
    s theta < s sigma.  Clause (b): s theta >= theta and
    s sigma <= sigma imply theta <= s sigma and s theta <= sigma.
    Returns the clause that applies ("a", "b" or "not applicable") and
    whether it holds.  The pair must lie in one orbit, whose
    ``order.OrbitPoset`` answers the comparisons.
    """
    poset = order.orbit_poset(*order.require_same_orbit(theta, sigma))
    a, b = poset.locate(theta), poset.locate(sigma)
    if a == b or not (poset.up(a) >> b) & 1:
        raise ValueError("check_lifting requires theta < sigma")
    return _lifting_clause(poset, a, b, i)


def _lifting_clause(poset: order.OrbitPoset, a: int, b: int,
                    i: int) -> tuple[str, bool]:
    # check_lifting on elements a < b of the poset.  Left multiplication
    # by s keeps the rank, so s theta and s sigma lie in the same orbit.
    s = weyl.simple_reflection(poset.n, i)
    sa = poset.index[renner.multiply(s, poset.elements[a])]
    sb = poset.index[renner.multiply(s, poset.elements[b])]
    d_theta = poset.lengths[sa] - poset.lengths[a]
    d_sigma = poset.lengths[sb] - poset.lengths[b]
    if d_theta > 0 and d_sigma > 0:
        return "a", sa != sb and (poset.up(sa) >> sb) & 1 == 1
    if d_theta >= 0 and d_sigma <= 0:
        return "b", (poset.up(a) >> sb) & 1 == 1 and (poset.up(sa) >> b) & 1 == 1
    return "not applicable", True


def lifting_violations(n: int, k: int) -> Report:
    """Sweep all comparable pairs and simple reflections of one orbit."""
    start = time.perf_counter()
    report = Report(name="lifting")
    poset = order.orbit_poset(n, k)
    for a, theta in enumerate(poset.elements):
        for b in order.bits(poset.up(a) & ~(1 << a)):
            for i in range(1, n):
                report.checked += 1
                clause, holds = _lifting_clause(poset, a, b, i)
                if not holds:
                    report.violations.append({
                        "theta": renner.format_element(theta),
                        "sigma": renner.format_element(poset.elements[b]),
                        "s": i, "clause": clause, "holds": holds,
                    })
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


def verify_putcha_conjecture(orbit_elements) -> Report:
    """Check mu = (-1)^(length difference) on intervals all of whose
    length-2 subintervals are diamonds, and mu = 0 on the rest.

    Only pairs among the given elements are checked; they must lie in
    one orbit.  mu comes from ``order.mobius_direct``.
    """
    start = time.perf_counter()
    report = Report(name="putcha")
    elems = list(orbit_elements)
    if not elems:
        return report
    poset = order.orbit_poset(len(elems[0]), renner.rank(elems[0]))
    given = sorted({poset.locate(w) for w in elems})
    given_mask = sum(1 << a for a in given)
    # tops[a]: everything above the top of a linear pair with bottom a
    tops: dict[int, int] = {}
    for alpha, beta in linear_length2_pairs(renner.orbit_minimum(poset.n, poset.k),
                                            renner.orbit_maximum(poset.n, poset.k)):
        a = poset.index[alpha]
        tops[a] = tops.get(a, 0) | poset.up(poset.index[beta])
    for a in given:
        theta, up = poset.elements[a], poset.up(a)
        # sigma >= theta lies above a linear pair inside [theta, sigma]
        reach = 0
        for bottom, above in tops.items():
            if (up >> bottom) & 1:
                reach |= above
        for b in order.bits(up & given_mask):
            sigma = poset.elements[b]
            report.checked += 1
            expected = 0 if (reach >> b) & 1 else \
                (-1) ** (poset.lengths[b] - poset.lengths[a])
            actual = order.mobius_direct(theta, sigma)
            if actual != expected:
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(sigma),
                    "mobius": actual,
                    "expected": expected,
                    "interval": [renner.format_element(w)
                                 for w in order.interval_elements(theta, sigma)],
                })
    report.runtime_ms = (time.perf_counter() - start) * 1000.0
    return report


@dataclass(frozen=True)
class IntervalClassification:
    interval: IntervalPoset
    shape: str  # "linear" | "diamond" | "higher-length"
    r_constant_term: int
    mobius: int
    linear_witness: Optional[tuple[Word, Word]]


def classify_interval(theta: Word, sigma: Word) -> IntervalClassification:
    """Shape, R(0) and Mobius data of one orbit interval, with the
    three-way equivalence (mu != 0, mu = (-1)^length, all-diamond)
    re-checked on the fly."""
    poset = order.interval(theta, sigma)
    gap = renner.length(sigma) - renner.length(theta)
    elems = poset.elements
    chain = len(elems) == gap + 1 and all(
        order.leq(elems[i], elems[i + 1]) for i in range(len(elems) - 1))
    if chain:
        shape = "linear"
    elif gap == 2 and len(elems) == 4:
        shape = "diamond"
    else:
        shape = "higher-length"
    r0 = rpoly.rpoly(theta, sigma).constant_term
    mu = order.mobius_direct(theta, sigma)
    witness = find_linear_length2(theta, sigma)
    if mu != r0:
        raise RuntimeError(f"mu = {mu} but R(0) = {r0} on "
                           f"[{renner.format_element(theta)}, "
                           f"{renner.format_element(sigma)}]")
    if (mu != 0) != (witness is None):
        raise RuntimeError("linear length-2 witness inconsistent with mu")
    if mu != 0 and mu != (-1) ** gap:
        raise RuntimeError(f"nonzero mu = {mu} differs from (-1)^{gap}")
    return IntervalClassification(
        interval=poset, shape=shape, r_constant_term=r0, mobius=mu,
        linear_witness=witness)
