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

from typing import NamedTuple, Optional

from . import order, renner, rpoly, weyl
from .order import IntervalPoset, bits
from .renner import Word
from .reports import Report

__all__ = [
    "descent_sets", "check_nonempty_descent",
    "linear_length2_pairs", "find_linear_length2",
    "lifting_violations",
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
    return report


def linear_length2_pairs(theta: Word, sigma: Word) -> tuple[tuple[Word, Word], ...]:
    """All pairs (alpha, beta) inside [theta, sigma] whose interval is a
    linear length-2 one (3 elements in total), by (length, word) of alpha
    and then of beta."""
    poset = IntervalPoset(theta, sigma)
    return tuple((poset.elements[a], poset.elements[b])
                 for a, b in _linear_pairs(poset))


def _linear_pairs(poset: IntervalPoset):
    # index pairs (a, b) of the poset whose interval has 3 elements
    for a, length in enumerate(poset.lengths):
        up = poset.up(a)
        for b in bits(up & poset.level(length + 2)):
            if (up & poset.down(b)).bit_count() == 3:
                yield a, b


def find_linear_length2(theta: Word, sigma: Word) -> Optional[tuple[Word, Word]]:
    """A linear length-2 subinterval of [theta, sigma], if one exists.

    Existence is equivalent to R[theta, sigma](0) = 0, which is what
    makes the interval impossible to embed in a Weyl group.
    """
    if not order.leq(theta, sigma):
        raise ValueError("find_linear_length2 requires theta <= sigma")
    pairs = linear_length2_pairs(theta, sigma)
    return pairs[0] if pairs else None


def _lifting_clause(below, theta, sigma, s_theta, s_sigma,
                    d_theta: int, d_sigma: int) -> tuple[str, bool]:
    # The lifting property for theta < sigma and s, given as poset
    # indices with ``below`` the order on them, and the length changes d
    # under s.  Clause (a): theta < s theta and sigma < s sigma imply
    # s theta < s sigma.  Clause (b): s theta >= theta and s sigma <=
    # sigma imply theta <= s sigma and s theta <= sigma.  Left
    # multiplication by s keeps the rank, so all four share an orbit.
    if d_theta > 0 and d_sigma > 0:
        return "a", s_theta != s_sigma and below(s_theta, s_sigma)
    if d_theta >= 0 and d_sigma <= 0:
        return "b", below(theta, s_sigma) and below(s_theta, sigma)
    return "not applicable", True


def lifting_violations(n: int, k: int) -> Report:
    """Sweep all comparable pairs and simple reflections of one orbit."""
    report = Report(name="lifting")
    poset = order.orbit_poset(n, k)
    ups = [poset.up(a) for a in range(len(poset.elements))]

    def below(a: int, b: int) -> bool:
        return (ups[a] >> b) & 1 == 1

    # per s_i: to[a] is the index of s_i elements[a], d[a] the length change
    s_action = order.orbit_action(n, k, "left")
    for a, theta in enumerate(poset.elements):
        for b in bits(ups[a] & ~(1 << a)):
            for i, (to, d) in enumerate(s_action, 1):
                report.checked += 1
                clause, holds = _lifting_clause(below, a, b, to[a], to[b], d[a], d[b])
                if not holds:
                    report.violations.append({
                        "theta": renner.format_element(theta),
                        "sigma": renner.format_element(poset.elements[b]),
                        "s": i, "clause": clause, "holds": holds,
                    })
    return report


def verify_putcha_conjecture(orbit_elements) -> Report:
    """Check mu = (-1)^(length difference) on intervals all of whose
    length-2 subintervals are diamonds, and mu = 0 on the rest.

    Only pairs among the given elements are checked; they must lie in
    one orbit.  mu and the linear length-2 subintervals come from the
    orbit's ``order.orbit_poset``.
    """
    report = Report(name="putcha")
    elems = list(orbit_elements)
    if not elems:
        return report
    poset = order.orbit_poset(len(elems[0]), renner.rank(elems[0]))
    given = sorted({poset.locate(w) for w in elems})
    given_mask = sum(1 << a for a in given)
    # tops[a]: everything above the top of a linear pair with bottom a
    tops: dict[int, int] = {}
    for a, b in _linear_pairs(poset):
        tops[a] = tops.get(a, 0) | poset.up(b)
    for a in given:
        theta, up = poset.elements[a], poset.up(a)
        # sigma >= theta lies above a linear pair inside [theta, sigma]
        reach = 0
        for bottom, above in tops.items():
            if (up >> bottom) & 1:
                reach |= above
        for b in bits(up & given_mask):
            report.checked += 1
            expected = 0 if (reach >> b) & 1 else \
                (-1) ** (poset.lengths[b] - poset.lengths[a])
            actual = poset.mobius(a, b)
            if actual != expected:
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(poset.elements[b]),
                    "mobius": actual,
                    "expected": expected,
                    "interval": [renner.format_element(poset.elements[t])
                                 for t in bits(up & poset.down(b))],
                })
    return report


class IntervalClassification(NamedTuple):
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
    size, gap = len(poset.elements), poset.lengths[-1] - poset.lengths[0]
    # length is the rank function, so the interval is a chain exactly
    # when it has one element per length
    if size == gap + 1:
        shape = "linear"
    elif gap == 2 and size == 4:
        shape = "diamond"
    else:
        shape = "higher-length"
    r0 = rpoly.rpoly(theta, sigma).constant_term
    mu = poset.mobius(0, size - 1)
    witness = next(((poset.elements[a], poset.elements[b])
                    for a, b in _linear_pairs(poset)), None)
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
