"""Descent sets, interval shapes, lifting, and conjecture verification.

The headline facts being checked at desk scale:

* every element of positive length has a left or a right descent, and
  each orbit has exactly one length-0 element with both sets empty,
  read for one orbit at a time off its action tables
  (``order.orbit_action``): the elements with a descent are those some
  s_i on either side lowers;
* a length-2 interval has 3 elements (linear) or 4 (diamond), and the
  constant term R(0) vanishes iff a linear length-2 subinterval exists,
  so intervals with R(0) = 0 cannot appear as Weyl group subintervals;
* the Mobius function of an orbit interval is (-1)^(length difference)
  when every length-2 subinterval is a diamond and 0 otherwise;
* the lifting property holds for every comparable pair and simple
  reflection of an orbit.

The last two are swept over whole orbits one bottom theta at a time,
as bitsets over the indices of ``order.orbit_poset``, with up the up
row of theta.  Putcha: with reach the elements above the top of a
linear length-2 pair inside [theta, max], the Mobius row of theta
(``order.mobius_row``) must have the three value sets

    M_0 = up & reach,
    M_(+1) = up & ~reach & (lengths of theta's parity),
    M_(-1) = up & ~reach & (the other parity),

and no other value, all masked to the elements checked.  The row does
not store M_0, the rest of up: it is right exactly when M_(+1) and
M_(-1) are and no other value occurs, so the row is compared as the
dict {+1: M_(+1), -1: M_(-1)} without its empty sets.  Lifting: for
each s, with row(x) the c with s c >= x (``IntervalPoset.rows``), the
tops sigma > theta split by their length step under s, and each
(theta, s) is three containments.  Where s raises theta, clause (a):
the raised tops lie in row(s theta), less the c with s c = s theta,
which are those with s c of its length.  Where s does not lower theta,
clause (b): the other tops lie in up(s theta) and in row(theta).  Only
a row that fails is checked again pair by pair, for the certificates.
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
    length-0 element has both descent sets empty.

    The elements must lie in one orbit.  They are located in its
    ``order.orbit_poset``, whose lengths they take, and an element has a
    descent iff some s_i on either side lowers it, which the steps of
    ``order.orbit_action`` say for every element at once.  Violations
    come in input order; only a ``descent-at-minimum`` one spells its
    descent sets out, by ``renner.descents``.
    """
    report = Report(name="nonempty-descent")
    elems = list(orbit_elements)
    report.checked = len(elems)
    zero_length = []
    if elems:
        n, k = len(elems[0]), renner.rank(elems[0])
        poset = order.orbit_poset(n, k)
        descending = 0
        for side in ("left", "right"):
            for _, step in order.orbit_action(n, k, side):
                descending |= _moved(step, _LOWERED)
        for sigma, a in zip(elems, map(poset.locate, elems)):
            if not poset.lengths[a]:
                zero_length.append(sigma)
                if descending >> a & 1:
                    report.violations.append({
                        "kind": "descent-at-minimum",
                        "element": renner.format_element(sigma),
                        "des_L": sorted(renner.descents(sigma, "left")),
                        "des_R": sorted(renner.descents(sigma, "right")),
                    })
            elif not descending >> a & 1:
                report.violations.append({
                    "kind": "no-descent",
                    "element": renner.format_element(sigma),
                    "length": poset.lengths[a],
                })
    if len(zero_length) != 1:
        report.violations.append({
            "kind": "length-zero-count",
            "elements": [renner.format_element(w) for w in zero_length],
        })
    return report


# for ``_moved``, which stores a step d as the byte d + 1: each table
# makes it the binary digit 1 where the bitset holds its a, else 0
_LOWERED = bytes.maketrans(b"\0\1\2", b"100")
_RAISED = bytes.maketrans(b"\0\1\2", b"001")


def _moved(step, which: bytes) -> int:
    """The bitset of the a with step[a] < 0 (``which`` is ``_LOWERED``)
    or step[a] > 0 (``_RAISED``), for the length steps of one
    ``order.orbit_action``.  Every step must be -1, 0 or 1, as a length
    step is; any other raises ValueError.

    >>> _moved((1, -1, 0, -1, 1), _LOWERED), _moved((1, -1, 0, -1, 1), _RAISED)
    (10, 17)
    """
    digits = bytes(d + 1 for d in reversed(step))  # element 0 last, as base 2
    return int(digits.translate(which), 2)


def linear_length2_pairs(theta: Word, sigma: Word) -> tuple[tuple[Word, Word], ...]:
    """All pairs (alpha, beta) inside [theta, sigma] whose interval is a
    linear length-2 one (3 elements in total), by (length, word) of alpha
    and then of beta."""
    poset = IntervalPoset(theta, sigma)
    return tuple((poset.elements[a], poset.elements[b])
                 for a, b in _linear_pairs(poset, poset.up, poset.down))


def _linear_pairs(poset: IntervalPoset, up, down):
    # index pairs (a, b) of the poset whose interval has 3 elements, with
    # up(a) and down(b) its rows
    for a, length in enumerate(poset.lengths):
        above = up(a)
        for b in bits(above & poset.level(length + 2)):
            if (above & down(b)).bit_count() == 3:
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


def _lifting_holds(ups, a: int, tops: int, to, step, raised: int, rows, flat) -> bool:
    # The three containments of the module docstring for theta = a, one
    # s and every sigma in ``tops``: s acts by ``to`` with length steps
    # ``step`` and raises ``raised``; rows[x] holds the c with s c >= x
    # and flat[x] those with s c of the length of x.
    s_theta = to[a]
    if step[a] > 0 and tops & raised & ~(rows[s_theta] & ~flat[s_theta]):
        return False
    return step[a] < 0 or not tops & ~raised & ~(ups[s_theta] & rows[a])


def lifting_violations(n: int, k: int) -> Report:
    """Sweep all comparable pairs and simple reflections of one orbit,
    one row per bottom and s (see the module docstring), holding the
    relabelled rows of one s at a time; the failing pairs are reported
    by theta, then sigma, then s."""
    report = Report(name="lifting")
    poset = order.orbit_poset(n, k)
    ups, lengths = poset.ups, poset.lengths
    failing = []
    for i, (to, step) in enumerate(order.orbit_action(n, k, "left"), 1):
        level = dict.fromkeys(lengths, 0)  # the c with s c of length l
        for c, t in enumerate(to):
            level[lengths[t]] |= 1 << c
        s = (to, step, _moved(step, _RAISED), poset.rows(to),
             [level[length] for length in lengths])
        for a, up in enumerate(ups):
            tops = up & ~(1 << a)
            report.checked += tops.bit_count()
            if not _lifting_holds(ups, a, tops, *s):
                failing += [(a, b, i, "a" if step[b] > 0 else "b") for b in bits(tops)
                            if not _lifting_holds(ups, a, 1 << b, *s)]
    report.violations = [{
        "theta": renner.format_element(poset.elements[a]),
        "sigma": renner.format_element(poset.elements[b]),
        "s": i, "clause": clause, "holds": False,
    } for a, b, i, clause in sorted(failing)]
    return report


def _reach(tops: list[int], covers) -> list[int]:
    """reach[a] = tops[a] OR reach[b] for each b in the bitset covers(a)
    (all b > a), in place of ``tops`` from the last a down: the Putcha
    reach, as a pair's bottom c > a lies above a cover of a.

    >>> _reach([0, 8, 16, 0, 0], [0b110, 0b1000, 0b10000, 0, 0].__getitem__)
    [24, 8, 16, 0, 0]
    """
    for a in reversed(range(len(tops))):
        for b in bits(covers(a)):
            tops[a] |= tops[b]
    return tops


def verify_putcha_conjecture(orbit_elements) -> Report:
    """Check mu = (-1)^(length difference) on intervals all of whose
    length-2 subintervals are diamonds, and mu = 0 on the rest.

    Only pairs among the given elements are checked; they must lie in
    one orbit.  mu and the linear length-2 subintervals come from the
    orbit's ``order.orbit_poset``, one row per bottom (see the module
    docstring).
    """
    report = Report(name="putcha")
    elems = list(orbit_elements)
    if not elems:
        return report
    poset = order.orbit_poset(len(elems[0]), renner.rank(elems[0]))
    given = sum(1 << a for a in {poset.locate(w) for w in elems})
    ups, downs, lengths = poset.ups, poset.downs, poset.lengths
    # tops[c]: everything above the top of a linear pair with bottom c
    tops = [0] * len(ups)
    for c, b in _linear_pairs(poset, ups.__getitem__, downs.__getitem__):
        tops[c] |= ups[b]
    reach = _reach(tops, lambda a: ups[a] & poset.level(lengths[a] + 1))
    odd = sum(1 << t for t, length in enumerate(lengths) if length % 2)
    for a in bits(given):
        up = ups[a] & given
        report.checked += up.bit_count()
        flat, same = up & ~reach[a], odd if lengths[a] % 2 else ~odd
        expected = {mu: m for mu, m in ((1, flat & same), (-1, flat & ~same)) if m}
        row = order.mobius_row(a, ups[a], downs.__getitem__)
        actual = {mu: m & given for mu, m in row.items() if m & given}
        if actual == expected:
            continue
        for b in bits(up):
            mu, want = order.mobius_at(actual, b), order.mobius_at(expected, b)
            if mu != want:
                report.violations.append({
                    "theta": renner.format_element(poset.elements[a]),
                    "sigma": renner.format_element(poset.elements[b]),
                    "mobius": mu, "expected": want,
                    "interval": [renner.format_element(poset.elements[t])
                                 for t in bits(ups[a] & downs[b])],
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
                    for a, b in _linear_pairs(poset, poset.up, poset.down)), None)
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
