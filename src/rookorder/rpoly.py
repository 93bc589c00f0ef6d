"""R-polynomials of orbit intervals in the rook monoid.

For a left descent s of sigma (an s with l(s sigma) < l(sigma)):

    R[theta, sigma] = R[s theta, s sigma]                      if s theta < theta
                    = q R[theta, s sigma]                      if s theta = theta
                    = (q-1) R[theta, s sigma] + q R[s theta, s sigma]
                                                               if s theta > theta

and the same rules with theta s, sigma s for a right descent s; every
element of positive length has a descent on at least one side.  One
step, ``_step``, serves both sides, with the change of length under s
from ``renner.length_step``.
Base cases: R[theta, theta] = 1 and R[theta, sigma] = 0 when theta is
not below sigma.  The result does not depend on the descent chosen; the
deterministic policy here, ``_descent`` (smallest-index left descent,
else smallest right, so right descents are computed only when there is
no left one), exists so that memoization is sound, and the tests check
left/right confluence explicitly.

The step and the policy have two callers.  ``rpoly`` recurses on words
with a memo, for single queries.  ``orbit_table(n, k)`` fills the R
table of a whole orbit, indexed by ``order.orbit_poset(n, k)``: the
entries R[., sigma] come from those at s sigma, whose smaller length
puts it earlier in index order, with s read as indices from
``order.orbit_action``.  The sweeps read the table, so they keep one
value per comparable pair of the orbit and no memo keyed by words.

The table holds ints, filled packed at q = 2^B with
``polynomials.Kronecker``: q x is ``x << B``, (q - 1) x + q y is
``((x + y) << B) - x``; every R lies in Z[q], so packing needs no
offset and no step divides by q.  Beside R it fills the reversed
polynomials

    R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma]),

also in Z[q], by the barred steps: R'[s theta, s sigma],
R'[theta, s sigma], and (1 - q) R'[theta, s sigma] + q R'[s theta, s sigma].

B is fixed before the fill, from bounds and never from values.  The
same fill run over non-negative ints with q -> 1 and subtraction ->
addition, so that |(q - 1) x + q y| <= 2|x| + |y| (and likewise for the
barred step), bounds the L1 norm of every entry of both tables.  With L
the largest bound (``orbit_norm``), B = bitlen(|orbit| * L^2 + 1) + 1.

The delta identity, the inversion formula of the R-polynomials,

    sum over theta <= nu <= sigma of R[theta, nu] R'[nu, sigma] = delta(theta, sigma),

is one row of ``triple_sums`` per theta over the two tables.  A sum has
at most |orbit| terms, so each of its coefficients is at most
|orbit| * L^2 < 2^(B-1) in absolute value: a balanced base-2^B digit.
So each int determines its polynomial, and an int equal to 0 or 1
certifies the polynomial 0 or 1 exactly.  Entries and sums are decoded
only on read (``OrbitTable.r``) and for a failing sum.

The constant term R[theta, sigma](0) equals the Mobius function of the
interval.
"""

from __future__ import annotations

from functools import lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Kronecker, Laurent, ONE, Q, Q_MINUS_1, ZERO
from .renner import Word

__all__ = ["rpoly", "triple_sums", "OrbitTable", "orbit_norm", "orbit_table",
           "delta_identity_sum", "verify_delta_identity"]

Rows = list[dict[int, int]]  # per index a: {index b: packed value at (a, b)}


def _descent(sigma: Word) -> tuple[str, int]:
    """The descent the recurrence takes at sigma of positive length."""
    side, ds = "left", renner.descents(sigma, "left")
    if not ds:
        side, ds = "right", renner.descents(sigma, "right")
    return side, min(ds)


def _step(diff: int, r) -> IntPoly:
    """R[theta, sigma] from a descent s of sigma, with diff the change of
    l(theta) under s and r(moved) = R[s theta, s sigma] if moved else
    R[theta, s sigma]."""
    if diff < 0:
        return r(True)
    if diff == 0:
        return Q * r(False)
    return Q_MINUS_1 * r(False) + Q * r(True)


@lru_cache(maxsize=None)
def rpoly(theta: Word, sigma: Word) -> IntPoly:
    """The R-polynomial of a same-orbit pair.

    >>> print(rpoly((0, 0, 0, 1), (0, 0, 0, 3)))
    q^2 - q
    >>> print(rpoly((0, 0, 1, 2), (0, 0, 2, 3)))
    q^2 - 2q + 1
    """
    n, _ = order.require_same_orbit(theta, sigma)
    if theta == sigma:
        return ONE
    if not order.leq(theta, sigma):
        return ZERO
    # theta < sigma forces l(sigma) > 0, so a descent exists on some side.
    side, i = _descent(sigma)
    s = weyl.simple_reflection(n, i)
    if side == "left":
        s_theta, s_sigma = renner.multiply(s, theta), renner.multiply(s, sigma)
    else:
        s_theta, s_sigma = renner.multiply(theta, s), renner.multiply(sigma, s)
    return _step(renner.length_step(theta, i, side),
                 lambda moved: rpoly(s_theta if moved else theta, s_sigma))


def triple_sums(left: dict[int, int], rows: Rows) -> list[int]:
    """Row ``left`` of a product of two packed orbit matrices (square,
    one row and column per element): entry j is the sum over m of
    left[m] * rows[m][j], one multiply-add per triple (i, m, j) with
    both factors nonzero.

    Both orbit-wide identity checks, the delta identity here and
    bar o bar = id in ``verify``, are rows of such a product checked
    against the packed identity.
    """
    out = [0] * len(rows)
    for m, x in left.items():
        for j, y in rows[m].items():
            out[j] += x * y
    return out


def _fill(n: int, k: int, packing: Kronecker | None = None) -> tuple[Rows, Rows]:
    """The rows of R and of R' over the rank-k orbit of R_n, by the
    indices of ``order.orbit_poset(n, k)``, packed by ``packing``;
    without one, the L1 bounds of their entries (q -> 1, subtraction ->
    addition).  Row a holds every b >= a; the minimum (index 0) has no
    descent, and every other b is filled from s b by the step of
    ``_step``, packed.
    """
    poset = order.orbit_poset(n, k)
    bits, sign = (packing.bits, -1) if packing else (0, 1)
    rows: Rows = [{b: 1} for b in range(len(poset.elements))]
    reversed_rows: Rows = [{b: 1} for b in range(len(poset.elements))]
    for b, sigma in enumerate(poset.elements[1:], 1):
        side, i = _descent(sigma)
        to, step = order.orbit_action(n, k, side)[i - 1]
        lower = to[b]  # s sigma
        for a in order.bits(poset.down(b) ^ (1 << b)):
            row, rev, moved = rows[a], reversed_rows[a], to[a]
            if step[a] < 0:
                row[b] = rows[moved].get(lower, 0)
                rev[b] = reversed_rows[moved].get(lower, 0)
            elif step[a] == 0:
                row[b] = row.get(lower, 0) << bits
                rev[b] = rev.get(lower, 0)
            else:
                x, y = row.get(lower, 0), rows[moved].get(lower, 0)
                row[b] = ((x + y) << bits) + sign * x
                x, y = rev.get(lower, 0), reversed_rows[moved].get(lower, 0)
                rev[b] = x + ((y + sign * x) << bits)
    return rows, reversed_rows


@lru_cache(maxsize=None)
def orbit_norm(n: int, k: int) -> int:
    """The largest L1 bound of the R fill of the rank-k orbit of R_n: it
    fixes the one width of every packed table of the orbit, the R table
    here and the Hecke table of ``hecke.orbit_bars``."""
    bounds, _ = _fill(n, k)
    return max(max(row.values()) for row in bounds)


class OrbitTable:
    """R[theta, sigma] for every pair of the rank-k orbit of R_n, by the
    indices of ``order.orbit_poset(n, k)``, packed.

    ``rows[a]`` maps each b >= a to the packed R[a, b] and
    ``reversed_rows[a]`` to the packed R'[a, b]; the other values are 0.
    """

    def __init__(self, n: int, k: int):
        self.poset = order.orbit_poset(n, k)
        self.packing = Kronecker(orbit_norm(n, k), terms=len(self.poset.elements))
        self.rows, self.reversed_rows = _fill(n, k, self.packing)
        self._last_delta_row: tuple[int | None, list[int]] = (None, [])

    def r(self, a: int, b: int) -> IntPoly:
        """R[elements[a], elements[b]], decoded."""
        return self.packing.unpack(self.rows[a].get(b, 0))

    def delta_row(self, a: int) -> list[int]:
        """The packed delta sums of elements[a] against every sigma."""
        return triple_sums(self.rows[a], self.reversed_rows)


@lru_cache(maxsize=None)
def orbit_table(n: int, k: int) -> OrbitTable:
    """The R table of the rank-k orbit of R_n, shared by the sweeps."""
    return OrbitTable(n, k)


_SUM_ZERO, _SUM_ONE = Laurent(0, ()), Laurent.from_int(1)  # the expected sums


def delta_identity_sum(theta: Word, sigma: Word) -> Laurent:
    """sum over theta <= nu <= sigma of R[theta,nu] q^(l(sigma)-l(nu)) bar(R[nu,sigma]).

    The sum telescopes to 1 when theta = sigma and to 0 otherwise.  It
    is summed packed over the orbit's R table and decoded only when it
    is neither.
    """
    table = orbit_table(*order.require_same_orbit(theta, sigma))
    index = table.poset.index
    a = index[theta]
    if table._last_delta_row[0] != a:  # a per-pair loop asks row by row
        table._last_delta_row = (a, table.delta_row(a))
    total = table._last_delta_row[1][index[sigma]]
    if total == 0:
        return _SUM_ZERO
    if total == 1:
        return _SUM_ONE
    return table.packing.unpack(total)


def verify_delta_identity(theta: Word, sigma: Word) -> bool:
    """
    >>> verify_delta_identity((0, 1), (2, 0))
    True
    """
    expected = _SUM_ONE if theta == sigma else _SUM_ZERO
    return delta_identity_sum(theta, sigma) == expected
