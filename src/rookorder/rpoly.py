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
``(y << B) + (2^B - 1) * x``; every R lies in Z[q], so packing needs no
offset and no step divides by q.  In the same pass it fills the
reversed polynomials

    R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma]),

also in Z[q], by the barred steps: R'[s theta, s sigma],
R'[theta, s sigma], and (1 - q) R'[theta, s sigma] + q R'[s theta, s sigma].

B is fixed before the fill, from bounds and never from values.  The
same fill run over non-negative ints with q -> 1 and subtraction ->
addition, so that |(q - 1) x + q y| <= 2|x| + |y|, bounds the L1 norm
of every entry.  The barred steps have the same bounds, so one bound
table serves both tables.  With L the largest bound (``orbit_norm``),
B = bitlen(|orbit| * L^2 + 1) + 1.

The delta identity, the inversion formula of the R-polynomials,

    sum over theta <= nu <= sigma of R[theta, nu] R'[nu, sigma] = delta(theta, sigma),

is one row of ``triple_sums`` per theta over the two tables.  A sum has
at most |orbit| terms, so each of its coefficients is at most
|orbit| * L^2 < 2^(B-1) in absolute value: a balanced base-2^B digit.
So each int determines its polynomial, and an int equal to 0 or 1
certifies the polynomial 0 or 1 exactly.  Entries and sums are decoded
only on read (``OrbitTable.r``) and for a failing sum.

The per-pair callers, ``verify_delta_identity`` and
``delta_identity_sum``, read one row that the orbit's table keeps: that
of the last theta asked for, as {sigma word: packed sum}.  A pair of the
same theta costs the table lookup, one tuple compare and one dict
lookup; a sigma outside the row is refused by the orbit's index.

The constant term R[theta, sigma](0) equals the Mobius function of the
interval.
"""

from __future__ import annotations

from functools import lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Kronecker, ONE, Q, Q_MINUS_1, ZERO
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


def _fill(n: int, k: int, packing: Kronecker | None = None) -> list[Rows]:
    """The rows of R and of R' over the rank-k orbit of R_n, by the
    indices of ``order.orbit_poset(n, k)``, packed by ``packing``;
    without one, one table of the L1 bounds of their entries (q -> 1,
    subtraction -> addition), which R and R' share entry for entry.  Row
    a holds every b >= a; the minimum (index 0) has no descent, and every
    other b is filled from s b by the step of ``_step``, or for R' by its
    barred step, packed.
    """
    poset = order.orbit_poset(n, k)
    bits = packing.bits if packing else 0
    # per table, where s raises theta the factor c of x in the step
    # q y + c x (q - 1 for R, 1 - q for R'; both bound to 2), and where s
    # fixes theta the shift of x (q x for R, x for R')
    kinds = (((1 << bits) - 1, bits), (1 - (1 << bits), 0)) if packing else ((2, 0),)
    tables = [([{b: 1} for b in range(len(poset.elements))], c, fixed)
              for c, fixed in kinds]
    for b, sigma in enumerate(poset.elements[1:], 1):
        side, i = _descent(sigma)
        to, step = order.orbit_action(n, k, side)[i - 1]
        lower = to[b]  # s sigma
        for a in order.bits(poset.down(b) ^ (1 << b)):
            moved, d = to[a], step[a]
            for rows, c, fixed in tables:
                row = rows[a]
                if d < 0:
                    row[b] = rows[moved].get(lower, 0)
                elif d == 0:
                    row[b] = row.get(lower, 0) << fixed
                else:
                    row[b] = (rows[moved].get(lower, 0) << bits) + c * row.get(lower, 0)
    return [rows for rows, _, _ in tables]


@lru_cache(maxsize=None)
def orbit_norm(n: int, k: int) -> int:
    """The largest L1 bound of the R fill of the rank-k orbit of R_n: it
    fixes the one width of every packed table of the orbit, the R table
    here and the Hecke table of ``hecke.orbit_bars``."""
    return max(max(row.values()) for row in _fill(n, k)[0])


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
        # the delta row of the last theta asked for, by words
        self._delta_by_word: tuple[Word | None, dict[Word, int]] = (None, {})

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


def _packed_delta_sum(theta: Word, sigma: Word) -> tuple[OrbitTable, int]:
    # The orbit's R table and the packed delta sum of the pair, off the
    # one row the table keeps (see the module docstring).
    table = orbit_table(len(theta), renner.rank(theta))
    last, row = table._delta_by_word
    if last != theta:
        row = dict(zip(table.poset.elements,
                       table.delta_row(table.poset.locate(theta))))
        table._delta_by_word = theta, row
    total = row.get(sigma)
    if total is None:
        table.poset.locate(sigma)
    return table, total


def delta_identity_sum(theta: Word, sigma: Word) -> IntPoly:
    """sum over theta <= nu <= sigma of R[theta,nu] q^(l(sigma)-l(nu)) bar(R[nu,sigma]).

    The sum telescopes to 1 when theta = sigma and to 0 otherwise.  It
    is summed packed over the orbit's R table and decoded.
    """
    table, total = _packed_delta_sum(theta, sigma)
    return table.packing.unpack(total)


def verify_delta_identity(theta: Word, sigma: Word) -> bool:
    """Whether the packed delta sum is the int 1 (theta = sigma) or 0
    (otherwise); the packing makes that exact, so nothing is decoded.

    >>> verify_delta_identity((0, 1), (2, 0))
    True
    """
    return _packed_delta_sum(theta, sigma)[1] == int(theta == sigma)
