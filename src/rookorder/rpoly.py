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
table of a whole orbit, indexed by ``order.orbit_poset(n, k)``: column
sigma is filled from column s sigma, whose smaller length puts it
earlier in index order, with s read as indices from
``order.orbit_action``.  The sweeps read the table, so they keep one
value per comparable pair of the orbit and no memo keyed by words.

The delta identity, the inversion formula of the R-polynomials,

    sum over theta <= nu <= sigma of
        R[theta, nu] q^(l(sigma) - l(nu)) bar(R[nu, sigma]) = delta(theta, sigma),

is checked in integer arithmetic.  Both factors of a term lie in Z[q]
(q^d bar(R) with d = l(sigma) - l(nu) = deg R reverses R), so the table
packs them at q = 2^B with ``polynomials.Kronecker``, where
B = bitlen(|orbit| * L^2 + 1) + 1 and L is the largest L1 norm in the
table.  A sum has at most |orbit| terms, so each of its coefficients is
at most |orbit| * L^2 < 2^(B-1) in absolute value: a balanced base-2^B
digit.  The sums of one theta are one row of ``triple_sums`` of ints;
each int determines its polynomial, and an int equal to 0 or 1
certifies the polynomial 0 or 1 exactly.

The constant term R[theta, sigma](0) equals the Mobius function of the
interval.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Kronecker, Laurent, ONE, Q, Q_MINUS_1, ZERO
from .renner import Word

__all__ = ["rpoly", "PackedRows", "pack_rows", "triple_sums", "OrbitTable",
           "orbit_table", "delta_identity_sum", "verify_delta_identity"]


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


PackedRows = list[list[tuple[int, int]]]  # per index: its (index, packed value) entries


def pack_rows(rows: list[dict[int, Laurent]], packing: Kronecker) -> PackedRows:
    """The rows {index: value} of a sparse orbit matrix, packed."""
    return [[(j, packing.pack(p)) for j, p in row.items()] for row in rows]


def triple_sums(left: list[tuple[int, int]], rows: PackedRows) -> list[int]:
    """Row ``left`` of a product of two packed orbit matrices (square,
    one row and column per element): entry j is the sum over m of
    left[m] * rows[m][j], one multiply-add per triple (i, m, j) with
    both factors nonzero.

    Both orbit-wide identity checks, the delta identity here and
    bar o bar = id in ``verify``, are rows of such a product checked
    against the packed identity.
    """
    out = [0] * len(rows)
    for m, x in left:
        for j, y in rows[m]:
            out[j] += x * y
    return out


class OrbitTable:
    """R[theta, sigma] for every pair of the rank-k orbit of R_n, by the
    indices of ``order.orbit_poset(n, k)``.

    ``columns[b]`` maps each a <= b to R[a, b]; the other values are 0.
    The minimum (index 0) has no descent; every other column is filled
    from the column of s sigma by ``_step``.
    """

    def __init__(self, n: int, k: int):
        self.poset = poset = order.orbit_poset(n, k)
        self.columns: list[dict[int, IntPoly]] = []
        for b, sigma in enumerate(poset.elements):
            column = {b: ONE}
            if b:
                side, i = _descent(sigma)
                to, step = order.orbit_action(n, k, side)[i - 1]
                lower = self.columns[to[b]]  # R[., s sigma]
                for a in order.bits(poset.down(b) ^ (1 << b)):
                    column[a] = _step(step[a], lambda moved: lower.get(
                        to[a] if moved else a, ZERO))
            self.columns.append(column)
        self._last_delta_row: tuple[int | None, list[int]] = (None, [])

    def r(self, a: int, b: int) -> IntPoly:
        """R[elements[a], elements[b]]."""
        return self.columns[b].get(a, ZERO)

    @cached_property
    def delta(self) -> tuple[Kronecker, PackedRows, PackedRows]:
        """The packing and the two packed factors of the delta sums:
        row a of the first is {nu: R[a, nu]}, row nu of the second is
        {b: q^(l(b) - l(nu)) bar(R[nu, b])}."""
        lengths = self.poset.lengths
        rows: list[dict[int, IntPoly]] = [{} for _ in self.columns]
        reversed_rows: list[dict[int, Laurent]] = [{} for _ in self.columns]
        for b, column in enumerate(self.columns):
            for a, r in column.items():
                rows[a][b] = r
                reversed_rows[a][b] = Laurent.q_power(lengths[b] - lengths[a]) * r.bar()
        packing = Kronecker(itertools.chain(*(row.values() for row in rows),
                                            *(row.values() for row in reversed_rows)),
                            terms=len(rows))
        return packing, pack_rows(rows, packing), pack_rows(reversed_rows, packing)

    def delta_row(self, a: int) -> list[int]:
        """The packed delta sums of elements[a] against every sigma.  The
        last row asked for is kept, as the sweeps ask row by row."""
        last = self._last_delta_row
        if last[0] != a:
            _, rows, reversed_rows = self.delta
            last = self._last_delta_row = (a, triple_sums(rows[a], reversed_rows))
        return last[1]


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
    total = table.delta_row(index[theta])[index[sigma]]
    packing = table.delta[0]
    if total == 0:
        return _SUM_ZERO
    if total == packing.one:
        return _SUM_ONE
    return packing.unpack(total)


def verify_delta_identity(theta: Word, sigma: Word) -> bool:
    """
    >>> verify_delta_identity((0, 1), (2, 0))
    True
    """
    expected = _SUM_ONE if theta == sigma else _SUM_ZERO
    return delta_identity_sum(theta, sigma) == expected
