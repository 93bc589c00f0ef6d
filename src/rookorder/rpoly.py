"""R-polynomials of orbit intervals in the rook monoid.

For a left descent s of sigma (an s with l(s sigma) < l(sigma)):

    R[theta, sigma] = R[s theta, s sigma]                      if s theta < theta
                    = q R[theta, s sigma]                      if s theta = theta
                    = (q-1) R[theta, s sigma] + q R[s theta, s sigma]
                                                               if s theta > theta

and the same rules with theta s, sigma s for a right descent s; every
element of positive length has a descent on at least one side.
Base cases: R[theta, theta] = 1 and R[theta, sigma] = 0 when theta is
not below sigma.  The result does not depend on the descent chosen; the
deterministic policy here, ``_descent`` (smallest-index left descent,
else smallest right, read off the length steps of sigma), exists so
that memoization is sound, and the tests check left/right confluence
explicitly.

The policy has two callers.  ``rpoly`` recurses on words with a memo,
for single queries, with the change of length under s from
``renner.length_step``.  ``orbit_plan(n, k)`` takes it once per element
of a whole orbit, indexed by ``order.orbit_poset(n, k)``, off
``order.orbit_action``, and every fill of the orbit reads its steps off
that plan: ``orbit_table(n, k)`` fills R column by column, column
sigma, {theta: R[theta, sigma]}, from the column of s sigma, earlier in
index order, and ``hecke`` fills its table, kept by sigma too, by the
plan's left steps.  The sweeps read the table, so they keep one value
per comparable pair of the orbit and no memo keyed by words.  The plan,
the table, ``orbit_bounds``, ``orbit_packing`` and ``delta_rows`` are
kept while their orbit is resident (``order.resident``).

The table holds ints, packed at q = 2^B with ``polynomials.Kronecker``;
every R lies in Z[q], so packing needs no offset.  So do the reversed

    R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma]),

with the barred recurrence: R'[s theta, s sigma], R'[theta, s sigma],
and (1 - q) R'[theta, s sigma] + q R'[s theta, s sigma].  R' is filled
alone, and dropped, by the delta report, which certifies R' and R
locally (``hecke.certify``, ``verify``) and sums their product only
where that fails, and by the per-pair product ``delta_rows``.

The step.  Every orbit table, the Hecke table too, is filled by one
step, ``_step``, of three kinds, named by the R table each builds; the
Hecke columns are R' and its barred columns R, as ``hecke`` scales
them.  It pushes the column of s b to that of b, s the left or right
descent of b's plan entry: a term x at a goes to

    kind     s fixes a    s lowers a    s raises a
    R        q x at a     q x at s a    x at s a and (q - 1) x at a
    R'       x at a       q x at s a    x at s a and (1 - q) x at a
    bounds   x at a       x at s a      x at s a and 2 x at a

the recurrences above, read from the term; q x is ``x << B``, so no
step divides by q.  B is fixed before the fill, from bounds and never
from values: the bounds kind is the R and R' kinds at B = 0 with
subtraction -> addition, as |(q - 1) x + q y| <= 2|x| + |y|, so it
bounds the L1 norm of every entry of both, and it is monotone.

The step stays inside down(b).  A term at a <= s b < b lands at a or
at s a: s a < a where s lowers a, and s a <= b where s raises a, by
the lifting property (Björner-Brenti, GTM 231,
2.2.7: s u <= w for u <= w and s a descent of w), which clause (b) of
the ``lifting`` suite checks on every comparable pair of an orbit.  R
is nonzero on down(b), and no step of any fill cancels (the tests
count every step of R_1 to R_5), so each column's keys are down(b) with
no walk of it; and R's column b is the step of its column s b outside
down(b) too, where both are 0.

With L the largest bound (``orbit_bounds``),
B = bitlen(|orbit| * L^2 + 1) + 1, and every packed table of the orbit,
and every decoding, uses the orbit's one packing (``orbit_packing``).
Of the bound table only L and the columns of the Hecke bases are kept
(``orbit_bounds``): the elements whose plan entry is not a left step.
``hecke`` reads its bases off these columns and holds its base sums to
them.

The delta identity, the inversion formula of the R-polynomials,

    sum over theta <= nu <= sigma of R[theta, nu] R'[nu, sigma] = delta(theta, sigma),

is one column of sums per sigma: ``triple_sums`` of column sigma of R'
against the columns of R.  The orbit check reads these columns from
``product_rows``, which sums one sigma of each pair {sigma, sigma*},
sigma* = w0 sigma^-1 w0, once it has checked that both tables are
equivariant under that map (R[a*, b*] = R[a, b], and the same for R');
``verify`` gives the argument.  A sum has at most |orbit| terms, so
each of its coefficients is at most |orbit| * L^2 < 2^(B-1) in absolute
value: a balanced base-2^B digit.  So each int determines its
polynomial, and an int equal to 0 or 1 certifies the polynomial 0 or 1
exactly.  An entry R[a, b] is decoded
as ``orbit_packing(n, k).unpack(orbit_table(n, k)[b].get(a, 0))``, and
a sum only where it fails.

The per-pair delta product, ``delta_rows(n, k)``, is the columns of
``product_rows``, a failing one as its nonzero sums {theta: sum}, kept
while the orbit is resident.  ``verify_delta_identity`` answers one pair
off it and ``delta_identity_sum`` decodes one entry of it.

The constant term R[theta, sigma](0) equals the Mobius function of the
interval.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Kronecker, ONE, Q, Q_MINUS_1, ZERO
from .renner import Word

__all__ = ["rpoly", "triple_sums", "product_rows", "orbit_plan", "orbit_bounds",
           "orbit_packing", "orbit_table", "delta_rows", "delta_identity_sum",
           "verify_delta_identity"]

Table = list[dict[int, int]]  # per index of the orbit: {index: packed value}


def _descent(steps) -> tuple[str, int]:
    """The descent the recurrence takes at an element of positive
    length, from steps(side), its length steps under s_1, s_2, ... on
    that side; the right ones are read only if no left one is < 0."""
    for side in ("left", "right"):
        for i, d in enumerate(steps(side), 1):
            if d < 0:
                return side, i
    raise ValueError("an element of length 0 has no descent")


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
    side, i = _descent(lambda side: (renner.length_step(sigma, i, side)
                                     for i in range(1, n)))
    s = weyl.simple_reflection(n, i)
    if side == "left":
        s_theta, s_sigma = renner.multiply(s, theta), renner.multiply(s, sigma)
    else:
        s_theta, s_sigma = renner.multiply(theta, s), renner.multiply(sigma, s)
    diff = renner.length_step(theta, i, side)  # of l(theta) under s
    if diff < 0:
        return rpoly(s_theta, s_sigma)
    if diff == 0:
        return Q * rpoly(theta, s_sigma)
    return Q_MINUS_1 * rpoly(theta, s_sigma) + Q * rpoly(s_theta, s_sigma)


def triple_sums(left: dict[int, int], rows: Table) -> list[int]:
    """Row ``left`` of a product of two packed orbit matrices (square,
    one row and column per element): entry j is the sum over m of
    left[m] * rows[m][j], one multiply-add per triple (i, m, j) with
    both factors nonzero.

    The delta identity and bar o bar = id are each such a product,
    checked against the packed identity on the rows of the Hecke bases
    alone (``hecke.certify``), and on every row only where that local
    certificate fails (``verify``).
    """
    out = [0] * len(rows)
    for m, x in left.items():
        for j, y in rows[m].items():
            out[j] += x * y
    return out


def _equivariant(rows: Table, star) -> bool:
    # whether rows[star[a]] is row a relabelled by star, for every a, star
    # an involution: at a = star[b] it follows from b, by relabelling both
    # sides.  One relabelled row is held at a time.
    return all({star[b]: x for b, x in row.items()} == rows[star[a]]
               for a, row in enumerate(rows) if star[a] >= a)


def product_rows(left: Table, right: Table, star) -> Iterator[dict[int, int] | None]:
    """Row b of the product of two packed orbit matrices, for every b in
    index order: the nonzero entries {j: sum} of
    ``triple_sums(left[b], right)``, or None where that row is the
    packed identity (1 at b, 0 elsewhere).

    ``star`` is an index permutation (``order.orbit_star``).  If star o
    star = id and both matrices are equivariant under it, T[star a][star
    b] = T[a][b] on every entry, checked before any sum, the sum of b is
    skipped (b reads as the identity) when star(b) < b and the row of
    star(b) was the identity; otherwise every b is summed.  ``verify``
    gives the argument.
    """
    size = len(left)
    if not (all(star[star[a]] == a for a in range(size))
            and _equivariant(left, star) and _equivariant(right, star)):
        star = range(size)
    identity = bytearray(size)
    for b, row in enumerate(left):
        if star[b] < b and identity[star[b]]:
            yield None
            continue
        out = triple_sums(row, right)
        if out[b] == 1 and out.count(0) == size - 1:
            identity[b] = 1
            yield None
        else:
            yield {j: x for j, x in enumerate(out) if x}


@order.resident
def orbit_plan(n: int, k: int) -> tuple[tuple | None, ...]:
    """The descent the recurrence takes at each element of the rank-k
    orbit of R_n, by the indices of ``order.orbit_poset(n, k)``: the
    action (to, step) of its s in ``order.orbit_action``, and whether s
    acts on the left; None at the minimum (index 0), which has none.
    ``_descent`` runs here once per element, and every fill of the
    orbit reads its steps off this plan."""
    actions = {side: order.orbit_action(n, k, side) for side in ("left", "right")}
    plan = [None]
    for b in range(1, len(order.orbit_poset(n, k).elements)):
        side, i = _descent(lambda side: (step[b] for _, step in actions[side]))
        plan.append((*actions[side][i - 1], side == "left"))
    return tuple(plan)


def _step(column: dict[int, int], to, step, bits: int, kind: str) -> dict[int, int]:
    """The column of b from that of s b, s acting by ``to`` and ``step``:
    the step of ``kind`` "R", "R'" or "bounds" (with ``bits`` 0) of the
    module docstring.  Only the entry at a where s raises a sums two
    terms, its own and that of s a, so only it can cancel to 0; the
    second term to come deletes it then.  A stored 0, which only a
    faulted table holds, deletes nothing."""
    raised, fixed = {"R": ((1 << bits) - 1, bits), "R'": (1 - (1 << bits), 0),
                     "bounds": (2, 0)}[kind]
    out: dict[int, int] = {}
    for a, x in column.items():
        d, moved = step[a], to[a]
        if d > 0:
            out[moved] = x
            if y := out.get(a, 0) + raised * x:
                out[a] = y
            else:
                out.pop(a, None)
        elif d < 0:
            if y := out.get(moved, 0) + (x << bits):
                out[moved] = y
            else:
                out.pop(moved, None)
        else:
            out[a] = x << fixed
    return out


def _fill(n: int, k: int, packing: Kronecker | None = None, barred: bool = False) -> Table:
    """One table over the rank-k orbit of R_n, as columns by the indices
    of ``order.orbit_poset(n, k)``: R packed by ``packing``, or with
    ``barred`` R'; without a packing, the L1 bounds of their entries.
    Column b holds every a <= b; the minimum (index 0) has no descent,
    and every other column is the ``_step`` of that kind, for b's
    ``orbit_plan`` entry, of the column of s b."""
    kind = "bounds" if packing is None else "R'" if barred else "R"
    bits, columns = packing.bits if packing else 0, [{0: 1}]
    for b, (to, step, _) in enumerate(orbit_plan(n, k)[1:], 1):
        columns.append(_step(columns[to[b]], to, step, bits, kind))
    return columns


@order.resident
def orbit_bounds(n: int, k: int) -> tuple[int, dict[int, dict[int, int]]]:
    """What is kept of the bound table of the R fill of the rank-k orbit
    of R_n: its largest bound L, which fixes the width, and its columns
    {b: {a: bound of R[a, b] for a in down(b)}} at the Hecke bases, the
    elements whose ``orbit_plan`` entry is not a left step.  ``hecke``
    reads its bases off these keys."""
    bounds = _fill(n, k)
    return max(map(max, map(dict.values, bounds))), {
        b: bounds[b] for b, entry in enumerate(orbit_plan(n, k)) if not (entry and entry[2])}


@order.resident
def orbit_packing(n: int, k: int) -> Kronecker:
    """The one packing of the rank-k orbit of R_n: every table of the
    orbit, the R tables here and the Hecke table of ``hecke.orbit_bars``,
    is packed by it and decoded by it, at the width that the largest
    bound of ``orbit_bounds`` fixes; no table is filled for it."""
    return Kronecker(orbit_bounds(n, k)[0], terms=len(order.orbit_poset(n, k).elements))


@order.resident
def orbit_table(n: int, k: int) -> Table:
    """The R table of the rank-k orbit of R_n, shared by the sweeps: column
    b, by the indices of ``order.orbit_poset(n, k)``, maps each a <= b to
    R[a, b] packed by ``orbit_packing(n, k)``; the other values are 0."""
    return _fill(n, k, orbit_packing(n, k))


@order.resident
def delta_rows(n: int, k: int) -> list[dict[int, int] | None]:
    """The delta sums of the rank-k orbit of R_n, by the indices of
    ``order.orbit_poset(n, k)``: entry b is the nonzero packed sums
    {theta: sum} of column b of R R', or None where that column is the
    identity's, as ``product_rows`` gives them over the columns of R' and
    of R, the rows of R'^T and R^T.  R' is filled here, alone, and
    dropped once the sums are formed; R is the orbit's ``orbit_table``.
    Only the per-pair reader reads it."""
    return list(product_rows(_fill(n, k, orbit_packing(n, k), barred=True),
                             orbit_table(n, k), order.orbit_star(n, k)))


def delta_identity_sum(theta: Word, sigma: Word) -> IntPoly:
    """sum over theta <= nu <= sigma of R[theta,nu] q^(l(sigma)-l(nu)) bar(R[nu,sigma]).

    The sum telescopes to 1 when theta = sigma and to 0 otherwise.  It
    is read off ``delta_rows`` and decoded.
    """
    n, k = order.require_same_orbit(theta, sigma)
    poset = order.orbit_poset(n, k)
    a, column = poset.locate(theta), delta_rows(n, k)[poset.locate(sigma)]
    return orbit_packing(n, k).unpack(int(theta == sigma) if column is None
                                      else column.get(a, 0))


def verify_delta_identity(theta: Word, sigma: Word) -> bool:
    """Whether the packed delta sum is the int 1 (theta = sigma) or 0
    (otherwise); the packing makes that exact, so nothing is decoded.
    It reads column sigma of ``delta_rows`` at theta.

    Its entry in ``order.kept``, under this function, is the last theta,
    its index, the orbit's index and the product; theta names its orbit.
    A pair of the last theta costs one dict lookup, one identity test of
    theta (a tuple compare when an equal theta comes as another tuple),
    one index lookup of sigma and one column read.  ``order.orbit_poset``
    empties ``order.kept`` when it drops the orbit; with no entry for
    theta, the orbit is looked up again.  A sigma outside it is refused
    by ``IntervalPoset.locate`` (ValueError).

    >>> verify_delta_identity((0, 1), (2, 0))
    True
    """
    last, a, index, columns = order.kept.get(verify_delta_identity, (None, None, None, None))
    if not (last is theta or last == theta):
        n, k = len(theta), len(theta) - theta.count(0)
        poset = order.orbit_poset(n, k)
        a, index, columns = poset.locate(theta), poset.index, delta_rows(n, k)
        order.kept[verify_delta_identity] = theta, a, index, columns
    b = index.get(sigma)
    if b is None:
        order.orbit_poset(len(theta), len(theta) - theta.count(0)).locate(sigma)
    return columns[b] is None or columns[b].get(a, 0) == (a == b)
