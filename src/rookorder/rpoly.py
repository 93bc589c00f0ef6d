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
that plan.  ``orbit_table(n, k)`` fills R column by column: column
sigma, {theta: R[theta, sigma]}, is pulled from the column of s sigma,
whose smaller length puts it earlier in index order, by the packed step
that ``_fill`` inlines; ``hecke`` takes the left steps of its table,
kept by sigma too, from the same plan.  The sweeps read the table, so
they keep one value per comparable pair of the orbit and no memo keyed
by words.  The plan, the table, ``orbit_bounds``,
``orbit_packing`` and ``delta_rows`` are kept while their orbit is
resident (``order.resident``).

The table holds ints, filled packed at q = 2^B with
``polynomials.Kronecker``: q x is ``x << B``, (q - 1) x + q y is
``(y << B) + (2^B - 1) * x``; every R lies in Z[q], so packing needs no
offset and no step divides by q.  The reversed polynomials

    R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma]),

also in Z[q], have one reader, the delta product: ``delta_rows`` fills
R' alone, by the barred steps R'[s theta, s sigma], R'[theta, s sigma],
and (1 - q) R'[theta, s sigma] + q R'[s theta, s sigma], reads the
orbit's one R table, which the Hecke report and every decoder read too,
and drops R' once its sums are formed.

B is fixed before the fill, from bounds and never from values.  The
same fill run over non-negative ints with q -> 1 and subtraction ->
addition, so that |(q - 1) x + q y| <= 2|x| + |y|, bounds the L1 norm
of every entry.  The barred steps have the same bounds, so one bound
table serves R and R'.  With L the largest bound (``orbit_bounds``),
B = bitlen(|orbit| * L^2 + 1) + 1, and every packed table of the orbit,
and every decoding, uses the orbit's one packing (``orbit_packing``).
Of the bound table only L and the columns of the Hecke bases are kept
(``orbit_bounds``): the elements whose plan entry is not a left step,
filled by a right descent or, at the minimum, by none.  ``hecke`` reads
its bases off these columns and holds its base sums to them.

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

Both delta consumers read one product, ``delta_rows(n, k)``: the columns
of ``product_rows``, a failing one as its nonzero sums {theta: sum},
kept while the orbit is resident.  The ``verify`` sweep walks it,
``verify_delta_identity`` answers one pair off it and
``delta_identity_sum`` decodes one entry of it.

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

    The delta identity here is every row of such a product checked
    against the packed identity.  bar o bar = id is checked on the rows
    of the Hecke bases alone (``hecke.certify``), and on every
    row only where that local certificate fails (``verify``).
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


def _fill(n: int, k: int, packing: Kronecker | None = None, barred: bool = False) -> Table:
    """One table over the rank-k orbit of R_n, as columns by the indices
    of ``order.orbit_poset(n, k)``: R packed by ``packing``, or with
    ``barred`` R'; without a packing, the L1 bounds of their entries
    (q -> 1, subtraction -> addition), which R and R' share entry for
    entry.  Column b holds every a <= b; the minimum (index 0) has no
    descent, and every other column is pulled over down(b) from the
    column of s b, for the s of b's ``orbit_plan`` entry, by the step of
    the recurrence, or for R' by its barred step, packed."""
    plan, downs = orbit_plan(n, k), order.orbit_poset(n, k).downs
    bits = packing.bits if packing else 0
    # where s raises theta the factor c of x in the step q y + c x (q - 1
    # for R, 1 - q for R'; both bound to 2), and where s fixes theta the
    # shift of x (q x for R, x for R')
    c, fixed = ((2, 0) if not packing else (1 - (1 << bits), 0) if barred
                else ((1 << bits) - 1, bits))
    columns = [{0: 1}]
    for b in range(1, len(plan)):
        to, step, _ = plan[b]
        get = columns[to[b]].get  # the column of s sigma
        column = {a: get(to[a], 0) if (d := step[a]) < 0 else get(a, 0) << fixed
                  if d == 0 else (get(to[a], 0) << bits) + c * get(a, 0)
                  for a in order.bits(downs[b] ^ (1 << b))}
        column[b] = 1
        columns.append(column)
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
    dropped once the sums are formed; R is the orbit's ``orbit_table``."""
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
