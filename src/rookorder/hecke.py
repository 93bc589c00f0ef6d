"""The generic Hecke algebra of the rook monoid and its bar involution.

Elements are finite maps {element word -> Laurent coefficient} with
support inside W e W union W for a fixed rank idempotent e (the
augmented orbit algebra).  The basis multiplication rule for a simple
reflection s is

    A_s A_sigma = A_sigma                                 if l(s sigma) = l(sigma)
                = A_{s sigma}                             if l(s sigma) = l(sigma) + 1
                = q^-1 A_{s sigma} + (1 - q^-1) A_sigma   if l(s sigma) = l(sigma) - 1

together with A_nu A_sigma = A_{nu sigma} for l(nu) = 0.  Left
multiplication by a permutation keeps the rank, so these products stay
in the orbit of sigma and never reach the lower orbits that the orbit
algebra quotients out.

The bar involution fixes integers, sends q to q^-1, and is a ring
homomorphism with bar(A_s) = A_s^-1 = q A_s - (q - 1) (Putcha's
extension of KL79 to the orbit algebra).  ``orbit_bars(n, k)`` expands
bar(A_sigma) = sum over theta of c_theta(sigma) A_theta in the A-basis
for every sigma of one orbit, column by column, by the indices of
``order.orbit_poset(n, k)``, as ``rpoly.orbit_table`` fills R, and
from the same plan (``rpoly.orbit_plan``).  Where the plan takes a left
descent s of sigma, the smallest, A_sigma = A_s A_{s sigma}, so

    bar(A_sigma) = (q A_s - (q - 1)) bar(A_{s sigma}),

and column sigma is one such step applied to the shorter, earlier
column of s sigma, with s and its steps read off the plan entry.  Every
other element, a Hecke base, has no left descent, so it is e t^-1,
whose bar is the orbit sum

    q^(-l(t)) sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}

with classical R-polynomials of the symmetric group, summed in Z[q]
(the sum r at z e y^-1) over terms (z, y, index of z e y^-1, l(z),
l(y)) listed once per orbit; at k = n that is A_id alone.  Most terms
are 0 by length alone: t lies in D(e), so it is minimal in its coset
t W(e), and z lies in W(e), so l(t z) = l(t) + l(z)
(Björner-Brenti, GTM 231, 2.4.4), and R[t z, y] = 0 unless
t z <= y, which needs l(t) + l(z) <= l(y); a term with
l(t) + l(z) > l(y) is skipped without looking up its R.  So the
oracle never reads the R recurrence of ``rpoly``: expanding
bar(A_sigma) recovers the R-polynomials (the barred column, which
``rpoly_via_bar`` decodes), and the Hecke suite compares each with the
column of R.

The table holds ints, packed by ``polynomials.Kronecker`` at q = 2^B,
and each entry is scaled by a power of q that puts it in Z[q]: column
b holds q^(l(e) - l(a)) c_a(b) at a, and the barred column b holds
q^(l(b) - l(e)) bar(c_a(b)), which must be R[a, b] (the relation
``rpoly_via_bar`` reads).  Under these scales the step, and its bar
(q^-1 A_s - (q^-1 - 1)) on the barred column, take a term x at a to

    s fixes a:   x at a                           (barred: q x at a)
    s lowers a:  q x at s a                       (barred: q x at s a)
    s raises a:  x at s a and (1 - q) x at a      (barred: x at s a and (q - 1) x at a)

so q x is ``x << B`` and no step divides by q: the barred column
scale gains a q from s sigma to sigma, which absorbs the q^-1 of the
barred step.  An element b = e t^-1 with no left descent has
l(b) = l(e) - l(t), so its scaled columns come straight from the sums r
in Z[q]: the barred column holds r itself at a, and the column
q^(l(b) - l(a)) bar(r), which packing raises on outside Z[q].  Every
step keeps the scaled entries in Z[q], so no offset is needed.
Unscaled, the entries would need an offset of up to
max(l(e) - l(min), l(max) - l(e)) powers of q, and the products in the
triple sums would carry its zero digits.

Width: both tables of an orbit are packed by its one packing
(``rpoly.orbit_packing``), at the width B of the R table, so the Hecke
suite compares their columns by dict equality; the Hecke entries must
then have L1 norms within the R bounds, checked on the bases alone.  Run
over non-negative ints with q -> 1 and subtraction -> addition, the step
above bounds the L1 norm of every entry, and a barred step has the same
bounds as its unbarred one: x_a goes to

    s fixes a: x_a,   s lowers a: x_(s a),   s raises a: 2 x_a + x_(s a)

in column b from column s b, for s the left descent of b's plan entry.
The R bound fill (``rpoly.orbit_bounds``) reads the same plan entry at
b, takes the same step, and writes it at every a in down(b).  The step
stays inside down(b): if x_a or x_(s a) is nonzero in a column inside
down(s b), then a <= s b <= b, or s a <= s b with s raising a, so
a < s a <= b, or s a <= s b with s lowering a, so a <= b by the lifting
property (Björner-Brenti, GTM 231, 2.2.7: s u <= w for u <= w and s a
left descent of w and not of u), which clause (b) of the ``lifting``
suite checks on every comparable pair of an orbit.  So R's column b is
the step of R's column s b outside down(b) too, where both are 0.  The
step is monotone, and s b comes before b in index order (u < v implies
l(u) < l(v)), so by induction every Hecke bound is at most R's once
every base entry is.  The bases are the elements whose plan entry is not
a left step, defined once as the keys of the columns that
``rpoly.orbit_bounds`` keeps, which R filled by a right descent (or, at
the minimum, by none).  ``_check_bounds`` compares the L1 norm of each
base sum with R's bound at its entry, 0 outside down(b), and the table
raises ValueError rather than pack past the width.  No base of R_1 to
R_6 exceeds it.

That bar is an involution is checked orbit by orbit in integer
arithmetic over the same table (``verify.hecke_oracle_report``), which
decodes its own certificates.  It sums the bar o bar row of one sigma of
each pair {sigma, sigma*}, sigma* = w0 sigma^-1 w0, once it has checked
that the columns and the barred columns are both equivariant under that
map (c_(a*)(b*) = c_a(b)); the row of sigma* is then that of sigma
relabelled.  On a table that fails the check every sigma is summed.
``bar_Asigma``, ``bar_element`` and ``rpoly_via_bar`` decode the table
into ``Laurent`` coefficients: they are the Laurent path, which the
tests hold the packed sums and their certificates against.
"""

from __future__ import annotations

from . import order, renner, rpoly, weyl
from .polynomials import IntPoly, Kronecker, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "mult_As_left",
    "mult_Aw_left", "orbit_bars", "bar_Asigma", "bar_element",
    "rpoly_via_bar",
]

_Q_INV = Laurent.q_power(-1)
_ONE_MINUS_Q_INV = Laurent.from_int(1) - _Q_INV


def _add_term(acc: HeckeElt, word: Word, c: Laurent) -> None:
    old = acc.get(word)
    acc[word] = c if old is None else old + c


def add_scaled(acc: HeckeElt, h: HeckeElt, c: Laurent | int = 1) -> None:
    """acc += c * h, in place."""
    if c == 1:
        for word, coeff in h.items():
            _add_term(acc, word, coeff)
    elif c:
        for word, coeff in h.items():
            _add_term(acc, word, c * coeff)


def canonical(h: HeckeElt) -> HeckeElt:
    return {word: c for word, c in h.items() if not c.is_zero()}


def mult_As_left(i: int, h: HeckeElt) -> HeckeElt:
    """Left multiplication by the basis element of the simple reflection s_i."""
    out: HeckeElt = {}
    for word, c in h.items():
        sw = renner.multiply(weyl.simple_reflection(len(word), i), word)
        diff = renner.length_step(word, i, "left")
        if diff == 0:
            _add_term(out, word, c)
        elif diff == 1:
            _add_term(out, sw, c)
        else:
            _add_term(out, sw, c * _Q_INV)
            _add_term(out, word, c * _ONE_MINUS_Q_INV)
    return canonical(out)


def mult_Aw_left(w: Word, h: HeckeElt) -> HeckeElt:
    """Left multiplication by A_w for a permutation w, via a reduced word."""
    for i in reversed(weyl.reduced_word(w)):
        h = mult_As_left(i, h)
    return h


def _orbit_sum(t: Word, terms) -> dict[int, IntPoly]:
    # the sum over the terms (z, y, a, l(z), l(y)) of R[t z, y] at a, in
    # Z[q], nonzero entries only; a term with l(t) + l(z) = l(t z) > l(y)
    # is 0 (module docstring), so its R is not looked up
    sums: dict[int, IntPoly] = {}
    lt = weyl.length(t)
    for z, y, a, lz, ly in terms:
        if lt + lz > ly:
            continue
        r = weyl.classical_rpoly(weyl.compose(t, z), y)
        if r:
            sums[a] = sums[a] + r if a in sums else r
    return {a: r for a, r in sums.items() if r}


def _bar_step(column: dict[int, int], to, step, bits: int, barred: bool) -> dict[int, int]:
    """The scaled column of (q A_s - (q - 1)) h from that of h, by the
    table of the module docstring, s acting by ``to`` and ``step``.  As
    s is an involution, the term at a is the only one to reach s a where
    s raises a, and a where s fixes a, so those entries are set once.
    Only the entry at a where s raises a sums two terms, its own and that
    of s a, in either order, so only it can cancel to 0: the second term
    to come deletes it then, and the column is returned as built."""
    out: dict[int, int] = {}
    for a, x in column.items():
        d, moved = step[a], to[a]
        if d > 0:
            out[moved] = x
            if y := out.get(a, 0) + ((x << bits) - x if barred else x - (x << bits)):
                out[a] = y
            else:
                del out[a]
        elif d < 0:
            if y := out.get(moved, 0) + (x << bits):
                out[moved] = y
            else:
                del out[moved]
        else:
            out[a] = x << bits if barred else x
    return out


def _orbit_sums(n: int, k: int) -> dict[int, dict[int, IntPoly]]:
    """The classical sums r of each Hecke base of the rank-k orbit of
    R_n, the keys of the columns of ``rpoly.orbit_bounds``, by the
    indices of ``order.orbit_poset(n, k)`` (module docstring)."""
    poset = order.orbit_poset(n, k)
    e = renner.rank_idempotent(n, k)
    gens = renner.centralizer_gens(e)
    terms = [(z, y, poset.index[renner.multiply(renner.multiply(z, e), weyl.inverse(y))],
              weyl.length(z), weyl.length(y))
             for z in sorted(weyl.parabolic_subgroup(gens, n))
             for y in weyl.coset_minima(gens, n)]
    return {b: _orbit_sum(renner.standard_form(poset.elements[b]).y, terms)
            for b in rpoly.orbit_bounds(n, k)[1]}


def _fill(n: int, k: int, bases: dict[int, dict[int, IntPoly]],
          packing: Kronecker) -> list[rpoly.Table]:
    """The scaled columns of c and of bar(c) over the rank-k orbit of
    R_n, packed by ``packing``: at a base b those of its ``_orbit_sums``
    entry ``bases[b]``, and elsewhere the left step of b's
    ``rpoly.orbit_plan`` entry applied to the columns of s b."""
    poset = order.orbit_poset(n, k)
    tables = [([], barred) for barred in (False, True)]
    for b, entry in enumerate(rpoly.orbit_plan(n, k)):
        base = bases.get(b)
        if base is None:
            to, step, _ = entry
            for rows, barred in tables:
                rows.append(_bar_step(rows[to[b]], to, step, packing.bits, barred))
            continue
        for rows, barred in tables:
            rows.append({a: packing.pack(r if barred else r.bar() * Laurent.q_power(
                poset.lengths[b] - poset.lengths[a])) for a, r in base.items()})
    return [rows for rows, _ in tables]


def _check_bounds(n: int, k: int, bases: dict[int, dict[int, IntPoly]]) -> None:
    """Raise ValueError where the L1 norm of a base sum exceeds the bound
    of R at its entry (0 outside down(b)): then, and only then, could
    some entry of the Hecke table exceed the width (module docstring)."""
    columns = rpoly.orbit_bounds(n, k)[1]
    for b, base in bases.items():
        for a, r in base.items():
            if sum(map(abs, r.coeffs)) > columns[b].get(a, 0):
                raise ValueError(f"the Hecke bounds of the rank-{k} orbit of R_{n} "
                                 f"exceed the bounds of its R table at ({a}, {b})")


@order.resident
def orbit_bars(n: int, k: int) -> tuple[rpoly.Table, rpoly.Table]:
    """The Hecke table of the rank-k orbit of R_n, packed by
    ``rpoly.orbit_packing(n, k)`` and scaled, kept while the orbit is
    resident like the R table of ``rpoly``, and by sigma like it: the
    columns and the barred columns.  Column b maps each index a of
    ``order.orbit_poset(n, k)`` to the packed q^(l(e) - l(a)) c_a(b),
    c_a(b) the coefficient of A_(elements[a]) in bar(A_(elements[b])),
    and barred column b to the packed
    q^(l(b) - l(e)) bar(c_a(b)); nonzero entries only."""
    bases = _orbit_sums(n, k)
    _check_bounds(n, k, bases)
    return tuple(_fill(n, k, bases, rpoly.orbit_packing(n, k)))


def bar_Asigma(sigma: Word) -> HeckeElt:
    """bar(A_sigma) for an element of any rank, expanded in the A-basis:
    column sigma of ``orbit_bars``, keyed by words.

    With sigma = x e t^-1 in standard form this is

        q^(-l(t)) bar(A_x) sum_{z, y} bar(R[t z, y]) A_{z e y^-1},

    the unique extension of the involution from H(W); on a permutation
    it is the bar of H(W).  For the rank-1 idempotent of R_2, W(e) is
    trivial and D(e) = {id, s}:

    >>> for word, c in sorted(bar_Asigma((1, 0)).items()):
    ...     print(renner.format_element(word), c)
    01 -1 + q^-1
    10 1
    """
    n, k = len(sigma), renner.rank(sigma)
    poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
    e = renner.idempotent_length(n, k)
    return {poset.elements[a]: unpack(x) * Laurent.q_power(poset.lengths[a] - e)
            for a, x in orbit_bars(n, k)[0][poset.locate(sigma)].items()}


def bar_element(h: HeckeElt) -> HeckeElt:
    """bar of a general element of the augmented orbit algebra."""
    out: HeckeElt = {}
    for word, c in h.items():
        add_scaled(out, bar_Asigma(word), c.bar())
    return canonical(out)


def rpoly_via_bar(sigma: Word) -> dict[Word, IntPoly]:
    """Read the R-polynomials {theta: R[theta, sigma]} off bar(A_sigma).

    bar(A_sigma) = q^(l(sigma) - l(e)) sum_theta bar(R[theta, sigma]) A_theta,
    so R[theta, sigma] is the barred coefficient scaled by
    q^(l(sigma) - l(e)): the barred column of ``orbit_bars``, decoded.
    That every such value lies in Z[q] is checked as the table is filled.
    """
    n, k = len(sigma), renner.rank(sigma)
    poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
    return {poset.elements[a]: unpack(x)
            for a, x in orbit_bars(n, k)[1][poset.locate(sigma)].items()}

