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
for every sigma of one orbit, by the indices of
``order.orbit_poset(n, k)``, as ``rpoly.OrbitTable`` fills R.  For the
smallest left descent s of sigma, A_sigma = A_s A_{s sigma}, so

    bar(A_sigma) = (q A_s - (q - 1)) bar(A_{s sigma}),

and row sigma is one such step applied to the shorter, earlier row of
s sigma, with s acting on indices through ``order.orbit_action``.  An
element with no left descent is e t^-1, whose bar is the orbit sum

    q^(-l(t)) sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}

with classical R-polynomials of the symmetric group; at k = n that is
A_id alone.  So the oracle never reads the R recurrence of ``rpoly``:
expanding bar(A_sigma) recovers the R-polynomials (``rpoly_via_bar``),
which the Hecke suite compares with the R table.

The table holds ints, packed by ``polynomials.Kronecker`` at q = 2^B,
and each entry is scaled by a power of q that puts it in Z[q]: row b
holds q^(l(e) - l(a)) c_a(b) at a, and the barred row b holds
q^(l(b) - l(e)) bar(c_a(b)), which must be R[a, b] (the relation
``rpoly_via_bar`` reads).  Under these scales the step, and its bar
(q^-1 A_s - (q^-1 - 1)) on the barred row, take a term x at a to

    s fixes a:   x at a                           (barred: q x at a)
    s lowers a:  q x at s a                       (barred: q x at s a)
    s raises a:  x at s a and (1 - q) x at a      (barred: x at s a and (q - 1) x at a)

so q x is ``x << B`` and no step divides by q: the barred row scale
gains a q from s sigma to sigma, which absorbs the q^-1 of the barred
step.  The rows without a left descent are scaled and packed from their
orbit sums, and packing raises on a scaled coefficient outside Z[q];
every step keeps the scaled entries in Z[q], so no offset is needed.
Unscaled, the entries would need an offset of up to
max(l(e) - l(min), l(max) - l(e)) powers of q, and the products in the
triple sums would carry its zero digits.

Width: the fill run over non-negative ints with q -> 1 and subtraction
-> addition bounds the L1 norm of every entry; a barred step and its
unbarred one have the same bounds, so one bound table serves the rows
and the barred rows.  Both tables of an orbit share one width B, so
the Hecke suite compares them by int equality; it is the R table's
(``rpoly.orbit_norm``), which the Hecke bounds must not exceed.  They
never do on R_1 to R_6, but the table raises ValueError rather than
pack past the width.

That bar is an involution is checked orbit by orbit in integer
arithmetic over the same table (``verify.packed_bar_squared``).
``bar_Asigma`` and ``bar_element`` decode: they are the Laurent path,
which builds the certificate of a failing sigma, and the tests compare
it with the packed sums.
"""

from __future__ import annotations

from functools import lru_cache

from . import order, renner, rpoly, weyl
from .polynomials import IntPoly, Kronecker, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "mult_As_left",
    "mult_Aw_left", "orbit_bars", "bar_Asigma", "bar_element",
    "rpoly_via_bar", "hecke_to_json",
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


def _orbit_sum(n: int, k: int, t: Word, index: dict) -> dict[int, Laurent]:
    # q^(-l(t)) sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}
    e = renner.rank_idempotent(n, k)
    gens = renner.centralizer_gens(e)
    shift = Laurent.q_power(-weyl.length(t))
    out: dict[int, Laurent] = {}
    for z in sorted(weyl.parabolic_subgroup(gens, n)):
        zey = renner.multiply(z, e)
        for y in weyl.coset_minima(gens, n):
            r = weyl.classical_rpoly(weyl.compose(t, z), y)
            if r:
                word = renner.multiply(zey, weyl.inverse(y))
                _add_term(out, index[word], shift * r.bar())
    return {a: c for a, c in out.items() if c}


def _bar_step(row: dict[int, int], to, step, bits: int, sign: int,
              barred: bool) -> dict[int, int]:
    """The scaled row of (q A_s - (q - 1)) h from the scaled row of h, by
    the table of the module docstring, s acting by ``to`` and ``step``;
    sign is -1, or 1 for bounds."""
    out: dict[int, int] = {}
    for a, x in row.items():
        qx = x << bits
        if step[a] > 0:
            out[to[a]] = out.get(to[a], 0) + x
            out[a] = out.get(a, 0) + (qx + sign * x if barred else x + sign * qx)
        elif step[a] < 0:
            out[to[a]] = out.get(to[a], 0) + qx
        else:
            out[a] = out.get(a, 0) + (qx if barred else x)
    return {a: x for a, x in out.items() if x}


def _orbit_sums(n: int, k: int) -> dict[int, dict[int, Laurent]]:
    """The orbit sum of each element of the rank-k orbit of R_n with no
    left descent, by the indices of ``order.orbit_poset(n, k)``."""
    poset = order.orbit_poset(n, k)
    return {b: _orbit_sum(n, k, renner.standard_form(sigma).y, poset.index)
            for b, sigma in enumerate(poset.elements)
            if not renner.descents(sigma, "left")}


def _fill(n: int, k: int, bases: dict[int, dict[int, Laurent]],
          packing: Kronecker | None = None) -> list[rpoly.Rows]:
    """The scaled rows of c and of bar(c) over the rank-k orbit of R_n,
    from its ``_orbit_sums`` ``bases``, packed by ``packing``; without
    one, one table of the L1 bounds of their entries (q -> 1,
    subtraction -> addition), which both share entry for entry."""
    poset = order.orbit_poset(n, k)
    left = order.orbit_action(n, k, "left")
    e = renner.idempotent_length(n, k)
    bits, sign, convert = (packing.bits, -1, packing.pack) if packing else (
        0, 1, lambda p: sum(map(abs, p.coeffs)))
    tables = [([], barred) for barred in ((False, True) if packing else (False,))]
    for b, sigma in enumerate(poset.elements):
        base = bases.get(b)
        if base is None:
            to, step = left[min(renner.descents(sigma, "left")) - 1]
            for rows, barred in tables:
                rows.append(_bar_step(rows[to[b]], to, step, bits, sign, barred))
            continue
        shift = Laurent.q_power(poset.lengths[b] - e)
        for rows, barred in tables:
            rows.append({a: convert(c.bar() * shift if barred
                                    else c * Laurent.q_power(e - poset.lengths[a]))
                         for a, c in base.items()})
    return [rows for rows, _ in tables]


@lru_cache(maxsize=None)
def orbit_bars(n: int, k: int) -> tuple[Kronecker, rpoly.Rows, rpoly.Rows]:
    """The Hecke table of the rank-k orbit of R_n, packed and scaled,
    shared by every caller like the R table of ``rpoly``: the packing,
    at the width of the R table, and the rows and the barred rows.  Row
    b maps each index a of ``order.orbit_poset(n, k)`` to the packed
    q^(l(e) - l(a)) c_a(b), c_a(b) the coefficient of A_(elements[a]) in
    bar(A_(elements[b])), and barred row b to the packed
    q^(l(b) - l(e)) bar(c_a(b)); nonzero entries only."""
    norm, bases = rpoly.orbit_norm(n, k), _orbit_sums(n, k)
    if any(bound > norm for row in _fill(n, k, bases)[0] for bound in row.values()):
        raise ValueError(f"the Hecke bounds of the rank-{k} orbit of R_{n} "
                         f"exceed the width of its R table")
    packing = Kronecker(norm, terms=len(order.orbit_poset(n, k).elements))
    return (packing, *_fill(n, k, bases, packing))


def bar_Asigma(sigma: Word) -> HeckeElt:
    """bar(A_sigma) for an element of any rank, expanded in the A-basis:
    row sigma of ``orbit_bars``, keyed by words.

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
    poset = order.orbit_poset(n, k)
    packing, rows, _ = orbit_bars(n, k)
    e = renner.idempotent_length(n, k)
    return {poset.elements[a]: packing.unpack(x) * Laurent.q_power(poset.lengths[a] - e)
            for a, x in rows[poset.locate(sigma)].items()}


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
    q^(l(sigma) - l(e)): the barred row of ``orbit_bars``, decoded.  That
    every such value lies in Z[q] is checked as the table is filled.
    """
    n, k = len(sigma), renner.rank(sigma)
    poset = order.orbit_poset(n, k)
    packing, _, barred = orbit_bars(n, k)
    return {poset.elements[a]: packing.unpack(x)
            for a, x in barred[poset.locate(sigma)].items()}


def hecke_to_json(h: HeckeElt) -> list[dict]:
    """JSON form: list of {element, laurent} sorted by (length, text)."""
    keys = sorted(h, key=lambda w: (renner.length(w), renner.format_element(w)))
    return [{"element": renner.element_to_json(w), "laurent": h[w].to_json()}
            for w in keys]
