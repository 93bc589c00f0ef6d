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
bar(A_sigma) in the A-basis for every sigma of one orbit, by the
indices of ``order.orbit_poset(n, k)``, as ``rpoly.OrbitTable`` fills
R.  For the smallest left descent s of sigma, A_sigma = A_s A_{s sigma},
so

    bar(A_sigma) = (q A_s - (q - 1)) bar(A_{s sigma}),

and row sigma is one such step applied to the shorter, earlier row of
s sigma, with s acting on indices through ``order.orbit_action``.  An
element with no left descent is e t^-1, whose bar is the orbit sum

    q^(-l(t)) sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}

with classical R-polynomials of the symmetric group; at k = n that is
A_id alone.  So the oracle never reads the R recurrence of ``rpoly``:
expanding bar(A_sigma) recovers the R-polynomials (``rpoly_via_bar``),
which the Hecke suite compares with the R table.

That bar is an involution is checked orbit by orbit in integer
arithmetic over the same table (``verify.packed_bar_squared``).
``bar_element`` is the Laurent path: it builds the certificate of a
failing sigma, and the tests compare it with the packed sums.
"""

from __future__ import annotations

from functools import lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "mult_As_left",
    "mult_Aw_left", "orbit_bars", "bar_Asigma", "bar_element", "rpoly_via_bar",
    "hecke_to_json",
]

_Q = Laurent.q_power(1)
_Q_INV = Laurent.q_power(-1)
_ONE_MINUS_Q = Laurent.from_int(1) - _Q
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


@lru_cache(maxsize=None)
def orbit_bars(n: int, k: int) -> list[dict[int, Laurent]]:
    """bar(A_sigma) for every sigma of the rank-k orbit of R_n: row b
    maps each index a of ``order.orbit_poset(n, k)`` to the coefficient
    of A_(elements[a]) in bar(A_(elements[b])), nonzero entries only.

    Row b is filled from the earlier row of s sigma, s the smallest left
    descent of sigma; a term c A_a of that row gives c A_a if s fixes a,
    c A_(s a) if s lowers a, and q c A_(s a) + (1 - q) c A_a if s raises
    it.  Rows without a left descent are the orbit sums of e t^-1.  The
    rows are shared by every caller, like the R table of ``rpoly``.
    """
    poset = order.orbit_poset(n, k)
    left = order.orbit_action(n, k, "left")
    rows: list[dict[int, Laurent]] = []
    for b, sigma in enumerate(poset.elements):
        descents = renner.descents(sigma, "left")
        if not descents:
            t = renner.standard_form(sigma).y
            rows.append(_orbit_sum(n, k, t, poset.index))
            continue
        to, step = left[min(descents) - 1]
        row: dict[int, Laurent] = {}
        for a, c in rows[to[b]].items():
            if step[a] == 0:
                _add_term(row, a, c)
            elif step[a] < 0:
                _add_term(row, to[a], c)
            else:
                _add_term(row, to[a], _Q * c)
                _add_term(row, a, _ONE_MINUS_Q * c)
        rows.append({a: c for a, c in row.items() if c})
    return rows


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
    return {poset.elements[a]: c
            for a, c in orbit_bars(n, k)[poset.locate(sigma)].items()}


def bar_element(h: HeckeElt) -> HeckeElt:
    """bar of a general element of the augmented orbit algebra."""
    out: HeckeElt = {}
    for word, c in h.items():
        add_scaled(out, bar_Asigma(word), c.bar())
    return canonical(out)


def rpoly_via_bar(sigma: Word) -> dict[Word, IntPoly]:
    """Read the R-polynomials {theta: R[theta, sigma]} off bar(A_sigma).

    bar(A_sigma) = q^(l(sigma) - l(e)) sum_theta bar(R[theta, sigma]) A_theta,
    so each coefficient is shifted back and un-barred; a coefficient
    that fails to land in Z[q] signals a convention fault and raises.
    """
    n = len(sigma)
    k = renner.rank(sigma)
    shift = renner.length(sigma) - renner.idempotent_length(n, k)
    unshift = Laurent.q_power(-shift)
    out: dict[Word, IntPoly] = {}
    for theta, c in bar_Asigma(sigma).items():
        try:
            out[theta] = (c * unshift).bar().to_int_poly()
        except ValueError as exc:
            raise ValueError(
                f"coefficient of {renner.format_element(theta)} in "
                f"bar(A_{renner.format_element(sigma)}) is not in Z[q]: {exc}"
            ) from exc
    return out


def hecke_to_json(h: HeckeElt) -> list[dict]:
    """JSON form: list of {element, laurent} sorted by (length, text)."""
    keys = sorted(h, key=lambda w: (renner.length(w), renner.format_element(w)))
    return [{"element": renner.element_to_json(w), "laurent": h[w].to_json()}
            for w in keys]
