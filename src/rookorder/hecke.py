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

The bar involution fixes integers, sends q to q^-1, and on the unit
group acts by bar(A_w) = (A_{w^-1})^-1.  Over a reduced word
w = s_1 ... s_m this is bar(A_w) = bar(A_s_1) ... bar(A_s_m) with
bar(A_s) = A_s^-1 = q A_s - (q - 1), so bar(A_w) acts on an element by
m such steps, rightmost letter first; the bar of a unit basis element
is that action on A_id.  The involution extends uniquely to the
augmented orbit algebra; expanding bar(A_sigma) in the A-basis
recovers the R-polynomials, which is used as an oracle for the
recurrence in ``rpoly``.

That bar is an involution is checked orbit by orbit in integer
arithmetic: ``verify.packed_bar_squared`` packs the coefficients of
every bar(A_theta) of the orbit once, at q = 2^B after a shift by q^D
that makes their exponents >= 0 (``polynomials.Kronecker``, with B
computed from the orbit's own coefficients), and sums each coefficient
of bar(bar(A_sigma)) as ints with ``rpoly.triple_sums``.  ``bar_element``
is the Laurent path: it builds the certificate of a failing sigma, and
the tests compare it with the packed sums.
"""

from __future__ import annotations

from functools import lru_cache

from . import renner, weyl
from .polynomials import IntPoly, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "mult_As_left",
    "mult_Aw_left", "bar_on_W", "bar_Asigma", "bar_element", "rpoly_via_bar",
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


def _bar_Aw_left(w: Word, h: HeckeElt) -> HeckeElt:
    # bar(A_w) h, one bar(A_s) = q A_s - (q - 1) step per letter of a
    # reduced word of w, the rightmost letter first
    for i in reversed(weyl.reduced_word(w)):
        out: HeckeElt = {}
        add_scaled(out, mult_As_left(i, h), _Q)
        add_scaled(out, h, _ONE_MINUS_Q)
        h = canonical(out)
    return h


@lru_cache(maxsize=None)
def _bar_on_W(w: Word) -> tuple[tuple[Word, Laurent], ...]:
    h = _bar_Aw_left(w, {weyl.identity(len(w)): Laurent.from_int(1)})
    return tuple(sorted(h.items()))


def bar_on_W(w: Word) -> HeckeElt:
    """The bar involution applied to a basis element A_w of H(W)."""
    return dict(_bar_on_W(w))


@lru_cache(maxsize=None)
def _orbit_groups(n: int, k: int):
    e = renner.rank_idempotent(n, k)
    w_of_e = sorted(weyl.parabolic_subgroup(renner.centralizer_gens(e), n))
    d_of_e = weyl.coset_minima(renner.centralizer_gens(e), n)
    return e, w_of_e, d_of_e


def _orbit_sum(n: int, k: int, t: Word) -> HeckeElt:
    # sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}
    e, w_of_e, d_of_e = _orbit_groups(n, k)
    out: HeckeElt = {}
    for z in w_of_e:
        tz = weyl.compose(t, z)
        zey = renner.multiply(z, e)
        for y in d_of_e:
            r = weyl.classical_rpoly(tz, y)
            if r.is_zero():
                continue
            _add_term(out, renner.multiply(zey, weyl.inverse(y)), r.bar())
    return canonical(out)


@lru_cache(maxsize=None)
def _bar_Asigma(sigma: Word) -> tuple[tuple[Word, Laurent], ...]:
    n = len(sigma)
    k = renner.rank(sigma)
    x, _, t = renner.standard_form(sigma)
    out = _bar_Aw_left(x, _orbit_sum(n, k, t))
    shift = Laurent.q_power(-weyl.length(t))
    return tuple((word, c * shift) for word, c in out.items())


def bar_Asigma(sigma: Word) -> HeckeElt:
    """bar(A_sigma) for an orbit element, expanded in the A-basis.

    With sigma = x e t^-1 in standard form this is

        q^(-l(t)) bar(A_x) sum_{z, y} bar(R[t z, y]) A_{z e y^-1},

    the unique extension of the involution from H(W), with bar(A_x)
    applied to the sum along a reduced word of x.  For the rank-1
    idempotent of R_2, W(e) is trivial and D(e) = {id, s}:

    >>> for word, c in sorted(bar_Asigma((1, 0)).items()):
    ...     print(renner.format_element(word), c)
    01 -1 + q^-1
    10 1
    """
    return dict(_bar_Asigma(sigma))


def bar_element(h: HeckeElt) -> HeckeElt:
    """bar of a general element of the augmented orbit algebra.

    Keys of full rank are unit-group elements and use the H(W) bar;
    lower-rank keys use the orbit expansion.
    """
    out: HeckeElt = {}
    for word, c in h.items():
        barred = bar_on_W(word) if renner.rank(word) == len(word) \
            else bar_Asigma(word)
        add_scaled(out, barred, c.bar())
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
