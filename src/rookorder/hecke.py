"""The generic Hecke algebra of the rook monoid and its bar involution.

Elements are finite maps {element word -> Laurent coefficient} with
support inside W e W union W for a fixed rank idempotent e (the
augmented orbit algebra).  The basis multiplication rule for a simple
reflection s is

    A_s A_sigma = A_sigma                                 if l(s sigma) = l(sigma)
                = A_{s sigma}                             if l(s sigma) = l(sigma) + 1
                = q^-1 A_{s sigma} + (1 - q^-1) A_sigma   if l(s sigma) = l(sigma) - 1

together with A_nu A_sigma = A_{nu sigma} for l(nu) = 0; products that
fall into a strictly lower orbit are discarded, which realizes the
quotient by the ideal spanned by lower orbits.

The bar involution fixes integers, sends q^(1/2) to q^(-1/2), and on
the unit group acts by bar(A_w) = (A_{w^-1})^-1.  It extends uniquely
to the augmented orbit algebra; expanding bar(A_sigma) in the A-basis
recovers the R-polynomials, which is used as an oracle for the
recurrence in ``rpoly``.
"""

from __future__ import annotations

from functools import lru_cache

from . import renner, weyl
from .polynomials import IntPoly, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "elements_equal", "mult_As_left",
    "mult_Aw_left", "bar_on_W", "bar_Asigma", "bar_element", "rpoly_via_bar",
    "hecke_to_json",
]

_Q_INV = Laurent.q_power(-1)
_ONE_MINUS_Q_INV = Laurent.from_int(1) - _Q_INV


def add_scaled(acc: HeckeElt, h: HeckeElt, c: Laurent | int = 1) -> None:
    """acc += c * h, in place."""
    if isinstance(c, int):
        c = Laurent.from_int(c)
    if c.is_zero():
        return
    for word, coeff in h.items():
        acc[word] = acc.get(word, Laurent(0, ())) + c * coeff


def canonical(h: HeckeElt) -> HeckeElt:
    return {word: c for word, c in h.items() if not c.is_zero()}


def elements_equal(a: HeckeElt, b: HeckeElt) -> bool:
    return canonical(a) == canonical(b)


def _guard(word: Word, min_rank: int | None) -> bool:
    return min_rank is None or renner.rank(word) >= min_rank


def mult_As_left(i: int, h: HeckeElt, min_rank: int | None = None) -> HeckeElt:
    """Left multiplication by the basis element of the simple reflection s_i."""
    out: HeckeElt = {}
    for word, c in h.items():
        s = weyl.simple_reflection(len(word), i)
        sw = renner.multiply(s, word)
        diff = renner.length(sw) - renner.length(word)
        if diff == 0:
            add_scaled(out, {word: c})
        elif diff == 1:
            if _guard(sw, min_rank):
                add_scaled(out, {sw: c})
        else:
            if _guard(sw, min_rank):
                add_scaled(out, {sw: c * _Q_INV})
            add_scaled(out, {word: c * _ONE_MINUS_Q_INV})
    return canonical(out)


def mult_Aw_left(w: Word, h: HeckeElt, min_rank: int | None = None) -> HeckeElt:
    """Left multiplication by A_w for a permutation w, via a reduced word."""
    for i in reversed(weyl.reduced_word(w)):
        h = mult_As_left(i, h, min_rank)
    return h


@lru_cache(maxsize=None)
def _bar_on_W(w: Word) -> tuple[tuple[Word, Laurent], ...]:
    # bar(A_w) = bar(A_s1) ... bar(A_sk) over a reduced word, where
    # bar(A_s) = A_s^-1 = q A_s - (q-1) A_id from the quadratic relation.
    n = len(w)
    q = Laurent.q_power(1)
    q_minus_1 = q - Laurent.from_int(1)
    h: HeckeElt = {weyl.identity(n): Laurent.from_int(1)}
    for i in reversed(weyl.reduced_word(w)):
        out: HeckeElt = {}
        add_scaled(out, mult_As_left(i, h), q)
        add_scaled(out, h, -q_minus_1)
        h = canonical(out)
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
            add_scaled(out, {renner.multiply(zey, weyl.inverse(y)): r.bar()})
    return canonical(out)


@lru_cache(maxsize=None)
def _bar_Asigma(sigma: Word) -> tuple[tuple[Word, Laurent], ...]:
    n = len(sigma)
    k = renner.rank(sigma)
    x, _, t = renner.standard_form(sigma)
    core = _orbit_sum(n, k, t)
    out: HeckeElt = {}
    for w, cw in bar_on_W(x).items():
        add_scaled(out, mult_Aw_left(w, core, k), cw)
    shift = Laurent.q_power(-weyl.length(t))
    return tuple((word, c * shift) for word, c in canonical(out).items())


def bar_Asigma(sigma: Word) -> HeckeElt:
    """bar(A_sigma) for an orbit element, expanded in the A-basis.

    With sigma = x e t^-1 in standard form this is

        q^(-l(t)) bar(A_x) sum_{z, y} bar(R[t z, y]) A_{z e y^-1},

    the unique extension of the involution from H(W).
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
