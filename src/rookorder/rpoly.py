"""R-polynomials of orbit intervals in the rook monoid.

For a left descent s of sigma (an s with l(s sigma) < l(sigma)):

    R[theta, sigma] = R[s theta, s sigma]                      if s theta < theta
                    = q R[theta, s sigma]                      if s theta = theta
                    = (q-1) R[theta, s sigma] + q R[s theta, s sigma]
                                                               if s theta > theta

and the same rules with theta s, sigma s for a right descent s; every
element of positive length has a descent on at least one side.  One
step serves both sides, with descents from ``renner.descents`` and
the change of length under s from ``renner.length_step``.
Base cases: R[theta, theta] = 1 and R[theta, sigma] = 0 when theta is
not below sigma.  The result does not depend on the descent chosen; the
deterministic policy here (smallest-index left descent, else smallest
right, so right descents are computed only when there is no left one)
exists so that memoization is sound, and the tests check left/right
confluence explicitly.

The constant term R[theta, sigma](0) equals the Mobius function of the
interval.
"""

from __future__ import annotations

from functools import lru_cache

from . import order, renner, weyl
from .polynomials import IntPoly, Laurent, ONE, Q, Q_MINUS_1, ZERO
from .renner import Word

__all__ = ["rpoly", "delta_identity_sum", "verify_delta_identity"]


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
    side, ds = "left", renner.descents(sigma, "left")
    if not ds:
        side, ds = "right", renner.descents(sigma, "right")
    i = min(ds)
    s = weyl.simple_reflection(n, i)
    if side == "left":
        s_theta, s_sigma = renner.multiply(s, theta), renner.multiply(s, sigma)
    else:
        s_theta, s_sigma = renner.multiply(theta, s), renner.multiply(sigma, s)
    diff = renner.length_step(theta, i, side)
    if diff < 0:
        return rpoly(s_theta, s_sigma)
    if diff == 0:
        return Q * rpoly(theta, s_sigma)
    return Q_MINUS_1 * rpoly(theta, s_sigma) + Q * rpoly(s_theta, s_sigma)


def delta_identity_sum(theta: Word, sigma: Word) -> Laurent:
    """sum over theta <= nu <= sigma of R[theta,nu] q^(l(sigma)-l(nu)) bar(R[nu,sigma]).

    The sum telescopes to 1 when theta = sigma and to 0 otherwise.
    """
    poset, inside = order.interval_mask(theta, sigma)
    l_sigma = poset.lengths[poset.index[sigma]]
    total = Laurent(0, ())
    for a in order.bits(inside):
        nu = poset.elements[a]
        total = total + (rpoly(theta, nu).to_laurent()
                         * Laurent.q_power(l_sigma - poset.lengths[a])
                         * rpoly(nu, sigma).bar())
    return total


def verify_delta_identity(theta: Word, sigma: Word) -> bool:
    """
    >>> verify_delta_identity((0, 1), (2, 0))
    True
    """
    expected = Laurent.from_int(1 if theta == sigma else 0)
    return delta_identity_sum(theta, sigma) == expected
