"""Brute-force reference implementations, kept independent of the
library code paths they are used to check."""

import itertools
from functools import lru_cache

from rookorder import order, renner, weyl


def bruhat_leq_subword(u, v):
    """u <= v iff u is the product of some subword of a reduced word of v."""
    n = len(v)
    word = weyl.reduced_word(v)
    refl = [weyl.simple_reflection(n, i) for i in word]
    for picks in itertools.product((False, True), repeat=len(word)):
        w = weyl.identity(n)
        for take, s in zip(picks, refl):
            if take:
                w = weyl.compose(w, s)
        if w == u:
            return True
    return False


def standard_forms_bruteforce(sigma):
    """All (x, e, y) with x e y^-1 = sigma, x minimal in x W_e and y
    minimal in y W(e), found by exhausting W x W."""
    n = len(sigma)
    k = renner.rank(sigma)
    e = renner.rank_idempotent(n, k)
    d_e = set(weyl.coset_minima(renner.stabilizer_gens(e), n))
    d_of_e = set(weyl.coset_minima(renner.centralizer_gens(e), n))
    found = []
    for x in d_e:
        xe = renner.multiply(x, e)
        for y in d_of_e:
            if renner.multiply(xe, weyl.inverse(y)) == sigma:
                found.append(renner.StandardForm(x, e, y))
    return found


def mobius_bruteforce(elements, leq_fn, bottom, top):
    """Mobius value by summing over chains: mu(a, b) =
    sum over chains a = c0 < c1 < ... < cm = b of (-1)^m."""
    if bottom == top:
        return 1
    if not leq_fn(bottom, top):
        return 0
    strictly_between = [c for c in elements
                        if c not in (bottom, top)
                        and leq_fn(bottom, c) and leq_fn(c, top)]
    total = 0
    for m in range(len(strictly_between) + 1):
        for mids in itertools.permutations(strictly_between, m):
            chain = (bottom,) + mids + (top,)
            if all(leq_fn(chain[i], chain[i + 1]) and chain[i] != chain[i + 1]
                   for i in range(len(chain) - 1)):
                total += (-1) ** (m + 1)
    return total


def linear_length2_bruteforce(elements, leq_fn, bottom, top):
    """The pairs a < b inside [bottom, top] whose interval has exactly 3
    elements (a linear length-2 interval), found from the order
    relation alone, without the length function."""
    inside = [c for c in elements if leq_fn(bottom, c) and leq_fn(c, top)]
    above = {a: {c for c in inside if leq_fn(a, c)} for a in inside}
    return {(a, b) for a in inside for b in above[a]
            if sum(1 for c in above[a] if b in above[c]) == 3}


@lru_cache(maxsize=None)
def interval_elements_scan(theta, sigma):
    """All tau in the orbit of theta with theta <= tau <= sigma, by
    (length, word): a scan of the whole orbit with the coset-witness
    ``order.leq``."""
    n, k = order.require_same_orbit(theta, sigma)
    return tuple(tau for tau in renner.orbit(n, k)
                 if order.leq(theta, tau) and order.leq(tau, sigma))


@lru_cache(maxsize=None)
def mobius_recursive(theta, sigma):
    """Mobius value by the defining recursion over ``interval_elements_scan``."""
    if theta == sigma:
        return 1
    if not order.leq(theta, sigma):
        return 0
    return -sum(mobius_recursive(theta, tau)
                for tau in interval_elements_scan(theta, sigma)
                if tau != sigma)
