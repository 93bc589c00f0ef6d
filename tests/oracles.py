"""Brute-force reference implementations, kept independent of the
library code paths they are used to check."""

import itertools
from functools import lru_cache

from rookorder import hecke, order, renner, weyl
from rookorder.polynomials import Laurent


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


@lru_cache(maxsize=None)
def _witness_set(n, kf, ke):
    """The set product W(f) W_e, deduplicated, shortest elements first."""
    wf = weyl.parabolic_subgroup(
        renner.centralizer_gens(renner.rank_idempotent(n, kf)), n)
    we = weyl.parabolic_subgroup(
        renner.stabilizer_gens(renner.rank_idempotent(n, ke)), n)
    prod = {weyl.compose(a, b) for a in wf for b in we}
    return tuple(sorted(prod, key=lambda w: (weyl.length(w), w)))


@lru_cache(maxsize=None)
def witness_leq(theta, sigma):
    """Bruhat-Chevalley order on R_n by the coset-witness criterion on
    standard forms: for theta = u e v^-1 and sigma = x f y^-1,
    theta <= sigma iff e <= f and, for some w in W(f) W_e, u <= xw and
    yw <= v in Bruhat order on W.  Its cost grows with |W(f) W_e|, all
    of S_n x S_n at the extremes, so it stays an oracle for small n."""
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    if theta == sigma:
        return True
    ke = renner.rank(theta)
    kf = renner.rank(sigma)
    if ke > kf:
        return False
    u, _, v = renner.standard_form(theta)
    x, _, y = renner.standard_form(sigma)
    for w in _witness_set(len(theta), kf, ke):
        if weyl.bruhat_leq(u, weyl.compose(x, w)) and \
                weyl.bruhat_leq(weyl.compose(y, w), v):
            return True
    return False


@lru_cache(maxsize=None)
def longest_element(gens, n):
    """The longest element of the standard parabolic subgroup W_I:
    each window of positions spanned by a maximal run of consecutive
    generator indices, reversed."""
    w = list(range(1, n + 1))
    run_start = None
    prev = None
    for i in sorted(gens) + [None]:
        if run_start is not None and (i is None or i != prev + 1):
            w[run_start - 1:prev + 1] = reversed(w[run_start - 1:prev + 1])
            run_start = None
        if i is not None and run_start is None:
            run_start = i
        prev = i
    return tuple(w)


@lru_cache(maxsize=None)
def standard_form_length(sigma):
    """l(sigma) = l(x) + l(e) - l(y) on the standard form sigma = x e y^-1,
    with l(e) = l(w_0) - l(v_0) for v_0 longest in W(e)."""
    n = len(sigma)
    x, e, y = renner.standard_form(sigma)
    w0 = longest_element(frozenset(range(1, n)), n)
    v0 = longest_element(renner.centralizer_gens(e), n)
    return (weyl.length(x) + weyl.length(w0) - weyl.length(v0)
            - weyl.length(y))


def length_step_by_products(sigma, i, side):
    """l(s_i sigma) - l(sigma) or l(sigma s_i) - l(sigma), from the
    product and ``standard_form_length``."""
    s = weyl.simple_reflection(len(sigma), i)
    moved = renner.multiply(s, sigma) if side == "left" \
        else renner.multiply(sigma, s)
    return standard_form_length(moved) - standard_form_length(sigma)


def descents_by_length(sigma, side):
    """The i whose simple reflection on the given side lowers
    ``standard_form_length``."""
    return frozenset(i for i in range(1, len(sigma))
                     if length_step_by_products(sigma, i, side) < 0)


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
    (length, word): a scan of the whole orbit with ``witness_leq``."""
    n, k = order.require_same_orbit(theta, sigma)
    return tuple(tau for tau in renner.orbit(n, k)
                 if witness_leq(theta, tau) and witness_leq(tau, sigma))


@lru_cache(maxsize=None)
def mobius_recursive(theta, sigma):
    """Mobius value by the defining recursion over ``interval_elements_scan``."""
    if theta == sigma:
        return 1
    if not witness_leq(theta, sigma):
        return 0
    return -sum(mobius_recursive(theta, tau)
                for tau in interval_elements_scan(theta, sigma)
                if tau != sigma)


def laurent_terms(p):
    """{exponent: coefficient} of a ``Laurent``, nonzero entries only."""
    return {p.min_exp + i: c for i, c in enumerate(p.coeffs) if c}


def _nonzero(terms):
    return {e: c for e, c in terms.items() if c}


def terms_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(out)


def terms_neg(a):
    return {e: -c for e, c in a.items()}


def terms_mul(a, b):
    out = {}
    for e, c in a.items():
        for f, d in b.items():
            out[e + f] = out.get(e + f, 0) + c * d
    return _nonzero(out)


def terms_bar(a):
    return {-e: c for e, c in a.items()}


def int_poly_terms(p):
    """{v-exponent: coefficient} of an ``IntPoly`` under q = v^2."""
    return {2 * i: c for i, c in enumerate(p.coeffs) if c}


def bar_Asigma_by_support(sigma):
    """bar(A_sigma) as the sum over the support of bar(A_x): with
    sigma = x e t^-1 in standard form,

        q^(-l(t)) sum_w c_w A_w sum_{z, y} bar(R[t z, y]) A_{z e y^-1}

    where bar(A_x) = sum_w c_w A_w, each A_w applied with
    ``hecke.mult_Aw_left``.  Its cost grows with the Bruhat cone below
    x, not with the length of x."""
    n, k = len(sigma), renner.rank(sigma)
    x, e, t = renner.standard_form(sigma)
    core = {}
    for z in weyl.parabolic_subgroup(renner.centralizer_gens(e), n):
        zey = renner.multiply(z, e)
        for y in weyl.coset_minima(renner.centralizer_gens(e), n):
            r = weyl.classical_rpoly(weyl.compose(t, z), y)
            if not r.is_zero():
                word = renner.multiply(zey, weyl.inverse(y))
                core[word] = core.get(word, 0) + r.bar()
    out = {}
    for w, cw in hecke.bar_on_W(x).items():
        hecke.add_scaled(out, hecke.mult_Aw_left(w, hecke.canonical(core)), cw)
    shift = Laurent.q_power(-weyl.length(t))
    return {word: c * shift for word, c in hecke.canonical(out).items()}
