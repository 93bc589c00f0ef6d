"""Brute-force reference implementations, kept independent of the
library code paths they are used to check."""

import itertools
from functools import lru_cache

from rookorder import analysis, hecke, order, renner, rpoly, weyl
from rookorder.polynomials import Kronecker, Laurent, ONE, Q, Q_MINUS_1, ZERO
from rookorder.reports import Report


def monoid_elements(n):
    """All of R_n, by increasing rank then (length, word)."""
    return tuple(w for k in range(n + 1) for w in renner.orbit(n, k))


@lru_cache(maxsize=None)
def stabilizer_gens(e):
    """Simple reflections s with se = e; they generate W_e."""
    n = len(e)
    return frozenset(i for i in range(1, n)
                     if renner.multiply(weyl.simple_reflection(n, i), e) == e)


def assemble(form):
    """Multiply a standard form back out: x e y^-1."""
    return renner.multiply(form.x, renner.multiply(form.e, weyl.inverse(form.y)))


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
        stabilizer_gens(renner.rank_idempotent(n, ke)), n)
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


def _length_additive_factorizations(w, subgroup):
    """Pairs (w1, w2) with w = w1 w2 and l(w) = l(w1) + l(w2)."""
    lw = weyl.length(w)
    for w1 in subgroup:
        w2 = weyl.compose(weyl.inverse(w1), w)
        if weyl.length(w1) + weyl.length(w2) == lw:
            yield w1, w2


def coset_factorization_violations(n):
    """Exhaustive check of the parabolic coset factorization property.

    For every I, x, y in D_I and w, u in W_I with xw < yu there must be
    a factorization w = w1 w2 with lengths adding, x w1 <= y and
    w2 <= u.  Returns a certificate per failing tuple (expected none).
    """
    violations = []
    indices = range(1, n)
    for r in range(n):
        for subset in itertools.combinations(indices, r):
            gens = frozenset(subset)
            w_i = weyl.parabolic_subgroup(gens, n)
            d_i = weyl.coset_minima(gens, n)
            for x, w in itertools.product(d_i, sorted(w_i)):
                xw = weyl.compose(x, w)
                for y, u in itertools.product(d_i, sorted(w_i)):
                    yu = weyl.compose(y, u)
                    if xw == yu or not weyl.bruhat_leq(xw, yu):
                        continue
                    ok = any(
                        weyl.bruhat_leq(weyl.compose(x, w1), y) and weyl.bruhat_leq(w2, u)
                        for w1, w2 in _length_additive_factorizations(w, w_i)
                    )
                    if not ok:
                        violations.append(
                            {"I": sorted(gens), "x": x, "y": y, "w": w, "u": u}
                        )
    return violations


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


def nonempty_descent_by_words(orbit_elements):
    """The non-empty-descent check word by word: both descent sets by
    ``renner.descents`` and the length by ``renner.length``, per element.
    The oracle of ``analysis.check_nonempty_descent``, which reads the
    orbit's action tables."""
    report = Report(name="nonempty-descent")
    zero_length = []
    for sigma in orbit_elements:
        report.checked += 1
        left, right = renner.descents(sigma, "left"), renner.descents(sigma, "right")
        if renner.length(sigma) == 0:
            zero_length.append(sigma)
            if left or right:
                report.violations.append({
                    "kind": "descent-at-minimum",
                    "element": renner.format_element(sigma),
                    "des_L": sorted(left), "des_R": sorted(right),
                })
        elif not left and not right:
            report.violations.append({
                "kind": "no-descent",
                "element": renner.format_element(sigma),
                "length": renner.length(sigma),
            })
    if len(zero_length) != 1:
        report.violations.append({
            "kind": "length-zero-count",
            "elements": [renner.format_element(w) for w in zero_length],
        })
    return report


def descent_by_descent_sets(sigma):
    """The descent the R recurrence takes at sigma of positive length,
    from ``renner.descents``: the smallest left descent, else the
    smallest right one."""
    side, ds = "left", renner.descents(sigma, "left")
    if not ds:
        side, ds = "right", renner.descents(sigma, "right")
    return side, min(ds)


def table_entry(n, k, a, b):
    """R[elements[a], elements[b]] of the R table of the rank-k orbit of
    R_n (``rpoly.orbit_table``, column b at a), decoded by the orbit's
    packing."""
    return rpoly.orbit_packing(n, k).unpack(rpoly.orbit_table(n, k)[b].get(a, 0))


def standard_forms_bruteforce(sigma):
    """All (x, e, y) with x e y^-1 = sigma, x minimal in x W_e and y
    minimal in y W(e), found by exhausting W x W."""
    n = len(sigma)
    k = renner.rank(sigma)
    e = renner.rank_idempotent(n, k)
    d_e = set(weyl.coset_minima(stabilizer_gens(e), n))
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


def interval_by_scan(elements, leq_fn, theta, sigma):
    """The tau among ``elements`` with theta <= tau <= sigma under
    ``leq_fn``, in the order given."""
    return tuple(tau for tau in elements
                 if leq_fn(theta, tau) and leq_fn(tau, sigma))


def mobius_by_recursion(inside, leq_fn, theta, sigma):
    """mu(theta, sigma) by the defining recursion, with ``inside`` the
    elements of [theta, sigma] and ``leq_fn`` the order among them:
    mu(theta, tau) is minus the sum of mu(theta, r) over r < tau."""
    @lru_cache(maxsize=None)
    def mu(tau):
        if tau == theta:
            return 1
        return -sum(mu(r) for r in inside if r != tau and leq_fn(r, tau))
    return mu(sigma) if sigma in inside else 0


@lru_cache(maxsize=None)
def interval_elements_scan(theta, sigma):
    """All tau in the orbit of theta with theta <= tau <= sigma, by
    (length, word): a scan of the whole orbit with ``witness_leq``."""
    n, k = order.require_same_orbit(theta, sigma)
    return interval_by_scan(renner.orbit(n, k), witness_leq, theta, sigma)


@lru_cache(maxsize=None)
def mobius_recursive(theta, sigma):
    """Mobius value by the defining recursion over ``interval_elements_scan``,
    compared with ``witness_leq``."""
    return mobius_by_recursion(interval_elements_scan(theta, sigma),
                               witness_leq, theta, sigma)


def scan_rows(elements, leq_fn):
    """Up- and down-set rows of ``elements`` as int bitsets (bit i for
    elements[i]), by testing every pair with ``leq_fn``: how the orbit
    poset once built its rows, kept as the oracle for the bit-sliced ones."""
    ups = [sum(1 << j for j, b in enumerate(elements) if leq_fn(a, b))
           for a in elements]
    downs = [sum(1 << i for i, a in enumerate(elements) if leq_fn(a, b))
             for b in elements]
    return ups, downs


def degree(p):
    """Degree of a polynomial in q, -1 for zero."""
    return p.min_exp + len(p.coeffs) - 1


def evaluate(p, x):
    """The value of a polynomial in q at q = x."""
    return sum(c * x ** (p.min_exp + i) for i, c in enumerate(p.coeffs))


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


def int_poly_terms(coeffs):
    """{exponent: coefficient} of the polynomial in q with the dense
    ascending coefficients ``coeffs``, nonzero entries only."""
    return {i: c for i, c in enumerate(coeffs) if c}


def hecke_to_json(h):
    """JSON form of a Hecke element {word: Laurent}: a list of
    {element, laurent} sorted by (length, text)."""
    keys = sorted(h, key=lambda w: (renner.length(w), renner.format_element(w)))
    return [{"element": renner.element_to_json(w), "laurent": h[w].to_json()}
            for w in keys]


def bar_squared_row(n, k, b):
    """(packing, row b of bar o bar), packed, as the Hecke suite sums it
    from the full Hecke tables."""
    rows, barred = hecke.orbit_bars(n, k)
    return rpoly.orbit_packing(n, k), rpoly.triple_sums(barred[b], rows)


def decode_bar_squared(packing, row, sigma):
    """A packed bar o bar row of sigma as a Hecke element: entry nu is
    q^(l(sigma) - l(nu)) times the coefficient of A_nu."""
    elements = renner.orbit(len(sigma), renner.rank(sigma))
    return {nu: packing.unpack(x) * Laurent.q_power(renner.length(nu) - renner.length(sigma))
            for nu, x in zip(elements, row) if x}


def bar_Aw_by_reduced_word(w, h):
    """bar(A_w) h for a permutation w: one bar(A_s) = q A_s - (q - 1)
    step per letter of a reduced word of w, the rightmost letter first,
    each a ``hecke.mult_As_left`` with a word product per term."""
    q = Laurent.q_power(1)
    for i in reversed(weyl.reduced_word(w)):
        out = {}
        hecke.add_scaled(out, hecke.mult_As_left(i, h), q)
        hecke.add_scaled(out, h, 1 - q)
        h = hecke.canonical(out)
    return h


def _orbit_core(sigma):
    """(x, core, shift) with bar(A_sigma) = shift bar(A_x) core: for
    sigma = x e t^-1 in standard form, core is
    sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}
    and shift is q^(-l(t))."""
    n = len(sigma)
    x, e, t = renner.standard_form(sigma)
    core = {}
    for z in weyl.parabolic_subgroup(renner.centralizer_gens(e), n):
        zey = renner.multiply(z, e)
        for y in weyl.coset_minima(renner.centralizer_gens(e), n):
            r = weyl.classical_rpoly(weyl.compose(t, z), y)
            if not r.is_zero():
                word = renner.multiply(zey, weyl.inverse(y))
                core[word] = core.get(word, 0) + r.bar()
    return x, hecke.canonical(core), Laurent.q_power(-weyl.length(t))


def orbit_sum_skipping(skip):
    """``hecke._orbit_sum`` with its length skip replaced: each term
    (z, y, a, l(z), l(y)) adds R[t z, y] at a unless
    skip(l(t) + l(z), l(y)); nonzero sums only.  With a skip that never
    holds, it is the every-term sum."""
    def orbit_sum(t, terms):
        sums, lt = {}, weyl.length(t)
        for z, y, a, lz, ly in terms:
            if not skip(lt + lz, ly):
                r = weyl.classical_rpoly(weyl.compose(t, z), y)
                if r:
                    sums[a] = sums[a] + r if a in sums else r
        return {a: r for a, r in sums.items() if r}
    return orbit_sum


orbit_sum_every_term = orbit_sum_skipping(lambda length_tz, length_y: False)


def orbit_sums_against_the_core(n, k):
    """The bases b of the rank-k orbit of R_n at which the base sums of
    ``hecke._orbit_sums``, barred, differ from the core of
    bar(A_(elements[b])) that ``_orbit_core`` sums over every term."""
    elements = order.orbit_poset(n, k).elements
    return [b for b, base in hecke._orbit_sums(n, k).items()
            if {elements[a]: r.bar() for a, r in base.items()} != _orbit_core(elements[b])[1]]


def bar_Asigma_by_reduced_word(sigma):
    """bar(A_sigma) with bar(A_x) applied to the core along a reduced
    word of x.  Its cost grows with l(x)."""
    x, core, shift = _orbit_core(sigma)
    return {word: c * shift
            for word, c in bar_Aw_by_reduced_word(x, core).items()}


def bar_Asigma_by_support(sigma):
    """bar(A_sigma) as the sum over the support of bar(A_x) =
    sum_w c_w A_w, each A_w applied to the core with
    ``hecke.mult_Aw_left``.  Its cost grows with the Bruhat cone below
    x, not with the length of x."""
    x, core, shift = _orbit_core(sigma)
    unit = {weyl.identity(len(sigma)): Laurent.from_int(1)}
    out = {}
    for w, cw in bar_Aw_by_reduced_word(x, unit).items():
        hecke.add_scaled(out, hecke.mult_Aw_left(w, core), cw)
    return {word: c * shift for word, c in hecke.canonical(out).items()}


def delta_identity_sum_laurent(theta, sigma):
    """sum over theta <= nu <= sigma of R[theta,nu] q^(l(sigma)-l(nu)) bar(R[nu,sigma])
    in ``Laurent`` arithmetic, with R from the memoised recursion on
    words, ``rpoly.rpoly``: the oracle of the packed sum over the
    orbit's R table."""
    poset = order.orbit_poset(*order.require_same_orbit(theta, sigma))
    bottom, top = poset.index[theta], poset.index[sigma]
    total = Laurent(0, ())
    for a in order.bits(poset.up(bottom) & poset.down(top)):
        nu = poset.elements[a]
        total = total + (rpoly.rpoly(theta, nu)
                         * Laurent.q_power(poset.lengths[top] - poset.lengths[a])
                         * rpoly.rpoly(nu, sigma).bar())
    return total


def kronecker_for(values, terms):
    """The packing whose bound is the largest L1 norm among ``values``,
    read off the values themselves."""
    norm = max((sum(map(abs, p.coeffs)) for p in values), default=0)
    return Kronecker(norm, terms)


def pack_rows(rows, packing):
    """The rows {index: value} of a sparse matrix of polynomials, packed."""
    return [{j: packing.pack(p) for j, p in row.items()} for row in rows]


def rpoly_bound_tables(n, k):
    """The L1 bounds of the entries of R and of R' over the rank-k orbit
    of R_n, as two tables of columns {a: bound of (a, b)} by b, filled
    side by side and pulled over down(b): each step of the recurrence
    (q R, (q - 1) x + q y, and the barred (1 - q) x + q y) evaluated at
    q = 1 with subtraction turned into addition.  The oracle of the one
    bound table that ``rpoly._fill`` fills by the bounds kind of
    ``rpoly._step``, pushed and with no walk of down(b)."""
    poset = order.orbit_poset(n, k)
    columns = [{b: 1} for b in range(len(poset.elements))]
    reversed_columns = [{b: 1} for b in range(len(poset.elements))]
    for b, sigma in enumerate(poset.elements[1:], 1):
        side, i = descent_by_descent_sets(sigma)
        to, step = order.orbit_action(n, k, side)[i - 1]
        for a in order.bits(poset.down(b) ^ (1 << b)):
            for table in (columns, reversed_columns):
                x, y = table[to[b]].get(a, 0), table[to[b]].get(to[a], 0)
                table[b][a] = y if step[a] < 0 else x if step[a] == 0 else x + y + x
    return columns, reversed_columns


def hecke_bound_step(column, to, step):
    """(q A_s - (q - 1)) at q = 1 with subtraction turned into addition,
    on a column of L1 bounds: x at a goes to s a, and where s raises a,
    2x stays at a too; where s fixes a, x stays."""
    out = {}
    for a, x in column.items():
        if step[a] > 0:
            out[to[a]] = out.get(to[a], 0) + x
            out[a] = out.get(a, 0) + 2 * x
        elif step[a] < 0:
            out[to[a]] = out.get(to[a], 0) + x
        else:
            out[a] = out.get(a, 0) + x
    return out


def fixed_by_step(column, to, step, bits):
    """Whether the left step of s, which fixes the column's t, keeps the
    packed column, by building the step whole (``rpoly._step`` of kind
    R', the step of the Hecke columns and of R') and comparing it with
    the column: the slow form of ``hecke._is_fixed``.  The column must
    hold no stored 0."""
    return rpoly._step(column, to, step, bits, "R'") == column


def hecke_bound_tables(n, k, bases=None):
    """The L1 bounds of the scaled rows of c and of bar(c) over the
    rank-k orbit of R_n, as two tables filled side by side by
    ``hecke_bound_step``, the Hecke step at q = 1 with subtraction turned
    into addition, written apart from ``rpoly._step``, from the L1 norms
    of the orbit sums ``bases`` (by default ``hecke._orbit_sums``): the
    full bound fill, of which ``hecke`` checks only the bases."""
    poset = order.orbit_poset(n, k)
    left = order.orbit_action(n, k, "left")
    bases = hecke._orbit_sums(n, k) if bases is None else bases
    rows, barred = [], []
    for b, sigma in enumerate(poset.elements):
        descents = renner.descents(sigma, "left")
        if descents:
            to, step = left[min(descents) - 1]
            rows.append(hecke_bound_step(rows[to[b]], to, step))
            barred.append(hecke_bound_step(barred[to[b]], to, step))
            continue
        base = bases[b]
        rows.append({a: sum(map(abs, c.coeffs)) for a, c in base.items()})
        barred.append({a: sum(map(abs, c.bar().coeffs)) for a, c in base.items()})
    return rows, barred


def full_bound_check(n, k, bases):
    """The check of the full Hecke bound fill in place of
    ``hecke._check_bounds``: ValueError where any bound of either table
    exceeds the R bound at its entry (0 outside down(b))."""
    columns = rpoly_bound_tables(n, k)[0]
    for table in hecke_bound_tables(n, k, bases):
        for b, column in enumerate(table):
            for a, x in column.items():
                if x > columns[b].get(a, 0):
                    raise ValueError(f"the Hecke bounds of the rank-{k} orbit of R_{n} "
                                     f"exceed the bounds of its R table at ({a}, {b})")


@lru_cache(maxsize=None)
def classical_rpoly_bruhat_first(u, v):
    """R_{u,v} of the symmetric group by the recurrence of
    ``weyl.classical_rpoly``, with the Bruhat test first and no length
    test."""
    if u == v:
        return ONE
    if not weyl.bruhat_leq(u, v):
        return ZERO
    n = len(v)
    s = weyl.simple_reflection(n, min(weyl.left_descents(v)))
    sv, su = weyl.compose(s, v), weyl.compose(s, u)
    if weyl.length(su) < weyl.length(u):
        return classical_rpoly_bruhat_first(su, sv)
    return (Q_MINUS_1 * classical_rpoly_bruhat_first(u, sv)
            + Q * classical_rpoly_bruhat_first(su, sv))


def check_lifting(theta, sigma, i):
    """The lifting property for the triple (theta, sigma, s_i), on words.

    Clause (a): theta < s theta and sigma < s sigma imply
    s theta < s sigma.  Clause (b): s theta >= theta and
    s sigma <= sigma imply theta <= s sigma and s theta <= sigma.
    Returns the clause that applies ("a", "b" or "not applicable") and
    whether it holds.  ``order.leq`` answers the comparisons and
    ``renner.length`` the length changes; theta < sigma must lie in one
    orbit.
    """
    order.require_same_orbit(theta, sigma)
    if theta == sigma or not order.leq(theta, sigma):
        raise ValueError("check_lifting requires theta < sigma")
    s = weyl.simple_reflection(len(theta), i)
    s_theta, s_sigma = renner.multiply(s, theta), renner.multiply(s, sigma)
    d_theta = renner.length(s_theta) - renner.length(theta)
    d_sigma = renner.length(s_sigma) - renner.length(sigma)
    if d_theta > 0 and d_sigma > 0:
        return "a", s_theta != s_sigma and order.leq(s_theta, s_sigma)
    if d_theta >= 0 and d_sigma <= 0:
        return "b", order.leq(theta, s_sigma) and order.leq(s_theta, sigma)
    return "not applicable", True


def lifting_by_pairs(n, k):
    """The lifting sweep of one orbit pair by pair: one clause per
    comparable pair theta < sigma and simple reflection s_i, on the
    indices of ``order.orbit_poset(n, k)`` with s_i from
    ``order.orbit_action``, as ``check_lifting`` states it on words.
    The oracle of the row sweep ``analysis.lifting_violations``."""
    report = Report(name="lifting")
    poset = order.orbit_poset(n, k)
    ups = [poset.up(a) for a in range(len(poset.elements))]

    def below(a, b):
        return (ups[a] >> b) & 1 == 1

    s_action = order.orbit_action(n, k, "left")
    for a, theta in enumerate(poset.elements):
        for b in order.bits(ups[a] & ~(1 << a)):
            for i, (to, d) in enumerate(s_action, 1):
                report.checked += 1
                if d[a] > 0 and d[b] > 0:
                    clause, holds = "a", to[a] != to[b] and below(to[a], to[b])
                elif d[a] >= 0 and d[b] <= 0:
                    clause, holds = "b", below(a, to[b]) and below(to[a], b)
                else:
                    clause, holds = "not applicable", True
                if not holds:
                    report.violations.append({
                        "theta": renner.format_element(theta),
                        "sigma": renner.format_element(poset.elements[b]),
                        "s": i, "clause": clause, "holds": holds,
                    })
    return report


def putcha_by_pairs(orbit_elements):
    """The Putcha check pair by pair: for every comparable pair of the
    given elements, mu off the bottom's ``order.mobius_row``, filled once
    per bottom, against 0 when a linear length-2 pair
    (``analysis.linear_length2_pairs`` of the whole orbit) lies inside
    the interval and (-1)^(length difference) otherwise.  The oracle of the row sweep
    ``analysis.verify_putcha_conjecture``."""
    report = Report(name="putcha")
    elems = list(orbit_elements)
    if not elems:
        return report
    n, k = len(elems[0]), renner.rank(elems[0])
    poset = order.orbit_poset(n, k)
    given = sorted({poset.locate(w) for w in elems})
    given_mask = sum(1 << a for a in given)
    # tops[c]: everything above the top of a linear pair with bottom c
    tops = {}
    for alpha, beta in analysis.linear_length2_pairs(
            renner.orbit_minimum(n, k), renner.orbit_maximum(n, k)):
        c = poset.index[alpha]
        tops[c] = tops.get(c, 0) | poset.up(poset.index[beta])
    for a in given:
        theta, up = poset.elements[a], poset.up(a)
        row = order.mobius_row(a, up, poset.down)
        # sigma >= theta lies above a linear pair inside [theta, sigma]
        reach = 0
        for bottom, above in tops.items():
            if (up >> bottom) & 1:
                reach |= above
        for b in order.bits(up & given_mask):
            report.checked += 1
            expected = 0 if (reach >> b) & 1 else \
                (-1) ** (poset.lengths[b] - poset.lengths[a])
            actual = order.mobius_at(row, b)
            if actual != expected:
                report.violations.append({
                    "theta": renner.format_element(theta),
                    "sigma": renner.format_element(poset.elements[b]),
                    "mobius": actual,
                    "expected": expected,
                    "interval": [renner.format_element(poset.elements[t])
                                 for t in order.bits(up & poset.down(b))],
                })
    return report


def embeddable_in_weyl_necessary(theta, sigma):
    """Necessary condition for [theta, sigma] to be a Weyl group
    subinterval: R(0) != 0.  False certifies non-embeddability."""
    if not order.leq(theta, sigma):
        raise ValueError("embeddable_in_weyl_necessary requires theta <= sigma")
    return rpoly.rpoly(theta, sigma).constant_term != 0


def transitive_reduction(elements, leq_fn) -> list[tuple]:
    """Generic Hasse edges of a finite poset: a < b with nothing between."""
    elements = list(elements)
    edges = []
    for a in elements:
        for b in elements:
            if a == b or not leq_fn(a, b):
                continue
            if any(c != a and c != b and leq_fn(a, c) and leq_fn(c, b)
                   for c in elements):
                continue
            edges.append((a, b))
    return edges


def check_graded(orbit_elements) -> Report:
    """Verify that length is the rank function of a full-orbit poset.

    Uses the generic transitive reduction (independent of length) and
    checks every cover step raises length by exactly 1, that heights
    computed from covers agree with length, and that the orbit has a
    unique minimum and maximum.
    """
    elems = sorted(orbit_elements, key=lambda w: (renner.length(w), w))
    report = Report(name="graded")
    covers = transitive_reduction(elems, order.leq)
    ups = {w: [] for w in elems}
    downs = {w: [] for w in elems}
    for a, b in covers:
        ups[a].append(b)
        downs[b].append(a)
        report.checked += 1
        if renner.length(b) - renner.length(a) != 1:
            report.violations.append({
                "kind": "cover-step",
                "lower": renner.format_element(a),
                "upper": renner.format_element(b),
                "lengths": [renner.length(a), renner.length(b)],
            })
    minima = [w for w in elems if not downs[w]]
    maxima = [w for w in elems if not ups[w]]
    for kind, found in (("minimum", minima), ("maximum", maxima)):
        report.checked += 1
        if len(found) != 1:
            report.violations.append({
                "kind": f"non-unique-{kind}",
                "elements": [renner.format_element(w) for w in found],
            })
    # elems come sorted by length, so lower covers are ready when needed;
    # .get keeps the sweep total even on a broken poset being reported
    height = {elems[0]: 0}
    for w in elems[1:]:
        height[w] = max((height.get(a, 0) + 1 for a in downs[w]), default=0)
    base = renner.length(elems[0])
    for w in elems:
        report.checked += 1
        if height[w] != renner.length(w) - base:
            report.violations.append({
                "kind": "height-vs-length",
                "element": renner.format_element(w),
                "height": height[w],
                "length": renner.length(w),
            })
    return report
