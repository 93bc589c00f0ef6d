import itertools

import pytest

from oracles import bar_Asigma_by_reduced_word, bar_Asigma_by_support
from rookorder import hecke, order, renner, rpoly, verify, weyl
from rookorder.polynomials import Laurent, ONE

ONE_L = Laurent.from_int(1)
Q_INV = Laurent.q_power(-1)


def basis(word):
    return {word: ONE_L}


def elements_equal(a, b):
    return hecke.canonical(a) == hecke.canonical(b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_relation_on_units(n):
    # A_s A_s = q^-1 A_id + (1 - q^-1) A_s as operators on H(W)
    for i in range(1, n):
        for w in weyl.all_permutations(n):
            twice = hecke.mult_As_left(i, hecke.mult_As_left(i, basis(w)))
            expected = {}
            hecke.add_scaled(expected, hecke.mult_As_left(i, basis(w)),
                             ONE_L - Q_INV)
            hecke.add_scaled(expected, basis(w), Q_INV)
            assert elements_equal(twice, expected), (i, w)


def test_mult_rules_on_orbit_elements():
    # raising case: A_s A_sigma = A_{s sigma}
    out = hecke.mult_As_left(1, basis((1, 0)))
    assert out == basis((2, 0))
    # fixed case: A_s A_sigma = A_sigma when s sigma = sigma
    out = hecke.mult_As_left(1, basis((0, 0, 0, 3)))
    assert out == basis((0, 0, 0, 3))
    # lowering case
    out = hecke.mult_As_left(1, basis((2, 0)))
    assert out == {(1, 0): Q_INV, (2, 0): ONE_L - Q_INV}


def test_bar_on_W_generator():
    n = 2
    s = weyl.simple_reflection(n, 1)
    barred = hecke.bar_Asigma(s)
    q = Laurent.q_power(1)
    assert barred == {s: q, weyl.identity(n): ONE_L - q}
    # defining property: A_s bar(A_s) = A_id
    prod = hecke.mult_As_left(1, barred)
    assert elements_equal(prod, basis(weyl.identity(n)))


def test_bar_on_W_identity():
    assert hecke.bar_Asigma(weyl.identity(3)) == basis(weyl.identity(3))


def test_bar_on_W_support_is_lower_cone():
    w = weyl.compose(weyl.simple_reflection(3, 1), weyl.simple_reflection(3, 2))
    support = set(hecke.bar_Asigma(w))
    assert support == {u for u in weyl.all_permutations(3)
                       if weyl.bruhat_leq(u, w)}
    assert len(support) == 4


def _all_reduced_words(w):
    n = len(w)
    if w == weyl.identity(n):
        yield ()
        return
    for i in sorted(weyl.left_descents(w)):
        rest = weyl.compose(weyl.simple_reflection(n, i), w)
        for word in _all_reduced_words(rest):
            yield (i,) + word


def test_bar_on_W_confluent_across_reduced_words():
    # recompute bar(A_w) from every reduced word and compare
    n = 3
    q = Laurent.q_power(1)
    for w in weyl.all_permutations(n):
        reference = hecke.bar_Asigma(w)
        for word in _all_reduced_words(w):
            h = basis(weyl.identity(n))
            for i in reversed(word):
                out = {}
                hecke.add_scaled(out, hecke.mult_As_left(i, h), q)
                hecke.add_scaled(out, h, -(q - ONE_L))
                h = hecke.canonical(out)
            assert elements_equal(h, reference), (w, word)


@pytest.mark.parametrize("n", [2, 3])
def test_bar_on_W_involutive(n):
    for w in weyl.all_permutations(n):
        back = hecke.bar_element(hecke.bar_Asigma(w))
        assert elements_equal(back, basis(w)), w


def _mult_elements(h1, h2):
    out = {}
    for w, c in h1.items():
        hecke.add_scaled(out, hecke.mult_Aw_left(w, h2), c)
    return hecke.canonical(out)


def test_bar_on_W_is_ring_homomorphism():
    # bar(A_u A_v) = bar(A_u) bar(A_v) on H(W), exhaustive for S_3
    perms = weyl.all_permutations(3)
    for u, v in itertools.product(perms, repeat=2):
        product = _mult_elements(basis(u), basis(v))
        lhs = hecke.bar_element(product)
        rhs = _mult_elements(hecke.bar_Asigma(u), hecke.bar_Asigma(v))
        assert elements_equal(lhs, rhs), (u, v)


def test_bar_Ae_small():
    # n=2, k=1: W(e) = {id}, D(e) = {id, s}, so two terms
    out = hecke.bar_Asigma(renner.rank_idempotent(2, 1))
    assert out == {(1, 0): ONE_L, (0, 1): Q_INV - ONE_L}


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_bar_Ae_properties(n, k):
    e = renner.rank_idempotent(n, k)
    out = hecke.bar_Asigma(e)
    # coefficient of A_e itself is 1
    assert out[e] == ONE_L
    # support stays inside the orbit, coefficients lie in Z[q^-1]
    for word, coeff in out.items():
        assert renner.rank(word) == k
        assert all(exp <= 0 for exp, _ in coeff.terms())


def test_bar_Asigma_at_minimum():
    nu = renner.orbit_minimum(2, 1)
    out = hecke.bar_Asigma(nu)
    assert out == {nu: Q_INV}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bar_Asigma_matches_sum_over_support(n):
    # the table against the sum of A_w over the support of bar(A_x), on
    # every element of every orbit of R_n
    for k in range(n + 1):
        for sigma in renner.orbit(n, k):
            assert hecke.bar_Asigma(sigma) == bar_Asigma_by_support(sigma), sigma


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(n + 1)]
                         + [(5, 2), (5, 5)])
def test_orbit_bars_match_reduced_word_oracle(n, k):
    # every row of the table, decoded, against bar(A_x) applied to the
    # orbit sum along a reduced word of x; the barred row decodes to the
    # bars of the same coefficients
    for sigma in renner.orbit(n, k):
        expected = bar_Asigma_by_reduced_word(sigma)
        assert hecke.bar_Asigma(sigma) == expected, sigma
        shift = Laurent.q_power(renner.length(sigma) - renner.idempotent_length(n, k))
        assert hecke.rpoly_via_bar(sigma) == {w: c.bar() * shift
                                              for w, c in expected.items()}, sigma


def test_orbit_bars_refuse_bounds_past_the_width(monkeypatch):
    # the one Hecke bound table is held to the width of the R table
    monkeypatch.setattr(rpoly, "orbit_norm", lambda n, k: 1)
    with pytest.raises(ValueError, match="exceed the width"):
        hecke.orbit_bars.__wrapped__(3, 1)


def test_orbit_bars_sum_each_base_row_once(monkeypatch):
    # the bound fill and the packed fill share the orbit sums: one per
    # element with no left descent
    summed, orbit_sum = [], hecke._orbit_sum
    monkeypatch.setattr(hecke, "_orbit_sum",
                        lambda *args: summed.append(args[2]) or orbit_sum(*args))
    hecke.orbit_bars.__wrapped__(4, 2)
    bases = [w for w in renner.orbit(4, 2) if not renner.descents(w, "left")]
    assert len(summed) == len(set(summed)) == len(bases) > 1


def test_bar_Asigma_involutive_on_R2_orbit():
    for sigma in renner.orbit(2, 1):
        back = hecke.bar_element(hecke.bar_Asigma(sigma))
        assert elements_equal(back, basis(sigma)), sigma


def test_rpoly_via_bar_entries():
    sigma = (2, 0)
    expansion = hecke.rpoly_via_bar(sigma)
    assert expansion[sigma] == ONE
    # entries exist exactly on the lower cone
    for theta in renner.orbit(2, 1):
        if order.leq(theta, sigma):
            assert expansion[theta] == rpoly.rpoly(theta, sigma)
        else:
            assert theta not in expansion


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2),
                                 (4, 1), (4, 2), (4, 3), (4, 4)])
def test_oracle_agreement(n, k):
    report = verify.hecke_oracle_report(n, k)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_bar_squared_matches_bar_element(n):
    # entry [sigma][nu] is q^(l(sigma) - l(nu)) times the coefficient
    for k in range(n + 1):
        packing, sums = verify.packed_bar_squared(n, k)
        elements = renner.orbit(n, k)
        for sigma, row in zip(elements, sums):
            assert _decode_bar_squared(packing, sigma, row) == hecke.canonical(
                hecke.bar_element(hecke.bar_Asigma(sigma))), sigma


def _decode_bar_squared(packing, sigma, row):
    elements = renner.orbit(len(sigma), renner.rank(sigma))
    scale = renner.length(sigma)
    return {nu: packing.unpack(x) * Laurent.q_power(renner.length(nu) - scale)
            for nu, x in zip(elements, row) if x}


def _corrupt(monkeypatch, n, k, b, a, delta, barred=True):
    """Add ``delta`` to the coefficient c_a(b) of A_a in bar(A_b) in the
    packed Hecke table, scaled as the table stores it: in the rows of c
    and, unless ``barred`` is false, in the rows of bar(c)."""
    packing, rows, bars = hecke.orbit_bars(n, k)
    lengths, e = order.orbit_poset(n, k).lengths, renner.idempotent_length(n, k)
    monkeypatch.setitem(rows[b], a, rows[b].get(a, 0) + packing.pack(
        delta * Laurent.q_power(e - lengths[a])))
    if barred:
        monkeypatch.setitem(bars[b], a, bars[b].get(a, 0) + packing.pack(
            delta.bar() * Laurent.q_power(lengths[b] - e)))


@pytest.mark.parametrize("n,k", [(3, 1), (3, 3)])
def test_packed_bar_squared_follows_a_corrupted_input(n, k, monkeypatch):
    # with one coefficient of one bar(A_sigma) off, bar o bar is no longer
    # the identity; both paths must read the same wrong value
    elements = renner.orbit(n, k)
    top = elements[-1]
    _corrupt(monkeypatch, n, k, len(elements) - 1, 0, ONE_L)
    packing, sums = verify.packed_bar_squared(n, k)
    laurent = hecke.canonical(hecke.bar_element(hecke.bar_Asigma(top)))
    assert laurent != basis(top)
    assert _decode_bar_squared(packing, top, sums[-1]) == laurent


def test_hecke_report_flags_every_sigma_a_corrupted_bar_reaches(monkeypatch):
    # bar(A_id) of H(W) gains a term at the longest element w0, which
    # moves the coefficient of A_w0 in bar(bar(A_sigma)) for every sigma
    # (each bar(A_sigma) has a coefficient at id); for every sigma but w0
    # that entry lies past the diagonal of the packed rows.  The term,
    # q^3, is one the scaled rows of c can hold (their bars cannot).
    n = 3
    identity, longest = weyl.identity(n), tuple(range(n, 0, -1))
    index = order.orbit_poset(n, n).index
    _corrupt(monkeypatch, n, n, index[identity], index[longest],
             Laurent.q_power(3), barred=False)
    report = verify.hecke_oracle_report(n, n)
    flagged = [v["sigma"] for v in report.violations
               if v.get("kind") == "not-involutive"]
    assert flagged == [renner.format_element(w) for w in renner.orbit(n, n)]


def test_hecke_to_json_sorted():
    h = hecke.bar_Asigma(renner.rank_idempotent(2, 1))
    data = hecke.hecke_to_json(h)
    assert [d["element"]["one_line"] for d in data] == [[0, 1], [1, 0]]
    assert data[0]["laurent"] == {"var": "q", "min_exp": -1, "coeffs": [1, -1]}
