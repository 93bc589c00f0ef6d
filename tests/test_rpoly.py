import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (delta_identity_sum_laurent, hecke_bound_tables, pack_rows,
                     rpoly_bound_tables, witness_leq)
from rookorder import hecke, order, renner, rpoly, weyl
from rookorder.polynomials import IntPoly, Kronecker, Laurent, ONE, Q, Q_MINUS_1, ZERO


def all_same_orbit_pairs(n, k):
    return itertools.product(renner.orbit(n, k), repeat=2)


def test_table_values():
    assert rpoly.rpoly((0, 0, 0, 1), (0, 0, 0, 3)) == Q * Q_MINUS_1
    assert rpoly.rpoly((0, 0, 1, 2), (0, 0, 2, 3)) == Q_MINUS_1 * Q_MINUS_1
    assert rpoly.rpoly((0, 1), (2, 0)) == Q_MINUS_1 * Q_MINUS_1


def test_base_cases():
    for sigma in renner.orbit(3, 2):
        assert rpoly.rpoly(sigma, sigma) == ONE
    # length-1 intervals give q - 1
    assert rpoly.rpoly((0, 0, 0, 1), (0, 0, 0, 2)) == Q_MINUS_1
    # incomparable same-orbit pair gives 0
    assert rpoly.rpoly((0, 0, 1, 0), (0, 0, 0, 3)) == ZERO
    with pytest.raises(ValueError):
        rpoly.rpoly((0, 0, 0, 1), (0, 0, 1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_nonzero_iff_comparable(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert bool(rpoly.rpoly(theta, sigma)) == witness_leq(theta, sigma)


@pytest.mark.parametrize("n", [2, 3])
def test_degree_monic_constant_term(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            if not order.leq(theta, sigma):
                continue
            r = rpoly.rpoly(theta, sigma)
            gap = renner.length(sigma) - renner.length(theta)
            assert r.degree == gap
            assert r.leading_coefficient == 1
            assert r.constant_term in (0, (-1) ** gap)


def _rpoly_right_first(theta, sigma):
    """Same recurrence, preferring right descents; used only to check
    that the descent choice does not matter."""
    n = len(theta)
    if theta == sigma:
        return ONE
    if not order.leq(theta, sigma):
        return ZERO
    ls = renner.length(sigma)
    for side in ("right", "left"):
        for i in range(1, n):
            s = weyl.simple_reflection(n, i)
            if side == "right":
                s_sigma = renner.multiply(sigma, s)
                s_theta = renner.multiply(theta, s)
            else:
                s_sigma = renner.multiply(s, sigma)
                s_theta = renner.multiply(s, theta)
            if renner.length(s_sigma) >= ls:
                continue
            diff = renner.length(s_theta) - renner.length(theta)
            if diff < 0:
                return _rpoly_right_first(s_theta, s_sigma)
            if diff == 0:
                return Q * _rpoly_right_first(theta, s_sigma)
            return (Q_MINUS_1 * _rpoly_right_first(theta, s_sigma)
                    + Q * _rpoly_right_first(s_theta, s_sigma))
    raise AssertionError(f"no descent found for {sigma} with length {ls}")


@pytest.mark.parametrize("n", [2, 3])
def test_recurrence_confluence_left_vs_right(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.rpoly(theta, sigma) == _rpoly_right_first(theta, sigma)


def test_extra_rule_fixed_top():
    # when s sigma = sigma and s theta > theta, R[theta, sigma] = q R[s theta, sigma]
    seen = 0
    for n in (2, 3, 4):
        for k in range(n + 1):
            if n == 4 and k != 1:
                continue
            for theta, sigma in all_same_orbit_pairs(n, k):
                if not order.leq(theta, sigma):
                    continue
                for i in range(1, n):
                    s = weyl.simple_reflection(n, i)
                    if renner.multiply(s, sigma) != sigma:
                        continue
                    s_theta = renner.multiply(s, theta)
                    if renner.length(s_theta) > renner.length(theta):
                        seen += 1
                        assert rpoly.rpoly(theta, sigma) == \
                            Q * rpoly.rpoly(s_theta, sigma)
    assert seen > 0


@pytest.mark.parametrize("n", [2, 3])
def test_mobius_via_r_matches_direct(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.rpoly(theta, sigma).constant_term == \
                order.mobius_direct(theta, sigma)


def test_bar_examples():
    assert Q_MINUS_1.bar() == Laurent.q_power(-1) - Laurent.from_int(1)
    p = Laurent(-3, (2, 0, -1, 4))
    assert p.bar().bar() == p
    assert Laurent.q_power(4).bar() == Laurent.q_power(-4)


def test_delta_identity_small_cases():
    # single point: the sum is the single term 1*1*1
    assert rpoly.delta_identity_sum((0, 1), (0, 1)) == Laurent.from_int(1)
    # length-1 interval: (1-q) + (q-1) = 0
    assert rpoly.delta_identity_sum((0, 0, 0, 1), (0, 0, 0, 2)) == Laurent(0, ())
    # exhaustive over the 4-element orbit of R_2
    for theta, sigma in all_same_orbit_pairs(2, 1):
        assert rpoly.verify_delta_identity(theta, sigma)
    with pytest.raises(ValueError):
        rpoly.delta_identity_sum((0, 0, 0, 1), (0, 0, 1, 2))


def test_verify_delta_identity_reads_the_packed_sum(monkeypatch):
    # R[min, max] of the R_3 k = 1 table off by 1 turns the sum at
    # (min, max) from 0 into 1, which is right only on the diagonal
    table = rpoly.orbit_table(3, 1)
    top = len(table.rows) - 1
    monkeypatch.setitem(table.rows[0], top, table.rows[0][top] + 1)
    monkeypatch.setattr(table, "_delta_by_word", (None, {}))
    bottom, maximum = table.poset.elements[0], table.poset.elements[top]
    assert rpoly.delta_identity_sum(bottom, maximum) == 1
    assert not rpoly.verify_delta_identity(bottom, maximum)
    assert rpoly.verify_delta_identity(bottom, bottom)


def test_delta_row_cache_follows_theta_across_orbits():
    # thetas of two orbits, and of one orbit, interleaved pair by pair:
    # every answer is the one a fresh row gives, as each table keeps the
    # row of the theta it was last asked about
    first, second = renner.orbit(3, 1), renner.orbit(3, 2)
    queries = [query for thetas in zip(first, second[::-1], first[::-1])
               for sigmas in zip(first * 2, second, first * 2)
               for query in zip(thetas, sigmas)]
    for theta, sigma in queries:
        assert rpoly.verify_delta_identity(theta, sigma), (theta, sigma)
        assert rpoly.delta_identity_sum(theta, sigma) == \
            delta_identity_sum_laurent(theta, sigma), (theta, sigma)


def test_delta_row_cache_refuses_a_sigma_from_another_orbit():
    # with the row of theta kept, a sigma outside its orbit, of the same
    # rank or not, is still refused, and the kept row still answers
    theta = renner.orbit(3, 1)[2]
    assert rpoly.verify_delta_identity(theta, theta)
    for sigma in (renner.orbit(3, 2)[0], renner.orbit(4, 1)[0], (0, 0, 0)):
        with pytest.raises(ValueError):
            rpoly.verify_delta_identity(theta, sigma)
        with pytest.raises(ValueError):
            rpoly.delta_identity_sum(theta, sigma)
    assert rpoly.verify_delta_identity(theta, theta)


def test_delta_row_cache_follows_the_table(monkeypatch):
    # the kept row is the table's: a corrupted entry shows once the row
    # of its theta is filled again, and a cleared table cache answers
    # from a fresh table
    table = rpoly.orbit_table(3, 1)
    top = len(table.rows) - 1
    bottom, maximum = table.poset.elements[0], table.poset.elements[top]
    assert rpoly.verify_delta_identity(bottom, maximum)
    monkeypatch.setitem(table.rows[0], top, table.rows[0][top] + 1)
    assert rpoly.verify_delta_identity(maximum, maximum)  # another theta
    assert rpoly.delta_identity_sum(bottom, maximum) == 1
    assert not rpoly.verify_delta_identity(bottom, maximum)
    rpoly.orbit_table.cache_clear()
    assert rpoly.orbit_table(3, 1) is not table
    assert rpoly.delta_identity_sum(bottom, maximum) == 0
    assert rpoly.verify_delta_identity(bottom, maximum)


@pytest.mark.parametrize("n", [2, 3])
def test_delta_identity_exhaustive(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.verify_delta_identity(theta, sigma), (theta, sigma)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_table_matches_rpoly(n):
    for k in range(n + 1):
        table = rpoly.orbit_table(n, k)
        assert table.poset.elements == renner.orbit(n, k)
        for (a, theta), (b, sigma) in itertools.product(
                enumerate(table.poset.elements), repeat=2):
            assert table.r(a, b) == rpoly.rpoly(theta, sigma), (theta, sigma)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_delta_matches_laurent_delta(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.delta_identity_sum(theta, sigma) == \
                delta_identity_sum_laurent(theta, sigma), (theta, sigma)


@pytest.mark.parametrize("k", range(6))
@settings(max_examples=8)
@given(data=st.data())
def test_packed_delta_matches_laurent_delta_at_n5(k, data):
    orbit = renner.orbit(5, k)
    pick = st.sampled_from(orbit)
    theta, sigma = data.draw(pick), data.draw(pick)
    # half the draws trade an incomparable pair for (min, sigma), so
    # that most sums are not empty
    if data.draw(st.booleans()) and not order.leq(theta, sigma):
        theta, sigma = renner.orbit_minimum(5, k), sigma
    assert rpoly.delta_identity_sum(theta, sigma) == \
        delta_identity_sum_laurent(theta, sigma)


@pytest.mark.parametrize("n", [2, 3])
def test_packed_sums_decode_to_the_laurent_sums(n):
    # sum over nu of R[theta, nu] R[nu, sigma], sums that are neither 0
    # nor 1, through the table's packing and the kernel
    for k in range(n + 1):
        table = rpoly.orbit_table(n, k)
        size = len(table.rows)
        for a in range(size):
            sums = rpoly.triple_sums(table.rows[a], table.rows)
            for b in range(size):
                expected = Laurent(0, ())
                for m in range(size):
                    expected = expected + table.r(a, m) * table.r(m, b)
                assert table.packing.unpack(sums[b]) == expected


def _l1(p):
    return sum(map(abs, p.coeffs))


def test_packing_width_comes_from_the_table():
    # on every orbit of R_1 to R_4 and on R_5 at k = 2 and 5: the one
    # bound table of each module (q -> 1, subtraction -> addition)
    # bounds every decoded entry of both of its stored tables, the R
    # bounds cover the Hecke bounds, and the one width of both is
    # bitlen(|orbit| L^2 + 1) + 1 for L the largest R bound
    for n, k in [(n, k) for n in range(1, 5) for k in range(n + 1)] + [(5, 2), (5, 5)]:
        table = rpoly.orbit_table(n, k)
        [bounds] = rpoly._fill(n, k)
        norm = max(max(row.values()) for row in bounds)
        for values in (table.rows, table.reversed_rows):
            for row, limit in zip(values, bounds):
                assert row.keys() == limit.keys()
                for b, x in row.items():
                    assert _l1(table.packing.unpack(x)) <= limit[b] <= norm, (n, k)
        assert table.packing.bits == (len(table.rows) * norm ** 2 + 1).bit_length() + 1
        packing, *bars = hecke.orbit_bars(n, k)
        assert packing.bits == table.packing.bits
        [hecke_bounds] = hecke._fill(n, k, hecke._orbit_sums(n, k))
        for values in bars:
            for row, limit in zip(values, hecke_bounds):
                for a, x in row.items():
                    assert _l1(packing.unpack(x)) <= limit[a] <= norm, (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_bound_table_serves_both_tables(n):
    # filled side by side, the bounds of R and R', and those of the Hecke
    # rows and barred rows, agree entry for entry, so each module fills
    # one bound table
    for k in range(n + 1):
        r_bounds, reversed_bounds = rpoly_bound_tables(n, k)
        assert [r_bounds] == [reversed_bounds] == rpoly._fill(n, k), (n, k)
        row_bounds, barred_bounds = hecke_bound_tables(n, k)
        assert [row_bounds] == [barred_bounds] == \
            hecke._fill(n, k, hecke._orbit_sums(n, k)), (n, k)


def test_reversed_rows_are_the_reversed_polynomials():
    # R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma])
    for n, k in [(3, 1), (4, 2), (4, 4)]:
        table = rpoly.orbit_table(n, k)
        lengths = table.poset.lengths
        for a, row in enumerate(table.reversed_rows):
            for b, x in row.items():
                expected = Laurent.q_power(lengths[b] - lengths[a]) * table.r(a, b).bar()
                assert table.packing.unpack(x) == expected


@pytest.mark.parametrize("sign", [1, -1])
def test_one_bit_short_packing_misreads_the_worst_case(sign):
    # 3 terms, each a product of two values of L1 norm 3 and one sign:
    # the coefficient 27 of q^2 is the largest the bound allows
    value = Q * 3
    terms = 3
    packing = Kronecker(norm=3, terms=terms)
    mutant = copy.copy(packing)
    mutant.bits -= 1
    expected = Q * Q * (sign * 27)
    for kind, outcome in ((packing, True), (mutant, False)):
        left = pack_rows([{m: value for m in range(terms)}], kind)[0]
        rows = pack_rows([{0: sign * value}] * terms, kind)
        assert (kind.unpack(rpoly.triple_sums(left, rows)[0]) == expected) is outcome


@pytest.mark.parametrize("n", [2, 3])
def test_specialization_to_classical(n):
    for u, v in itertools.product(weyl.all_permutations(n), repeat=2):
        assert rpoly.rpoly(u, v) == weyl.classical_rpoly(u, v)


@pytest.mark.parametrize("n", [2, 3])
def test_subinterval_constant_term_inherits(n):
    # if R[theta, sigma](0) != 0 then every subinterval also has R(0) != 0
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            if not order.leq(theta, sigma):
                continue
            if rpoly.rpoly(theta, sigma).constant_term == 0:
                continue
            inside = order.interval_elements(theta, sigma)
            for alpha, beta in itertools.product(inside, repeat=2):
                if order.leq(alpha, beta):
                    assert rpoly.rpoly(alpha, beta).constant_term != 0


def test_subinterval_converse_fails_on_linear_length2():
    # all proper subintervals of a linear length-2 interval have nonzero
    # constant term, yet the interval itself has R(0) = 0
    theta, sigma = (0, 0, 0, 1), (0, 0, 0, 3)
    assert rpoly.rpoly(theta, sigma).constant_term == 0
    inside = order.interval_elements(theta, sigma)
    for alpha, beta in itertools.product(inside, repeat=2):
        if order.leq(alpha, beta) and (alpha, beta) != (theta, sigma):
            assert rpoly.rpoly(alpha, beta).constant_term != 0


@pytest.mark.parametrize("n", [2, 3])
def test_no_fixed_points_under_descents_when_constant_term_nonzero(n):
    # with R[theta, sigma](0) != 0, a simple reflection lowering sigma or
    # raising theta (on either side) fixes no element of the interval
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            if not order.leq(theta, sigma):
                continue
            if rpoly.rpoly(theta, sigma).constant_term == 0:
                continue
            inside = order.interval_elements(theta, sigma)
            for i in range(1, n):
                s = weyl.simple_reflection(n, i)
                left_hyp = (
                    renner.length(renner.multiply(s, sigma)) < renner.length(sigma)
                    or renner.length(renner.multiply(s, theta)) > renner.length(theta))
                right_hyp = (
                    renner.length(renner.multiply(sigma, s)) < renner.length(sigma)
                    or renner.length(renner.multiply(theta, s)) > renner.length(theta))
                if left_hyp:
                    assert all(renner.multiply(s, alpha) != alpha
                               for alpha in inside)
                if right_hyp:
                    assert all(renner.multiply(alpha, s) != alpha
                               for alpha in inside)


@pytest.mark.parametrize("n", [2, 3])
def test_bar_of_rpoly_relation_iff_nonzero_constant_term(n):
    # bar(R) = eps_theta eps_sigma q_theta q_sigma^-1 R holds exactly when
    # R(0) != 0, interpreting bar on Z[q] as q -> q^-1
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            if not order.leq(theta, sigma):
                continue
            r = rpoly.rpoly(theta, sigma)
            lt, ls = renner.length(theta), renner.length(sigma)
            sign = (-1) ** (lt + ls)
            rhs = sign * Laurent.q_power(lt - ls) * r
            assert (r.bar() == rhs) == (r.constant_term != 0), (theta, sigma)


def test_rpoly_json_shape():
    assert rpoly.rpoly((0, 0, 0, 1), (0, 0, 0, 2)).to_json() == \
        {"var": "q", "coeffs": [-1, 1]}
    data = rpoly.rpoly((0, 0, 0, 1), (0, 0, 0, 3)).to_json()
    assert data == {"var": "q", "coeffs": [0, -1, 1]}
    assert IntPoly(data["coeffs"]) == Q * Q - Q
