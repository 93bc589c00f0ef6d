import copy
import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import faults
from faults import (base_doubled, cases, entry, first_moved, full_path, min_row_off_by_one,
                    off_the_bases, one_sided, symmetric)
from oracles import (degree, delta_identity_sum_laurent, descent_by_descent_sets,
                     hecke_bound_tables, pack_rows, rpoly_bound_tables, table_entry,
                     witness_leq)
from rookorder import hecke, order, renner, rpoly, verify, weyl
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
            assert degree(r) == gap
            assert r.coeffs[-1] == 1
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


def test_verify_delta_identity_reads_the_packed_sum(inject, drop_product):
    # R[min, max] of the R_3 k = 1 fill off by 1 turns the sum at
    # (min, max) from 0 into 1, which is right only on the diagonal
    # once the product that the orbit's poset keeps is dropped
    poset = order.orbit_poset(3, 1)
    top = len(poset.elements) - 1
    bottom, maximum = poset.elements[0], poset.elements[top]
    assert rpoly.verify_delta_identity(bottom, maximum)
    inject("R", 3, 1, entry(-1, 0, ONE))
    assert rpoly.verify_delta_identity(bottom, maximum)  # the kept product
    drop_product(3, 1)
    assert rpoly.delta_identity_sum(bottom, maximum) == 1
    assert not rpoly.verify_delta_identity(bottom, maximum)
    assert rpoly.verify_delta_identity(bottom, bottom)


def test_corrupt_fill_reaches_each_packed_r_fill(inject, delta_tables):
    # a fault of R sees the fill of the orbit's table alone, a fault of R'
    # the fill of R' alone, and neither the bound fill; a fault of R
    # applied at R's one fill is in the R table that the delta product
    # reads
    seen = []

    def spy(name):
        def change(packing, columns):
            seen.append((name, packing.bits, columns))
            entry(-1, 0, ONE)(packing, columns)
        return change
    for name in ("R", "R'"):
        inject(name, 3, 1, spy(name))
    table = rpoly.orbit_table(3, 1)
    rows, reversed_rows = delta_tables(3, 1)
    bits = rpoly.orbit_packing(3, 1).bits
    assert len(seen) == 2
    assert seen[0][:2] == ("R", bits) and seen[0][2] is table
    assert seen[1][:2] == ("R'", bits) and seen[1][2] is reversed_rows
    r = rpoly.rpoly(renner.orbit_minimum(3, 1), renner.orbit_maximum(3, 1))
    assert rows is table and table[-1][0] == rpoly.orbit_packing(3, 1).pack(r) + 1


def test_delta_row_cache_follows_theta_across_orbits():
    # thetas of two orbits, and of one orbit, interleaved pair by pair:
    # every answer is the one a fresh product gives, as each orbit keeps
    # the index of the theta it was last asked about
    first, second = renner.orbit(3, 1), renner.orbit(3, 2)
    queries = [query for thetas in zip(first, second[::-1], first[::-1])
               for sigmas in zip(first * 2, second, first * 2)
               for query in zip(thetas, sigmas)]
    for theta, sigma in queries:
        assert rpoly.verify_delta_identity(theta, sigma), (theta, sigma)
        assert rpoly.delta_identity_sum(theta, sigma) == \
            delta_identity_sum_laurent(theta, sigma), (theta, sigma)


def test_delta_row_cache_refuses_a_sigma_from_another_orbit():
    # with theta kept, a sigma outside its orbit, of the same rank or
    # not, is still refused, and the kept product still answers
    theta = renner.orbit(3, 1)[2]
    assert rpoly.verify_delta_identity(theta, theta)
    for sigma in (renner.orbit(3, 2)[0], renner.orbit(4, 1)[0], (0, 0, 0)):
        with pytest.raises(ValueError):
            rpoly.verify_delta_identity(theta, sigma)
        with pytest.raises(ValueError):
            rpoly.delta_identity_sum(theta, sigma)
    assert rpoly.verify_delta_identity(theta, theta)


def test_delta_row_cache_follows_the_table(drop_product):
    # the kept product is summed from the orbit's tables: a corrupted
    # entry of R shows once R is filled and the product summed again, and
    # a cleared orbit cache answers from a fresh fill
    elements = order.orbit_poset(3, 1).elements
    top = len(elements) - 1
    bottom, maximum = elements[0], elements[top]
    assert rpoly.verify_delta_identity(bottom, maximum)
    rows = rpoly.delta_rows(3, 1)
    with faults.inject("R", 3, 1, entry(-1, 0, ONE)):
        drop_product(3, 1)
        assert rpoly.verify_delta_identity(maximum, maximum)  # another theta
        assert rpoly.delta_identity_sum(bottom, maximum) == 1
        assert not rpoly.verify_delta_identity(bottom, maximum)
    order.orbit_poset.cache_clear()
    assert rpoly.delta_rows(3, 1) is not rows
    assert rpoly.delta_identity_sum(bottom, maximum) == 0
    assert rpoly.verify_delta_identity(bottom, maximum)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fill_reads_the_descent_of_the_words_off_the_table(n, monkeypatch, fresh_orbits):
    # the descent the plan takes at each element, read off the action
    # table, is the one the word recursion takes from renner.length_step,
    # and both are the smallest left, else right, of renner.descents; the
    # plan holds its action and side, and None at the minimum
    descent, taken = rpoly._descent, []
    monkeypatch.setattr(rpoly, "_descent",
                        lambda steps: taken.append(descent(steps)) or taken[-1])
    for k in range(n + 1):
        taken.clear()
        order.orbit_poset.cache_clear()
        plan = rpoly.orbit_plan(n, k)
        elements = order.orbit_poset(n, k).elements
        on_words = [descent(lambda side: (renner.length_step(sigma, i, side)
                                          for i in range(1, n)))
                    for sigma in elements[1:]]
        assert taken == on_words == list(map(descent_by_descent_sets, elements[1:]))
        assert plan == (None, *((*order.orbit_action(n, k, side)[i - 1], side == "left")
                                for side, i in on_words))


def test_descent_runs_once_per_element_of_an_orbit(monkeypatch, fresh_orbits):
    # the R table, the delta product (R') and the Hecke table, with
    # the bound fill, all read the orbit's one plan
    calls, descent = [], rpoly._descent
    monkeypatch.setattr(rpoly, "_descent", lambda steps: calls.append(1) or descent(steps))
    rpoly.orbit_table(4, 2), rpoly.delta_rows(4, 2), hecke.orbit_bars(4, 2)
    assert len(calls) == len(order.orbit_poset(4, 2).elements) - 1


def test_orbit_tables_compute_no_descent_on_words(monkeypatch, fresh_orbits):
    # the R fill and the Hecke fill read every descent and length step
    # off the orbit's action table
    def on_words(*args):
        raise AssertionError("a descent computed on words")

    monkeypatch.setattr(renner, "descents", on_words)
    monkeypatch.setattr(renner, "length_step", on_words)
    table, (rows, barred) = rpoly.orbit_table(4, 2), hecke.orbit_bars(4, 2)
    assert len(table) == len(rows) == len(barred) == len(renner.orbit(4, 2))


def test_orbit_table_keeps_no_key_object_per_entry(fresh_orbits):
    # on an orbit past the small-int cache (R_6 k = 2, 450 elements, 38557
    # entries), the columns of R share their keys: one int object per
    # index, the one the orbit's action tables hold, as every key the
    # step writes is an index of ``to`` or a key of an earlier column
    table = rpoly.orbit_table(6, 2)
    assert sum(map(len, table)) > 80 * len(table)
    assert len({id(a) for column in table for a in column}) <= len(table)


@pytest.mark.parametrize("n", [2, 3])
def test_delta_identity_exhaustive(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.verify_delta_identity(theta, sigma), (theta, sigma)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_table_matches_rpoly(n):
    for k in range(n + 1):
        elements = order.orbit_poset(n, k).elements
        assert elements == renner.orbit(n, k)
        for (a, theta), (b, sigma) in itertools.product(enumerate(elements), repeat=2):
            assert table_entry(n, k, a, b) == rpoly.rpoly(theta, sigma), (theta, sigma)


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
        table, packing = rpoly.orbit_table(n, k), rpoly.orbit_packing(n, k)
        size = len(table)
        for b in range(size):
            sums = rpoly.triple_sums(table[b], table)  # column b of R R
            for a in range(size):
                expected = Laurent(0, ())
                for m in range(size):
                    expected += table_entry(n, k, a, m) * table_entry(n, k, m, b)
                assert packing.unpack(sums[a]) == expected


def _l1(p):
    return sum(map(abs, p.coeffs))


def test_packing_width_comes_from_the_table(delta_tables):
    # on every orbit of R_1 to R_4 and on R_5 at k = 2 and 5: the one
    # R bound table (q -> 1, subtraction -> addition) bounds every
    # decoded entry of R and R', the full Hecke bound fill of the oracle
    # bounds every decoded Hecke entry and lies within the R bounds, and
    # the one width of all is bitlen(|orbit| L^2 + 1) + 1 for L the
    # largest R bound, read off the R bounds
    for n, k in [(n, k) for n in range(1, 5) for k in range(n + 1)] + [(5, 2), (5, 5)]:
        table, packing = rpoly.orbit_table(n, k), rpoly.orbit_packing(n, k)
        bounds = rpoly._fill(n, k, "bounds")
        norm = max(max(column.values()) for column in bounds)
        assert rpoly.orbit_bounds(n, k)[0] == norm
        for values in delta_tables(n, k):
            for column, limit in zip(values, bounds):
                assert column.keys() == limit.keys()
                for a, x in column.items():
                    assert _l1(packing.unpack(x)) <= limit[a] <= norm, (n, k)
        assert packing.bits == (len(table) * norm ** 2 + 1).bit_length() + 1
        bars = hecke.orbit_bars(n, k)
        assert rpoly.orbit_packing(n, k) is packing
        for values, hecke_bounds in zip(bars, hecke_bound_tables(n, k)):
            for b, (row, limit) in enumerate(zip(values, hecke_bounds)):
                for a, x in row.items():
                    assert _l1(packing.unpack(x)) <= limit[a] <= bounds[b][a], (n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_one_bound_table_serves_both_tables(n):
    # filled side by side, the bounds of R and R', and those of the Hecke
    # rows and barred rows, agree entry for entry, so rpoly fills one
    # bound table, and one Hecke bound table would serve both Hecke tables
    for k in range(n + 1):
        r_bounds, reversed_bounds = rpoly_bound_tables(n, k)
        assert r_bounds == reversed_bounds == rpoly._fill(n, k, "bounds"), (n, k)
        row_bounds, barred_bounds = hecke_bound_tables(n, k)
        assert row_bounds == barred_bounds, (n, k)


def test_reversed_rows_are_the_reversed_polynomials(delta_tables):
    # R'[theta, sigma] = q^(l(sigma) - l(theta)) bar(R[theta, sigma]), as
    # the delta fill fills it, beside an R equal to the orbit's R table
    for n, k in [(3, 1), (4, 2), (4, 4)]:
        table, packing = rpoly.orbit_table(n, k), rpoly.orbit_packing(n, k)
        lengths = order.orbit_poset(n, k).lengths
        columns, reversed_columns = delta_tables(n, k)
        assert columns == table
        for b, column in enumerate(reversed_columns):
            for a, x in column.items():
                r = table_entry(n, k, a, b)
                expected = Laurent.q_power(lengths[b] - lengths[a]) * r.bar()
                assert packing.unpack(x) == expected


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


STAR_ORBITS = [pytest.param(n, k, id=f"R{n}-k{k}")
               for n in range(1, 5) for k in range(n + 1)] + [pytest.param(5, 2, id="R5-k2")]


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_orbit_r_tables_are_star_equivariant(n, k, delta_tables):
    # R[a*, b*] = R[a, b], and the same for R', entry for entry
    star = order.orbit_star(n, k)
    for rows in (rpoly.orbit_table(n, k), *delta_tables(n, k)):
        for a, row in enumerate(rows):
            assert {star[b]: x for b, x in row.items()} == rows[star[a]], (n, k, a)


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_delta_report_sums_one_theta_of_each_star_pair(n, k, count_sums, drop_product):
    # with the certificate refused, every theta is summed: the product
    # skips no row, and the report is the certified one
    star = order.orbit_star(n, k)
    drop_product(n, k)
    report = verify._delta_identity(n, k)
    count_sums.clear()
    with full_path("certificate"):
        full = verify._delta_identity(n, k)
    assert full.passed and (full.checked, full.violations) == (report.checked, report.violations)
    assert len(count_sums) == len(star)


@pytest.mark.parametrize("table", ["R", "R'"])
def test_delta_report_sums_every_theta_after_a_one_sided_fault(table, inject, count_sums):
    # one entry of one table off, at a theta that star moves: every theta
    # is summed, and the report is the one of the full sums
    n, k = 4, 2
    star = order.orbit_star(n, k)
    inject(table, n, k, one_sided(n, k))
    report = verify._delta_identity(n, k)
    assert not report.passed
    count_sums.clear()
    with full_path("certificate"):
        full = verify._delta_identity(n, k)
    assert len(count_sums) == len(star)
    assert (full.checked, full.violations) == (report.checked, report.violations)


def test_delta_report_flags_both_thetas_of_a_symmetric_fault(inject, count_sums, delta_tables,
                                                             drop_product):
    # R[a, max] and R[a*, max*] = R[a*, max] off by the same q: the table
    # stays equivariant, every theta is summed, and the rows of a and a*
    # both fail; each certificate is its sum as the decoded entries give it
    n, k = 4, 2
    table, star = rpoly.orbit_table(n, k), order.orbit_star(n, k)
    top = len(star) - 1
    a = next(a for a in range(len(star)) if star[a] > a and a in table[top])

    def symmetric(packing, columns):
        for theta in (a, star[a]):
            columns[top][theta] += packing.pack(Q)
    inject("R", n, k, symmetric)
    drop_product(n, k)  # R was filled above, before the fault
    count_sums.clear()
    with full_path("certificate"):
        report = verify._delta_identity(n, k)
    assert len(count_sums) == len(star)
    elements = order.orbit_poset(n, k).elements
    flagged = [(v["theta"], v["sigma"]) for v in report.violations]
    assert flagged == [(renner.format_element(elements[theta]),
                        renner.format_element(elements[top])) for theta in sorted((a, star[a]))]
    unpack, (columns, reversed_columns) = rpoly.orbit_packing(n, k).unpack, delta_tables(n, k)
    for v, theta in zip(report.violations, sorted((a, star[a]))):
        laurent = sum((unpack(columns[nu].get(theta, 0)) * unpack(x)
                       for nu, x in reversed_columns[top].items()), ZERO)
        assert v["sum"] == str(laurent) == "q"
    certified = verify._delta_identity(n, k)
    assert (certified.checked, certified.violations) == (report.checked, report.violations)


def _per_pair_answers(n, k):
    elements = order.orbit_poset(n, k).elements
    return [[rpoly.verify_delta_identity(theta, sigma) for sigma in elements]
            for theta in elements]


@pytest.mark.parametrize("fault", [None, ("R'", first_moved), ("R", symmetric)],
                         ids=["clean", "one-sided", "symmetric"])
@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_per_pair_delta_answers_are_the_full_sums(n, k, fault, drop_product, inject,
                                                  delta_tables):
    # every pair, theta by theta, answers as the column of sigma summed
    # whole gives, and as the product summed under an identity star
    if fault:
        table, change = fault
        inject(table, n, k, change(n, k))
    columns, reversed_columns = delta_tables(n, k)
    sums = [rpoly.triple_sums(column, columns) for column in reversed_columns]
    answers = _per_pair_answers(n, k)
    assert answers == [[sums[b][a] == (a == b) for b in range(len(sums))]
                       for a in range(len(sums))]
    assert all(map(all, answers)) == (fault is None)
    with full_path("star"):
        drop_product(n, k)
        assert _per_pair_answers(n, k) == answers


def test_a_cleared_orbit_drops_its_delta_rows(inject):
    # the product lives on the orbit's poset: once the orbit is dropped,
    # a fault in the tables it is rebuilt from shows in the answers
    n, k = 4, 2
    rows = rpoly.delta_rows(n, k)
    assert all(map(all, _per_pair_answers(n, k)))
    inject("R", n, k, min_row_off_by_one)
    assert rpoly.delta_rows(n, k) is rows
    assert all(map(all, _per_pair_answers(n, k)))
    order.orbit_poset.cache_clear()
    assert rpoly.delta_rows(n, k) is not rows
    answers = _per_pair_answers(n, k)
    assert not all(answers[0]) and all(map(all, answers[1:]))


def test_an_equal_theta_reads_the_kept_row(monkeypatch):
    # a theta equal to the last one, passed as another tuple, reads the
    # index and the product kept for it, and does not look the product
    # up again
    theta, sigma = renner.orbit(3, 1)[0], renner.orbit(3, 1)[-1]
    assert rpoly.verify_delta_identity(theta, sigma)
    monkeypatch.setattr(rpoly, "delta_rows", lambda n, k: pytest.fail("product read again"))
    assert rpoly.verify_delta_identity(tuple(list(theta)), sigma)
    assert rpoly.verify_delta_identity(tuple(list(theta)), theta)


@pytest.mark.parametrize("switch", ["cleared", "evicted"])
def test_the_reader_reads_a_fault_after_its_orbit_is_dropped(switch, inject):
    # the same theta object, asked again once its orbit was dropped, by
    # cache_clear() or by a lookup of another orbit, and a fault was put
    # into the fill with no lookup of its orbit in between, reads the
    # fault: the reader's entry went with the orbit
    theta, top = renner.orbit(3, 1)[0], renner.orbit(3, 1)[-1]
    assert rpoly.verify_delta_identity(theta, top)
    if switch == "cleared":
        order.orbit_poset.cache_clear()
    else:
        order.orbit_poset(3, 2)
    inject("R", 3, 1, entry(-1, 0, ONE))
    assert not rpoly.verify_delta_identity(theta, top)
    assert rpoly.verify_delta_identity(theta, theta)


def test_a_dropped_orbit_takes_its_store_and_poset_with_it(fresh_orbits):
    # cleared or evicted, the orbit's store is emptied, and once cleared
    # the poset itself is garbage, though the reader that read it has
    # read the orbit again since
    theta, top = renner.orbit(3, 1)[0], renner.orbit(3, 1)[-1]
    for drop in (order.orbit_poset.cache_clear, lambda: order.orbit_poset(3, 2)):
        assert rpoly.verify_delta_identity(theta, top)
        alive = weakref.ref(order.orbit_poset(3, 1))
        assert rpoly.verify_delta_identity in order.kept
        assert (rpoly.delta_rows.__wrapped__, 3, 1) in order.kept
        drop()
        assert order.kept == {}
    order.orbit_poset.cache_clear()
    assert rpoly.verify_delta_identity(top, theta)
    gc.collect()
    assert alive() is None


ORBITS_TO_R5 = [pytest.param(n, k, id=f"R{n}-k{k}") for n in range(1, 6) for k in range(n + 1)]


@pytest.mark.parametrize("n,k", ORBITS_TO_R5)
def test_delta_certificate_holds_and_sums_only_the_base_rows(n, k, count_sums, drop_product,
                                                            delta_tables):
    # on every clean orbit of R_1 to R_5 the local certificate holds on R'
    # and R, and the delta report sums only the rows of the Hecke bases,
    # with the columns of R, and builds no product: a report that fell
    # back to its sums would pass every output test
    drop_product(n, k)
    table, reversed_columns = delta_tables(n, k)
    assert hecke.certify(reversed_columns, table, n, k)
    count_sums.clear()
    report = verify._delta_identity(n, k)
    assert report.passed and report.checked == len(table) ** 2
    assert list(map(id, count_sums)) == [id(table[b]) for b in rpoly.orbit_bounds(n, k)[1]]
    assert (rpoly.delta_rows.__wrapped__, n, k) not in order.kept


test_delta_report_under_a_fault_is_the_full_sums_report = cases({
    **{name: f"{name}-plus-one" for name in ("R3-k1-r-min-max", "R4-k2-r-min-max")},
    **{f"R{n}-k{k}-r'-first-moved": f"R{n}-k{k}-r'-off-the-bases" for n, k in ((3, 1), (4, 2))},
    **{name: name for name in (
        "R4-k2-r-min-row", "R4-k2-r-one-sided", "R4-k2-r'-one-sided", "R3-k1-r-symmetric",
        "R4-k2-r-symmetric", "R3-k1-r-off-the-bases", "R4-k2-r-off-the-bases",
        "R3-k1-r'-off-the-bases", "R4-k2-r'-off-the-bases", "R3-k0-base-doubled",
        "R3-k1-base-doubled", "R4-k2-base-doubled", "R3-k1-r'-diagonal-stored-zero",
        "R4-k2-r'-diagonal-stored-zero")}})


@pytest.mark.parametrize("n,k,tables,fault", [
    pytest.param(4, 2, ["R'"], off_the_bases, id="R4-k2-r'-off-the-bases"),
    pytest.param(3, 1, ["R", "R'"], base_doubled, id="R3-k1-base-doubled"),
])
def test_a_fault_the_certificate_refuses_reaches_the_product(n, k, tables, fault, inject,
                                                             delta_tables, count_sums,
                                                             monkeypatch):
    # the certificate refuses the tables, and the report fills R' again,
    # once, for its fallback, and sums the product, rows off the bases
    # included, from that R'; it keeps no product, and the certificate
    # keeps the columns of R' at the bases alone
    for table in tables:
        inject(table, n, k, fault(n, k))
    table, reversed_columns = delta_tables(n, k)
    assert not hecke.certify(reversed_columns, table, n, k)
    fills, fill = [], rpoly._fill
    monkeypatch.setattr(rpoly, "_fill", lambda *args:
                        fills.append((args[2:3] + args[4:], fill(*args))) or fills[-1][1])
    count_sums.clear()
    assert not verify._delta_identity(n, k).passed
    assert [kind for kind, _ in fills] == [("R'",)] * 2
    bases, filled = rpoly.orbit_bounds(n, k)[1], fills[1][1]
    assert {id(filled[b]) for b in range(len(filled)) if b not in bases} & set(map(id, count_sums))
    assert (rpoly.delta_rows.__wrapped__, n, k) not in order.kept
    holds, kept = hecke.certificate(n, k)
    assert not holds and kept == {b: fills[0][1][b] for b in bases}


# Each part of the certificate on (R', R) with a fault that only it
# sees, and a mutant that drops it, are rows of ``faults.FAULTS``.
test_each_part_of_the_delta_certificate_is_needed = cases({
    "a-on-r'": "R3-k1-r'-min-max-plus-one", "b-on-r": "R3-k1-r-min-max-plus-one",
    "c": "R3-k0-base-doubled"})
