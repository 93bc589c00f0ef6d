import itertools

import pytest

from oracles import witness_leq
from rookorder import order, renner, rpoly, weyl
from rookorder.polynomials import IntPoly, Laurent, ONE, Q, Q_MINUS_1, ZERO


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
    assert Q_MINUS_1.to_laurent().bar() == \
        Laurent.q_power(-1) - Laurent.from_int(1)
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


@pytest.mark.parametrize("n", [2, 3])
def test_delta_identity_exhaustive(n):
    for k in range(n + 1):
        for theta, sigma in all_same_orbit_pairs(n, k):
            assert rpoly.verify_delta_identity(theta, sigma), (theta, sigma)


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
            rhs = sign * Laurent.q_power(lt - ls) * r.to_laurent()
            assert (r.bar() == rhs) == (r.constant_term != 0), (theta, sigma)


def test_rpoly_json_shape():
    assert rpoly.rpoly((0, 0, 0, 1), (0, 0, 0, 2)).to_json() == \
        {"var": "q", "coeffs": [-1, 1]}
    assert IntPoly.from_json({"var": "q", "coeffs": [-1, 1]}) == Q_MINUS_1
