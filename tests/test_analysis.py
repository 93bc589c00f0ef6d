import itertools

import pytest

from oracles import linear_length2_bruteforce, witness_leq
from rookorder import analysis, order, renner, weyl

DESCENT_TABLE = {
    (0, 0, 1, 2): (set(), set()),
    (0, 0, 1, 3): ({2}, set()),
    (1, 0, 0, 2): (set(), {1}),
    (3, 0, 0, 2): ({1, 2}, {1}),
    (0, 4, 2, 0): ({1, 3}, {2, 3}),
}


def test_descent_table_rows():
    for sigma, (left, right) in DESCENT_TABLE.items():
        got_left, got_right = analysis.descent_sets(sigma)
        assert set(got_left) == left, sigma
        assert set(got_right) == right, sigma


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_rule_agrees_with_raw_definition(n):
    for sigma in renner.monoid_elements(n):
        assert analysis.descent_sets(sigma) == \
            (renner.descents(sigma, "left"), renner.descents(sigma, "right"))


@pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (2, 1)])
def test_nonempty_descent_report(n, k):
    report = analysis.check_nonempty_descent(renner.orbit(n, k))
    assert report.passed, report.violations
    assert report.checked == len(renner.orbit(n, k))


def test_find_linear_length2():
    theta, sigma = (0, 0, 0, 1), (0, 0, 0, 3)
    assert analysis.find_linear_length2(theta, sigma) == (theta, sigma)
    assert analysis.find_linear_length2((0, 0, 1, 2), (0, 0, 2, 3)) is None
    assert analysis.find_linear_length2((0, 1), (0, 1)) is None
    with pytest.raises(ValueError):
        analysis.find_linear_length2((0, 0, 1, 0), (0, 0, 0, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_length2_scan_matches_bruteforce_on_orbits(n):
    for k in range(n + 1):
        bottom, top = renner.orbit_minimum(n, k), renner.orbit_maximum(n, k)
        pairs = analysis.linear_length2_pairs(bottom, top)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == linear_length2_bruteforce(
            renner.orbit(n, k), witness_leq, bottom, top), (n, k)


@pytest.mark.parametrize("n", [2, 3])
def test_linear_length2_scan_matches_bruteforce_on_intervals(n):
    # every same-orbit pair; incomparable ones have an empty interval
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            assert set(analysis.linear_length2_pairs(theta, sigma)) == \
                linear_length2_bruteforce(elems, witness_leq,
                                          theta, sigma), (theta, sigma)


@pytest.mark.parametrize("n", [2, 3])
def test_linear_witness_iff_zero_constant_term(n):
    from rookorder import rpoly
    for k in range(n + 1):
        for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
            if not order.leq(theta, sigma):
                continue
            witness = analysis.find_linear_length2(theta, sigma)
            r0 = rpoly.rpoly(theta, sigma).constant_term
            assert (witness is None) == (r0 != 0), (theta, sigma)
            if witness is not None:
                alpha, beta = witness
                assert order.leq(theta, alpha) and order.leq(beta, sigma)
                assert renner.length(beta) - renner.length(alpha) == 2
                assert len(order.interval_elements(alpha, beta)) == 3


def test_embeddability_necessary_condition():
    assert not analysis.embeddable_in_weyl_necessary((0, 0, 0, 1), (0, 0, 0, 3))
    assert analysis.embeddable_in_weyl_necessary((0, 0, 1, 2), (0, 0, 2, 3))
    assert analysis.embeddable_in_weyl_necessary((0, 1), (0, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_length2_interval_dichotomy(n):
    # every length-2 interval has exactly 3 or 4 elements
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if renner.length(sigma) - renner.length(theta) == 2 and \
                    order.leq(theta, sigma):
                assert len(order.interval_elements(theta, sigma)) in (3, 4)


def test_check_lifting_clause_b_example():
    assert analysis.check_lifting((0, 1), (0, 2), 1) == ("b", True)


def test_check_lifting_clause_a_witnessed():
    # sweep R_3 orbits for triples where clause (a) applies strictly
    seen = 0
    for k in range(4):
        for theta, sigma in itertools.product(renner.orbit(3, k), repeat=2):
            if theta == sigma or not order.leq(theta, sigma):
                continue
            for i in (1, 2):
                clause, holds = analysis.check_lifting(theta, sigma, i)
                assert holds, (theta, sigma, i, clause)
                if clause == "a":
                    seen += 1
    assert seen > 0


def test_check_lifting_not_applicable():
    # s strictly lowers theta: neither clause applies
    theta, sigma = (0, 2), (2, 0)
    s1 = weyl.simple_reflection(2, 1)
    assert renner.length(renner.multiply(s1, theta)) < renner.length(theta)
    assert renner.length(renner.multiply(s1, sigma)) < renner.length(sigma)
    clause, _ = analysis.check_lifting((1, 0), (2, 0), 1)
    assert clause == "b"
    assert analysis.check_lifting(theta, sigma, 1) == ("not applicable", True)


def test_check_lifting_requires_strict_pair():
    with pytest.raises(ValueError):
        analysis.check_lifting((0, 1), (0, 1), 1)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2)])
def test_lifting_sweep(n, k):
    report = analysis.lifting_violations(n, k)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3), (4, 0)])
def test_putcha_conjecture_orbits(n, k):
    report = analysis.verify_putcha_conjecture(renner.orbit(n, k))
    assert report.passed, report.violations[:3]


def test_putcha_mutation_is_caught(monkeypatch):
    # a corrupted Mobius function must produce violation certificates
    original = order.mobius_direct

    def corrupted(theta, sigma):
        value = original(theta, sigma)
        if renner.length(sigma) - renner.length(theta) == 2:
            return value + 1
        return value

    monkeypatch.setattr(order, "mobius_direct", corrupted)
    report = analysis.verify_putcha_conjecture(renner.orbit(3, 2))
    assert not report.passed
    cert = report.violations[0]
    assert set(cert) >= {"theta", "sigma", "mobius", "expected", "interval"}


def test_classify_interval():
    linear = analysis.classify_interval((0, 0, 0, 1), (0, 0, 0, 3))
    assert linear.shape == "linear"
    assert linear.mobius == 0
    assert linear.r_constant_term == 0
    assert linear.linear_witness is not None

    diamond = analysis.classify_interval((0, 0, 1, 2), (0, 0, 2, 3))
    assert diamond.shape == "diamond"
    assert diamond.mobius == 1
    assert diamond.r_constant_term == 1
    assert diamond.linear_witness is None

    small = analysis.classify_interval((0, 1), (2, 0))
    assert small.shape == "diamond"
    assert small.mobius == 1

    point = analysis.classify_interval((0, 1), (0, 1))
    assert point.shape == "linear"
    assert point.mobius == 1

    big = analysis.classify_interval(renner.orbit_minimum(4, 1),
                                     renner.orbit_maximum(4, 1))
    assert big.shape == "higher-length"


def test_classification_constant_term_equals_mobius():
    for k in range(4):
        for theta, sigma in itertools.product(renner.orbit(3, k), repeat=2):
            if order.leq(theta, sigma):
                info = analysis.classify_interval(theta, sigma)
                assert info.r_constant_term == info.mobius
