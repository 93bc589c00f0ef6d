import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (check_graded, interval_elements_scan, mobius_bruteforce,
                     mobius_recursive, transitive_reduction, witness_leq)
from rookorder import order, renner, weyl


def test_leq_examples():
    assert order.leq((0, 0, 0, 1), (0, 0, 0, 3))
    assert order.leq((0, 1), (2, 0))
    for theta in renner.monoid_elements(3):
        assert order.leq(theta, theta)
    with pytest.raises(ValueError):
        order.leq((1, 0), (1, 2, 0))


def test_leq_is_partial_order_on_R3():
    elems = renner.monoid_elements(3)
    rel = {(a, b) for a in elems for b in elems if order.leq(a, b)}
    for a in elems:
        assert (a, a) in rel
    for a, b in rel:
        if a != b:
            assert (b, a) not in rel, (a, b)
    above = {a: {b for b in elems if (a, b) in rel} for a in elems}
    for a, b in rel:
        assert above[b] <= above[a]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_leq_is_partial_order_per_orbit_n4(k):
    elems = renner.orbit(4, k)
    above = {a: frozenset(b for b in elems if order.leq(a, b)) for a in elems}
    for a in elems:
        assert a in above[a]
    for a in elems:
        for b in above[a]:
            if a != b:
                assert a not in above[b]
            assert above[b] <= above[a]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leq_restricted_to_units_is_bruhat(n):
    for u, v in itertools.product(weyl.all_permutations(n), repeat=2):
        assert order.leq(u, v) == weyl.bruhat_leq(u, v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leq_strictly_increases_length(n):
    for k in range(n + 1):
        for a, b in itertools.product(renner.orbit(n, k), repeat=2):
            if order.leq(a, b) and a != b:
                assert renner.length(a) < renner.length(b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dominance_oracle_calibration(n):
    # the rank-matrix order must coincide with the coset-witness
    # criterion on the whole monoid, cross-orbit pairs included
    assert order.dominance_leq is order.leq
    elems = renner.monoid_elements(n)
    for a, b in itertools.product(elems, repeat=2):
        assert order.leq(a, b) == witness_leq(a, b), (a, b)


def test_dominance_oracle_cross_validates_n4():
    # the pairwise rank-matrix test on every pair and, on same-orbit
    # pairs, the orbit poset's up- and down-set rows must both coincide
    # with the coset-witness criterion
    elems = renner.monoid_elements(4)
    for a, b in itertools.product(elems, repeat=2):
        expected = witness_leq(a, b)
        assert order.leq(a, b) == expected, (a, b)
        if renner.rank(a) == renner.rank(b):
            poset = order.orbit_poset(4, renner.rank(a))
            i, j = poset.index[a], poset.index[b]
            assert (poset.up(i) >> j) & 1 == expected, (a, b)
            assert (poset.down(j) >> i) & 1 == expected, (a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_intervals_and_mobius_match_scan_oracles(n):
    # every same-orbit pair, incomparable ones included
    for k in range(n + 1):
        for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
            assert order.interval_elements(theta, sigma) == \
                interval_elements_scan(theta, sigma), (theta, sigma)
            assert order.mobius_direct(theta, sigma) == \
                mobius_recursive(theta, sigma), (theta, sigma)


@pytest.mark.parametrize("k", range(6))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_orbit_poset_matches_leq_n5(k, data):
    poset = order.orbit_poset(5, k)
    pick = st.integers(0, len(poset.elements) - 1)
    i, j = data.draw(pick), data.draw(pick)
    theta, sigma = poset.elements[i], poset.elements[j]
    expected = witness_leq(theta, sigma)
    assert order.leq(theta, sigma) == expected
    assert (poset.up(i) >> j) & 1 == expected
    assert (poset.down(j) >> i) & 1 == expected
    assert (poset.up(poset.locate(theta)) >> poset.locate(sigma)) & 1 == expected


@pytest.mark.parametrize("ke,kf", list(itertools.combinations(range(6), 2)))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_leq_matches_witness_across_orbits_n5(ke, kf, data):
    # pairs from two different orbits of R_5, compared both ways
    theta = data.draw(st.sampled_from(renner.orbit(5, ke)))
    sigma = data.draw(st.sampled_from(renner.orbit(5, kf)))
    assert order.leq(theta, sigma) == witness_leq(theta, sigma)
    assert order.leq(sigma, theta) == witness_leq(sigma, theta)


def test_orbit_has_unique_min_and_max():
    for n in (2, 3, 4):
        for k in range(n + 1):
            elems = renner.orbit(n, k)
            nu = renner.orbit_minimum(n, k)
            top = renner.orbit_maximum(n, k)
            assert all(order.leq(nu, w) for w in elems)
            assert all(order.leq(w, top) for w in elems)


def test_interval_examples():
    linear = order.interval((0, 0, 0, 1), (0, 0, 0, 3))
    assert len(linear.elements) == 3
    assert len(linear.covers) == 2
    diamond = order.interval((0, 0, 1, 2), (0, 0, 2, 3))
    assert len(diamond.elements) == 4
    assert len(diamond.covers) == 4
    point = order.interval((0, 1), (0, 1))
    assert point.elements == ((0, 1),)
    assert point.covers == ()


def test_interval_errors():
    with pytest.raises(ValueError):
        order.interval((0, 0, 1, 0), (0, 0, 0, 3))  # incomparable, same orbit
    with pytest.raises(ValueError):
        order.interval((0, 0, 0, 1), (0, 0, 1, 2))  # different orbits


@pytest.mark.parametrize("n", [2, 3])
def test_covers_match_generic_transitive_reduction(n):
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if not witness_leq(theta, sigma):
                continue
            poset = order.interval(theta, sigma)
            generic = transitive_reduction(poset.elements, witness_leq)
            assert set(poset.covers) == set(generic), (theta, sigma)


def test_mobius_direct_examples():
    assert order.mobius_direct((0, 1), (0, 1)) == 1
    assert order.mobius_direct((0, 0, 0, 1), (0, 0, 0, 3)) == 0
    assert order.mobius_direct((0, 0, 1, 2), (0, 0, 2, 3)) == 1
    # incomparable same-orbit pair
    assert order.mobius_direct((0, 0, 1, 0), (0, 0, 0, 3)) == 0
    with pytest.raises(ValueError):
        order.mobius_direct((0, 0, 0, 1), (0, 0, 1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_mobius_direct_matches_chain_count_oracle(n):
    # Philip Hall's signed chain count; kept to intervals with at most
    # five interior elements so the permutation enumeration stays small
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if not witness_leq(theta, sigma):
                continue
            inside = interval_elements_scan(theta, sigma)
            if len(inside) - 2 <= 5:
                expected = mobius_bruteforce(inside, witness_leq, theta, sigma)
                assert order.mobius_direct(theta, sigma) == expected


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (4, 3), (4, 4),
                                 (3, 1), (3, 2)])
def test_check_graded_passes(n, k):
    report = check_graded(renner.orbit(n, k))
    assert report.passed, report.violations


def test_hasse_dot_shape():
    dot = order.hasse_dot(order.interval((0, 0, 0, 1), (0, 0, 0, 3)))
    assert dot.count("->") == 2
    assert dot.count("[len=") == 3
    assert '"0001" [len=0];' in dot
    assert dot.startswith("digraph hasse {")
