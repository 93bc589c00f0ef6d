import itertools

import pytest

from oracles import bruhat_leq_subword, longest_element
from rookorder import renner, weyl
from rookorder.polynomials import Laurent, Q_MINUS_1, ONE, ZERO


def test_length_examples():
    assert weyl.length((1, 2, 3, 4)) == 0
    assert weyl.length((3, 4, 1, 2)) == 4
    assert weyl.length((4, 3, 2, 1)) == 6


def test_length_is_reduced_word_length():
    for w in weyl.all_permutations(4):
        assert len(weyl.reduced_word(w)) == weyl.length(w)


def test_reduced_word_multiplies_back():
    for w in weyl.all_permutations(4):
        prod = weyl.identity(4)
        for i in weyl.reduced_word(w):
            prod = weyl.compose(prod, weyl.simple_reflection(4, i))
        assert prod == w


def test_inverse_and_compose():
    for w in weyl.all_permutations(3):
        assert weyl.compose(w, weyl.inverse(w)) == weyl.identity(3)
    with pytest.raises(ValueError):
        weyl.compose((1, 2), (1, 2, 3))


def test_simple_reflection_sides():
    # right multiplication swaps positions, left multiplication swaps values
    w = (3, 1, 4, 2)
    s2 = weyl.simple_reflection(4, 2)
    assert weyl.compose(w, s2) == (3, 4, 1, 2)
    assert weyl.compose(s2, w) == (2, 1, 4, 3)


def test_descents():
    assert weyl.right_descents((1, 2, 3, 4)) == frozenset()
    assert weyl.right_descents((4, 3, 2, 1)) == frozenset({1, 2, 3})
    assert weyl.right_descents((2, 3, 1, 4)) == frozenset({2})
    # the one side-taking descent routine is the monoid's, which must
    # agree with the symmetric group's on the units
    with pytest.raises(ValueError):
        renner.descents((1, 2), "up")
    for w in weyl.all_permutations(4):
        assert weyl.left_descents(w) == weyl.right_descents(weyl.inverse(w))
        assert renner.descents(w, "left") == weyl.left_descents(w)
        assert renner.descents(w, "right") == weyl.right_descents(w)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_bruhat_leq_matches_subword_oracle(n):
    perms = weyl.all_permutations(n)
    for u, v in itertools.product(perms, repeat=2):
        assert weyl.bruhat_leq(u, v) == bruhat_leq_subword(u, v), (u, v)


def test_bruhat_leq_basics():
    assert weyl.bruhat_leq((2, 1, 3, 4), (4, 3, 2, 1))
    for w in weyl.all_permutations(4):
        assert weyl.bruhat_leq(weyl.identity(4), w)
        assert weyl.bruhat_leq(w, w)
    with pytest.raises(ValueError):
        weyl.bruhat_leq((1, 2), (1, 2, 3))


def test_min_coset_rep():
    i13 = frozenset({1, 3})
    assert weyl.min_coset_rep((3, 4, 1, 2), i13) == (3, 4, 1, 2)
    assert weyl.min_coset_rep((4, 3, 2, 1), frozenset({1, 2, 3})) == (1, 2, 3, 4)
    assert weyl.min_coset_rep(weyl.identity(4), i13) == weyl.identity(4)
    for w in weyl.all_permutations(4):
        rep = weyl.min_coset_rep(w, i13)
        assert weyl.min_coset_rep(rep, i13) == rep


def test_coset_minima():
    assert weyl.coset_minima(frozenset(), 3) == weyl.all_permutations(3)
    assert weyl.coset_minima(frozenset({1, 2, 3}), 4) == (weyl.identity(4),)
    d13 = weyl.coset_minima(frozenset({1, 3}), 4)
    assert len(d13) == 6
    assert weyl.identity(4) in d13
    assert (3, 4, 1, 2) in d13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coset_minima_counts_and_decomposition(n):
    indices = range(1, n)
    for r in range(n):
        for subset in itertools.combinations(indices, r):
            gens = frozenset(subset)
            subgroup = weyl.parabolic_subgroup(gens, n)
            minima = weyl.coset_minima(gens, n)
            assert len(minima) * len(subgroup) == len(weyl.all_permutations(n))
            # every w factors as (minimal rep) * (parabolic part), lengths adding
            for w in weyl.all_permutations(n):
                rep = weyl.min_coset_rep(w, gens)
                part = weyl.compose(weyl.inverse(rep), w)
                assert part in subgroup
                assert weyl.length(w) == weyl.length(rep) + weyl.length(part)


def test_parabolic_subgroup_closed():
    for gens in [frozenset(), frozenset({1}), frozenset({1, 3}), frozenset({1, 2})]:
        subgroup = weyl.parabolic_subgroup(gens, 4)
        for a, b in itertools.product(subgroup, repeat=2):
            assert weyl.compose(a, b) in subgroup


def test_longest_element():
    assert longest_element(frozenset({1, 2, 3}), 4) == (4, 3, 2, 1)
    assert longest_element(frozenset({1, 3}), 4) == (2, 1, 4, 3)
    assert longest_element(frozenset(), 4) == weyl.identity(4)
    for gens in [frozenset({1}), frozenset({2, 3}), frozenset({1, 3})]:
        w0 = longest_element(gens, 4)
        subgroup = weyl.parabolic_subgroup(gens, 4)
        assert weyl.compose(w0, w0) == weyl.identity(4)
        assert weyl.length(w0) == max(weyl.length(w) for w in subgroup)


def test_length_subadditive():
    for u, v in itertools.product(weyl.all_permutations(3), repeat=2):
        assert weyl.length(weyl.compose(u, v)) <= weyl.length(u) + weyl.length(v)


def test_classical_rpoly_base_cases():
    for w in weyl.all_permutations(3):
        assert weyl.classical_rpoly(w, w) == ONE
    # length-1 intervals give q - 1
    s1 = weyl.simple_reflection(3, 1)
    assert weyl.classical_rpoly(weyl.identity(3), s1) == Q_MINUS_1
    # one hand-unrolled recurrence step
    s1s2 = weyl.compose(s1, weyl.simple_reflection(3, 2))
    assert weyl.classical_rpoly(weyl.identity(3), s1s2) == Q_MINUS_1 * Q_MINUS_1
    assert weyl.classical_rpoly(s1s2, s1) == ZERO


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classical_rpoly_shape(n):
    for u, v in itertools.product(weyl.all_permutations(n), repeat=2):
        r = weyl.classical_rpoly(u, v)
        if not weyl.bruhat_leq(u, v):
            assert r == ZERO
        else:
            gap = weyl.length(v) - weyl.length(u)
            assert r.degree == gap
            assert r.leading_coefficient == 1
            assert r.constant_term == (-1) ** gap


def test_classical_rpoly_delta_identity():
    # sum over u <= w <= v of R[u,w] q^(l(v)-l(w)) bar(R[w,v]) = delta
    perms = weyl.all_permutations(3)
    for u, v in itertools.product(perms, repeat=2):
        total = Laurent(0, ())
        for w in perms:
            if weyl.bruhat_leq(u, w) and weyl.bruhat_leq(w, v):
                total = total + (weyl.classical_rpoly(u, w).to_laurent()
                                 * Laurent.q_power(weyl.length(v) - weyl.length(w))
                                 * weyl.classical_rpoly(w, v).bar())
        assert total == Laurent.from_int(1 if u == v else 0), (u, v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_coset_factorization_property(n):
    assert weyl.coset_factorization_violations(n) == []
