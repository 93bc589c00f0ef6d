import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (assemble, descents_by_length, length_step_by_products,
                     monoid_elements, stabilizer_gens, standard_form_length,
                     standard_forms_bruteforce)
from rookorder import renner, weyl


# The five worked products that pin the multiplication convention:
# the one-line word of x e y^-1 with the right factor applied first.
CONFORMANCE_ROWS = [
    ((1, 2, 3, 4), (3, 4, 1, 2), (0, 0, 1, 2)),
    ((1, 3, 2, 4), (3, 4, 1, 2), (0, 0, 1, 3)),
    ((1, 2, 3, 4), (1, 3, 4, 2), (1, 0, 0, 2)),
    ((3, 2, 1, 4), (1, 3, 4, 2), (3, 0, 0, 2)),
    ((4, 2, 1, 3), (3, 1, 2, 4), (0, 4, 2, 0)),
]


def test_multiplication_conformance_rows():
    e = renner.rank_idempotent(4, 2)
    for x, y_inv, expected in CONFORMANCE_ROWS:
        assert renner.multiply(x, renner.multiply(e, y_inv)) == expected


def test_multiply_identity_and_errors():
    for f in monoid_elements(3):
        assert renner.multiply(f, weyl.identity(3)) == f
        assert renner.multiply(weyl.identity(3), f) == f
    with pytest.raises(ValueError):
        renner.multiply((1, 0), (1, 2, 0))


@pytest.mark.parametrize("n", [2, 3])
def test_multiply_associative_exhaustive(n):
    elems = monoid_elements(n)
    for f, g, h in itertools.product(elems, repeat=3):
        assert renner.multiply(renner.multiply(f, g), h) == \
            renner.multiply(f, renner.multiply(g, h))


def test_multiply_associative_sampled_n4():
    elems = monoid_elements(4)
    rng = random.Random(170859)
    for _ in range(2000):
        f, g, h = (rng.choice(elems) for _ in range(3))
        assert renner.multiply(renner.multiply(f, g), h) == \
            renner.multiply(f, renner.multiply(g, h))


def test_rank():
    assert renner.rank(weyl.identity(4)) == 4
    assert renner.rank((0, 4, 2, 0)) == 2
    assert renner.rank((0, 0, 0, 0)) == 0
    # invariant under multiplication by units
    for w in weyl.all_permutations(3):
        for f in monoid_elements(3):
            assert renner.rank(renner.multiply(w, f)) == renner.rank(f)
            assert renner.rank(renner.multiply(f, w)) == renner.rank(f)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_monoid_size(n):
    expected = sum(math.comb(n, k) ** 2 * math.factorial(k)
                   for k in range(n + 1))
    assert len(monoid_elements(n)) == expected
    assert len(set(monoid_elements(n))) == expected


def test_monoid_size_209_at_n4():
    assert len(monoid_elements(4)) == 209


def test_cross_section_lattice():
    # e_0 < e_1 < ... < e_n is a chain of idempotents: e_j e_k = e_min(j, k)
    chain = [renner.rank_idempotent(4, k) for k in range(5)]
    assert chain[2] == (1, 2, 0, 0)
    assert chain[0] == (0, 0, 0, 0)
    assert chain[4] == (1, 2, 3, 4)
    for j, k in itertools.product(range(5), repeat=2):
        assert renner.multiply(chain[j], chain[k]) == chain[min(j, k)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_parabolics_match_definition_filtering(n):
    for k in range(n + 1):
        e = renner.rank_idempotent(n, k)
        centralizer = {x for x in weyl.all_permutations(n)
                       if renner.multiply(x, e) == renner.multiply(e, x)}
        stabilizer = {x for x in weyl.all_permutations(n)
                      if renner.multiply(x, e) == e}
        assert weyl.parabolic_subgroup(renner.centralizer_gens(e), n) == centralizer
        assert weyl.parabolic_subgroup(stabilizer_gens(e), n) == stabilizer


def test_parabolics_examples():
    e = renner.rank_idempotent(4, 2)
    assert renner.centralizer_gens(e) == frozenset({1, 3})  # W(e) = S_2 x S_2
    assert stabilizer_gens(e) == frozenset({3})
    full = renner.rank_idempotent(4, 4)
    assert renner.centralizer_gens(full) == frozenset({1, 2, 3})
    assert stabilizer_gens(full) == frozenset()


def test_orbit_examples():
    assert len(renner.orbit(4, 2)) == 72
    assert set(renner.orbit(2, 1)) == {(1, 0), (2, 0), (0, 1), (0, 2)}
    assert set(renner.orbit(4, 4)) == set(weyl.all_permutations(4))
    assert renner.orbit(4, 0) == ((0, 0, 0, 0),)


@pytest.mark.parametrize("n", [2, 3])
def test_orbit_equals_two_sided_products(n):
    for k in range(n + 1):
        e = renner.rank_idempotent(n, k)
        products = {renner.multiply(x, renner.multiply(e, y))
                    for x in weyl.all_permutations(n)
                    for y in weyl.all_permutations(n)}
        assert set(renner.orbit(n, k)) == products


def test_orbits_partition_monoid():
    elems = monoid_elements(4)
    assert len(elems) == sum(len(renner.orbit(4, k)) for k in range(5))


def test_standard_form_examples():
    e2 = renner.rank_idempotent(4, 2)
    assert renner.standard_form(e2) == \
        renner.StandardForm(weyl.identity(4), e2, weyl.identity(4))
    assert renner.standard_form((0, 4, 2, 0)) == \
        renner.StandardForm((4, 2, 1, 3), e2, (2, 3, 1, 4))
    assert renner.standard_form((2, 0)) == \
        renner.StandardForm((2, 1), (1, 0), (1, 2))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_standard_form_roundtrip_and_coset_minimality(n):
    for sigma in monoid_elements(n):
        x, e, y = renner.standard_form(sigma)
        assert assemble(renner.StandardForm(x, e, y)) == sigma
        assert weyl.min_coset_rep(x, stabilizer_gens(e)) == x
        assert weyl.min_coset_rep(y, renner.centralizer_gens(e)) == y


@pytest.mark.parametrize("n", [2, 3])
def test_standard_form_unique_by_bruteforce(n):
    for sigma in monoid_elements(n):
        found = standard_forms_bruteforce(sigma)
        assert found == [renner.standard_form(sigma)]


@pytest.mark.parametrize("n", [2, 3])
def test_standard_form_inverts_assembly(n):
    # assembling any admissible (x, e, y) and re-factoring gives it back
    for k in range(n + 1):
        e = renner.rank_idempotent(n, k)
        for x in weyl.coset_minima(stabilizer_gens(e), n):
            for y in weyl.coset_minima(renner.centralizer_gens(e), n):
                form = renner.StandardForm(x, e, y)
                assert renner.standard_form(assemble(form)) == form


def test_standard_form_is_bijective_onto_coset_minima():
    n, k = 4, 2
    e = renner.rank_idempotent(n, k)
    forms = {renner.standard_form(sigma) for sigma in renner.orbit(n, k)}
    assert len(forms) == len(renner.orbit(n, k))
    d_e = set(weyl.coset_minima(stabilizer_gens(e), n))
    d_of_e = set(weyl.coset_minima(renner.centralizer_gens(e), n))
    assert {f.x for f in forms} == d_e
    assert {f.y for f in forms} == d_of_e


def test_length_examples():
    assert renner.idempotent_length(4, 2) == 4
    assert renner.length((0, 0, 1, 2)) == 0
    assert renner.length((0, 4, 2, 0)) == 6
    assert renner.length((0, 0, 0, 0)) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_length_specializes_on_units(n):
    for w in weyl.all_permutations(n):
        assert renner.length(w) == weyl.length(w)


def _check_length_rules(sigma):
    # the closed-form length, each local step and both descent sets
    # against the standard-form length and the products it is taken on
    n = len(sigma)
    assert renner.length(sigma) == standard_form_length(sigma), sigma
    for side in ("left", "right"):
        for i in range(1, n):
            s = weyl.simple_reflection(n, i)
            moved = renner.multiply(s, sigma) if side == "left" \
                else renner.multiply(sigma, s)
            step = renner.length_step(sigma, i, side)
            assert step == length_step_by_products(sigma, i, side), \
                (sigma, i, side)
            assert (step == 0) == (moved == sigma), (sigma, i, side)
        assert renner.descents(sigma, side) == \
            descents_by_length(sigma, side), (sigma, side)


@pytest.mark.parametrize("n", range(7))
def test_length_rules_match_standard_form_oracles(n):
    # all 15126 elements of R_0 to R_6, every i, both sides
    for sigma in monoid_elements(n):
        _check_length_rules(sigma)
    for k in range(n + 1):
        assert renner.idempotent_length(n, k) == \
            standard_form_length(renner.rank_idempotent(n, k))


@pytest.mark.parametrize("n", range(7))
def test_no_left_descent_iff_standard_form_starts_at_identity(n):
    # the base case of ``hecke.orbit_bars``: on all 15126 elements of R_0
    # to R_6, sigma = x e t^-1 has no left descent exactly when x = id
    identity = weyl.identity(n)
    for sigma in monoid_elements(n):
        assert (not renner.descents(sigma, "left")) == \
            (renner.standard_form(sigma).x == identity), sigma


@pytest.mark.parametrize("n", [7, 8])
@settings(max_examples=200)
@given(data=st.data())
def test_length_rules_match_standard_form_oracles_sampled(n, data):
    values = data.draw(st.permutations(range(1, n + 1)))
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    _check_length_rules(tuple(a if kept else 0 for a, kept in zip(values, keep)))


def test_length_step_errors():
    for bad in (0, 4):
        with pytest.raises(ValueError):
            renner.length_step((0, 4, 2, 0), bad, "left")
    with pytest.raises(ValueError):
        renner.length_step((0, 4, 2, 0), 1, "up")


@pytest.mark.parametrize("n", range(7))
def test_orbit_endpoints_closed_form(n):
    for k in range(n + 1):
        assert renner.orbit_minimum(n, k) == renner.orbit(n, k)[0]
        assert renner.orbit_maximum(n, k) == renner.orbit(n, k)[-1]
    for bad in (-1, n + 1):
        with pytest.raises(ValueError):
            renner.orbit_minimum(n, bad)
        with pytest.raises(ValueError):
            renner.orbit_maximum(n, bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_unique_length_zero_element_per_orbit(n):
    for k in range(n + 1):
        zeros = [w for w in renner.orbit(n, k) if renner.length(w) == 0]
        assert len(zeros) == 1
        assert zeros[0] == renner.orbit_minimum(n, k)


def test_parse_and_format():
    assert renner.parse_element("0420") == (0, 4, 2, 0)
    assert renner.parse_element("[0,4,2,0]") == (0, 4, 2, 0)
    assert renner.format_element((0, 4, 2, 0)) == "0420"
    long_word = tuple(range(1, 11))
    assert renner.format_element(long_word) == "[1,2,3,4,5,6,7,8,9,10]"
    assert renner.parse_element("[1,2,3,4,5,6,7,8,9,10]") == long_word
    for bad in ["12x", "[1,1]", "(1,2)", "122", "[true,0]", "\u0661\u0662"]:
        with pytest.raises(ValueError):
            renner.parse_element(bad)


def test_element_json_roundtrip():
    w = (0, 4, 2, 0)
    data = renner.element_to_json(w)
    assert data == {"n": 4, "one_line": [0, 4, 2, 0]}
    assert renner.parse_element(json.dumps(data["one_line"])) == w
