import itertools

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (degree, evaluate, int_poly_terms, kronecker_for, laurent_terms,
                     terms_add, terms_bar, terms_mul, terms_neg)
from rookorder.polynomials import IntPoly, Laurent, ONE, Q, Q_MINUS_1, ZERO


def test_int_poly_basics():
    p = Q_MINUS_1
    assert degree(p) == 1
    assert p.constant_term == -1
    assert p.coeffs[-1] == 1
    assert (p * p).coeffs == (1, -2, 1)
    assert p + 1 == Q
    assert p - p == ZERO
    assert degree(ZERO) == -1
    assert ZERO.constant_term == 0
    assert not ZERO
    assert ONE == 1
    assert evaluate(Q * Q - Q, 0) == 0
    assert evaluate(Q * Q - Q, 3) == 6
    assert degree(Q * Q) == 2 and (Q * Q).constant_term == 0


def test_int_poly_canonical_form():
    assert IntPoly([1, 0, 0]).coeffs == (1,)
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert IntPoly([1, 2]) == IntPoly((1, 2, 0))
    assert hash(IntPoly([1, 2])) == hash(IntPoly((1, 2, 0)))
    assert IntPoly([0, 0, 5]) == Laurent(2, (5,))
    assert repr(IntPoly([0, 0, 5])) == "IntPoly([0, 0, 5])"


def test_int_poly_str():
    assert str(Q * Q - Q) == "q^2 - q"
    assert str(Q_MINUS_1 * Q_MINUS_1) == "q^2 - 2q + 1"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-Q) == "-q"
    assert str(IntPoly([3, 0, -2])) == "-2q^2 + 3"


def test_int_poly_json_roundtrip():
    p = Q_MINUS_1 * Q_MINUS_1
    assert p.to_json() == {"var": "q", "coeffs": [1, -2, 1]}
    assert IntPoly(p.to_json()["coeffs"]) == p
    assert (Q * Q - Q).to_json() == {"var": "q", "coeffs": [0, -1, 1]}
    assert ZERO.to_json() == {"var": "q", "coeffs": []}


def test_laurent_arithmetic():
    q = Laurent.q_power(1)
    assert q * Laurent.q_power(-1) == Laurent.from_int(1)
    assert (q + 1) * (q - 1) == q * q - 1
    assert (q - 1) - (q - 1) == Laurent.from_int(0)
    assert Laurent(0, ()).is_zero()
    assert Laurent(5, (0, 0)).is_zero()
    assert str(Laurent.q_power(-1) - 1) == "-1 + q^-1"


def test_laurent_normalization():
    p = Laurent(-2, (0, 1, 0, 3, 0))
    assert p.min_exp == -1
    assert p.coeffs == (1, 0, 3)
    assert list(p.terms()) == [(-1, 1), (1, 3)]


def test_laurent_bar_is_involutive_and_multiplicative():
    p = Laurent(-2, (1, 0, -2, 5))
    r = Laurent(1, (3, 1))
    assert p.bar().bar() == p
    assert (p * r).bar() == p.bar() * r.bar()
    assert Laurent.from_int(7).bar() == Laurent.from_int(7)
    assert Laurent.q_power(4).bar() == Laurent.q_power(-4)


def test_bar_of_q_minus_1():
    barred = Q_MINUS_1.bar()
    assert barred == Laurent.q_power(-1) - Laurent.from_int(1)
    assert type(barred) is Laurent and type(ONE.bar()) is Laurent


def test_laurent_json_roundtrip():
    p = Laurent(-2, (1, 0, 3))
    data = p.to_json()
    assert data == {"var": "q", "min_exp": -2, "coeffs": [1, 0, 3]}
    assert Laurent(data["min_exp"], data["coeffs"]) == p


def test_equal_values_across_classes_hash_equally():
    assert IntPoly([0, 1]) == Laurent.q_power(1)
    assert len({IntPoly([0, 1]), Laurent.q_power(1)}) == 1
    assert hash(ONE) == hash(1) and hash(ZERO) == hash(0)
    assert hash(Laurent.from_int(-7)) == hash(-7)
    assert len({ONE, 1, Laurent.from_int(1), Q.bar() * Q}) == 1


def test_monomials_hash_apart():
    # a hash that ignored min_exp would send every q^k to one bucket
    # (exponents >= 0 only: in Python, hash(-1) == hash(-2))
    assert len({hash(Laurent.q_power(k)) for k in range(10)}) == 10
    assert len({hash(Q_MINUS_1 * Laurent.q_power(k)) for k in range(10)}) == 10


ints = st.integers(min_value=-3, max_value=3)
exps = st.integers(min_value=-6, max_value=6)
# (value, {exponent: coefficient}), the terms read off the construction
laurents = st.one_of(
    st.builds(lambda e, cs: (Laurent(e, cs), {e + i: c for i, c in enumerate(cs) if c}),
              exps, st.lists(ints, max_size=6)),           # zero, interior zeros
    st.builds(lambda e: (Laurent.q_power(e), {e: 1}), exps),  # monic monomials
    st.builds(lambda e, c: (Laurent(e, (c,)), {e: c} if c else {}),
              exps, ints),                                   # any monomial
)
int_polys = st.one_of(
    st.builds(lambda cs: (IntPoly(cs), int_poly_terms(cs)), st.lists(ints, max_size=6)),
    st.builds(lambda e: (IntPoly([0] * e + [1]), {e: 1}), st.integers(0, 6)),
)
plain_ints = st.builds(lambda c: (c, {0: c} if c else {}), ints)
polys = st.one_of(laurents, int_polys)


def ring(*operands):
    """The class of a sum or product of the operands."""
    if all(type(x) in (IntPoly, int) for x in operands):
        return IntPoly
    return Laurent


def assert_canonical(p, terms, cls):
    assert type(p) is cls
    assert isinstance(p.coeffs, tuple)
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.min_exp == 0
    assert laurent_terms(p) == terms
    rebuilt = Laurent(p.min_exp, p.coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)


@settings(max_examples=400)
@given(polys, st.one_of(polys, plain_ints), st.sampled_from(("c", "c - a", "a", "-a")))
def test_laurent_arithmetic_matches_term_dict_oracle(a_pair, c_pair, kind):
    """Operands a and b mix Laurent, IntPoly and int; b is c itself, or
    c - a, whose sum with a cancels terms of a at the low end, the high
    end or throughout, or a, or -a."""
    (a, ta), (c, tc) = a_pair, c_pair
    if kind == "c":
        b, tb = c, tc
    elif kind == "c - a":
        b, tb = c - a, terms_add(tc, terms_neg(ta))
        assert_canonical(b, tb, ring(c, a))
    elif kind == "a":
        b, tb = a, ta
    else:
        b, tb = -a, terms_neg(ta)
    cls = ring(a, b)
    assert_canonical(a + b, terms_add(ta, tb), cls)
    assert_canonical(b + a, terms_add(ta, tb), cls)
    assert_canonical(a - b, terms_add(ta, terms_neg(tb)), cls)
    assert_canonical(b - a, terms_add(tb, terms_neg(ta)), cls)
    assert_canonical(a * b, terms_mul(ta, tb), cls)
    assert_canonical(b * a, terms_mul(ta, tb), cls)
    assert_canonical(-a, terms_neg(ta), type(a))
    assert_canonical(a.bar(), terms_bar(ta), Laurent)


@settings(max_examples=200)
@given(st.lists(ints, max_size=6))
def test_int_poly_matches_term_dict_oracle(coeffs):
    p, terms = IntPoly(coeffs), int_poly_terms(coeffs)
    assert_canonical(p, terms, IntPoly)
    assert_canonical(p.bar(), terms_bar(terms), Laurent)
    assert degree(p) == max(terms, default=-1)
    assert p.constant_term == terms.get(0, 0)
    assert (p.coeffs or (0,))[-1] == terms.get(degree(p), 0)
    assert evaluate(p, 2) == sum(c * 2 ** e for e, c in terms.items())
    dense = [terms.get(e, 0) for e in range(degree(p) + 1)]
    assert p.to_json() == {"var": "q", "coeffs": dense}


small_values = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.builds(IntPoly, st.lists(st.integers(min_value=-1, max_value=1), max_size=3)),
    st.builds(Laurent, st.integers(min_value=-2, max_value=2),
              st.lists(st.integers(min_value=-1, max_value=1), max_size=3)),
)


@settings(max_examples=400)
@given(st.tuples(small_values, small_values, small_values))
def test_equality_implies_equal_hashes(triple):
    for a, b in itertools.permutations(triple, 2):
        if a == b:
            assert hash(a) == hash(b), (a, b)


_SMALL_POLY = st.builds(Laurent, st.integers(0, 4),
                        st.lists(st.integers(-9, 9), max_size=5))


@settings(max_examples=200)
@given(pairs=st.lists(st.tuples(_SMALL_POLY, _SMALL_POLY), max_size=6))
def test_kronecker_sums_of_products_are_exact(pairs):
    packing = kronecker_for([p for pair in pairs for p in pair], terms=len(pairs))
    total = sum(packing.pack(x) * packing.pack(y) for x, y in pairs)
    expected = sum((x * y for x, y in pairs), Laurent(0, ()))
    assert packing.unpack(total) == expected
    assert (total == 1) == (expected == 1)
    assert (total == 0) == (expected == 0)


def test_kronecker_refuses_a_negative_exponent():
    with pytest.raises(ValueError):
        kronecker_for([Q], terms=1).pack(Laurent.q_power(-1))
