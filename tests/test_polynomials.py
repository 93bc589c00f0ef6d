from hypothesis import given, settings, strategies as st

from oracles import (int_poly_terms, laurent_terms, terms_add, terms_bar,
                     terms_mul, terms_neg)
from rookorder.polynomials import IntPoly, Laurent, ONE, Q, Q_MINUS_1, ZERO


def test_int_poly_basics():
    p = Q_MINUS_1
    assert p.degree == 1
    assert p.constant_term == -1
    assert p.leading_coefficient == 1
    assert (p * p).coeffs == (1, -2, 1)
    assert p + 1 == Q
    assert p - p == ZERO
    assert ZERO.degree == -1
    assert ZERO.constant_term == 0
    assert not ZERO
    assert ONE == 1
    assert (Q * Q - Q)(0) == 0
    assert (Q * Q - Q)(3) == 6


def test_int_poly_canonical_form():
    assert IntPoly([1, 0, 0]).coeffs == (1,)
    assert IntPoly([0, 0, 0]).coeffs == ()
    assert IntPoly([1, 2]) == IntPoly((1, 2, 0))
    assert hash(IntPoly([1, 2])) == hash(IntPoly((1, 2, 0)))


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
    assert IntPoly.from_json(p.to_json()) == p


def test_laurent_arithmetic():
    v = Laurent.v_power(1)
    q = Laurent.q_power(1)
    assert v * v == q
    assert q * Laurent.q_power(-1) == Laurent.from_int(1)
    assert (v + 1) * (v - 1) == q - 1
    assert (q - 1) - (q - 1) == Laurent.from_int(0)
    assert Laurent(0, ()).is_zero()
    assert Laurent(5, (0, 0)).is_zero()


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


def test_laurent_int_poly_conversion():
    p = Q * Q - 2 * Q + 1
    assert p.to_laurent().to_int_poly() == p
    assert p.to_laurent().min_exp == 0
    try:
        Laurent.v_power(1).to_int_poly()
        raise AssertionError("odd exponent must not convert")
    except ValueError:
        pass
    try:
        Laurent.q_power(-1).to_int_poly()
        raise AssertionError("negative exponent must not convert")
    except ValueError:
        pass


def test_laurent_json_roundtrip():
    p = Laurent(-2, (1, 0, 3))
    assert p.to_json() == {"var": "v", "min_exp": -2, "coeffs": [1, 0, 3]}
    assert Laurent.from_json(p.to_json()) == p


ints = st.integers(min_value=-3, max_value=3)
exps = st.integers(min_value=-6, max_value=6)
laurents = st.one_of(
    st.builds(Laurent, exps, st.lists(ints, max_size=6)),  # zero, interior zeros
    st.builds(Laurent.v_power, exps),                       # monic monomials
    st.builds(lambda e, c: Laurent(e, (c,)), exps, ints),   # any monomial
)


@st.composite
def laurent_pairs(draw):
    """Independent pairs (a, c); pairs (a, c - a), whose sum c cancels
    terms of a at the low end, the high end or throughout; and (a, a),
    (a, -a)."""
    a, c = draw(laurents), draw(laurents)
    return a, draw(st.sampled_from((c, c - a, a, -a)))


def assert_canonical(p, terms):
    assert isinstance(p.coeffs, tuple)
    if p.coeffs:
        assert p.coeffs[0] != 0 and p.coeffs[-1] != 0
    else:
        assert p.min_exp == 0
    assert laurent_terms(p) == terms
    rebuilt = Laurent(p.min_exp, p.coeffs)
    assert p == rebuilt and hash(p) == hash(rebuilt)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(laurent_pairs())
def test_laurent_arithmetic_matches_term_dict_oracle(pair):
    a, b = pair
    ta, tb = laurent_terms(a), laurent_terms(b)
    assert_canonical(a + b, terms_add(ta, tb))
    assert_canonical(a - b, terms_add(ta, terms_neg(tb)))
    assert_canonical(-a, terms_neg(ta))
    assert_canonical(a * b, terms_mul(ta, tb))
    assert_canonical(b * a, terms_mul(ta, tb))
    assert_canonical(a.bar(), terms_bar(ta))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(ints, max_size=6))
def test_int_poly_to_laurent_matches_term_dict_oracle(coeffs):
    p = IntPoly(coeffs)
    assert_canonical(p.to_laurent(), int_poly_terms(p))
    assert_canonical(p.bar(), terms_bar(int_poly_terms(p)))
