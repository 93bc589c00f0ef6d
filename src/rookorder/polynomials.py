"""Exact Laurent polynomials in q with integer coefficients.

One ring serves the library: Z[q, q^-1], the class ``Laurent``.  The
R-polynomials live in its subring Z[q], the subclass ``IntPoly``; the
coefficients of the orbit Hecke algebra and the images of the bar
involution q -> q^-1 are ``Laurent``.  q^(1/2) enters Kazhdan-Lusztig
theory only through the C'_w basis, which is never built here, so
exponents count powers of q.  Values are immutable and hashable;
coefficients are plain Python ints, so all arithmetic is exact.

Every value is canonical: either ``coeffs == ()`` with ``min_exp == 0``
(zero), or both end coefficients are nonzero.  Equality and hashing
compare the fields, across both classes and with int, so they rely on
it, and the arithmetic keeps it without re-stripping where it cannot
break: Z has no zero divisors, so a product of canonical factors has
nonzero ends; negation and ``bar`` only flip signs or reverse; only a
sum can cancel an end.  A sum or product is an ``IntPoly`` exactly when
both operands are ``IntPoly`` or int; ``bar`` always gives a ``Laurent``.

``Kronecker`` maps values to plain ints by evaluating at q = 2^B, with B
set from a bound on the values so that sums of products can be read
back exactly.
"""

from __future__ import annotations

import operator

__all__ = ["IntPoly", "Laurent", "Kronecker", "ZERO", "ONE", "Q", "Q_MINUS_1"]


def _new(cls, min_exp: int, coeffs: tuple[int, ...]):
    """A value of class ``cls`` from fields already canonical, unchecked."""
    out = object.__new__(cls)
    out.min_exp = min_exp
    out.coeffs = coeffs
    return out


def _trim(min_exp: int, coeffs) -> tuple[int, tuple[int, ...]]:
    """Canonical fields: zero coefficients stripped from both ends."""
    cs = tuple(coeffs)
    lo, hi = 0, len(cs)
    while lo < hi and cs[lo] == 0:
        lo += 1
    while lo < hi and cs[hi - 1] == 0:
        hi -= 1
    return (min_exp + lo, cs[lo:hi]) if lo < hi else (0, ())


def _coerce(value):
    if isinstance(value, Laurent):
        return value
    if isinstance(value, int):
        return _new(IntPoly, 0, (value,)) if value else ZERO
    return NotImplemented


class Laurent:
    """Laurent polynomial in q with int coefficients.

    ``min_exp`` is the exponent of the first stored coefficient; the
    canonical form strips zero coefficients from both ends, and the zero
    element is ``Laurent(0, ())``.

    >>> p = Laurent.q_power(-1) - 1
    >>> print(p.bar())
    q - 1
    >>> p.bar().bar() == p
    True
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        self.min_exp, self.coeffs = _trim(min_exp, coeffs)

    @staticmethod
    def from_int(n: int) -> "Laurent":
        return Laurent(0, (n,))

    @staticmethod
    def q_power(k: int) -> "Laurent":
        return _new(Laurent, k, (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Yield (exponent, coefficient) pairs for nonzero coefficients."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cls = type(self) if type(self) is type(other) else Laurent
        if not self.coeffs or not other.coeffs:
            p = self if self.coeffs else other
            return p if type(p) is cls else _new(cls, p.min_exp, p.coeffs)
        a, b = (self, other) if self.min_exp <= other.min_exp else (other, self)
        out = list(a.coeffs)
        off = b.min_exp - a.min_exp
        end = off + len(b.coeffs)
        if end > len(out):
            out += [0] * (end - len(out))
        out[off:end] = map(operator.add, out[off:end], b.coeffs)
        if out[0] and out[-1]:
            return _new(cls, a.min_exp, tuple(out))
        return _new(cls, *_trim(a.min_exp, out))  # an end cancelled

    __radd__ = __add__

    def __neg__(self):
        return _new(type(self), self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        """The product, canonical as built: its end coefficients are the
        products of the factors' end coefficients, nonzero in Z.

        >>> p = Laurent(0, (1, -1))      # 1 - q
        >>> p * p
        Laurent(0, [1, -2, 1])
        >>> Laurent.q_power(-1) * p      # a monic monomial only shifts
        Laurent(-1, [1, -1])
        """
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        cls = type(self) if type(self) is type(other) else Laurent
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _new(cls, 0, ())
        shift = self.min_exp + other.min_exp
        if b == (1,):
            return _new(cls, shift, a)
        if a == (1,):
            return _new(cls, shift, b)
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        return _new(cls, shift, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        if self.min_exp or len(self.coeffs) > 1:
            return hash((self.min_exp, self.coeffs))
        return hash(sum(self.coeffs))  # a constant hashes as the int it equals

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Laurent({self.min_exp}, {list(self.coeffs)!r})"

    def __str__(self):
        terms = sorted(self.terms(), reverse=True)
        if not terms:
            return "0"
        parts = []
        for exp, c in terms:
            mag = abs(c)
            if exp == 0:
                body = str(mag)
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def bar(self) -> "Laurent":
        """The involution q -> q^-1."""
        if not self.coeffs:
            return _new(Laurent, 0, ())
        return _new(Laurent, -(self.min_exp + len(self.coeffs) - 1),
                    self.coeffs[::-1])

    def to_json(self) -> dict:
        return {"var": "q", "min_exp": self.min_exp, "coeffs": list(self.coeffs)}


class IntPoly(Laurent):
    """Polynomial in q with int coefficients: a ``Laurent`` with no
    negative exponent, built from dense ascending coefficients.

    The zero polynomial has no coefficients.

    >>> p = IntPoly([-1, 1])       # q - 1
    >>> print(p * p)
    q^2 - 2q + 1
    >>> (p * p).constant_term
    1
    >>> type(2 * p).__name__, type(p.bar()).__name__
    ('IntPoly', 'Laurent')
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        self.min_exp, self.coeffs = _trim(0, coeffs)

    # The same methods as Laurent's, named in this class body so that
    # each class has its own entry for the benchmark spans to wrap.
    __add__ = __radd__ = Laurent.__add__
    __mul__ = __rmul__ = Laurent.__mul__

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs and not self.min_exp else 0

    def _dense(self) -> list[int]:
        return [0] * self.min_exp + list(self.coeffs)

    def __repr__(self):
        return f"IntPoly({self._dense()!r})"

    def to_json(self) -> dict:
        return {"var": "q", "coeffs": self._dense()}


class Kronecker:
    """Exact integer images of polynomials in Z[q] and of sums of their
    products, by the Kronecker substitution q = 2^B (Harvey, J. Symbolic
    Comput. 2009).

    A polynomial p packs to the int p(2^B).  Packing is a ring map
    Z[q] -> Z, so a table of polynomials can be filled packed from a few
    packed starting values: a sum packs to the sum of the images, and
    q p to ``pack(p) << B``.  There is no offset: a Laurent value is
    scaled into Z[q] by a power of q before it is packed (``hecke``
    scales each entry of its table so), and then no fill divides by q.
    (q^-1 p would pack to ``pack(p) >> B`` exactly only when p has no
    constant term, for only then is pack(p) a multiple of 2^B.)

    A sum of at most ``terms`` products of two packed values is the image
    of one polynomial P, and each coefficient of P is at most
    terms * L^2 in absolute value when ``norm`` = L bounds the L1 norm
    (sum of absolute coefficients) of every value.  The width comes from
    that bound, never from the values: B = bitlen(terms * L^2 + 1) + 1,
    so every coefficient of P, and of each value, lies strictly between
    -2^(B-1) and 2^(B-1), the range of a balanced base-2^B digit.  An
    int has one expansion in such digits, so ``unpack`` reads P back
    exactly, and two sums (or two values) are equal as ints iff they are
    equal as polynomials; in particular a sum is 1 iff its image is 1.
    (A comparison with 0 or 1 alone would need one bit less; decoding,
    and comparing two sums, need this one.)

    >>> p = IntPoly([-1, 1])               # q - 1, L1 norm 2
    >>> packing = Kronecker(norm=2, terms=2)
    >>> packing.bits
    5
    >>> x = packing.pack(p)
    >>> print(packing.unpack(x * x + x * x))
    2q^2 - 4q + 2
    >>> print(packing.unpack(x << packing.bits))   # q p
    q^2 - q
    """

    def __init__(self, norm: int, terms: int):
        self.bits = (terms * norm * norm + 1).bit_length() + 1

    def pack(self, p: Laurent) -> int:
        """p(2^B), for p in Z[q]; a negative exponent raises ValueError
        (as a negative shift)."""
        total = 0
        for c in reversed(p.coeffs):
            total = (total << self.bits) + c
        return total << (self.bits * p.min_exp)

    def unpack(self, total: int) -> IntPoly:
        """The polynomial whose image is ``total``, read off its balanced
        base-2^B digits."""
        base = 1 << self.bits
        digits = []
        while total:
            digit = total & (base - 1)
            if digit >= base >> 1:
                digit -= base
            digits.append(digit)
            total = (total - digit) >> self.bits
        return IntPoly(digits)


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
Q_MINUS_1 = IntPoly((-1, 1))
