"""Exact integer polynomial arithmetic.

Two flavours are needed: ordinary polynomials in ``q`` (for R-polynomials)
and Laurent polynomials in ``v`` with ``v**2 = q`` (for Hecke algebra
coefficients, which live in Z[q**(-1/2), q**(1/2)]).  Both are immutable
and hashable; coefficients are plain Python ints, so all arithmetic is
exact.

Every ``Laurent`` is canonical: either ``coeffs == ()`` with
``min_exp == 0`` (zero), or both end coefficients are nonzero.  Equality
and hashing compare the fields, so they rely on it, and the arithmetic
keeps it without re-stripping where it cannot break: Z has no zero
divisors, so a product of canonical factors has nonzero ends; negation
and ``bar`` only flip signs or reverse; only a sum can cancel an end.
"""

from __future__ import annotations

import operator

__all__ = ["IntPoly", "Laurent", "ZERO", "ONE", "Q", "Q_MINUS_1"]


def _laurent(min_exp: int, coeffs: tuple[int, ...]) -> "Laurent":
    """A Laurent from fields already in canonical form, unchecked."""
    out = object.__new__(Laurent)
    out.min_exp = min_exp
    out.coeffs = coeffs
    return out


def _strip(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class IntPoly:
    """Polynomial in q with int coefficients, stored densely, ascending.

    The zero polynomial has an empty coefficient tuple.

    >>> p = IntPoly([-1, 1])       # q - 1
    >>> print(p * p)
    q^2 - 2q + 1
    >>> (p * p).constant_term
    1
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs: tuple[int, ...] = _strip(list(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        other = _coerce_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_int_poly(other) + (-self)

    def __mul__(self, other):
        other = _coerce_int_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.coeffs == IntPoly([other]).coeffs
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("IntPoly", self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self):
        return _format_terms(list(enumerate(self.coeffs)), "q")

    def to_laurent(self) -> "Laurent":
        """Embed Z[q] into Z[v, v^-1] via q = v^2."""
        cs = self.coeffs
        if not cs:
            return _laurent(0, ())
        low = next(i for i, c in enumerate(cs) if c)
        out = [0] * (2 * (len(cs) - low) - 1)
        out[::2] = cs[low:]
        return _laurent(2 * low, tuple(out))

    def bar(self) -> "Laurent":
        """The image under q -> q^-1, as a Laurent polynomial in v."""
        return self.to_laurent().bar()

    def to_json(self) -> dict:
        return {"var": "q", "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "IntPoly":
        if data.get("var") != "q":
            raise ValueError(f"expected var 'q', got {data.get('var')!r}")
        return cls(data["coeffs"])


def _coerce_int_poly(value):
    if isinstance(value, IntPoly):
        return value
    if isinstance(value, int):
        return IntPoly([value])
    return NotImplemented


class Laurent:
    """Laurent polynomial in v (v**2 = q) with int coefficients.

    ``min_exp`` is the exponent of the first stored coefficient; the
    canonical form strips zero coefficients from both ends, and the zero
    element is ``Laurent(0, ())``.

    >>> p = Laurent.v_power(-2) - 1    # q^-1 - 1
    >>> print(p.bar())
    v^2 - 1
    >>> p.bar().bar() == p
    True
    """

    __slots__ = ("min_exp", "coeffs")

    def __init__(self, min_exp: int = 0, coeffs=()):
        cs = tuple(coeffs)
        lo, hi = 0, len(cs)
        while lo < hi and cs[lo] == 0:
            lo += 1
        while lo < hi and cs[hi - 1] == 0:
            hi -= 1
        if lo < hi:
            self.min_exp = min_exp + lo
            self.coeffs = cs[lo:hi]
        else:
            self.min_exp = 0
            self.coeffs = ()

    @classmethod
    def from_int(cls, n: int) -> "Laurent":
        return cls(0, (n,))

    @classmethod
    def v_power(cls, k: int) -> "Laurent":
        return cls(k, (1,))

    @classmethod
    def q_power(cls, k: int) -> "Laurent":
        """q**k as an element of Z[v, v^-1]."""
        return cls(2 * k, (1,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Yield (exponent, coefficient) pairs for nonzero coefficients."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def __add__(self, other):
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        a, b = (self, other) if self.min_exp <= other.min_exp else (other, self)
        out = list(a.coeffs)
        off = b.min_exp - a.min_exp
        end = off + len(b.coeffs)
        if end > len(out):
            out += [0] * (end - len(out))
        out[off:end] = map(operator.add, out[off:end], b.coeffs)
        if out[0] and out[-1]:
            return _laurent(a.min_exp, tuple(out))
        return Laurent(a.min_exp, out)  # an end cancelled: strip

    __radd__ = __add__

    def __neg__(self):
        return _laurent(self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_laurent(other) + (-self)

    def __mul__(self, other):
        """The product, canonical as built: its end coefficients are the
        products of the factors' end coefficients, nonzero in Z.

        >>> p = Laurent(0, (1, 0, -1))   # 1 - q
        >>> p * p                        # 1 - 2q + q^2, zeros at odd v-powers
        Laurent(0, [1, 0, -2, 0, 1])
        >>> Laurent.q_power(-1) * p      # a monic monomial only shifts
        Laurent(-2, [1, 0, -1])
        """
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _laurent(0, ())
        shift = self.min_exp + other.min_exp
        if b == (1,):
            return _laurent(shift, a)
        if a == (1,):
            return _laurent(shift, b)
        out = [0] * (len(a) + len(b) - 1)
        b_terms = [(j, y) for j, y in enumerate(b) if y]
        for i, x in enumerate(a):
            if x:
                for j, y in b_terms:
                    out[i + j] += x * y
        return _laurent(shift, tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self.min_exp == other.min_exp and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("Laurent", self.min_exp, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Laurent({self.min_exp}, {list(self.coeffs)!r})"

    def __str__(self):
        return _format_terms(list(self.terms()), "v")

    def bar(self) -> "Laurent":
        """The involution v -> v^-1 (hence q -> q^-1)."""
        if not self.coeffs:
            return self
        return _laurent(-(self.min_exp + len(self.coeffs) - 1), self.coeffs[::-1])

    def to_int_poly(self) -> IntPoly:
        """Convert back to Z[q]; fails if any exponent is odd or negative."""
        if not self.coeffs:
            return IntPoly()
        out = [0] * (self.min_exp + len(self.coeffs))
        for exp, c in self.terms():
            if exp < 0 or exp % 2:
                raise ValueError(f"not a polynomial in q: term {c}*v^{exp}")
            out[exp] = c
        return IntPoly(out[::2])

    def to_json(self) -> dict:
        return {"var": "v", "min_exp": self.min_exp, "coeffs": list(self.coeffs)}

    @classmethod
    def from_json(cls, data: dict) -> "Laurent":
        if data.get("var") != "v":
            raise ValueError(f"expected var 'v', got {data.get('var')!r}")
        return cls(data["min_exp"], data["coeffs"])


def _coerce_laurent(value):
    if isinstance(value, Laurent):
        return value
    if isinstance(value, int):
        return Laurent(0, (value,))
    if isinstance(value, IntPoly):
        return value.to_laurent()
    return NotImplemented


def _format_terms(terms: list[tuple[int, int]], var: str) -> str:
    terms = [(e, c) for e, c in terms if c]
    if not terms:
        return "0"
    parts = []
    for exp, c in sorted(terms, reverse=True):
        mag = abs(c)
        if exp == 0:
            body = str(mag)
        else:
            power = var if exp == 1 else f"{var}^{exp}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
Q_MINUS_1 = IntPoly((-1, 1))
