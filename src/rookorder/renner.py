"""The rook monoid R_n: partial permutation matrices in one-line notation.

An element is a tuple (a_1, ..., a_n) with a_j in {0, ..., n}: a_j = i
means the matrix has a 1 in row i, column j, and a_j = 0 means column j
is empty.  Nonzero entries are pairwise distinct.  Multiplication is
matrix multiplication, i.e. composition of partial maps column -> row
with the right factor applied first.

The invertible elements are the permutations of ``weyl``; each element
factors uniquely as x e y^-1 with e a rank idempotent (1, ..., k, 0,
..., 0), x minimal in x W_e and y minimal in y W(e).
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from typing import NamedTuple

from . import weyl

Word = tuple[int, ...]

__all__ = [
    "is_partial_perm", "check_element", "multiply", "rank", "rank_idempotent",
    "centralizer_gens", "stabilizer_gens", "StandardForm", "standard_form",
    "assemble", "idempotent_length", "length", "length_step", "descents", "orbit",
    "orbit_minimum", "orbit_maximum", "monoid_elements", "parse_element",
    "format_element", "element_to_json",
]


def is_partial_perm(word) -> bool:
    """
    >>> is_partial_perm((0, 4, 2, 0)), is_partial_perm((1, 1, 0))
    (True, False)
    >>> is_partial_perm((True, 0))
    False
    """
    n = len(word)
    nonzero = [a for a in word if a != 0]
    return (all(type(a) is int and 0 <= a <= n for a in word)
            and len(set(nonzero)) == len(nonzero))


def check_element(word: Word) -> None:
    if not is_partial_perm(word):
        raise ValueError(f"not a partial permutation in one-line notation: {word!r}")


def multiply(f: Word, g: Word) -> Word:
    """The product fg: apply g first, then f; empty columns stay empty.

    >>> e = (1, 2, 0, 0)
    >>> multiply((1, 3, 2, 4), multiply(e, (3, 4, 1, 2)))
    (0, 0, 1, 3)
    """
    if len(f) != len(g):
        raise ValueError(f"rank mismatch: {len(f)} vs {len(g)}")
    return tuple(f[a - 1] if a else 0 for a in g)


def rank(f: Word) -> int:
    """Number of nonzero entries (the rank of the matrix)."""
    return sum(1 for a in f if a)


def _check_rank(n: int, k: int) -> None:
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} out of range for n={n}")


def rank_idempotent(n: int, k: int) -> Word:
    """The idempotent e_k = (1, ..., k, 0, ..., 0)."""
    _check_rank(n, k)
    return tuple(range(1, k + 1)) + (0,) * (n - k)


@lru_cache(maxsize=None)
def centralizer_gens(e: Word) -> frozenset[int]:
    """Simple reflections commuting with e; they generate W(e)."""
    n = len(e)
    return frozenset(
        i for i in range(1, n)
        if multiply(weyl.simple_reflection(n, i), e)
        == multiply(e, weyl.simple_reflection(n, i))
    )


@lru_cache(maxsize=None)
def stabilizer_gens(e: Word) -> frozenset[int]:
    """Simple reflections s with se = e; they generate W_e."""
    n = len(e)
    return frozenset(
        i for i in range(1, n)
        if multiply(weyl.simple_reflection(n, i), e) == e
    )


class StandardForm(NamedTuple):
    """The unique factorization sigma = x e y^-1 with x in D_e, y in D(e)."""
    x: Word
    e: Word
    y: Word


@lru_cache(maxsize=None)
def standard_form(sigma: Word) -> StandardForm:
    """Standard form of an element of R_n.

    y sends 1..k to the nonzero columns in increasing order (and the
    rest to the remaining columns in increasing order); x places the
    corresponding values first and the unused values after them in
    increasing order.  This is the unique choice with y minimal in
    y W(e) and x minimal in x W_e.

    >>> standard_form((0, 4, 2, 0))
    StandardForm(x=(4, 2, 1, 3), e=(1, 2, 0, 0), y=(2, 3, 1, 4))
    """
    check_element(sigma)
    n = len(sigma)
    cols = [j for j in range(1, n + 1) if sigma[j - 1]]
    k = len(cols)
    rest_cols = [j for j in range(1, n + 1) if not sigma[j - 1]]
    y = tuple(cols + rest_cols)
    vals = [sigma[j - 1] for j in cols]
    rest_vals = sorted(set(range(1, n + 1)) - set(vals))
    x = tuple(vals + rest_vals)
    return StandardForm(x, rank_idempotent(n, k), y)


def assemble(form: StandardForm) -> Word:
    """Multiply a standard form back out: x e y^-1."""
    return multiply(form.x, multiply(form.e, weyl.inverse(form.y)))


def idempotent_length(n: int, k: int) -> int:
    """l(e_k) = k(n - k), which is l(w_0) - l(v_0) with v_0 longest in W(e_k)."""
    return k * (n - k)


def length(sigma: Word) -> int:
    """l(sigma) = sum over a_j != 0 of (a_j - j) + inv(sigma) + k(n - k).

    inv counts the pairs i < j with a_i > a_j > 0 and k is the rank.
    This closed form equals l(x) + l(e) - l(y) on the standard form
    sigma = x e y^-1; the tests check the two on all of R_0 to R_6 and
    on sampled elements of R_7 and R_8.  It is the rank function of the
    orbit poset and vanishes exactly on the minimum of each orbit.
    Like ``multiply``, it takes sigma as valid (see ``check_element``).

    >>> length((0, 4, 2, 0))
    6
    """
    values = [a for a in sigma if a]
    k = len(values)
    spread = sum(a - j for j, a in enumerate(sigma, start=1) if a)
    inversions = sum(a > b for p, a in enumerate(values) for b in values[p + 1:])
    return spread + inversions + k * (len(sigma) - k)


def length_step(sigma: Word, i: int, side: str) -> int:
    """l(s_i sigma) - l(sigma) (side "left") or l(sigma s_i) - l(sigma)
    (side "right"); always -1, 0 or +1.

    Right: with a = a_i and b = a_(i+1), the step is -1 if a > b, 0 if
    a = b (both columns empty) and +1 if a < b.  Left: the same, with
    a and b the columns of the values i and i + 1, an absent value
    standing right of every column.  So s_i fixes sigma exactly when
    the step is 0.

    >>> [length_step((0, 4, 2, 0), i, "left") for i in (1, 2, 3)]
    [-1, 1, -1]
    >>> [length_step((0, 4, 2, 0), i, "right") for i in (1, 2, 3)]
    [1, -1, -1]
    """
    n = len(sigma)
    if not 1 <= i < n:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    if side == "left":
        a = sigma.index(i) if i in sigma else n
        b = sigma.index(i + 1) if i + 1 in sigma else n
    elif side == "right":
        a, b = sigma[i - 1], sigma[i]
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return (a < b) - (a > b)


def descents(sigma: Word, side: str) -> frozenset[int]:
    """Indices i with l(s_i sigma) < l(sigma) (side "left") or
    l(sigma s_i) < l(sigma) (side "right"), by ``length_step``.

    >>> [sorted(descents((0, 4, 2, 0), side)) for side in ("left", "right")]
    [[1, 3], [2, 3]]
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return frozenset(i for i in range(1, len(sigma))
                     if length_step(sigma, i, side) < 0)


@lru_cache(maxsize=None)
def orbit(n: int, k: int) -> tuple[Word, ...]:
    """The W x W orbit of e_k: all rank-k elements of R_n.

    Equals {x e_k y : x, y in W}; enumerated directly as words (domain
    columns, values, arrangement) and sorted by (length, word).
    """
    _check_rank(n, k)
    elems = []
    for cols in itertools.combinations(range(n), k):
        for vals in itertools.permutations(range(1, n + 1), k):
            word = [0] * n
            for c, v in zip(cols, vals):
                word[c] = v
            elems.append(tuple(word))
    return tuple(sorted(elems, key=lambda w: (length(w), w)))


def orbit_minimum(n: int, k: int) -> Word:
    """The unique length-0 element of the orbit of e_k: (0, ..., 0, 1, ..., k)."""
    _check_rank(n, k)
    return (0,) * (n - k) + tuple(range(1, k + 1))


def orbit_maximum(n: int, k: int) -> Word:
    """The unique longest element of the orbit of e_k:
    (n, n-1, ..., n-k+1, 0, ..., 0)."""
    _check_rank(n, k)
    return tuple(range(n, n - k, -1)) + (0,) * (n - k)


def monoid_elements(n: int) -> tuple[Word, ...]:
    """All of R_n, by increasing rank then (length, word)."""
    return tuple(w for k in range(n + 1) for w in orbit(n, k))


def parse_element(text: str) -> Word:
    """Parse an element from compact digits ('0420') or a bracketed list.

    The compact form is only unambiguous for n <= 9 and takes ASCII
    digits only; the bracketed form '[0,4,2,0]' is accepted for all n.
    """
    text = text.strip()
    if text.startswith("["):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad element literal {text!r}: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(a, int) for a in data):
            raise ValueError(f"bad element literal {text!r}")
        word = tuple(data)
    elif text.isascii() and text.isdigit():
        word = tuple(int(ch) for ch in text)
    else:
        raise ValueError(f"bad element literal {text!r}")
    check_element(word)
    return word


def format_element(word: Word) -> str:
    """Compact digit string for n <= 9, bracketed list otherwise."""
    if len(word) <= 9:
        return "".join(str(a) for a in word)
    return "[" + ",".join(str(a) for a in word) + "]"


def element_to_json(word: Word) -> dict:
    return {"n": len(word), "one_line": list(word)}
