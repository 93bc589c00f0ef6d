"""The symmetric group S_n as a Weyl group.

Permutations are tuples in one-line notation with values 1..n, so
``w = (3, 4, 1, 2)`` sends 1 to 3, 2 to 4, and so on.  The simple
reflection s_i (1 <= i <= n-1) is the adjacent transposition of i and
i+1; right multiplication by s_i swaps positions i, i+1 of the one-line
word, left multiplication swaps the values i, i+1.

Everything here is a pure function of immutable tuples; lru_cache is
used freely, which is observationally the same as recomputing.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache

from .polynomials import IntPoly, ONE, Q, Q_MINUS_1, ZERO

Word = tuple[int, ...]

__all__ = [
    "identity", "inverse", "compose", "simple_reflection", "length",
    "left_descents", "right_descents", "bruhat_leq", "all_permutations",
    "reduced_word", "parabolic_subgroup", "min_coset_rep", "coset_minima",
    "classical_rpoly",
]


def identity(n: int) -> Word:
    return tuple(range(1, n + 1))


def inverse(w: Word) -> Word:
    """
    >>> inverse((3, 1, 2, 4))
    (2, 3, 1, 4)
    """
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def compose(u: Word, v: Word) -> Word:
    """The product uv, i.e. the map j -> u(v(j)) (v applied first).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    return tuple([u[a - 1] for a in v])


def simple_reflection(n: int, i: int) -> Word:
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple reflection index {i} out of range for n={n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@lru_cache(maxsize=None)
def length(w: Word) -> int:
    """Coxeter length = number of inversions.

    >>> length((3, 4, 1, 2))
    4
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_descents(w: Word) -> frozenset[int]:
    """Indices i with w(i) > w(i+1), i.e. l(w s_i) < l(w)."""
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def left_descents(w: Word) -> frozenset[int]:
    """Indices i with l(s_i w) < l(w); these are the right descents of w^-1."""
    return right_descents(inverse(w))


def bruhat_leq(u: Word, v: Word) -> bool:
    """Bruhat order on S_n by the prefix-dominance test.

    u <= v iff for every k the sorted k-prefix of u is entrywise <= that
    of v.  Validated exhaustively against the subword characterization
    for n <= 4, and against the rank-matrix order of ``order.leq`` for
    n <= 5, in the test suite.

    >>> bruhat_leq((2, 1, 3, 4), (4, 3, 2, 1))
    True
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    if u == v:
        return True
    for k in range(1, len(u)):
        if not all(map(operator.le, sorted(u[:k]), sorted(v[:k]))):
            return False
    return True


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Word, ...]:
    """All of S_n in lexicographic order."""
    return tuple(itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def reduced_word(w: Word) -> tuple[int, ...]:
    """A reduced word for w, built by stripping the smallest left descent.

    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    n = len(w)
    word = []
    while w != identity(n):
        i = min(left_descents(w))
        word.append(i)
        w = compose(simple_reflection(n, i), w)
    return tuple(word)


@lru_cache(maxsize=None)
def parabolic_subgroup(gens: frozenset[int], n: int) -> frozenset[Word]:
    """The subgroup W_I generated by the simple reflections in gens."""
    for i in gens:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range for n={n}")
    seen = {identity(n)}
    frontier = [identity(n)]
    refl = [simple_reflection(n, i) for i in sorted(gens)]
    while frontier:
        w = frontier.pop()
        for s in refl:
            ws = compose(w, s)
            if ws not in seen:
                seen.add(ws)
                frontier.append(ws)
    return frozenset(seen)


def min_coset_rep(w: Word, gens: frozenset[int]) -> Word:
    """The unique shortest element of the coset w W_I.

    >>> min_coset_rep((4, 3, 2, 1), frozenset({1, 2, 3}))
    (1, 2, 3, 4)
    """
    n = len(w)
    while True:
        down = right_descents(w) & gens
        if not down:
            return w
        w = compose(w, simple_reflection(n, min(down)))


@lru_cache(maxsize=None)
def coset_minima(gens: frozenset[int], n: int) -> tuple[Word, ...]:
    """All minimal-length coset representatives for W / W_I.

    Computed by filtering the full group; fine at desk scale.
    """
    return tuple(w for w in all_permutations(n) if not (right_descents(w) & gens))


def _left_step(w: Word, i: int) -> tuple[Word, bool]:
    """(s_i w, whether s_i is a left descent of w): s_i w swaps the
    values i and i + 1 in w, and is shorter iff i + 1 stands left of i."""
    out, a, b = list(w), w.index(i), w.index(i + 1)
    out[a], out[b] = i + 1, i
    return tuple(out), b < a


@lru_cache(maxsize=None)
def classical_rpoly(u: Word, v: Word) -> IntPoly:
    """The R-polynomial R_{u,v} of the symmetric group.

    Computed by the usual descent recurrence: for a left descent s of v,
    R_{u,v} = R_{su,sv} if su < u, else (q-1) R_{u,sv} + q R_{su,sv}.
    R_{u,u} = 1 and R_{u,v} = 0 unless u <= v.  As u < v implies
    l(u) < l(v), a pair with l(u) >= l(v) is settled by the length, a
    cached lookup, before the prefix test of ``bruhat_leq``; in the
    Hecke suite that is most of the pairs that are not u < v.  The
    descents are read off the words by the local rule: s_i is a left
    descent of w iff the value i + 1 stands left of i in w, and s is
    the smallest such s_i of v.
    """
    if len(u) != len(v):
        raise ValueError(f"rank mismatch: {len(u)} vs {len(v)}")
    if u == v:
        return ONE
    if length(u) >= length(v) or not bruhat_leq(u, v):
        return ZERO
    i = 1  # u < v, so v is not the identity and has a left descent
    while v.index(i) < v.index(i + 1):
        i += 1
    sv, _ = _left_step(v, i)
    su, lowers = _left_step(u, i)
    if lowers:
        return classical_rpoly(su, sv)
    return Q_MINUS_1 * classical_rpoly(u, sv) + Q * classical_rpoly(su, sv)
