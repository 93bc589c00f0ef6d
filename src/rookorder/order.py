"""Bruhat-Chevalley order on the rook monoid.

``leq`` is the order: theta <= sigma iff every count of entries >= j
among the first k columns of theta is at most the same count for sigma
(Pennell-Putcha-Renner's rank-matrix characterisation for R_n).  Each
rank matrix packs into one int, so one subtract-and-mask compares all
n^2 counts.  Questions inside one W x W orbit (intervals, covers,
Mobius values) go to that orbit's ``OrbitPoset``, which answers them
with int bitsets built from the same packed test.

The coset-witness criterion on standard forms (theta = u e v^-1 <=
sigma = x f y^-1 iff e <= f and u <= xw, yw <= v for some w in
W(f) W_e) is kept in the test suite as the independent oracle: the
tests require it to agree with ``leq`` on all of R_1 to R_4 and on
sampled pairs of R_5, within one orbit and across orbits.

Within a single orbit W e W the monoid length function is the rank
function of the induced poset, which licenses building cover relations
from length gaps of one and ordering an orbit by (length, word) as a
linear extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import renner
from .renner import Word

__all__ = [
    "leq", "dominance_leq", "require_same_orbit", "bits", "OrbitPoset",
    "orbit_poset", "interval_mask", "interval_elements", "IntervalPoset",
    "interval", "mobius_direct", "hasse_dot",
]


@lru_cache(maxsize=None)
def _rank_packing(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """How rank matrices of R_n pack into one int.

    The count for (k, j) sits in its own field of ``n.bit_length() + 1``
    bits, whose top bit is a guard that no count reaches.  Returns, per
    column c and value a, the packed contribution of an entry a in
    column c (one to every field with k > c and j <= a), and the mask
    of all guard bits.
    """
    width = n.bit_length() + 1
    fields = [[width * ((k - 1) * n + (j - 1)) for j in range(1, n + 1)]
              for k in range(1, n + 1)]
    guard = sum(1 << (shift + width - 1) for row in fields for shift in row)
    columns = tuple(
        tuple(sum(1 << fields[k - 1][j - 1]
                  for k in range(c + 1, n + 1) for j in range(1, a + 1))
              for a in range(n + 1))
        for c in range(n))
    return columns, guard


def _pack(word: Word) -> int:
    """The rank matrix of ``word`` in the layout of ``_rank_packing``."""
    columns, _ = _rank_packing(len(word))
    return sum(map(tuple.__getitem__, columns, word))


def leq(theta: Word, sigma: Word) -> bool:
    """Bruhat-Chevalley order on R_n, in one subtract-and-mask.

    theta <= sigma iff for all k, j the count of entries >= j among the
    first k columns of theta is at most the same count for sigma.  With
    the guard bits set on sigma's packed counts, the subtraction clears
    a guard exactly where theta's count is the larger one.  The tests
    check this against the coset-witness criterion (``witness_leq`` in
    the test oracles) on every pair of R_1 to R_4 and on sampled pairs
    of R_5; ``OrbitPoset`` builds its rows from the same test.

    >>> leq((0, 0, 0, 1), (0, 0, 0, 3)), leq((1, 0), (0, 1))
    (True, False)
    """
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    _, guard = _rank_packing(len(theta))
    return ((_pack(sigma) | guard) - _pack(theta)) & guard == guard


dominance_leq = leq  # the name the benchmark's answer checks call


def require_same_orbit(theta: Word, sigma: Word) -> tuple[int, int]:
    """(n, k) of the orbit holding both elements; ValueError otherwise."""
    if len(theta) != len(sigma):
        raise ValueError(f"rank mismatch: {len(theta)} vs {len(sigma)}")
    k = renner.rank(theta)
    if renner.rank(sigma) != k:
        raise ValueError(
            f"{renner.format_element(theta)} and {renner.format_element(sigma)} "
            f"lie in different orbits")
    return len(theta), k


def bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class OrbitPoset:
    """The orbit of e_k in R_n, indexed once, as a poset over int bitsets.

    Element i is ``elements[i]``, in (length, word) order, which is a
    linear extension of the order.  Bit j of ``up(i)`` is set iff
    elements[i] <= elements[j], and bit i of ``down(j)`` likewise.  Rows
    are built on first use, one O(|orbit|) scan of packed rank matrices
    each, and kept, as are the Mobius values computed from them, so the
    memory held is bounded by the orbit, not by the queries asked.
    """

    def __init__(self, n: int, k: int):
        self.n, self.k = n, k
        self.elements = renner.orbit(n, k)
        self.index = {w: i for i, w in enumerate(self.elements)}
        self.lengths = tuple(renner.length(w) for w in self.elements)
        bounds: dict[int, list[int]] = {}
        for i, length in enumerate(self.lengths):
            bounds.setdefault(length, [i, i])[1] = i + 1
        self._levels = {length: (1 << hi) - (1 << lo)
                        for length, (lo, hi) in bounds.items()}
        _, self._guard = _rank_packing(n)
        self._packed = [_pack(w) for w in self.elements]
        self._lifted = [p | self._guard for p in self._packed]
        size = len(self.elements)
        self._up: list[int | None] = [None] * size
        self._down: list[int | None] = [None] * size
        self._mobius: dict[int, tuple[int, dict[int, int]]] = {}

    def locate(self, word: Word) -> int:
        """Index of ``word``; ValueError if it lies outside the orbit."""
        try:
            return self.index[word]
        except KeyError:
            raise ValueError(
                f"{renner.format_element(word)} is not in the rank-{self.k} "
                f"orbit of R_{self.n}"
            ) from None

    def up(self, i: int) -> int:
        """Bitset of the j with elements[i] <= elements[j]."""
        row = self._up[i]
        if row is None:
            p, guard, row = self._packed[i], self._guard, 0
            for j in range(i, len(self._lifted)):
                if (self._lifted[j] - p) & guard == guard:
                    row |= 1 << j
            self._up[i] = row
        return row

    def down(self, j: int) -> int:
        """Bitset of the i with elements[i] <= elements[j]."""
        row = self._down[j]
        if row is None:
            lifted, guard, row = self._lifted[j], self._guard, 0
            for i in range(j + 1):
                if (lifted - self._packed[i]) & guard == guard:
                    row |= 1 << i
            self._down[j] = row
        return row

    def level(self, length: int) -> int:
        """Bitset of the elements of the given length."""
        return self._levels.get(length, 0)

    def members(self, mask: int) -> tuple[Word, ...]:
        """The elements whose bits are set, in index order."""
        return tuple(self.elements[i] for i in bits(mask))

    def mobius(self, i: int, j: int) -> int:
        """mu(elements[i], elements[j]), by the defining recursion.

        The values for one bottom i form one row, filled in index order
        as far as each query needs and kept: mu(i, t) is minus the sum
        of mu(i, r) over the r in [i, t), all of which come before t.
        """
        if i not in self._mobius:
            self._mobius[i] = (1 << i, {i: 1})
        done, row = self._mobius[i]
        up = self.up(i)
        if (up >> j) & 1 and not (done >> j) & 1:
            todo = up & self.down(j) & ~done
            for t in bits(todo):
                row[t] = -sum(row[r] for r in bits(up & self.down(t) & ~(1 << t)))
            self._mobius[i] = (done | todo, row)
        return row.get(j, 0)


@lru_cache(maxsize=None)
def orbit_poset(n: int, k: int) -> OrbitPoset:
    """The one ``OrbitPoset`` of the rank-k orbit of R_n."""
    return OrbitPoset(n, k)


def interval_mask(theta: Word, sigma: Word) -> tuple[OrbitPoset, int]:
    """The poset of the orbit holding both elements, and the bitset of
    [theta, sigma] in it (0 when theta is not below sigma)."""
    poset = orbit_poset(*require_same_orbit(theta, sigma))
    return poset, poset.up(poset.locate(theta)) & poset.down(poset.locate(sigma))


def interval_elements(theta: Word, sigma: Word) -> tuple[Word, ...]:
    """All tau in the common orbit with theta <= tau <= sigma, by (length, word)."""
    poset, inside = interval_mask(theta, sigma)
    return poset.members(inside)


@dataclass(frozen=True)
class IntervalPoset:
    bottom: Word
    top: Word
    elements: tuple[Word, ...]
    covers: tuple[tuple[Word, Word], ...]


def interval(theta: Word, sigma: Word) -> IntervalPoset:
    """The interval [theta, sigma] inside one orbit, with cover relations.

    Covers are the comparable pairs at length gap one, which is the
    transitive reduction because length is the orbit rank function (the
    tests cross-check this against a generic reduction at small n).
    """
    poset, inside = interval_mask(theta, sigma)
    if not inside:
        raise ValueError(
            f"{renner.format_element(theta)} is not below "
            f"{renner.format_element(sigma)}")
    covers = tuple(
        (poset.elements[a], poset.elements[b])
        for a in bits(inside)
        for b in bits(poset.up(a) & inside & poset.level(poset.lengths[a] + 1)))
    return IntervalPoset(theta, sigma, poset.members(inside), covers)


def mobius_direct(theta: Word, sigma: Word) -> int:
    """Mobius function of an orbit poset, by the defining recursion.

    Returns 0 when theta is not below sigma.
    """
    poset = orbit_poset(*require_same_orbit(theta, sigma))
    return poset.mobius(poset.locate(theta), poset.locate(sigma))


def hasse_dot(poset: IntervalPoset) -> str:
    """DOT digraph of a Hasse diagram; edges point from lower to higher."""
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for w in poset.elements:
        lines.append(
            f'  "{renner.format_element(w)}" [len={renner.length(w)}];')
    for a, b in sorted(poset.covers,
                       key=lambda e: (renner.length(e[0]), e[0], e[1])):
        lines.append(
            f'  "{renner.format_element(a)}" -> "{renner.format_element(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
