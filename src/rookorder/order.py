"""Bruhat-Chevalley order on the rook monoid.

``leq`` is the order: theta <= sigma iff every count of entries >= j
among the first k columns of theta is at most the same count for sigma
(Pennell-Putcha-Renner's rank-matrix characterisation for R_n).  Each
rank matrix packs into one int, so one subtract-and-mask compares all
n^2 counts.  Questions about one interval [theta, sigma] of one W x W
orbit (elements, covers, Mobius values) go to an ``IntervalPoset``,
which indexes exactly that interval; sweeps over a whole orbit share
``orbit_poset(n, k)``, the poset of [min, max].

The coset-witness criterion on standard forms (theta = u e v^-1 <=
sigma = x f y^-1 iff e <= f and u <= xw, yw <= v for some w in
W(f) W_e) is kept in the test suite as the independent oracle that
``leq`` and the poset rows must agree with.  Within one orbit the
length function is the rank function of the order, which licenses
covers at length gap one and (length, word) as a linear extension.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache, reduce
from operator import and_

from . import renner, weyl
from .renner import Word

__all__ = [
    "leq", "dominance_leq", "require_same_orbit", "bits", "IntervalPoset",
    "mobius_row", "mobius_at", "orbit_poset", "orbit_action",
    "interval_elements", "interval", "mobius_direct", "hasse_dot",
]


@lru_cache(maxsize=None)
def _rank_packing(n: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """How rank matrices of R_n pack into one int.

    The count for (k, j) sits in its own field of ``n.bit_length() + 1``
    bits, whose top bit is a guard that no count reaches; the fields of
    one k (one prefix row) are adjacent.  Returns, per column c and
    value a, the packed contribution of an entry a in column c (one to
    every field with k > c and j <= a), and the mask of all guard bits.
    """
    width = n.bit_length() + 1
    guard = sum(1 << (width * (field + 1) - 1) for field in range(n * n))
    columns = tuple(
        tuple(sum(1 << width * ((k - 1) * n + j - 1)
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
    of R_5.

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


def _between(theta: Word, sigma: Word) -> list[tuple[Word, int]]:
    """Every tau with theta <= tau <= sigma and its packed rank matrix, by
    a search over the columns from left to right: once column c is set,
    prefix row c + 1 is final and must lie between theta's and sigma's."""
    n = len(theta)
    columns, guard = _rank_packing(n)
    span = (n.bit_length() + 1) * n
    row_guards = [guard & (((1 << span) - 1) << (span * c)) for c in range(n)]
    low, high = _pack(theta), _pack(sigma) | guard
    found: list[tuple[Word, int]] = []
    word = [0] * n

    def extend(c: int, used: int, packed: int) -> None:
        if c == n:
            found.append((tuple(word), packed))
            return
        row = row_guards[c]
        for a, step in enumerate(columns[c]):
            if a and (used >> a) & 1:
                continue
            p = packed + step
            if (high - p) & row == row and ((p | guard) - low) & row == row:
                word[c] = a
                extend(c + 1, used | (1 << a), p)

    extend(0, 0, 0)
    return found


class IntervalPoset:
    """The interval [theta, sigma] of one orbit as a poset over int
    bitsets; empty when theta is not below sigma.

    Element i is ``elements[i]``, in (length, word) order, so theta is
    element 0 and sigma the last.  Bit j of ``up(i)`` is set iff
    elements[i] <= elements[j], and bit i of ``down(j)`` likewise.  Rows
    are bit-sliced (O'Neil-Quass): for each rank-matrix count that
    varies over the interval and each value v, one bitset holds the
    elements whose count is >= v and one those whose count is <= v.  A
    row is the AND of one of them per count, and each element keeps the
    ones its rows need; rows are not kept, Mobius values of a bottom are.
    """

    def __init__(self, theta: Word, sigma: Word):
        self.n, self.k = require_same_orbit(theta, sigma)
        self.bottom, self.top = theta, sigma
        found = sorted((renner.length(w), w, p) for w, p in _between(theta, sigma))
        self.lengths = tuple(length for length, _, _ in found)
        self.elements = tuple(w for _, w, _ in found)
        self.index = {w: i for i, w in enumerate(self.elements)}
        everything = self._everything = (1 << len(found)) - 1
        width = self.n.bit_length() + 1
        count = (1 << (width - 1)) - 1
        low, high = _pack(theta), _pack(sigma)
        varying = [shift for shift in range(0, width * self.n * self.n, width)
                   if (low >> shift) & count < (high >> shift) & count] if found else []
        # counts[i]: the varying counts of element i, one byte each
        counts = [bytes([(p >> shift) & count for shift in varying])
                  for _, _, p in found]
        table = b"".join(counts)
        at_least_sets, at_most_sets = [], []
        for f, shift in enumerate(varying):
            lo, hi = (low >> shift) & count, (high >> shift) & count
            # one count of every element as a base-2 numeral, element 0
            # last; a translation to '1' where it is >= v gives that set
            column = table[f::len(varying)][::-1]
            at_least = [everything] * (lo + 1) + [
                int(column.translate(b"0" * v + b"1" * (256 - v)), 2)
                for v in range(lo + 1, hi + 1)] + [0]
            at_least_sets.append(at_least)
            at_most_sets.append([everything ^ above for above in at_least[1:]])
        # the sets each row ANDs, leaving out those that hold every element
        self._up_sets, self._down_sets = (
            [tuple(filter(everything.__ne__, map(list.__getitem__, sets, row)))
             for row in counts] for sets in (at_least_sets, at_most_sets))
        self._mobius: dict[int, dict[int, int]] = {}  # bottom -> {mu: bitset}

    def locate(self, word: Word) -> int:
        """Index of ``word``; ValueError if it lies outside the interval."""
        try:
            return self.index[word]
        except KeyError:
            ends = map(renner.format_element, (word, self.bottom, self.top))
            raise ValueError("{} lies outside [{}, {}]".format(*ends)) from None

    def up(self, i: int) -> int:
        """Bitset of the j with elements[i] <= elements[j]."""
        return reduce(and_, self._up_sets[i], self._everything)

    def down(self, j: int) -> int:
        """Bitset of the i with elements[i] <= elements[j]."""
        return reduce(and_, self._down_sets[j], self._everything)

    def level(self, length: int) -> int:
        """Bitset of the elements of the given length."""
        lo, hi = bisect_left(self.lengths, length), bisect_right(self.lengths, length)
        return (1 << hi) - (1 << lo)

    def covers(self):
        """Index pairs (a, b), by a then b, with elements[b] covering
        elements[a]: the comparable pairs at length gap one."""
        for a, length in enumerate(self.lengths):
            for b in bits(self.up(a) & self.level(length + 1)):
                yield a, b

    def mobius(self, i: int, j: int) -> int:
        """mu(elements[i], elements[j]), by the defining recursion: the
        first query with bottom i fills and keeps its ``mobius_row``."""
        if i not in self._mobius:
            self._mobius[i] = mobius_row(i, self.up(i), self.down)
        return mobius_at(self._mobius[i], j)


def mobius_row(bottom: int, up: int, down) -> dict[int, int]:
    """The Mobius row of ``bottom`` in a poset indexed by a linear
    extension, as {mu: bitset M_mu}: bit t of M_mu is set iff
    mu(bottom, t) = mu != 0.  ``up`` is the up row of bottom and
    ``down(t)`` the down row of t.

    The row is filled in index order: mu(bottom, t) = -sum over r in
    [bottom, t) of mu(bottom, r), which is minus the sum of
    v * |M_v & down(t)| over the bitsets of the r done so far.  The
    r with mu = 0 add nothing, so M_0 is not kept.  M_(+1) and M_(-1)
    are two ints; any other value goes to a dict, which stays empty on
    every orbit of the rook monoid (there mu is 0 or +-1).  Bottom 0
    below three atoms below a top:

    >>> mobius_row(0, 0b11111, [0b1, 0b11, 0b101, 0b1001, 0b11111].__getitem__)
    {1: 1, -1: 14, 2: 16}
    """
    plus, minus, other = 1 << bottom, 0, {}
    rest = up & ~plus
    while rest:
        low = rest & -rest
        rest ^= low
        below = down(low.bit_length() - 1)
        mu = (minus & below).bit_count() - (plus & below).bit_count()
        if other:
            mu -= sum([v * (m & below).bit_count() for v, m in other.items()])
        if mu == 1:
            plus |= low
        elif mu == -1:
            minus |= low
        elif mu:
            other[mu] = other.get(mu, 0) | low
    row = {1: plus, -1: minus} if minus else {1: plus}
    row.update(other)
    return row


def mobius_at(row: dict[int, int], j: int) -> int:
    """mu(bottom, elements[j]) read off a ``mobius_row``."""
    return next((v for v, m in row.items() if (m >> j) & 1), 0)


@lru_cache(maxsize=None)
def orbit_poset(n: int, k: int) -> IntervalPoset:
    """The poset of the whole rank-k orbit of R_n, [min, max], shared by
    the sweeps that visit every pair of the orbit."""
    return IntervalPoset(renner.orbit_minimum(n, k), renner.orbit_maximum(n, k))


@lru_cache(maxsize=None)
def orbit_action(n: int, k: int, side: str) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The simple reflections acting on ``orbit_poset(n, k)`` from one
    side, by index.

    Entry i - 1 is a pair (to, step): ``to[a]`` is the index of
    s_i elements[a] (side "left") or elements[a] s_i (side "right"), and
    ``step[a]`` is ``renner.length_step`` of elements[a] under s_i on
    that side.  Either product keeps the rank, so it stays in the orbit.
    """
    poset = orbit_poset(n, k)
    action = []
    for i in range(1, n):
        s = weyl.simple_reflection(n, i)
        moved = (renner.multiply(s, w) if side == "left" else renner.multiply(w, s)
                 for w in poset.elements)
        action.append((tuple(map(poset.index.__getitem__, moved)),
                       tuple(renner.length_step(w, i, side) for w in poset.elements)))
    return tuple(action)


def interval_elements(theta: Word, sigma: Word) -> tuple[Word, ...]:
    """All tau in the common orbit with theta <= tau <= sigma, by (length, word)."""
    return IntervalPoset(theta, sigma).elements


def interval(theta: Word, sigma: Word) -> IntervalPoset:
    """The poset of [theta, sigma]; ValueError unless theta <= sigma in
    one orbit."""
    poset = IntervalPoset(theta, sigma)
    if not poset.elements:
        raise ValueError(f"{renner.format_element(theta)} is not below "
                         f"{renner.format_element(sigma)}")
    return poset


def mobius_direct(theta: Word, sigma: Word) -> int:
    """mu(theta, sigma) in one orbit; 0 when theta is not below sigma."""
    poset = IntervalPoset(theta, sigma)
    return poset.mobius(0, len(poset.elements) - 1) if poset.elements else 0


def hasse_dot(poset: IntervalPoset) -> str:
    """DOT digraph of a Hasse diagram; edges point from lower to higher,
    by (length, word) of the lower end and then word of the upper."""
    names = [renner.format_element(w) for w in poset.elements]
    lines = ["digraph hasse {", "  rankdir=BT;"]
    lines += [f'  "{name}" [len={length}];'
              for name, length in zip(names, poset.lengths)]
    lines += [f'  "{names[a]}" -> "{names[b]}";' for a, b in poset.covers()]
    return "\n".join(lines + ["}"]) + "\n"
