"""The generic Hecke algebra of the rook monoid and its bar involution.

Elements are finite maps {element word -> Laurent coefficient} with
support inside W e W union W for a fixed rank idempotent e (the
augmented orbit algebra).  The basis multiplication rule for a simple
reflection s is

    A_s A_sigma = A_sigma                                 if l(s sigma) = l(sigma)
                = A_{s sigma}                             if l(s sigma) = l(sigma) + 1
                = q^-1 A_{s sigma} + (1 - q^-1) A_sigma   if l(s sigma) = l(sigma) - 1

together with A_nu A_sigma = A_{nu sigma} for l(nu) = 0.  Left
multiplication by a permutation keeps the rank, so these products stay
in the orbit of sigma and never reach the lower orbits that the orbit
algebra quotients out.

The bar involution fixes integers, sends q to q^-1, and is a ring
homomorphism with bar(A_s) = A_s^-1 = q A_s - (q - 1) (Putcha's
extension of KL79 to the orbit algebra).  ``orbit_bars(n, k)`` expands
bar(A_sigma) = sum over theta of c_theta(sigma) A_theta in the A-basis
for every sigma of one orbit, column by column, by the indices of
``order.orbit_poset(n, k)``, as ``rpoly.orbit_table`` fills R, and
from the same plan (``rpoly.orbit_plan``).  Where the plan takes a left
descent s of sigma, the smallest, A_sigma = A_s A_{s sigma}, so

    bar(A_sigma) = (q A_s - (q - 1)) bar(A_{s sigma}),

and column sigma is one such step applied to the shorter, earlier
column of s sigma, with s and its steps read off the plan entry.  Every
other element, a Hecke base, has no left descent, so it is e t^-1,
whose bar is the orbit sum

    q^(-l(t)) sum over z in W(e), y in D(e) of bar(R[t z, y]) A_{z e y^-1}

with classical R-polynomials of the symmetric group, summed in Z[q]
(the sum r at z e y^-1) over terms (z, y, index of z e y^-1, l(z),
l(y)) listed once per orbit; at k = n that is A_id alone.  Most terms
are 0 by length alone: t lies in D(e), so it is minimal in its coset
t W(e), and z lies in W(e), so l(t z) = l(t) + l(z)
(Björner-Brenti, GTM 231, 2.4.4), and R[t z, y] = 0 unless
t z <= y, which needs l(t) + l(z) <= l(y); a term with
l(t) + l(z) > l(y) is skipped without looking up its R.  So the
oracle never reads the R recurrence of ``rpoly``: expanding
bar(A_sigma) recovers the R-polynomials (the barred column, which
``rpoly_via_bar`` decodes), and the Hecke suite compares each with the
column of R.

The table holds ints, packed by ``polynomials.Kronecker`` at q = 2^B,
and each entry is scaled by a power of q that puts it in Z[q]: column
b holds q^(l(e) - l(a)) c_a(b) at a, and the barred column b holds
q^(l(b) - l(e)) bar(c_a(b)), which must be R[a, b] (the relation
``rpoly_via_bar`` reads).  Under these scales the step is the R' kind
of ``rpoly._step`` on a column, and its bar
(q^-1 A_s - (q^-1 - 1)) is the R kind on a barred column (the step
table of the ``rpoly`` docstring): the barred column scale gains a q
from s sigma to sigma, which absorbs the q^-1 of the barred step.  An
element b = e t^-1 with no left descent has l(b) = l(e) - l(t), so its
scaled columns come straight from the sums r in Z[q]: the barred
column holds r itself at a, and the column q^(l(b) - l(a)) bar(r),
which packing raises on outside Z[q].  Every step keeps the scaled
entries in Z[q], so no offset is needed.  Unscaled, the entries would
need an offset of up to max(l(e) - l(min), l(max) - l(e)) powers of q,
and the products in the triple sums would carry its zero digits.

Width: both tables of an orbit are packed by its one packing
(``rpoly.orbit_packing``), at the width B of the R table, so the Hecke
suite compares their columns by dict equality; the Hecke entries must
then have L1 norms within the R bounds, checked on the bases alone.
The bounds kind of the step bounds both Hecke tables as it bounds R
and R', and stays inside down(b) (the ``rpoly`` docstring).  At every b
that is not a base, the R bound fill (``rpoly.orbit_bounds``) takes the
same left step of the same plan entry as the Hecke fill; the step is
monotone, and s b comes before b in index order (u < v implies
l(u) < l(v)), so by induction every Hecke bound is at most R's once
every base entry is.  The bases are the elements whose plan entry is
not a left step, defined once as the keys of the columns that
``rpoly.orbit_bounds`` keeps, which R filled by a right descent (or, at
the minimum, by none).  ``_check_bounds`` compares the L1 norm of each
base sum with R's bound at its entry, 0 outside down(b), and
``base_columns`` raises ValueError rather than pack past the width.
No base of R_1 to R_6 exceeds it.

``base_columns`` packs the columns and barred columns of the bases
alone, all that the Hecke report's clean test reads; ``orbit_bars``
fills every column from them by ``rpoly._fill``, for the report's
fallback and the Laurent path.  Off the bases a column is the step of
an earlier one, so the clean test reads it from R' or R where the
orbit's certificate holds (``verify``).

That bar is an involution is checked orbit by orbit in integer
arithmetic over the same table (``verify.hecke_oracle_report``), which
decodes its own certificates.  ``certify`` certifies it from local
checks on a table of columns and one of barred columns: each left step
s of the plan takes bar(A_t) to bar(A_(s t)) where s raises t and keeps
it where s fixes t, as bar is a ring homomorphism, the latter tested as
equal entries at a and s a wherever s moves a, with no step built; each
barred column off a base is the barred step of its plan entry; and the
bar o bar row of each base is the identity.  ``verify`` shows that
these give every row, and only the base rows are summed.  Run on R' and
R, the same checks certify the delta identity, with no Hecke table,
and, with the bases compared, bar o bar: ``certificate`` runs them
there once per orbit, for both reports (``verify``).  Where the clean
test fails, the report runs them on its full tables, and where they
fail too, it sums the bar o bar row of every sigma.
``bar_Asigma``, ``bar_element`` and ``rpoly_via_bar`` decode the table
into ``Laurent`` coefficients: they are the Laurent path, which the
tests hold the packed sums and their certificates against.
"""

from __future__ import annotations

from . import order, renner, rpoly, weyl
from .polynomials import IntPoly, Laurent
from .renner import Word

HeckeElt = dict  # Word -> Laurent, zero coefficients absent

__all__ = [
    "HeckeElt", "add_scaled", "canonical", "mult_As_left", "mult_Aw_left", "base_columns",
    "orbit_bars", "certify", "certificate", "bar_Asigma", "bar_element", "rpoly_via_bar",
]

_Q_INV = Laurent.q_power(-1)
_ONE_MINUS_Q_INV = Laurent.from_int(1) - _Q_INV


def _add_term(acc: HeckeElt, word: Word, c: Laurent) -> None:
    old = acc.get(word)
    acc[word] = c if old is None else old + c


def add_scaled(acc: HeckeElt, h: HeckeElt, c: Laurent | int = 1) -> None:
    """acc += c * h, in place."""
    if c == 1:
        for word, coeff in h.items():
            _add_term(acc, word, coeff)
    elif c:
        for word, coeff in h.items():
            _add_term(acc, word, c * coeff)


def canonical(h: HeckeElt) -> HeckeElt:
    return {word: c for word, c in h.items() if not c.is_zero()}


def mult_As_left(i: int, h: HeckeElt) -> HeckeElt:
    """Left multiplication by the basis element of the simple reflection s_i."""
    out: HeckeElt = {}
    for word, c in h.items():
        sw = renner.multiply(weyl.simple_reflection(len(word), i), word)
        diff = renner.length_step(word, i, "left")
        if diff == 0:
            _add_term(out, word, c)
        elif diff == 1:
            _add_term(out, sw, c)
        else:
            _add_term(out, sw, c * _Q_INV)
            _add_term(out, word, c * _ONE_MINUS_Q_INV)
    return canonical(out)


def mult_Aw_left(w: Word, h: HeckeElt) -> HeckeElt:
    """Left multiplication by A_w for a permutation w, via a reduced word."""
    for i in reversed(weyl.reduced_word(w)):
        h = mult_As_left(i, h)
    return h


def _orbit_sum(t: Word, terms) -> dict[int, IntPoly]:
    # the sum over the terms (z, y, a, l(z), l(y)) of R[t z, y] at a, in
    # Z[q], nonzero entries only; a term with l(t) + l(z) = l(t z) > l(y)
    # is 0 (module docstring), so its R is not looked up
    sums: dict[int, IntPoly] = {}
    lt = weyl.length(t)
    for z, y, a, lz, ly in terms:
        if lt + lz > ly:
            continue
        r = weyl.classical_rpoly(weyl.compose(t, z), y)
        if r:
            sums[a] = sums[a] + r if a in sums else r
    return {a: r for a, r in sums.items() if r}


def _orbit_sums(n: int, k: int) -> dict[int, dict[int, IntPoly]]:
    """The classical sums r of each Hecke base of the rank-k orbit of
    R_n, the keys of the columns of ``rpoly.orbit_bounds``, by the
    indices of ``order.orbit_poset(n, k)`` (module docstring)."""
    poset = order.orbit_poset(n, k)
    e = renner.rank_idempotent(n, k)
    gens = renner.centralizer_gens(e)
    terms = [(z, y, poset.index[renner.multiply(renner.multiply(z, e), weyl.inverse(y))],
              weyl.length(z), weyl.length(y))
             for z in sorted(weyl.parabolic_subgroup(gens, n))
             for y in weyl.coset_minima(gens, n)]
    return {b: _orbit_sum(renner.standard_form(poset.elements[b]).y, terms)
            for b in rpoly.orbit_bounds(n, k)[1]}


def _check_bounds(n: int, k: int, bases: dict[int, dict[int, IntPoly]]) -> None:
    """Raise ValueError where the L1 norm of a base sum exceeds the bound
    of R at its entry (0 outside down(b)): then, and only then, could
    some entry of the Hecke table exceed the width (module docstring)."""
    columns = rpoly.orbit_bounds(n, k)[1]
    for b, base in bases.items():
        for a, r in base.items():
            if sum(map(abs, r.coeffs)) > columns[b].get(a, 0):
                raise ValueError(f"the Hecke bounds of the rank-{k} orbit of R_{n} "
                                 f"exceed the bounds of its R table at ({a}, {b})")


@order.resident
def base_columns(n: int, k: int) -> tuple[dict[int, dict[int, int]], ...]:
    """The Hecke columns and barred columns of the Hecke bases of the
    rank-k orbit of R_n, {b: H[b]} and {b: Bar[b]}, packed by
    ``rpoly.orbit_packing(n, k)`` and scaled: H[b] maps each index a of
    ``order.orbit_poset(n, k)`` to the packed q^(l(e) - l(a)) c_a(b),
    c_a(b) the coefficient of A_(elements[a]) in bar(A_(elements[b])),
    and Bar[b] to the packed q^(l(b) - l(e)) bar(c_a(b)); nonzero
    entries only.  The orbit sums are summed here, once per orbit, and
    held to the R bounds."""
    bases, packing = _orbit_sums(n, k), rpoly.orbit_packing(n, k)
    _check_bounds(n, k, bases)
    lengths = order.orbit_poset(n, k).lengths
    return ({b: {a: packing.pack(r.bar() * Laurent.q_power(lengths[b] - lengths[a]))
                 for a, r in base.items()} for b, base in bases.items()},
            {b: {a: packing.pack(r) for a, r in base.items()} for b, base in bases.items()})


@order.resident
def orbit_bars(n: int, k: int) -> tuple[rpoly.Table, rpoly.Table]:
    """The Hecke table of the rank-k orbit of R_n, kept while the orbit
    is resident like the R table of ``rpoly``, and by sigma like it:
    every column H and barred column Bar, filled by ``rpoly._fill`` of
    kind R' and R from ``base_columns``, and scaled and packed as they
    are.  Only the Hecke report's fallback, and the Laurent path, read
    it."""
    packing = rpoly.orbit_packing(n, k)
    return tuple(rpoly._fill(n, k, kind, packing, columns)
                 for kind, columns in zip(("R'", "R"), base_columns(n, k)))


def _is_fixed(column: dict[int, int], to, step) -> bool:
    # the step of s keeps the column exactly when it holds equal values at
    # a and s a for every a that s moves (``verify``), a value it lacks 0
    return all(column.get(to[a], 0) == x for a, x in column.items() if step[a])


def _left_steps_act(rows: rpoly.Table, plan, bits: int) -> bool:
    # (a): for each s that the plan takes on the left, the step of column t
    # is column s t where s raises t, and column t where s fixes t, which
    # is tested without the step; the columns that s lowers follow from
    # those of their raised partners
    actions = {id(entry[0]): entry[:2] for entry in plan if entry and entry[2]}
    return all(rpoly._step(column, to, step, bits, "R'") == rows[to[t]] if d
               else _is_fixed(column, to, step)
               for to, step in actions.values()
               for t, (column, d) in enumerate(zip(rows, step)) if d >= 0)


def _barred_steps_act(barred: rpoly.Table, plan, bases, bits: int) -> bool:
    # (b): every barred column off a base is the barred step of its plan
    # entry applied to the barred column of s b
    return all(rpoly._step(barred[entry[0][b]], *entry[:2], bits, "R") == barred[b]
               for b, entry in enumerate(plan) if b not in bases)


def _base_rows_are_identity(rows: rpoly.Table, barred: rpoly.Table, bases) -> bool:
    # (c): the bar o bar row of every base is the packed identity, 1 at b
    # and 0 elsewhere; ``rpoly.triple_sums`` is looked up when it runs, so
    # a patched one runs
    return all((out := rpoly.triple_sums(barred[b], rows))[b] == 1
               and out.count(0) == len(rows) - 1 for b in bases)


def certify(rows: rpoly.Table, barred: rpoly.Table, n: int, k: int) -> bool:
    """Whether every row ``rpoly.triple_sums(barred[b], rows)`` of the
    rank-k orbit of R_n is the packed identity, certified in packed ints
    from three local checks on the columns ``rows`` and the barred
    columns ``barred``: (a) each left step s of ``rpoly.orbit_plan``
    takes column t to column s t where s raises t and to column t where
    s fixes t, which is tested as equal entries at a and s a for every a
    that s moves; (b) every barred column off a base is its plan's
    barred step of the barred column of s b; (c) the row of every base,
    a key of ``rpoly.orbit_bounds``, is the identity.  It has two
    callers.  ``certificate`` calls it on R' and R, where the rows it
    certifies are those of R' R, and so R R' = I, and, with the bases
    compared, the bar o bar rows of the Hecke tables too; the Hecke
    report calls it on its own full tables where that fails.  ``verify`` gives the argument, exact in Z
    for any table contents.  Only (c) sums, and it stops at its first
    failing base; False means that some check failed, not that some row
    is not the identity."""
    plan, bits = rpoly.orbit_plan(n, k), rpoly.orbit_packing(n, k).bits
    bases = rpoly.orbit_bounds(n, k)[1]
    return (_left_steps_act(rows, plan, bits) and _barred_steps_act(barred, plan, bases, bits)
            and _base_rows_are_identity(rows, barred, bases))


@order.resident
def certificate(n: int, k: int) -> tuple[bool, dict[int, dict[int, int]]]:
    """The one local certificate of the rank-k orbit of R_n, kept for
    both triple reports: whether ``certify`` holds on R', filled here
    through ``rpoly._fill``, and the orbit's R table, and the columns of
    R' at the Hecke bases, {b: R'[b]}, which the Hecke report compares
    with its own columns there.  R' is dropped once these are taken."""
    columns = rpoly._fill(n, k, "R'", rpoly.orbit_packing(n, k))
    return (certify(columns, rpoly.orbit_table(n, k), n, k),
            {b: columns[b] for b in rpoly.orbit_bounds(n, k)[1]})


def bar_Asigma(sigma: Word) -> HeckeElt:
    """bar(A_sigma) for an element of any rank, expanded in the A-basis:
    column sigma of ``orbit_bars``, keyed by words.

    With sigma = x e t^-1 in standard form this is

        q^(-l(t)) bar(A_x) sum_{z, y} bar(R[t z, y]) A_{z e y^-1},

    the unique extension of the involution from H(W); on a permutation
    it is the bar of H(W).  For the rank-1 idempotent of R_2, W(e) is
    trivial and D(e) = {id, s}:

    >>> for word, c in sorted(bar_Asigma((1, 0)).items()):
    ...     print(renner.format_element(word), c)
    01 -1 + q^-1
    10 1
    """
    n, k = len(sigma), renner.rank(sigma)
    poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
    e = renner.idempotent_length(n, k)
    return {poset.elements[a]: unpack(x) * Laurent.q_power(poset.lengths[a] - e)
            for a, x in orbit_bars(n, k)[0][poset.locate(sigma)].items()}


def bar_element(h: HeckeElt) -> HeckeElt:
    """bar of a general element of the augmented orbit algebra."""
    out: HeckeElt = {}
    for word, c in h.items():
        add_scaled(out, bar_Asigma(word), c.bar())
    return canonical(out)


def rpoly_via_bar(sigma: Word) -> dict[Word, IntPoly]:
    """Read the R-polynomials {theta: R[theta, sigma]} off bar(A_sigma).

    bar(A_sigma) = q^(l(sigma) - l(e)) sum_theta bar(R[theta, sigma]) A_theta,
    so R[theta, sigma] is the barred coefficient scaled by
    q^(l(sigma) - l(e)): the barred column of ``orbit_bars``, decoded.
    That every such value lies in Z[q] is checked as the table is filled.
    """
    n, k = len(sigma), renner.rank(sigma)
    poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
    return {poset.elements[a]: unpack(x)
            for a, x in orbit_bars(n, k)[1][poset.locate(sigma)].items()}

