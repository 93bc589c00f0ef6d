"""Verification sweeps over whole ranks, grouped into named suites.

One table, ``_CHECKS``, maps each suite to ``(label, check)`` pairs,
where a check is an ``(n, k) -> Report`` function on one orbit.  The
one loop, ``run_suite``, runs them orbit by orbit; only it names a
report ``"<label> n=<n> k=<k>"`` and times it.  Every check is
exhaustive.

The two triple checks, the delta identity and bar o bar = id, check
that each row of a product T1 T2 of two packed orbit tables is the
identity row.  Both first certify every row of their product from one
set of local checks that sum only the rows of the Hecke bases
(``hecke.certify``, argued below): the Hecke report on its columns
with R in place of the barred columns, which it then fills at the
bases alone, and the delta report on R' and R.  Where the certificate
fails, each sums one sigma of each pair
{sigma, sigma*} (``rpoly.product_rows``), where sigma* = w0 sigma^-1 w0
and phi is the permutation sigma -> sigma* of the orbit's indices
(``order.orbit_star``).
Why that is exact: if phi is a bijection and both factors are
equivariant, T[phi a][phi b] = T[a][b], then, summing over m = phi(m'),

    sum_m T1[phi b][m] T2[m][phi j] = sum_m' T1[b][m'] T2[m'][j],

so row phi(b) of the product is row b permuted by phi, and it is
e_(phi b) exactly when row b is e_b.  Both conditions are checked on
the tables the sums read, before any sum: phi o phi = id (so phi is a
bijection), then every entry of both factors, row a against row phi(a)
for each a <= phi(a) (row phi(a) against row a is the same equation
relabelled by phi).  If any of that fails, phi is replaced by the
identity and every sigma is summed: the same loop, with no skips.
Walking sigma in index order, the sum of b is skipped only when
phi(b) < b and the row of phi(b) was the identity; the partner of a
failing row is summed itself, so its certificate is the one its own sum
gives.  Each sigma still counts once in ``checked``, and violations
come in index order, so every report is the one that summing every
sigma gives.

Why the local certificate of bar o bar is exact.  Let H be the matrix
whose column t is the Hecke column of t (``hecke.orbit_bars(n, k)[0]``)
and Bar[b] the barred column of b (``hecke.orbit_barred(n, k)[b]``),
so that the bar o bar row of b is the vector H Bar[b],
``rpoly.triple_sums(Bar[b], H)``.  For a left step s,
let T and Tbar be the R' and R kinds of ``rpoly._step``, the step of
the Hecke columns and the barred step, as int matrices, at Q = 2^B, and
Mbar the column action that takes e_t to e_t where s fixes t, to
e_(s t) where s raises t, and to Q e_(s t) + (1 - Q) e_t where s lowers
t.  By the step table of the ``rpoly`` docstring,
Tbar = Mbar + (Q - 1) I and T^2 = (1 - Q) T + Q I, exactly: facts of
the action tables alone, which the tests check on unit columns.  The
certificate checks three things:

    (a) for every s that the plan takes on the left, T H[t] = H[s t]
        where s raises t, and T H[t] = H[t] where s fixes t;
    (b) Bar[b] = Tbar Bar[s b] at every b that is not a Hecke base, for
        the s of b's plan entry;
    (c) H Bar[b] = e_b at every base b.

Where s fixes t, (a) is tested without building T H[t].  T keeps every
entry at an index that s fixes, and on a pair (a, s a) that s raises,
T(x e_a + y e_(s a)) = ((1 - Q) x + Q y) e_a + x e_(s a), which is
x e_a + y e_(s a) exactly when x = y.  So T v = v exactly when
v_a = v_(s a) at every a that s moves.

Where s lowers t, s raises u = s t, and (a) at u gives H[t] = T H[u],
so T H[t] = T^2 H[u] = (1 - Q) H[t] + Q H[u].  So T H = H Mbar on every
column, and H Tbar = (T + (Q - 1)) H.  By induction in index order, in
which s b comes before b, (b) gives H Bar[b] = (T + (Q - 1)) e_(s b)
at b off the bases, which is e_b, as s raises s b to b:
T e_(s b) = e_b + (1 - Q) e_(s b).  At the bases it is (c).  Every step
is an identity of ints, so it holds whatever the two tables hold: no
entry is decoded, no bound is used and no ``bar()`` enters.  Where (a),
(b) or (c) fails, the report sums its rows as above, so each
certificate is the one its own sum gives.

Why the same certificate gives the delta identity.  The argument above
uses nothing about H and Bar but (a), (b) and (c).  Run on R' in place
of H and R in place of Bar, ``hecke.certify(R', R)``, with the columns
R'[t] and R[b], it gives R' R = I as int matrices.  Column b of the
delta product is ``rpoly.triple_sums(R'[b], R)``, column b of R R'.
Two square int matrices with R' R = I also have R R' = I (a one-sided
inverse of a square matrix over Q is two-sided), so every delta column
is the identity's, whatever the two tables hold, and no Hecke table is
needed.  The delta report fills R' once, for the certificate, and is
then clean, with the ``checked`` count of the full report.  Where the
certificate fails, it sums its product as above from the same R'
(``rpoly.product_rows``), star skip included, so each certificate is
the one its own sum gives; then R' is dropped.

Why R certifies the barred columns.  Let Bar be the table the Hecke
fill would build: at a base b its column from the base sums, and off
the bases Bar[b] = Tbar Bar[s b] for the s of b's plan entry.  The
report fills only the base columns, and checks three things: Bar[b] =
R[b] at every base; the support of every column of R is down(b); and
``hecke.certify(H, R)``, whose check (b) says R[b] = Tbar R[s b] at
every b off the bases.  By induction in index order, Bar[b] =
Tbar Bar[s b] = Tbar R[s b] = R[b] at every b off the bases, and at
the bases by the first check.  So Bar = R column for column: every
expansion compare passes, the support test on Bar is the support test
on R, and ``certify(H, Bar)`` is ``certify(H, R)``, so every bar o bar
row is the identity.  Each step is an identity of ints: nothing is
decoded and no bound is used.  The report is then clean, with the
``checked`` count of the full report, and no other barred column is
filled.  If any of the three fails, the report fills every barred
column (``hecke.orbit_barred``) and runs the path above on H and Bar:
the column compare, the support test, ``certify(H, Bar)`` and the
starred sums, so each certificate is the one its own comparison or sum
gives.

The Putcha sweep (``analysis.verify_putcha_conjecture``) fills the
Mobius row of one bottom a of each pair {a, phi a} by the same rule.
Its row of a reads the order above a, the lengths, and the elements
checked.  If phi carries the order, c >= a iff phi(c) >= phi(a) (row
phi(a) of the up rows relabelled by phi, ``IntervalPoset.rows(phi)``,
is up(a) for every a), then phi(c) = phi(a) gives c = a, so phi is a
bijection of the finite orbit and an order automorphism; if it also
keeps the lengths and maps the given set into itself, it maps that set
onto itself, and phi is an automorphism of everything the row reads.
No involution is needed: the skip of a below reads only the row of
phi(a).  The down rows come off the same slice index as the up rows,
one relation, so they are carried too.  mu(phi a, phi t) = mu(a, t), the linear length-2
pairs, the reach and the parities are carried, and so the value sets
of row phi(a), found and expected, are those of row a relabelled: one
passes exactly when the other does.  All three conditions are checked
on the poset before the sweep, and on any failure phi is the identity.
Walking a in index order, the row of a is skipped only when
phi(a) < a and the row of phi(a) passed; the partner of a failing row
is filled itself, for its certificates, and ``checked`` counts every
row, so the report is the one that filling every row gives.
"""

from __future__ import annotations

import time
from itertools import repeat
from . import analysis, hecke, order, renner, rpoly
from .polynomials import Laurent
from .reports import Report

__all__ = ["SUITES", "hecke_oracle_report", "run_suite"]


def _delta_identity(n: int, k: int) -> Report:
    """The delta identity on every ordered pair of the orbit.  The report
    is clean where ``hecke.certify`` holds on R', filled here once
    through ``rpoly._fill`` and dropped, and the orbit's one R table
    (module docstring).  Otherwise it sums one packed column per sigma
    of each pair {sigma, sigma*} from the same two tables, as
    ``rpoly.product_rows`` gives them: a failing column holds its
    nonzero sums, and a sum it lacks is 0.  The failing pairs are
    reported by theta, then sigma.  Only a failing sum is decoded, by the
    orbit's packing."""
    report = Report(name="delta")
    packing = rpoly.orbit_packing(n, k)
    elements = order.orbit_poset(n, k).elements
    report.checked = len(elements) ** 2
    columns, table = rpoly._fill(n, k, packing, barred=True), rpoly.orbit_table(n, k)
    if hecke.certify(columns, table, n, k):
        return report
    # rebound, so that R' is dropped once its product is summed
    columns = rpoly.product_rows(columns, table, order.orbit_star(n, k))
    failing = sorted((a, b, total) for b, column in enumerate(columns)
                     if column is not None for a in column.keys() | {b}
                     if (total := column.get(a, 0)) != (a == b))
    report.violations = [{
        "theta": renner.format_element(elements[a]),
        "sigma": renner.format_element(elements[b]),
        "sum": str(packing.unpack(total)),
    } for a, b, total in failing]
    return report


def _descent_rule(n: int, k: int) -> Report:
    """The standard-form descent rule agrees with ``renner.descents``."""
    report = Report(name="descent-rule")
    for sigma in renner.orbit(n, k):
        report.checked += 1
        via_rule = analysis.descent_sets(sigma)
        raw = renner.descents(sigma, "left"), renner.descents(sigma, "right")
        if via_rule != raw:
            report.violations.append({
                "element": renner.format_element(sigma),
                "standard_form_rule": [sorted(via_rule[0]), sorted(via_rule[1])],
                "raw": [sorted(raw[0]), sorted(raw[1])],
            })
    return report


def _bases_agree(barred, table) -> bool:
    # the barred columns of the Hecke bases, the ones ``hecke.orbit_bars``
    # holds, are R's
    return all(column == table[b] for b, column in enumerate(barred) if column is not None)


def _supports_are_downs(table, downs) -> bool:
    # the support of every column of R is the down set of its sigma
    return all(sum(map((1).__lshift__, column)) == down for column, down in zip(table, downs))


def hecke_oracle_report(n: int, k: int) -> Report:
    """Compare the bar-involution expansion with the R table on one
    orbit, and check that bar is an involution there, in the packed
    ints of the Hecke table (``hecke.orbit_bars``) and R alone.  Where R
    certifies the barred columns (module docstring) the report is clean;
    otherwise it fills them all (``hecke.orbit_barred``) and runs the
    checks below.

    Both tables are packed by the orbit's one packing
    (``rpoly.orbit_packing``) and kept by sigma, and the barred column
    of sigma holds q^(l(sigma) - l(e)) bar(c_theta(sigma)), which must
    be R[theta, sigma]: so it must equal the column of sigma in the R
    table, as a dict, and its support must be down(sigma) (a sum of
    distinct powers of two is their OR), which a fault shared by both
    columns would pass otherwise.  Only a failing sigma is walked, over
    both columns and down(sigma): where they differ it gives an expansion
    certificate, and where they agree but the support fails a
    ``"support"`` one with the value both hold.

    With bar(A_sigma) = sum over theta of c_theta(sigma) A_theta,
    bar(bar(A_sigma)) = sum over theta of bar(c_theta(sigma)) bar(A_theta),
    so its row is one ``rpoly.triple_sums`` of the barred column of sigma
    against the columns {nu: c_nu(theta)}.  The scales multiply to
    q^(l(sigma) - l(nu)) in every term, which is 1 at nu = sigma, so the
    row must be 1 at sigma and 0 elsewhere.  ``hecke.certify``
    certifies that of every row at once, summing only the rows of the
    Hecke bases; where it fails, the rows are computed sigma by sigma,
    for one sigma of each pair {sigma, sigma*} (module docstring).  The
    supports are those of the table, so neither assumes anything about
    them.

    Only what fails is decoded, from the ints just compared: the
    entries of an expansion that differ, and the whole bar o bar row of
    a sigma it is not the identity on, unscaled by q^(l(nu) - l(sigma)),
    as {element, laurent} pairs in index order, which for n <= 9 is the
    (length, text) order of a Hecke element's JSON form.
    """
    report = Report(name="hecke")
    table, (rows, barred) = rpoly.orbit_table(n, k), hecke.orbit_bars(n, k)
    packing, poset = rpoly.orbit_packing(n, k), order.orbit_poset(n, k)
    elements, lengths = poset.elements, poset.lengths
    report.checked = len(elements) * (len(elements) + 1)
    if (_bases_agree(barred, table) and _supports_are_downs(table, poset.downs)
            and hecke.certify(rows, table, n, k)):
        return report
    barred = hecke.orbit_barred(n, k)
    decode = lambda x: packing.unpack(x or 0).to_json()
    squares = (repeat(None) if hecke.certify(rows, barred, n, k)
               else rpoly.product_rows(barred, rows, order.orbit_star(n, k)))
    for b, (sigma, row) in enumerate(zip(elements, squares)):
        got, column, down = barred[b], table[b], poset.downs[b]
        if got != column or sum(map((1).__lshift__, got)) != down:
            for a in sorted(got.keys() | column.keys() | set(order.bits(down))):
                via_bar, via_recurrence = got.get(a), column.get(a)
                pair = {"theta": renner.format_element(elements[a]),
                        "sigma": renner.format_element(sigma)}
                if via_bar != via_recurrence:
                    report.violations.append({**pair, "via_bar": decode(via_bar),
                                              "via_recurrence": decode(via_recurrence)})
                elif (via_bar is None) == (down >> a & 1):  # in down(sigma) iff absent
                    report.violations.append({"kind": "support", **pair,
                                              "value": decode(via_bar)})
        if row is not None:
            report.violations.append({
                "kind": "not-involutive",
                "sigma": renner.format_element(sigma),
                "bar_squared": [{
                    "element": renner.element_to_json(elements[nu]),
                    "laurent": (packing.unpack(x)
                                * Laurent.q_power(lengths[nu] - lengths[b])).to_json(),
                } for nu, x in row.items()],
            })
    return report


# The lambdas look each sweep up when they run, so a patched one runs.
_CHECKS = {
    "putcha": [("putcha", lambda n, k:
                analysis.verify_putcha_conjecture(renner.orbit(n, k)))],
    "lifting": [("lifting", lambda n, k: analysis.lifting_violations(n, k))],
    "delta": [("delta", _delta_identity)],
    "descents": [("nonempty-descent", lambda n, k:
                  analysis.check_nonempty_descent(renner.orbit(n, k))),
                 ("descent-rule", _descent_rule)],
    "hecke": [("hecke", lambda n, k: hecke_oracle_report(n, k))],
}

SUITES = ("all", *_CHECKS)


def run_suite(name: str, n: int) -> list[Report]:
    """One report per check and orbit of R_n, listed suite by suite
    (every suite for ``"all"``), then rank by rank, then check by check.

    The checks run rank by rank, every suite on one orbit before the
    next, so the orbit's poset and the tables kept with it are built once
    for all suites (``order.orbit_poset`` keeps one orbit); each report
    times its own check.

    >>> [r.name for r in run_suite("descents", 1)]  # doctest: +NORMALIZE_WHITESPACE
    ['nonempty-descent n=1 k=0', 'descent-rule n=1 k=0',
     'nonempty-descent n=1 k=1', 'descent-rule n=1 k=1']
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suites = list(_CHECKS.values()) if name == "all" else [_CHECKS[name]]
    reports: list[list[Report]] = [[] for _ in suites]
    for k in range(n + 1):
        for listed, checks in zip(reports, suites):
            for label, check in checks:
                start = time.perf_counter()
                report = check(n, k)
                report.runtime_ms = (time.perf_counter() - start) * 1000.0
                report.name = f"{label} n={n} k={k}"
                listed.append(report)
    return [report for listed in reports for report in listed]
