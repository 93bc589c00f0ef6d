import itertools
import operator

import pytest

from hypothesis import given, settings, strategies as st

from faults import case, cases, coefficient_fault, entry, full_path
from oracles import (bar_Asigma_by_reduced_word, bar_Asigma_by_support, bar_squared_row,
                     decode_bar_squared, fixed_by_step, full_bound_check, hecke_bound_step,
                     hecke_bound_tables, hecke_to_json, orbit_sum_skipping,
                     orbit_sums_against_the_core, rpoly_bound_tables)
from rookorder import hecke, order, renner, rpoly, verify, weyl
from rookorder.polynomials import IntPoly, Laurent, ONE

ONE_L = Laurent.from_int(1)
Q_INV = Laurent.q_power(-1)


def basis(word):
    return {word: ONE_L}


def elements_equal(a, b):
    return hecke.canonical(a) == hecke.canonical(b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quadratic_relation_on_units(n):
    # A_s A_s = q^-1 A_id + (1 - q^-1) A_s as operators on H(W)
    for i in range(1, n):
        for w in weyl.all_permutations(n):
            twice = hecke.mult_As_left(i, hecke.mult_As_left(i, basis(w)))
            expected = {}
            hecke.add_scaled(expected, hecke.mult_As_left(i, basis(w)),
                             ONE_L - Q_INV)
            hecke.add_scaled(expected, basis(w), Q_INV)
            assert elements_equal(twice, expected), (i, w)


def test_mult_rules_on_orbit_elements():
    # raising case: A_s A_sigma = A_{s sigma}
    out = hecke.mult_As_left(1, basis((1, 0)))
    assert out == basis((2, 0))
    # fixed case: A_s A_sigma = A_sigma when s sigma = sigma
    out = hecke.mult_As_left(1, basis((0, 0, 0, 3)))
    assert out == basis((0, 0, 0, 3))
    # lowering case
    out = hecke.mult_As_left(1, basis((2, 0)))
    assert out == {(1, 0): Q_INV, (2, 0): ONE_L - Q_INV}


def test_bar_on_W_generator():
    n = 2
    s = weyl.simple_reflection(n, 1)
    barred = hecke.bar_Asigma(s)
    q = Laurent.q_power(1)
    assert barred == {s: q, weyl.identity(n): ONE_L - q}
    # defining property: A_s bar(A_s) = A_id
    prod = hecke.mult_As_left(1, barred)
    assert elements_equal(prod, basis(weyl.identity(n)))


def test_bar_on_W_identity():
    assert hecke.bar_Asigma(weyl.identity(3)) == basis(weyl.identity(3))


def test_bar_on_W_support_is_lower_cone():
    w = weyl.compose(weyl.simple_reflection(3, 1), weyl.simple_reflection(3, 2))
    support = set(hecke.bar_Asigma(w))
    assert support == {u for u in weyl.all_permutations(3)
                       if weyl.bruhat_leq(u, w)}
    assert len(support) == 4


def _all_reduced_words(w):
    n = len(w)
    if w == weyl.identity(n):
        yield ()
        return
    for i in sorted(weyl.left_descents(w)):
        rest = weyl.compose(weyl.simple_reflection(n, i), w)
        for word in _all_reduced_words(rest):
            yield (i,) + word


def test_bar_on_W_confluent_across_reduced_words():
    # recompute bar(A_w) from every reduced word and compare
    n = 3
    q = Laurent.q_power(1)
    for w in weyl.all_permutations(n):
        reference = hecke.bar_Asigma(w)
        for word in _all_reduced_words(w):
            h = basis(weyl.identity(n))
            for i in reversed(word):
                out = {}
                hecke.add_scaled(out, hecke.mult_As_left(i, h), q)
                hecke.add_scaled(out, h, -(q - ONE_L))
                h = hecke.canonical(out)
            assert elements_equal(h, reference), (w, word)


@pytest.mark.parametrize("n", [2, 3])
def test_bar_on_W_involutive(n):
    for w in weyl.all_permutations(n):
        back = hecke.bar_element(hecke.bar_Asigma(w))
        assert elements_equal(back, basis(w)), w


def _mult_elements(h1, h2):
    out = {}
    for w, c in h1.items():
        hecke.add_scaled(out, hecke.mult_Aw_left(w, h2), c)
    return hecke.canonical(out)


def test_bar_on_W_is_ring_homomorphism():
    # bar(A_u A_v) = bar(A_u) bar(A_v) on H(W), exhaustive for S_3
    perms = weyl.all_permutations(3)
    for u, v in itertools.product(perms, repeat=2):
        product = _mult_elements(basis(u), basis(v))
        lhs = hecke.bar_element(product)
        rhs = _mult_elements(hecke.bar_Asigma(u), hecke.bar_Asigma(v))
        assert elements_equal(lhs, rhs), (u, v)


def test_bar_Ae_small():
    # n=2, k=1: W(e) = {id}, D(e) = {id, s}, so two terms
    out = hecke.bar_Asigma(renner.rank_idempotent(2, 1))
    assert out == {(1, 0): ONE_L, (0, 1): Q_INV - ONE_L}


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
def test_bar_Ae_properties(n, k):
    e = renner.rank_idempotent(n, k)
    out = hecke.bar_Asigma(e)
    # coefficient of A_e itself is 1
    assert out[e] == ONE_L
    # support stays inside the orbit, coefficients lie in Z[q^-1]
    for word, coeff in out.items():
        assert renner.rank(word) == k
        assert all(exp <= 0 for exp, _ in coeff.terms())


def test_bar_Asigma_at_minimum():
    nu = renner.orbit_minimum(2, 1)
    out = hecke.bar_Asigma(nu)
    assert out == {nu: Q_INV}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bar_Asigma_matches_sum_over_support(n):
    # the table against the sum of A_w over the support of bar(A_x), on
    # every element of every orbit of R_n
    for k in range(n + 1):
        for sigma in renner.orbit(n, k):
            assert hecke.bar_Asigma(sigma) == bar_Asigma_by_support(sigma), sigma


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5) for k in range(n + 1)]
                         + [(5, 2), (5, 5)])
def test_orbit_bars_match_reduced_word_oracle(n, k):
    # every row of the table, decoded, against bar(A_x) applied to the
    # orbit sum along a reduced word of x; the barred row decodes to the
    # bars of the same coefficients
    for sigma in renner.orbit(n, k):
        expected = bar_Asigma_by_reduced_word(sigma)
        assert hecke.bar_Asigma(sigma) == expected, sigma
        shift = Laurent.q_power(renner.length(sigma) - renner.idempotent_length(n, k))
        assert hecke.rpoly_via_bar(sigma) == {w: c.bar() * shift
                                              for w, c in expected.items()}, sigma


def test_orbit_bars_refuse_bounds_past_the_width(monkeypatch, fresh_orbits):
    # the Hecke bounds are held to the R bounds, which fix the width, at
    # the bases: with the R bound of one base entry one below the L1 norm
    # of its sum, the table is refused
    norm, columns = rpoly.orbit_bounds(3, 1)
    b, base = next((b, base) for b, base in hecke._orbit_sums(3, 1).items() if b)
    a, r = next(iter(base.items()))
    lowered = {**columns, b: {**columns[b], a: sum(map(abs, r.coeffs)) - 1}}
    monkeypatch.setattr(rpoly, "orbit_bounds", lambda n, k: (norm, lowered))
    with pytest.raises(ValueError, match=f"exceed the bounds of its R table at \\({a}, {b}\\)"):
        hecke.orbit_bars(3, 1)


ALL_ORBITS = [pytest.param(n, k, id=f"R{n}-k{k}") for n in range(1, 6) for k in range(n + 1)]


@pytest.mark.parametrize("n,k", ALL_ORBITS)
def test_full_hecke_bounds_lie_within_the_r_bounds(n, k):
    # the oracle's full Hecke bound fill is at most the R bound table,
    # entry by entry (0 outside down(b)), and at every b with a left
    # descent its step takes R's column of s b to R's column of b (the
    # induction of the module docstring).  They are not equal: at 1, 3
    # and 3 bases of R_4 k = 2, R_5 k = 2 and R_5 k = 3 the Hecke bounds
    # lie below R's, and so do the columns filled from those bases
    poset, left = order.orbit_poset(n, k), order.orbit_action(n, k, "left")
    columns = rpoly_bound_tables(n, k)[0]
    for table in hecke_bound_tables(n, k):
        for b, column in enumerate(table):
            assert all(x <= columns[b].get(a, 0) for a, x in column.items()), (n, k, b)
    for b, sigma in enumerate(poset.elements):
        descents = renner.descents(sigma, "left")
        if descents:
            to, step = left[min(descents) - 1]
            assert hecke_bound_step(columns[to[b]], to, step) == columns[b], (n, k, b)
    assert sorted(rpoly.orbit_bounds(n, k)[1]) == \
        [b for b, sigma in enumerate(poset.elements) if not renner.descents(sigma, "left")]


@pytest.mark.parametrize("n,k", ALL_ORBITS)
def test_hecke_bases_are_the_plan_entries_that_are_no_left_step(n, k):
    # the elements the Hecke fill sums an orbit sum at are those whose
    # plan entry is not a left step, the keys of R's kept bound columns,
    # and those with no left descent
    plan, elements = rpoly.orbit_plan(n, k), order.orbit_poset(n, k).elements
    bases = [b for b, entry in enumerate(plan) if entry is None or not entry[2]]
    assert list(hecke._orbit_sums(n, k)) == bases == list(rpoly.orbit_bounds(n, k)[1]) == \
        [b for b, sigma in enumerate(elements) if not renner.descents(sigma, "left")]


def _inflated(bases, columns):
    # one base sum of a base past the minimum given a new top term that
    # lifts its L1 norm one past R's bound
    b = next(b for b in bases if b)
    a, r = next(iter(bases[b].items()))
    excess = columns[b][a] - sum(map(abs, r.coeffs)) + 1
    bases[b][a] = r + IntPoly([0] * len(r.coeffs) + [excess])


def _outside(bases, columns):
    # a base sum 1 at an entry outside the down set of its base
    b = next(b for b in bases if b)
    bases[b][max(set(range(len(columns))) - set(columns[b]))] = ONE


def _sign_flipped(bases, columns):
    # one base sum negated: wrong, but within every bound
    b = next(b for b in bases if b)
    a, r = next(iter(bases[b].items()))
    bases[b][a] = -r


@pytest.mark.parametrize("mutant, raises", [
    (None, False), (_inflated, True), (_outside, True), (_sign_flipped, False),
], ids=["clean", "inflated", "outside", "sign-flipped"])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 2), (5, 2)])
def test_orbit_bars_raise_exactly_where_the_full_check_raises(n, k, mutant, raises,
                                                               monkeypatch, fresh_orbits):
    # the base check of ``orbit_bars`` and the oracle's full bound fill
    # refuse the same base sums
    bases = {b: dict(base) for b, base in hecke._orbit_sums(n, k).items()}
    if mutant:
        mutant(bases, rpoly_bound_tables(n, k)[0])
    monkeypatch.setattr(hecke, "_orbit_sums", lambda n, k: bases)
    outcomes = []
    for check in (hecke._check_bounds, full_bound_check):
        with monkeypatch.context() as patch:
            patch.setattr(hecke, "_check_bounds", check)
            order.orbit_poset.cache_clear()
            try:
                hecke.orbit_bars(n, k)
                outcomes.append(False)
            except ValueError as error:
                assert "exceed the bounds of its R table" in str(error)
                outcomes.append(True)
    assert outcomes == [raises, raises]


def _spy(monkeypatch):
    # (kind, whether it fills a Hecke table from base columns, packing)
    # of each call of ``rpoly._fill``
    calls, fill = [], rpoly._fill

    def spied(n, k, kind, packing=None, bases=None):
        calls.append((kind, bases is not None, packing))
        return fill(n, k, kind, packing, bases)
    monkeypatch.setattr(rpoly, "_fill", spied)
    return calls


def test_hecke_report_fills_r_alone_and_no_hecke_bounds(monkeypatch, fresh_orbits):
    # one R bound fill, one packed fill of R alone and one of R' for the
    # certificate; the columns and the barred columns of the bases are
    # packed from their sums, with no fill and no Hecke bound fill
    fills = _spy(monkeypatch)
    assert verify.hecke_oracle_report(4, 2).passed
    packing = rpoly.orbit_packing(4, 2)
    assert [fill[:2] for fill in fills] == [("bounds", False), ("R", False), ("R'", False)]
    assert fills[0][2] is None and fills[1][2].bits == fills[2][2].bits == packing.bits
    assert (hecke.base_columns.__wrapped__, 4, 2) in order.kept
    assert (hecke.orbit_bars.__wrapped__, 4, 2) not in order.kept


@pytest.mark.parametrize("delta_first", [False, True], ids=["hecke-first", "delta-first"])
def test_one_r_table_per_orbit(delta_first, monkeypatch, fresh_orbits):
    # over one resident orbit, the Hecke report, the delta report and
    # every per-pair delta answer fill one R bound table and one R table
    # between them, which stays resident, and two R' tables: the orbit's
    # one certificate, which the report that runs first makes, fills R'
    # and keeps only its base columns, and the product that the per-pair
    # answers read fills R' again, alone.  The Hecke report fills no
    # Hecke table, H or Bar: it packs the columns and barred columns of
    # the bases from their sums.  The certificate is certified once
    r_fills = _spy(monkeypatch)
    certified, certify = [], hecke.certify
    monkeypatch.setattr(hecke, "certify", lambda *args: certified.append(1) or certify(*args))
    reports = [verify.hecke_oracle_report, verify._delta_identity]
    for report in reports[::-1] if delta_first else reports:
        assert report(4, 2).passed
    reported = len(r_fills)
    elements = order.orbit_poset(4, 2).elements
    assert all(rpoly.verify_delta_identity(theta, sigma)
               for theta in elements for sigma in elements)
    assert (rpoly.orbit_table.__wrapped__, 4, 2) in order.kept
    bits = rpoly.orbit_packing(4, 2).bits
    fills = [kind for kind, _, _ in r_fills]
    assert fills[:reported] == (["bounds", "R'", "R"] if delta_first else ["bounds", "R", "R'"])
    assert fills[reported:] == ["R'"]
    assert not any(hecke_table for _, hecke_table, _ in r_fills)
    assert all(packing is None or packing.bits == bits for _, _, packing in r_fills)
    assert certified == [1]


def test_certify_runs_once_per_clean_orbit(monkeypatch, fresh_orbits):
    # under ``run_suite("all", 4)``, whose delta and Hecke reports both
    # read the orbit's certificate, once per orbit, on R' and R
    certified, certify = [], hecke.certify
    monkeypatch.setattr(hecke, "certify",
                        lambda *args: certified.append(args[2:]) or certify(*args))
    assert all(report.passed for report in verify.run_suite("all", 4))
    assert certified == [(4, k) for k in range(5)]


@pytest.mark.parametrize("table", ["R", "R'"])
def test_a_fault_after_the_certificate_is_kept_reaches_both_reports(table, inject,
                                                                    drop_product):
    # the reports of a clean orbit keep its certificate; a fault of R or of
    # R' installed after that reaches both reports once the R table is
    # dropped, since the certificate goes with it, and each report is then
    # the one of the full sums: the delta report flags both, and the Hecke
    # report, which reads R but not R', flags the fault of R
    n, k = 4, 2
    assert verify._delta_identity(n, k).passed and verify.hecke_oracle_report(n, k).passed
    assert hecke.certificate(n, k)[0]
    inject(table, n, k, entry(-1, 0, ONE))  # (min, max)
    drop_product(n, k)
    assert (hecke.certificate.__wrapped__, n, k) not in order.kept
    for check in (verify._delta_identity, verify.hecke_oracle_report):
        report = check(n, k)
        assert report.passed == (report.name == "hecke" and table == "R'"), report.name
        with full_path("certificate"):
            full = check(n, k)
        assert (full.checked, full.violations) == (report.checked, report.violations)
    assert not hecke.certificate(n, k)[0]


test_one_r_fault_is_flagged_by_both_reports = case("R4-k2-r-min-max-plus-one")


def test_base_columns_sum_each_base_row_once(monkeypatch, fresh_orbits):
    # the base bound check and the packed base columns share the orbit
    # sums: one per element with no left descent, over one list of terms
    # per orbit
    summed, orbit_sum = [], hecke._orbit_sum
    monkeypatch.setattr(hecke, "_orbit_sum",
                        lambda *args: summed.append(args) or orbit_sum(*args))
    hecke.base_columns(4, 2)
    bases = [w for w in renner.orbit(4, 2) if not renner.descents(w, "left")]
    ts = [t for t, _ in summed]
    assert len(ts) == len(set(ts)) == len(bases) > 1
    assert len({id(terms) for _, terms in summed}) == 1


def test_the_hecke_fallback_sums_the_bases_once(monkeypatch, fresh_orbits):
    # on its fallback the Hecke report reads the base columns and then
    # the full Hecke tables, filled from those base columns: the orbit
    # sums run once for both
    calls, orbit_sums = [], hecke._orbit_sums
    monkeypatch.setattr(hecke, "_orbit_sums",
                        lambda n, k: calls.append((n, k)) or orbit_sums(n, k))
    with full_path("clean"):
        assert verify.hecke_oracle_report(5, 2).passed
        assert (hecke.orbit_bars.__wrapped__, 5, 2) in order.kept
    assert calls == [(5, 2)]


@pytest.mark.parametrize("table", ["H", "R'"])
def test_a_fault_of_h_or_of_r_prime_stays_in_its_own_table(table, inject):
    # H and R' are both filled by the step of kind R', H from the base
    # columns and R' from the minimum, and are equal when clean; a fault
    # of one, in the column of the last base and in that of the maximum,
    # is in that table alone: the certificate's R' never holds a fault of
    # H, and H never holds a fault of R'
    n, k = 4, 2
    clean = rpoly._fill(n, k, "R'", rpoly.orbit_packing(n, k))
    b, top = max(rpoly.orbit_bounds(n, k)[1]), len(clean) - 1
    for column in (b, top):
        inject(table, n, k, entry(column, 0, ONE))
    holds, kept = hecke.certificate(n, k)
    rows = hecke.orbit_bars(n, k)[0]
    if table == "H":
        assert holds and kept == {c: clean[c] for c in kept}
        assert [a for a in range(len(clean)) if rows[a] != clean[a]] == [b, top]
    else:
        assert not holds and kept[b] != clean[b]
        assert rows == clean


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_sums_skip_only_terms_that_are_zero(n):
    # every base sum of every orbit of R_n, with the terms that length
    # rules out skipped, is the sum over every term of the oracle's core
    for k in range(n + 1):
        assert orbit_sums_against_the_core(n, k) == [], (n, k)


def test_a_length_skip_at_equal_lengths_is_caught(monkeypatch, fresh_orbits):
    # a skip at l(t) + l(z) >= l(y) also drops t z = y, where R = 1: the
    # core oracle and the Hecke report both see the sums it loses
    monkeypatch.setattr(hecke, "_orbit_sum", orbit_sum_skipping(operator.ge))
    assert orbit_sums_against_the_core(3, 1)
    assert not verify.hecke_oracle_report(3, 1).passed


# Each kind of ``rpoly._step`` with its bits and its constant c, the
# factor of the term that a raised index keeps: q - 1 for R (the barred
# Hecke columns), 1 - q for R' (the Hecke columns), and 2 for the bounds,
# at q = 1.  The ids name the Hecke tables of the first two.
STEP_KINDS = [pytest.param("R'", 4, 1 - 16, id="rows"),
              pytest.param("R", 4, 16 - 1, id="barred"),
              pytest.param("bounds", 0, 2, id="bounds")]


@pytest.mark.parametrize("kind,bits,c", STEP_KINDS)
def test_bar_step_drops_a_zero_that_cancels(kind, bits, c):
    # s raises index 0 to 1 and lowers 1 to 0, so the terms of 0 and 1
    # meet at 0: c q + q (-c) = 0 at q = 2^bits, which for the bounds is
    # q = 1 and takes a negative term; the step drops that 0, formed by
    # the term of 1 or, in the reversed column, by that of 0.  With no
    # cancellation both entries stay
    to, step = (1, 0), (1, -1)
    q = 1 << bits
    cancelling = {0: q, 1: -c}
    assert rpoly._step(cancelling, to, step, bits, kind) == {1: q}
    assert rpoly._step(dict(reversed(cancelling.items())), to, step, bits, kind) == {1: q}
    out = rpoly._step({0: q, 1: q}, to, step, bits, kind)
    assert set(out) == {0, 1} and 0 not in out.values()
    # a stored 0, as a faulted table may hold, at the index that s raises
    # or at the one it lowers, steps to 0 and raises nothing
    for zero in ({0: 0}, {1: 0}):
        assert not any(rpoly._step(zero, to, step, bits, kind).values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_no_bar_step_of_an_orbit_cancels(n, monkeypatch, fresh_orbits):
    # every step of every fill of R_n, the bounds, R and R' by left and
    # right steps and both Hecke tables by left ones, keeps an entry at
    # each index its terms reach, a and s a for every a of the column: no
    # sum cancels to 0, so the step never deletes an entry there, and the
    # R fill needs no walk of down(b) to keep its keys
    steps, seen, step_of = [], set(), rpoly._step

    def kept(column, to, step, bits, kind):
        out = step_of(column, to, step, bits, kind)
        steps.append(set(out) == set(column) | {to[a] for a in column})
        seen.add((kind, any(to is left for left, _ in order.orbit_action(n, k, "left"))))
        return out
    monkeypatch.setattr(rpoly, "_step", kept)
    for k in range(n + 1):
        order.orbit_poset.cache_clear()
        packing = rpoly.orbit_packing(n, k)
        rpoly.orbit_table(n, k), rpoly._fill(n, k, "R'", packing)
        hecke.orbit_bars(n, k)
    assert all(steps) and (steps or n == 1)  # R_1 has no simple reflection
    assert n == 1 or seen == {(kind, left) for kind in ("bounds", "R", "R'")
                              for left in (True, False)}


def _combine(*terms):
    # the sum of c * column over the terms (c, column), zeros dropped
    out = {}
    for c, column in terms:
        for a, x in column.items():
            out[a] = out.get(a, 0) + c * x
    return {a: x for a, x in out.items() if x}


@pytest.mark.parametrize("n,ks", [pytest.param(n, range(n + 1), id=f"R{n}")
                                  for n in range(1, 5)]
                         + [pytest.param(5, [2], id="R5-k2")])
def test_bar_steps_satisfy_the_operator_identities(n, ks):
    # the two identities that the local certificate of bar o bar rests on
    # (``verify`` docstring), exact in Z, on the unit columns e_t of every
    # orbit and every action s, left and right, as the R fill takes both,
    # with T the step of kind R' and Tbar the step of kind R at
    # Q = 2^B: Tbar = Mbar + (Q - 1) I, where Mbar takes e_t to e_t,
    # e_(s t) or Q e_(s t) + (1 - Q) e_t as s fixes, raises or lowers t,
    # and T^2 = (1 - Q) T + Q I; and the bounds kind, at B = 0, is the
    # oracle's Hecke bound step
    checked = 0
    for k in ks:
        bits = rpoly.orbit_packing(n, k).bits
        q = 1 << bits
        for side in ("left", "right"):
            for to, step in order.orbit_action(n, k, side):
                for t, d in enumerate(step):
                    unit, moved = {t: 1}, {to[t]: 1}
                    m_bar = unit if d == 0 else moved if d > 0 else _combine((q, moved),
                                                                             (1 - q, unit))
                    assert rpoly._step(unit, to, step, bits, "R") == \
                        _combine((1, m_bar), (q - 1, unit)), (n, k, side, t)
                    once = rpoly._step(unit, to, step, bits, "R'")
                    assert rpoly._step(once, to, step, bits, "R'") == \
                        _combine((1 - q, once), (q, unit)), (n, k, side, t)
                    assert rpoly._step(unit, to, step, 0, "bounds") == \
                        hecke_bound_step(unit, to, step), (n, k, side, t)
                    checked += 1
    assert checked or n == 1  # R_1 has no simple reflection


def _one_direction_is_fixed(column, to, step):
    # a mutant of ``hecke._is_fixed`` that tests each moved pair from the
    # side that s raises alone, so that it misses a value held only at
    # the side that s lowers
    return all(column.get(to[a], 0) == x for a, x in column.items() if step[a] > 0)


def _fixed_columns(n):
    # (column, to, step, bits, clean) at every (t, s) of every orbit of R_n
    # with s a left action that fixes t: the column of t in R' (the Hecke
    # column, which check (a) reads), clean, with one entry off by one,
    # and with one entry dropped; no stored 0, which the step's compare
    # assumes
    for k in range(n + 1):
        packing = rpoly.orbit_packing(n, k)
        bits, columns = packing.bits, rpoly._fill(n, k, "R'", packing)
        for to, step in order.orbit_action(n, k, "left"):
            for column in (columns[t] for t, d in enumerate(step) if d == 0):
                yield column, to, step, bits, True
                for a, x in column.items():
                    assert x + 1
                    yield {**column, a: x + 1}, to, step, bits, False
                    yield {b: y for b, y in column.items() if b != a}, to, step, bits, False


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_invariance_test_is_the_step_compare_on_orbit_columns(n):
    # check (a) tests a column that s fixes for equal values at a and s a
    # wherever s moves a: it agrees with building the step and comparing,
    # on every clean column, which both keep, and on every perturbed one
    seen = 0
    for column, to, step, bits, clean in _fixed_columns(n):
        fixed = fixed_by_step(column, to, step, bits)
        assert hecke._is_fixed(column, to, step) == fixed
        assert fixed or not clean
        seen += 1
    assert seen or n == 1  # R_1 has no simple reflection


def test_a_one_direction_invariance_test_is_caught():
    # the mutant passes some perturbed column of R_3 that the step does
    # not keep, such as one whose entry at a is dropped where s raises a
    # while the entry at s a stays
    killed = [column for column, to, step, bits, _ in _fixed_columns(3)
              if _one_direction_is_fixed(column, to, step)
              and not fixed_by_step(column, to, step, bits)]
    assert killed


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
@settings(max_examples=60)
@given(data=st.data())
def test_the_invariance_test_is_the_step_compare_on_random_columns(n, k, data):
    # random packed columns over the orbit, under a random left action,
    # half of them made equal on each moved pair, so that both answers
    # come up; values are nonzero, as the step's compare assumes
    to, step = data.draw(st.sampled_from(order.orbit_action(n, k, "left")))
    bits, size = rpoly.orbit_packing(n, k).bits, len(to)
    values = st.integers(-(1 << 2 * bits), 1 << 2 * bits).filter(bool)
    column = data.draw(st.dictionaries(st.integers(0, size - 1), values, max_size=12))
    if data.draw(st.booleans()):  # equal on each moved pair, at its raised side's value
        for a, x in list(column.items()):
            if step[a]:
                column[to[a]] = column[a] = column.get(a if step[a] > 0 else to[a], x)
    assert hecke._is_fixed(column, to, step) == fixed_by_step(column, to, step, bits)


def test_bar_Asigma_involutive_on_R2_orbit():
    for sigma in renner.orbit(2, 1):
        back = hecke.bar_element(hecke.bar_Asigma(sigma))
        assert elements_equal(back, basis(sigma)), sigma


def test_rpoly_via_bar_entries():
    sigma = (2, 0)
    expansion = hecke.rpoly_via_bar(sigma)
    assert expansion[sigma] == ONE
    # entries exist exactly on the lower cone
    for theta in renner.orbit(2, 1):
        if order.leq(theta, sigma):
            assert expansion[theta] == rpoly.rpoly(theta, sigma)
        else:
            assert theta not in expansion


@pytest.mark.parametrize("n,k", [(2, 0), (2, 1), (2, 2), (3, 1), (3, 2),
                                 (4, 1), (4, 2), (4, 3), (4, 4)])
def test_oracle_agreement(n, k):
    report = verify.hecke_oracle_report(n, k)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("n,ks", [pytest.param(n, range(n + 1), id=f"R{n}")
                                  for n in range(1, 5)]
                         + [pytest.param(5, [2], id="R5-k2")])
def test_hecke_table_is_the_transposed_r_table(n, ks, delta_tables):
    # barred column b is column b of R, and column b is column b of R'
    # (as the delta fill fills it), compared as dicts, so that the
    # supports must match too; the base columns are the columns of the
    # full tables at the bases
    for k in ks:
        rows, barred = hecke.orbit_bars(n, k)
        bases = rpoly.orbit_bounds(n, k)[1]
        assert hecke.base_columns(n, k) == tuple({b: table[b] for b in bases}
                                                 for table in (rows, barred))
        reversed_columns = delta_tables(n, k)[1]
        for r_columns, hecke_columns in ((rpoly.orbit_table(n, k), barred),
                                         (reversed_columns, rows)):
            assert len(hecke_columns) == len(r_columns), (n, k)
            for b, column in enumerate(hecke_columns):
                assert column == r_columns[b], (n, k, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_bar_squared_matches_bar_element(n):
    # entry nu of row sigma is q^(l(sigma) - l(nu)) times the coefficient
    for k in range(n + 1):
        for b, sigma in enumerate(renner.orbit(n, k)):
            assert decode_bar_squared(*bar_squared_row(n, k, b), sigma) == hecke.canonical(
                hecke.bar_element(hecke.bar_Asigma(sigma))), sigma


def _columns(n, k, b, table="Bar"):
    # column b of the Hecke table H or Bar wherever it is held: in the
    # full table, and in the base columns where b is a base
    side = ("H", "Bar").index(table)
    return [column for column in (hecke.orbit_bars(n, k)[side][b],
                                  hecke.base_columns(n, k)[side].get(b))
            if column is not None]


test_packed_bar_squared_follows_a_corrupted_input = cases({
    "3-1": "R3-k1-hecke-min-max-plus-one", "3-3": "R3-k3-hecke-min-max-plus-one"})
test_hecke_report_flags_every_sigma_a_corrupted_bar_reaches = case("R3-k3-h-id-to-w0")


def test_hecke_to_json_sorted():
    # the not-involutive certificate that verify prints has the same form
    # and (length, text) order (fault R3-k1-hecke-min-max-plus-one)
    h = hecke.bar_Asigma(renner.rank_idempotent(2, 1))
    data = hecke_to_json(h)
    assert [d["element"]["one_line"] for d in data] == [[0, 1], [1, 0]]
    assert data[0]["laurent"] == {"var": "q", "min_exp": -1, "coeffs": [1, -1]}


STAR_ORBITS = [pytest.param(n, k, id=f"R{n}-k{k}")
               for n in range(1, 5) for k in range(n + 1)] + [pytest.param(5, 2, id="R5-k2")]


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_hecke_tables_are_star_equivariant(n, k):
    # c_(a*)(b*) = c_a(b), scaled alike, in the rows and the barred rows
    star, (rows, barred) = order.orbit_star(n, k), hecke.orbit_bars(n, k)
    for table in (rows, barred):
        for a, row in enumerate(table):
            assert {star[b]: x for b, x in row.items()} == table[star[a]], (n, k, a)


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_hecke_report_sums_one_sigma_of_each_star_pair(n, k, count_sums, drop_product):
    # on the clean path, only the rows of the Hecke bases are summed, by
    # the orbit's certificate, with the columns of R; with every skip and
    # certificate off, every sigma, as the product skips no row: the
    # reports are one
    drop_product(n, k)
    count_sums.clear()
    report = verify.hecke_oracle_report(n, k)
    assert report.passed
    table = rpoly.orbit_table(n, k)
    assert list(map(id, count_sums)) == [id(table[b]) for b in rpoly.orbit_bounds(n, k)[1]]
    count_sums.clear()
    with full_path():
        full = verify.hecke_oracle_report(n, k)
        assert list(map(id, count_sums)) == list(map(id, hecke.orbit_bars(n, k)[1]))
    assert (full.checked, full.violations) == (report.checked, report.violations)


@pytest.mark.parametrize("barred", [True, False], ids=["barred", "rows"])
def test_hecke_report_sums_every_sigma_after_a_one_sided_fault(barred, inject, count_sums):
    # one entry of one Hecke table off, at a sigma that star moves, which
    # lies off the bases, where only the full path reads it; its
    # certificate refuses the tables before any sum, and the product then
    # sums every sigma
    n, k = 4, 2
    star = order.orbit_star(n, k)
    b = next(b for b in range(len(star)) if star[b] != b)
    assert b not in rpoly.orbit_bounds(n, k)[1]

    def change(packing, columns):
        columns[b][min(columns[b])] += 1
    inject("Bar" if barred else "H", n, k, change)
    hecke.certificate(n, k)
    count_sums.clear()
    report = verify.hecke_oracle_report(n, k)
    assert not report.passed
    assert list(map(id, count_sums)) == list(map(id, hecke.orbit_bars(n, k)[1]))
    with full_path("certificate"):
        full = verify.hecke_oracle_report(n, k)
    assert (full.checked, full.violations) == (report.checked, report.violations)


test_hecke_report_under_a_fault_is_the_full_sums_report = cases({
    "R3-k1-max": "R3-k1-hecke-min-max-plus-one", "R3-k3-max": "R3-k3-hecke-min-max-plus-one",
    "R3-k3-id-to-w0": "R3-k3-h-id-to-w0"})


def test_hecke_report_flags_both_sigmas_of_a_symmetric_fault(inject, count_sums):
    # c_min(b) and c_(min*)(b*) = c_min(b*) off by one for a b that star
    # moves (one that the barred rows can hold it at): the tables stay
    # equivariant, bar o bar fails at b and at b*, and every sigma is
    # summed; each certificate is bar(bar(A_sigma)) by the Laurent path
    n, k = 3, 1
    star, poset = order.orbit_star(n, k), order.orbit_poset(n, k)
    elements, e = poset.elements, renner.idempotent_length(n, k)
    b = next(b for b in range(len(star)) if star[b] > b and poset.lengths[b] >= e)
    for sigma in (b, star[b]):
        for table, change in coefficient_fault(n, k, sigma, 0, ONE_L):
            inject(table, n, k, change)
    # the local certificate refuses the Hecke tables, and R with the
    # columns, after the base rows it summed, if any; the report then sums
    # every sigma, last
    rows, barred = hecke.orbit_bars(n, k)
    assert not hecke.certify(rows, barred, n, k)
    assert not hecke.certify(rows, rpoly.orbit_table(n, k), n, k)
    report = verify.hecke_oracle_report(n, k)
    assert list(map(id, count_sums[-len(star):])) == list(map(id, barred))
    certs = {v["sigma"]: v["bar_squared"] for v in report.violations
             if v.get("kind") == "not-involutive"}
    assert {renner.format_element(elements[sigma]) for sigma in (b, star[b])} <= set(certs)
    for sigma in elements:
        laurent = hecke.canonical(hecke.bar_element(hecke.bar_Asigma(sigma)))
        if laurent != basis(sigma):
            assert certs.pop(renner.format_element(sigma)) == hecke_to_json(laurent)
    assert not certs
    with full_path("certificate"):
        full = verify.hecke_oracle_report(n, k)
    assert (full.checked, full.violations) == (report.checked, report.violations)


def _plus_one(monkeypatch, column, a=0):
    monkeypatch.setitem(column, a, column[a] + 1)


# Each part of the local certificate of bar o bar with a fault that only
# it sees, and a mutant that drops it, are rows of ``faults.FAULTS``.
test_each_part_of_the_certificate_is_needed = cases({
    "a-column-of-max": "R3-k1-h-min-max-plus-one",
    "b-barred-column-of-max": "R3-k1-bar-min-max-plus-one",
    "c-rank-0-doubled": "R3-k0-hecke-base-doubled"})
test_a_fault_of_r_off_the_bases_is_flagged = cases({
    "3-1": "R3-k1-r-off-the-bases", "4-2": "R4-k2-r-off-the-bases"})


def _downs_gain_the_maximum(monkeypatch, n, k):
    # the down set of the minimum gains the maximum, after R is filled:
    # no table changes, and only the support test reads the down sets;
    # the orbit is dropped after the test
    rpoly.orbit_table(n, k)
    downs = order.orbit_poset(n, k).downs
    downs[0] |= 1 << len(downs) - 1


def _barred_minimum_off(monkeypatch, n, k):
    # the barred column of the minimum, a base, off by one at its diagonal
    for column in _columns(n, k, 0):
        _plus_one(monkeypatch, column)


def _column_of_the_minimum_off(monkeypatch, n, k):
    # the Hecke column of the minimum, a base, off by one at its diagonal,
    # with R' clean
    for column in _columns(n, k, 0, "H"):
        _plus_one(monkeypatch, column)


def _r_off_the_bases(monkeypatch, n, k):
    # the last column of R, no base, off by one at the minimum
    _plus_one(monkeypatch, rpoly.orbit_table(n, k)[-1])


# Each check of the clean path of the Hecke report with a fault on R_3
# k = 1 that only it sees there, and its mutant: the compare of the
# barred bases with R, that of the bases of H with R', the support test
# on R, and (b) on R, each made to pass (the compares only against the
# table named, and (b) only on R, the clean path's table).
FAST_PATH_PARTS = [
    pytest.param(lambda mp, n, k: mp.setattr(
        verify, "_bases_agree", lambda columns, table, agree=verify._bases_agree:
        table is rpoly.orbit_table(n, k) or agree(columns, table)),
                 _barred_minimum_off, id="base-compare"),
    pytest.param(lambda mp, n, k: mp.setattr(
        verify, "_bases_agree", lambda columns, table, agree=verify._bases_agree:
        table is hecke.certificate(n, k)[1] or agree(columns, table)),
                 _column_of_the_minimum_off, id="h-base-compare"),
    pytest.param(lambda mp, n, k: mp.setattr(verify, "_supports_are_downs",
                                             lambda *args: True),
                 _downs_gain_the_maximum, id="support-of-r"),
    pytest.param(lambda mp, n, k: mp.setattr(
        hecke, "_barred_steps_act", lambda barred, *args, act=hecke._barred_steps_act:
        barred is rpoly.orbit_table(n, k) or act(barred, *args)),
                 _r_off_the_bases, id="b-on-r"),
]


@pytest.mark.parametrize("mutate,fault", FAST_PATH_PARTS)
def test_each_check_of_the_fast_path_is_needed(mutate, fault, monkeypatch, fresh_orbits):
    # under the fault, the report fails and is the report with every row
    # summed; the mutant, with the certificate made afresh, takes the
    # clean path and passes
    n, k = 3, 1
    fault(monkeypatch, n, k)
    report = verify.hecke_oracle_report(n, k)
    assert not report.passed
    with monkeypatch.context() as patch:
        patch.setattr(hecke, "certify", lambda *args: False)
        summed = verify.hecke_oracle_report(n, k)
    assert (summed.checked, summed.violations) == (report.checked, report.violations)
    mutate(monkeypatch, n, k)
    order.kept.pop((hecke.certificate.__wrapped__, n, k))
    assert verify.hecke_oracle_report(n, k).passed


def test_a_passing_report_keeps_no_barred_column_off_the_bases(fresh_orbits):
    # the clean path packs the columns and barred columns of the bases
    # alone, and the certificate keeps the columns of R' there: no Hecke
    # column off the bases, and no full R', is kept, and the R table is
    # the one table of the orbit kept whole
    assert verify.hecke_oracle_report(5, 2).passed and verify._delta_identity(5, 2).passed
    bases = list(rpoly.orbit_bounds(5, 2)[1])
    assert (hecke.base_columns.__wrapped__, 5, 2) in order.kept
    for columns in hecke.base_columns(5, 2):
        assert list(columns) == bases
    assert list(hecke.certificate(5, 2)[1]) == bases
    assert (hecke.orbit_bars.__wrapped__, 5, 2) not in order.kept
    assert [id(value) for value in order.kept.values() if isinstance(value, list)] == \
        [id(rpoly.orbit_table(5, 2))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rpoly_via_bar_decodes_every_barred_column(n, fresh_orbits):
    # through the barred table built when first asked for, every column
    # decodes to the column of R
    for k in range(n + 1):
        poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
        for build in (hecke.base_columns, hecke.orbit_bars):
            assert (build.__wrapped__, n, k) not in order.kept
        for sigma, column in zip(poset.elements, rpoly.orbit_table(n, k)):
            assert hecke.rpoly_via_bar(sigma) == {poset.elements[a]: unpack(x)
                                                  for a, x in column.items()}, sigma
        for build in (hecke.base_columns, hecke.orbit_bars):
            assert (build.__wrapped__, n, k) in order.kept
