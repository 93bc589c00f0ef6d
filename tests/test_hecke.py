import itertools
import operator

import pytest

from hypothesis import given, settings, strategies as st

from oracles import (bar_Asigma_by_reduced_word, bar_Asigma_by_support, fixed_by_step,
                     full_bound_check, hecke_bound_step, hecke_bound_tables, hecke_to_json,
                     orbit_sum_skipping, orbit_sums_against_the_core, rpoly_bound_tables)
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


def _spy(monkeypatch, module):
    calls, fill = [], module._fill

    def spied(*args, **kwargs):
        calls.append((args[2:], kwargs))
        return fill(*args, **kwargs)
    monkeypatch.setattr(module, "_fill", spied)
    return calls


def test_hecke_report_fills_r_alone_and_no_hecke_bounds(monkeypatch, fresh_orbits):
    # one R bound fill, one packed fill of R alone, and two packed Hecke
    # fills: the columns, and the barred columns of the bases alone
    r_fills, hecke_fills = _spy(monkeypatch, rpoly), _spy(monkeypatch, hecke)
    assert verify.hecke_oracle_report(4, 2).passed
    packing = rpoly.orbit_packing(4, 2)
    assert [(tuple(type(arg) for arg in args), kwargs) for args, kwargs in r_fills] == \
        [((), {}), ((type(packing),), {})]
    assert r_fills[1][0][0].bits == packing.bits
    assert [(args[1].bits, kwargs) for args, kwargs in hecke_fills] == \
        [(packing.bits, {}), (packing.bits, {"barred": True, "full": False})]


@pytest.mark.parametrize("delta_first", [False, True], ids=["hecke-first", "delta-first"])
def test_one_r_table_per_orbit(delta_first, monkeypatch, fresh_orbits):
    # over one resident orbit, the Hecke report, the delta report and
    # every per-pair delta answer fill one R bound table and one R table
    # between them, which stays resident, and two R' tables: the delta
    # report fills R' for its certificate and drops it, and the product
    # that the per-pair answers read fills R' again, alone; neither R'
    # stays resident beside the Hecke table
    r_fills = _spy(monkeypatch, rpoly)
    reports = [verify.hecke_oracle_report, verify._delta_identity]
    for report in reports[::-1] if delta_first else reports:
        assert report(4, 2).passed
    reported = len(r_fills)
    elements = order.orbit_poset(4, 2).elements
    assert all(rpoly.verify_delta_identity(theta, sigma)
               for theta in elements for sigma in elements)
    assert (rpoly.orbit_table.__wrapped__, 4, 2) in order.kept
    packing = rpoly.orbit_packing(4, 2)
    kinds = {((), ()): "bounds", ((type(packing),), ()): "R",
             ((type(packing),), (("barred", True),)): "R'"}
    fills = [kinds[tuple(map(type, args)), tuple(kwargs.items())] for args, kwargs in r_fills]
    assert sorted(fills) == ["R", "R'", "R'", "bounds"]
    assert sorted(fills[:reported]) == ["R", "R'", "bounds"] and fills[reported:] == ["R'"]
    assert all(args[0].bits == packing.bits for args, _ in r_fills if args)


def test_one_r_fault_is_flagged_by_both_reports(corrupt_fill, full_sums):
    # R[min, max] of R_4 k = 2 off by one, applied once at R's one fill:
    # the delta report and the Hecke report both read that table, and
    # both flag the pair (min, max) and no other, as every sigma summed
    # reads them
    def r_at_min_max_plus_one(packing, columns, reversed_columns):
        if columns is not None:
            columns[-1][0] += 1
    corrupt_fill(rpoly, 4, 2, r_at_min_max_plus_one)
    ends = tuple(map(renner.format_element,
                     (renner.orbit_minimum(4, 2), renner.orbit_maximum(4, 2))))
    for report in (verify._delta_identity(4, 2), verify.hecke_oracle_report(4, 2)):
        assert [(v["theta"], v["sigma"]) for v in report.violations] == [ends], report.name
        assert full_sums(verify._delta_identity if report.name == "delta"
                         else verify.hecke_oracle_report, 4, 2) == \
            (report.checked, report.violations), report.name


def test_orbit_bars_sum_each_base_row_once(monkeypatch, fresh_orbits):
    # the base bound check and the packed fill share the orbit sums: one per
    # element with no left descent, over one list of terms per orbit
    summed, orbit_sum = [], hecke._orbit_sum
    monkeypatch.setattr(hecke, "_orbit_sum",
                        lambda *args: summed.append(args) or orbit_sum(*args))
    hecke.orbit_bars(4, 2)
    bases = [w for w in renner.orbit(4, 2) if not renner.descents(w, "left")]
    ts = [t for t, _ in summed]
    assert len(ts) == len(set(ts)) == len(bases) > 1
    assert len({id(terms) for _, terms in summed}) == 1


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
        rpoly.orbit_table(n, k), rpoly._fill(n, k, packing, barred=True)
        hecke.orbit_bars(n, k), hecke.orbit_barred(n, k)
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
        bits, columns = packing.bits, rpoly._fill(n, k, packing, barred=True)
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
    # supports must match too; the barred columns that ``orbit_bars``
    # keeps are those of the bases
    for k in ks:
        rows, barred = hecke.orbit_bars(n, k)[0], hecke.orbit_barred(n, k)
        bases = rpoly.orbit_bounds(n, k)[1]
        assert hecke.orbit_bars(n, k)[1] == [barred[b] if b in bases else None
                                             for b in range(len(barred))]
        reversed_columns = delta_tables(n, k)[1]
        for r_columns, hecke_columns in ((rpoly.orbit_table(n, k), barred),
                                         (reversed_columns, rows)):
            assert len(hecke_columns) == len(r_columns), (n, k)
            for b, column in enumerate(hecke_columns):
                assert column == r_columns[b], (n, k, b)


def _bar_squared_row(n, k, b):
    # row b of bar o bar, packed, as the Hecke suite sums it
    rows, barred = hecke.orbit_bars(n, k)[0], hecke.orbit_barred(n, k)
    return rpoly.orbit_packing(n, k), rpoly.triple_sums(barred[b], rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_bar_squared_matches_bar_element(n):
    # entry nu of row sigma is q^(l(sigma) - l(nu)) times the coefficient
    for k in range(n + 1):
        for b, sigma in enumerate(renner.orbit(n, k)):
            packing, row = _bar_squared_row(n, k, b)
            assert _decode_bar_squared(packing, sigma, row) == hecke.canonical(
                hecke.bar_element(hecke.bar_Asigma(sigma))), sigma


def _decode_bar_squared(packing, sigma, row):
    elements = renner.orbit(len(sigma), renner.rank(sigma))
    scale = renner.length(sigma)
    return {nu: packing.unpack(x) * Laurent.q_power(renner.length(nu) - scale)
            for nu, x in zip(elements, row) if x}


def _barred_columns(n, k, b):
    # the barred column b in each Hecke table that holds it: every
    # barred table, and the table of the bases where b is one
    return [column for column in (hecke.orbit_bars(n, k)[1][b], hecke.orbit_barred(n, k)[b])
            if column is not None]


def _corrupt(monkeypatch, n, k, b, a, delta, barred=True):
    """Add ``delta`` to the coefficient c_a(b) of A_a in bar(A_b) in the
    packed Hecke tables, scaled as they store it: in the rows of c and,
    unless ``barred`` is false, in the rows of bar(c), in each table that
    holds the row of b."""
    rows, packing = hecke.orbit_bars(n, k)[0], rpoly.orbit_packing(n, k)
    lengths, e = order.orbit_poset(n, k).lengths, renner.idempotent_length(n, k)
    monkeypatch.setitem(rows[b], a, rows[b].get(a, 0) + packing.pack(
        delta * Laurent.q_power(e - lengths[a])))
    for column in _barred_columns(n, k, b) if barred else ():
        monkeypatch.setitem(column, a, column.get(a, 0) + packing.pack(
            delta.bar() * Laurent.q_power(lengths[b] - e)))


@pytest.mark.parametrize("n,k", [(3, 1), (3, 3)])
def test_packed_bar_squared_follows_a_corrupted_input(n, k, monkeypatch):
    # with one coefficient of one bar(A_sigma) off, bar o bar is no longer
    # the identity; both paths must read the same wrong value
    elements = renner.orbit(n, k)
    top = elements[-1]
    _corrupt(monkeypatch, n, k, len(elements) - 1, 0, ONE_L)
    packing, row = _bar_squared_row(n, k, len(elements) - 1)
    laurent = hecke.canonical(hecke.bar_element(hecke.bar_Asigma(top)))
    assert laurent != basis(top)
    assert _decode_bar_squared(packing, top, row) == laurent


def test_hecke_report_flags_every_sigma_a_corrupted_bar_reaches(monkeypatch):
    # bar(A_id) of H(W) gains a term at the longest element w0, which
    # moves the coefficient of A_w0 in bar(bar(A_sigma)) for every sigma
    # (each bar(A_sigma) has a coefficient at id); for every sigma but w0
    # that entry lies past the diagonal of the packed rows.  The term,
    # q^3, is one the scaled rows of c can hold (their bars cannot).
    n = 3
    identity, longest = weyl.identity(n), tuple(range(n, 0, -1))
    index = order.orbit_poset(n, n).index
    _corrupt(monkeypatch, n, n, index[identity], index[longest],
             Laurent.q_power(3), barred=False)
    report = verify.hecke_oracle_report(n, n)
    flagged = [v["sigma"] for v in report.violations
               if v.get("kind") == "not-involutive"]
    assert flagged == [renner.format_element(w) for w in renner.orbit(n, n)]


def test_hecke_to_json_sorted(monkeypatch):
    h = hecke.bar_Asigma(renner.rank_idempotent(2, 1))
    data = hecke_to_json(h)
    assert [d["element"]["one_line"] for d in data] == [[0, 1], [1, 0]]
    assert data[0]["laurent"] == {"var": "q", "min_exp": -1, "coeffs": [1, -1]}
    # the not-involutive certificate that verify prints has the same form
    # and (length, text) order: with one coefficient of bar(A_max) of
    # R_3 k = 1 off, it is bar(bar(A_max)) as the Laurent path reads it
    n, k = 3, 1
    elements = renner.orbit(n, k)
    top = elements[-1]
    _corrupt(monkeypatch, n, k, len(elements) - 1, 0, ONE_L)
    certs = [v["bar_squared"] for v in verify.hecke_oracle_report(n, k).violations
             if v.get("kind") == "not-involutive"]
    assert len(certs) == 1
    laurent = hecke.canonical(hecke.bar_element(hecke.bar_Asigma(top)))
    assert certs[0] == hecke_to_json(laurent)
    assert len({renner.length(w) for w in laurent}) > 1


STAR_ORBITS = [pytest.param(n, k, id=f"R{n}-k{k}")
               for n in range(1, 5) for k in range(n + 1)] + [pytest.param(5, 2, id="R5-k2")]


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_hecke_tables_are_star_equivariant(n, k):
    # c_(a*)(b*) = c_a(b), scaled alike, in the rows and the barred rows
    star, rows, barred = order.orbit_star(n, k), hecke.orbit_bars(n, k)[0], \
        hecke.orbit_barred(n, k)
    for table in (rows, barred):
        for a, row in enumerate(table):
            assert {star[b]: x for b, x in row.items()} == table[star[a]], (n, k, a)


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_hecke_report_sums_one_sigma_of_each_star_pair(n, k, count_sums, full_sums,
                                                      full_bounds, monkeypatch):
    # on the fast path, only the rows of the Hecke bases are summed, with
    # the columns of R; with the local certificate refused, one sigma of
    # each star pair, and with the star the identity too, every sigma:
    # the three reports are one
    star = order.orbit_star(n, k)
    report = verify.hecke_oracle_report(n, k)
    assert report.passed
    table = rpoly.orbit_table(n, k)
    assert list(map(id, count_sums)) == [id(table[b]) for b in rpoly.orbit_bounds(n, k)[1]]
    count_sums.clear()
    with monkeypatch.context() as patch:
        patch.setattr(hecke, "certify", lambda *args: False)
        summed = verify.hecke_oracle_report(n, k)
    assert (summed.checked, summed.violations) == (report.checked, report.violations)
    assert len(count_sums) == sum(star[b] >= b for b in range(len(star)))
    count_sums.clear()
    assert full_sums(verify.hecke_oracle_report, n, k) == \
        (report.checked, report.violations)
    assert len(count_sums) == len(star)
    assert full_bounds(verify.hecke_oracle_report, n, k) == \
        (report.checked, report.violations)


@pytest.mark.parametrize("barred", [True, False], ids=["barred", "rows"])
def test_hecke_report_sums_every_sigma_after_a_one_sided_fault(barred, monkeypatch, request,
                                                               count_sums, full_sums):
    # one entry of one Hecke table off, at a sigma that star moves, which
    # for the barred table lies off the bases, where only the fallback
    # reads it
    if barred:
        request.getfixturevalue("fallback")
    n, k = 4, 2
    rows, bars = hecke.orbit_bars(n, k)[0], hecke.orbit_barred(n, k)
    star, table = order.orbit_star(n, k), bars if barred else rows
    b = next(b for b in range(len(star)) if star[b] != b)
    assert b not in rpoly.orbit_bounds(n, k)[1]
    a = min(table[b])
    monkeypatch.setitem(table[b], a, table[b][a] + 1)
    report = verify.hecke_oracle_report(n, k)
    assert not report.passed
    assert len(count_sums) == len(star)
    assert full_sums(verify.hecke_oracle_report, n, k) == \
        (report.checked, report.violations)


@pytest.mark.parametrize("n,k,fault", [
    (3, 1, "max"), (3, 3, "max"), (3, 3, "id-to-w0")],
    ids=["R3-k1-max", "R3-k3-max", "R3-k3-id-to-w0"])
def test_hecke_report_under_a_fault_is_the_full_sums_report(n, k, fault, monkeypatch,
                                                          full_sums):
    # the faults the tests above inject, as every sigma summed reads them
    elements = renner.orbit(n, k)
    if fault == "max":
        _corrupt(monkeypatch, n, k, len(elements) - 1, 0, ONE_L)
    else:
        index = order.orbit_poset(n, k).index
        _corrupt(monkeypatch, n, k, index[weyl.identity(n)], index[tuple(range(n, 0, -1))],
                 Laurent.q_power(3), barred=False)
    report = verify.hecke_oracle_report(n, k)
    assert not report.passed
    assert full_sums(verify.hecke_oracle_report, n, k) == \
        (report.checked, report.violations)


def test_hecke_report_flags_both_sigmas_of_a_symmetric_fault(monkeypatch, count_sums,
                                                            full_sums):
    # c_min(b) and c_(min*)(b*) = c_min(b*) off by one for a b that star
    # moves (one that the barred rows can hold it at): the tables stay equivariant, bar o bar fails at b, so b* is
    # summed too; each certificate is bar(bar(A_sigma)) by the Laurent path
    n, k = 3, 1
    star, poset = order.orbit_star(n, k), order.orbit_poset(n, k)
    elements, e = poset.elements, renner.idempotent_length(n, k)
    b = next(b for b in range(len(star)) if star[b] > b and poset.lengths[b] >= e)
    for sigma in (b, star[b]):
        _corrupt(monkeypatch, n, k, sigma, 0, ONE_L)
    # the local certificate refuses the Hecke tables, and R with the
    # columns, after the base rows it summed, if any; the report then sums
    # fewer rows than every sigma
    assert not hecke.certify(hecke.orbit_bars(n, k)[0], hecke.orbit_barred(n, k), n, k)
    assert not hecke.certify(hecke.orbit_bars(n, k)[0], rpoly.orbit_table(n, k), n, k)
    certified = len(count_sums)
    count_sums.clear()
    report = verify.hecke_oracle_report(n, k)
    assert len(count_sums) - certified < len(star)
    certs = {v["sigma"]: v["bar_squared"] for v in report.violations
             if v.get("kind") == "not-involutive"}
    assert {renner.format_element(elements[sigma]) for sigma in (b, star[b])} <= set(certs)
    for sigma in elements:
        laurent = hecke.canonical(hecke.bar_element(hecke.bar_Asigma(sigma)))
        if laurent != basis(sigma):
            assert certs.pop(renner.format_element(sigma)) == hecke_to_json(laurent)
    assert not certs
    assert full_sums(verify.hecke_oracle_report, n, k) == \
        (report.checked, report.violations)


def _plus_one(monkeypatch, column, a=0):
    monkeypatch.setitem(column, a, column[a] + 1)


# Each part of the local certificate of bar o bar with a fault that only
# it sees, on R_3: the column of bar(A_max) off at the minimum, which
# only (a) reads, as max is no Hecke base; the barred column of max off
# there, which only (b) reads; and the one column of the rank-0 orbit
# doubled in both tables, which every left step fixes, so that only the
# sum of its row in (c) sees it.  The barred column of max is one that
# only the fallback of the Hecke report reads, so that report runs there.
CERTIFICATE_PARTS = [
    pytest.param("_left_steps_act", 1, lambda n, k: [hecke.orbit_bars(n, k)[0][-1]], False,
                 id="a-column-of-max"),
    pytest.param("_barred_steps_act", 1, lambda n, k: [hecke.orbit_barred(n, k)[-1]], True,
                 id="b-barred-column-of-max"),
    pytest.param("_base_rows_are_identity", 0,
                 lambda n, k: [hecke.orbit_bars(n, k)[0][0], *_barred_columns(n, k, 0)], False,
                 id="c-rank-0-doubled"),
]


@pytest.mark.parametrize("part,k,columns,off_the_bases", CERTIFICATE_PARTS)
def test_each_part_of_the_certificate_is_needed(part, k, columns, off_the_bases, monkeypatch,
                                                request, full_sums):
    # under the fault, the report is the full sums report, and bar o bar
    # fails; with the part dropped from the certificate (a mutant that
    # passes it), the certificate passes and the report misses that
    n = 3
    if off_the_bases:
        request.getfixturevalue("fallback")
    for column in columns(n, k):
        _plus_one(monkeypatch, column)
    tables = hecke.orbit_bars(n, k)[0], hecke.orbit_barred(n, k)
    report = verify.hecke_oracle_report(n, k)
    assert any(v.get("kind") == "not-involutive" for v in report.violations)
    assert full_sums(verify.hecke_oracle_report, n, k) == (report.checked, report.violations)
    assert not hecke.certify(*tables, n, k)
    monkeypatch.setattr(hecke, part, lambda *args: True)
    assert hecke.certify(*tables, n, k)
    mutant = verify.hecke_oracle_report(n, k)
    assert not any(v.get("kind") == "not-involutive" for v in mutant.violations)
    assert (mutant.checked, mutant.violations) != (report.checked, report.violations)


def _only_barred_steps_see(n, k):
    # of the checks of the fast path, only (b) on R refuses the tables
    (rows, barred), table = hecke.orbit_bars(n, k), rpoly.orbit_table(n, k)
    plan, bits = rpoly.orbit_plan(n, k), rpoly.orbit_packing(n, k).bits
    bases = rpoly.orbit_bounds(n, k)[1]
    return (verify._bases_agree(barred, table)
            and verify._supports_are_downs(table, order.orbit_poset(n, k).downs)
            and hecke._left_steps_act(rows, plan, bits)
            and hecke._base_rows_are_identity(rows, table, bases)
            and not hecke._barred_steps_act(table, plan, bases, bits))


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
def test_a_fault_of_r_off_the_bases_is_flagged(n, k, corrupt_fill, full_sums):
    # one entry of the first column of R that is no Hecke base, off by one:
    # on the fast path only (b) on R sees it, and the report flags that
    # entry alone, as the full sums report does
    bases = rpoly.orbit_bounds(n, k)[1]
    b = next(b for b in range(1, len(order.orbit_poset(n, k).elements)) if b not in bases)

    def off_by_one(packing, columns, _):
        if columns is not None:
            columns[b][min(columns[b])] += 1
    corrupt_fill(rpoly, n, k, off_by_one)
    assert _only_barred_steps_see(n, k)
    report = verify.hecke_oracle_report(n, k)
    elements = order.orbit_poset(n, k).elements
    a = min(rpoly.orbit_table(n, k)[b])
    assert [(v["theta"], v["sigma"]) for v in report.violations] == \
        [(renner.format_element(elements[a]), renner.format_element(elements[b]))]
    assert full_sums(verify.hecke_oracle_report, n, k) == (report.checked, report.violations)


def _downs_gain_the_maximum(monkeypatch, n, k):
    # the down set of the minimum gains the maximum, after R is filled:
    # no table changes, and only the support test reads the down sets;
    # the orbit is dropped after the test
    rpoly.orbit_table(n, k)
    downs = order.orbit_poset(n, k).downs
    downs[0] |= 1 << len(downs) - 1


def _barred_minimum_off(monkeypatch, n, k):
    # the barred column of the minimum, a base, off by one at its diagonal
    for column in _barred_columns(n, k, 0):
        _plus_one(monkeypatch, column)


def _r_off_the_bases(monkeypatch, n, k):
    # the last column of R, no base, off by one at the minimum
    _plus_one(monkeypatch, rpoly.orbit_table(n, k)[-1])


# Each check of the fast path of the Hecke report with a fault on R_3
# k = 1 that only it sees there, and its mutant: the base compare, the
# support test on R, and (b) on R, each made to pass (for (b), only on
# R, the fast path's table).
FAST_PATH_PARTS = [
    pytest.param(lambda mp, n, k: mp.setattr(verify, "_bases_agree", lambda *args: True),
                 _barred_minimum_off, id="base-compare"),
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
    # summed; the mutant takes the fast path and passes
    n, k = 3, 1
    fault(monkeypatch, n, k)
    report = verify.hecke_oracle_report(n, k)
    assert not report.passed
    with monkeypatch.context() as patch:
        patch.setattr(hecke, "certify", lambda *args: False)
        summed = verify.hecke_oracle_report(n, k)
    assert (summed.checked, summed.violations) == (report.checked, report.violations)
    mutate(monkeypatch, n, k)
    assert verify.hecke_oracle_report(n, k).passed


def test_a_passing_report_keeps_no_barred_column_off_the_bases(fresh_orbits):
    # the fast path fills the barred columns of the bases alone
    assert verify.hecke_oracle_report(5, 2).passed
    bases, barred = rpoly.orbit_bounds(5, 2)[1], hecke.orbit_bars(5, 2)[1]
    assert [b for b, column in enumerate(barred) if column is not None] == list(bases)
    assert (hecke.orbit_barred.__wrapped__, 5, 2) not in order.kept


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rpoly_via_bar_decodes_every_barred_column(n, fresh_orbits):
    # through the barred table built when first asked for, every column
    # decodes to the column of R
    for k in range(n + 1):
        poset, unpack = order.orbit_poset(n, k), rpoly.orbit_packing(n, k).unpack
        assert (hecke.orbit_barred.__wrapped__, n, k) not in order.kept
        for sigma, column in zip(poset.elements, rpoly.orbit_table(n, k)):
            assert hecke.rpoly_via_bar(sigma) == {poset.elements[a]: unpack(x)
                                                  for a, x in column.items()}, sigma
        assert (hecke.orbit_barred.__wrapped__, n, k) in order.kept
