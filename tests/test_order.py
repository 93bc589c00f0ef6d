import gc
import itertools
import random
import types
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (check_graded, interval_by_scan, interval_elements_scan,
                     mobius_bruteforce, mobius_by_recursion, mobius_recursive,
                     monoid_elements, scan_rows, transitive_reduction,
                     witness_leq)
from rookorder import hecke, order, renner, rpoly, weyl


def test_leq_examples():
    assert order.leq((0, 0, 0, 1), (0, 0, 0, 3))
    assert order.leq((0, 1), (2, 0))
    for theta in monoid_elements(3):
        assert order.leq(theta, theta)
    with pytest.raises(ValueError):
        order.leq((1, 0), (1, 2, 0))


def test_leq_is_partial_order_on_R3():
    elems = monoid_elements(3)
    rel = {(a, b) for a in elems for b in elems if order.leq(a, b)}
    for a in elems:
        assert (a, a) in rel
    for a, b in rel:
        if a != b:
            assert (b, a) not in rel, (a, b)
    above = {a: {b for b in elems if (a, b) in rel} for a in elems}
    for a, b in rel:
        assert above[b] <= above[a]


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_leq_is_partial_order_per_orbit_n4(k):
    elems = renner.orbit(4, k)
    above = {a: frozenset(b for b in elems if order.leq(a, b)) for a in elems}
    for a in elems:
        assert a in above[a]
    for a in elems:
        for b in above[a]:
            if a != b:
                assert a not in above[b]
            assert above[b] <= above[a]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leq_restricted_to_units_is_bruhat(n):
    # the rank-matrix order, which does not call ``weyl``, against the
    # sorted-prefix test of ``weyl.bruhat_leq`` on every pair of S_n
    for u, v in itertools.product(weyl.all_permutations(n), repeat=2):
        assert order.leq(u, v) == weyl.bruhat_leq(u, v)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leq_strictly_increases_length(n):
    for k in range(n + 1):
        for a, b in itertools.product(renner.orbit(n, k), repeat=2):
            if order.leq(a, b) and a != b:
                assert renner.length(a) < renner.length(b)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dominance_oracle_calibration(n):
    # the rank-matrix order must coincide with the coset-witness
    # criterion on the whole monoid, cross-orbit pairs included
    assert order.dominance_leq is order.leq
    elems = monoid_elements(n)
    for a, b in itertools.product(elems, repeat=2):
        assert order.leq(a, b) == witness_leq(a, b), (a, b)


def test_dominance_oracle_cross_validates_n4():
    # the pairwise rank-matrix test on every pair and, on same-orbit
    # pairs, the orbit poset's up- and down-set rows must both coincide
    # with the coset-witness criterion
    elems = monoid_elements(4)
    for a, b in itertools.product(elems, repeat=2):
        expected = witness_leq(a, b)
        assert order.leq(a, b) == expected, (a, b)
        if renner.rank(a) == renner.rank(b):
            poset = order.orbit_poset(4, renner.rank(a))
            i, j = poset.index[a], poset.index[b]
            assert (poset.up(i) >> j) & 1 == expected, (a, b)
            assert (poset.down(j) >> i) & 1 == expected, (a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_intervals_and_mobius_match_scan_oracles(n):
    # every same-orbit pair, incomparable ones included: the elements,
    # the bit-sliced up- and down-set rows and the Mobius value of the
    # interval poset against scans with the coset-witness criterion
    for k in range(n + 1):
        for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
            poset = order.IntervalPoset(theta, sigma)
            assert poset.elements == interval_elements_scan(theta, sigma), \
                (theta, sigma)
            ups, downs = scan_rows(poset.elements, witness_leq)
            assert [poset.up(i) for i in range(len(ups))] == ups, (theta, sigma)
            assert [poset.down(i) for i in range(len(downs))] == downs, (theta, sigma)
            assert order.mobius_direct(theta, sigma) == \
                mobius_recursive(theta, sigma), (theta, sigma)


def _near(poset, i, gap):
    """Indices at most ``gap`` longer than element i, comparable or not."""
    return [j for j, length in enumerate(poset.lengths)
            if 0 <= length - poset.lengths[i] <= gap]


def _other_orbit(n, k):
    return st.sampled_from([w for other in range(n + 1) if other != k
                            for w in renner.orbit(n, other)])


@pytest.mark.parametrize("k", range(6))
@settings(max_examples=12)
@given(data=st.data())
def test_interval_poset_matches_scan_oracles_n5(k, data):
    # the top lies at most 3 above the bottom in length, so the
    # coset-witness recursion stays small; most such pairs are incomparable
    orbit = order.orbit_poset(5, k)
    i = data.draw(st.integers(0, len(orbit.elements) - 1))
    theta = orbit.elements[i]
    sigma = orbit.elements[data.draw(st.sampled_from(_near(orbit, i, 3)))]
    poset = order.IntervalPoset(theta, sigma)
    assert poset.elements == interval_elements_scan(theta, sigma)
    assert bool(poset.elements) == witness_leq(theta, sigma)
    assert order.mobius_direct(theta, sigma) == mobius_recursive(theta, sigma)
    with pytest.raises(ValueError):
        order.IntervalPoset(theta, data.draw(_other_orbit(5, k)))


@pytest.mark.parametrize("k", range(7))
@settings(max_examples=15)
@given(data=st.data())
def test_interval_poset_matches_leq_scan_n6(k, data):
    # any pair for the elements, against a scan of the whole orbit with
    # order.leq; a pair at most 4 apart in length for rows and Mobius
    orbit = order.orbit_poset(6, k)
    assert orbit.elements == renner.orbit(6, k)
    pick = st.integers(0, len(orbit.elements) - 1)
    i, j = data.draw(pick), data.draw(pick)
    theta, sigma = orbit.elements[i], orbit.elements[j]
    assert order.interval_elements(theta, sigma) == \
        interval_by_scan(orbit.elements, order.leq, theta, sigma)
    sigma = orbit.elements[data.draw(st.sampled_from(_near(orbit, i, 4)))]
    poset = order.IntervalPoset(theta, sigma)
    assert poset.elements == interval_by_scan(orbit.elements, order.leq, theta, sigma)
    ups, downs = scan_rows(poset.elements, order.leq)
    assert [poset.up(a) for a in range(len(ups))] == ups
    assert [poset.down(a) for a in range(len(downs))] == downs
    assert order.mobius_direct(theta, sigma) == \
        mobius_by_recursion(poset.elements, order.leq, theta, sigma)
    with pytest.raises(ValueError):
        order.interval_elements(theta, data.draw(_other_orbit(6, k)))


@pytest.mark.parametrize("k", range(6))
@settings(max_examples=100)
@given(data=st.data())
def test_orbit_poset_matches_leq_n5(k, data):
    poset = order.orbit_poset(5, k)
    pick = st.integers(0, len(poset.elements) - 1)
    i, j = data.draw(pick), data.draw(pick)
    theta, sigma = poset.elements[i], poset.elements[j]
    expected = witness_leq(theta, sigma)
    assert order.leq(theta, sigma) == expected
    assert (poset.up(i) >> j) & 1 == expected
    assert (poset.down(j) >> i) & 1 == expected
    assert (poset.up(poset.locate(theta)) >> poset.locate(sigma)) & 1 == expected


@pytest.mark.parametrize("ke,kf", list(itertools.combinations(range(6), 2)))
@settings(max_examples=100)
@given(data=st.data())
def test_leq_matches_witness_across_orbits_n5(ke, kf, data):
    # pairs from two different orbits of R_5, compared both ways
    theta = data.draw(st.sampled_from(renner.orbit(5, ke)))
    sigma = data.draw(st.sampled_from(renner.orbit(5, kf)))
    assert order.leq(theta, sigma) == witness_leq(theta, sigma)
    assert order.leq(sigma, theta) == witness_leq(sigma, theta)


def test_orbit_has_unique_min_and_max():
    for n in (2, 3, 4):
        for k in range(n + 1):
            elems = renner.orbit(n, k)
            nu = renner.orbit_minimum(n, k)
            top = renner.orbit_maximum(n, k)
            assert all(order.leq(nu, w) for w in elems)
            assert all(order.leq(w, top) for w in elems)


def test_interval_examples():
    linear = order.interval((0, 0, 0, 1), (0, 0, 0, 3))
    assert len(linear.elements) == 3
    assert list(linear.covers()) == [(0, 1), (1, 2)]
    diamond = order.interval((0, 0, 1, 2), (0, 0, 2, 3))
    assert len(diamond.elements) == 4
    assert len(list(diamond.covers())) == 4
    assert diamond.elements[0] == (0, 0, 1, 2) and diamond.elements[-1] == (0, 0, 2, 3)
    point = order.interval((0, 1), (0, 1))
    assert point.elements == ((0, 1),)
    assert list(point.covers()) == []


def test_interval_errors():
    with pytest.raises(ValueError):
        order.interval((0, 0, 1, 0), (0, 0, 0, 3))  # incomparable, same orbit
    with pytest.raises(ValueError):
        order.interval((0, 0, 0, 1), (0, 0, 1, 2))  # different orbits
    # the poset of an incomparable pair is empty; cross-orbit pairs raise
    assert order.IntervalPoset((0, 0, 1, 0), (0, 0, 0, 3)).elements == ()
    assert order.interval_elements((0, 0, 1, 0), (0, 0, 0, 3)) == ()
    with pytest.raises(ValueError):
        order.IntervalPoset((0, 0, 0, 1), (0, 0, 1, 2))
    with pytest.raises(ValueError, match="outside"):
        order.interval((0, 0, 0, 1), (0, 0, 0, 3)).locate((0, 0, 0, 4))


@pytest.mark.parametrize("n", [2, 3])
def test_covers_match_generic_transitive_reduction(n):
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if not witness_leq(theta, sigma):
                continue
            poset = order.interval(theta, sigma)
            generic = transitive_reduction(poset.elements, witness_leq)
            covers = {(poset.elements[a], poset.elements[b])
                      for a, b in poset.covers()}
            assert covers == set(generic), (theta, sigma)


def test_mobius_direct_examples():
    assert order.mobius_direct((0, 1), (0, 1)) == 1
    assert order.mobius_direct((0, 0, 0, 1), (0, 0, 0, 3)) == 0
    assert order.mobius_direct((0, 0, 1, 2), (0, 0, 2, 3)) == 1
    # incomparable same-orbit pair
    assert order.mobius_direct((0, 0, 1, 0), (0, 0, 0, 3)) == 0
    with pytest.raises(ValueError):
        order.mobius_direct((0, 0, 0, 1), (0, 0, 1, 2))


@pytest.mark.parametrize("n", [2, 3])
def test_mobius_direct_matches_chain_count_oracle(n):
    # Philip Hall's signed chain count; kept to intervals with at most
    # five interior elements so the permutation enumeration stays small
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if not witness_leq(theta, sigma):
                continue
            inside = interval_elements_scan(theta, sigma)
            if len(inside) - 2 <= 5:
                expected = mobius_bruteforce(inside, witness_leq, theta, sigma)
                assert order.mobius_direct(theta, sigma) == expected


def _atoms_and_tops(size):
    # 0 below the atoms 1..size-5, each of tops size-4..size-2 above
    # every atom of its residue mod 3, and size-1 above all
    top = size - 1
    ups = [(1 << size) - 1]
    ups += [1 << a | 1 << (size - 4 + a % 3) | 1 << top for a in range(1, size - 4)]
    ups += [1 << t | 1 << top for t in range(size - 4, top)] + [1 << top]
    return ups


def _far_apart(size):
    # 0 below size-40 and size-20, both below size-1; every other
    # element stands alone
    ups = [1 << i for i in range(size)]
    ups[size - 40] |= 1 << (size - 1)
    ups[size - 20] |= 1 << (size - 1)
    ups[0] |= ups[size - 40] | ups[size - 20]
    return ups


def synthetic_posets():
    """Up-row lists of orders on 0..size-1 with index order a linear
    extension: a bottom below m atoms below a top, where mu(bottom, top)
    = m - 1; a bottom, 3 atoms, two elements above them (mu = 2) and a
    top above those (mu = -2); orders generated by random pairs i < j,
    whose Mobius values reach beyond +-1 too; and two orders whose
    bottom has a sparse up row (``_far_apart``) and a dense one
    (``_atoms_and_tops``), the two walks of ``order.bits``."""
    for m in range(1, 7):
        top = m + 1
        yield [(1 << (top + 1)) - 1] + [(1 << a) | (1 << top)
                                        for a in range(1, top + 1)]
    yield [0b1111111, 0b1110010, 0b1110100, 0b1111000, 0b1010000, 0b1100000, 0b1000000]
    rng = random.Random(14)
    for size in (8, 12, 16):
        for _ in range(6):
            ups = [1 << i for i in range(size)]
            for i in reversed(range(size)):
                for j in range(i + 1, size):
                    if rng.random() < 0.3:
                        ups[i] |= ups[j]
            yield ups
    yield _far_apart(200)
    yield _atoms_and_tops(60)


def test_mobius_row_matches_the_recursion_off_the_orbits():
    # on an orbit mu is 0 or +-1, so only synthetic orders reach the
    # values kept apart from M_(+1) and M_(-1); every row must equal the
    # defining recursion, keep no M_0 and no empty set
    values, two_apart = set(), False
    for ups in synthetic_posets():
        elements = range(len(ups))
        leq = lambda i, j: (ups[i] >> j) & 1 == 1  # noqa: E731
        _, downs = scan_rows(elements, leq)
        for bottom in elements:
            row = order.mobius_row(bottom, ups[bottom], downs.__getitem__)
            assert 0 not in row and all(row.values())
            inside = list(order.bits(ups[bottom]))  # mu is 0 off up(bottom)
            mus = {t: mobius_by_recursion(inside, leq, bottom, t) for t in inside}
            assert row == {mu: sum(1 << t for t, v in mus.items() if v == mu)
                           for mu in set(mus.values()) - {0}}
            values |= row.keys()
            two_apart |= len(row.keys() - {1, -1}) > 1
    assert {-2, 2, 3, 5} <= values and two_apart


@pytest.mark.parametrize("ups,sparse", [(_far_apart(200), True),
                                        (_atoms_and_tops(60), False)],
                         ids=["sparse", "dense"])
def test_mobius_row_walks_a_sparse_up_row_bit_by_bit(ups, sparse, monkeypatch):
    # the up row of bottom 0 is walked bit by bit when sparse and by
    # compress when dense; the recursion test above checks both rows
    walked = []
    sparse_bits = order._sparse_bits
    monkeypatch.setattr(order, "_sparse_bits",
                        lambda mask: walked.append(mask) or sparse_bits(mask))
    leq = lambda i, j: (ups[i] >> j) & 1 == 1  # noqa: E731
    _, downs = scan_rows(range(len(ups)), leq)
    order.mobius_row(0, ups[0], downs.__getitem__)
    assert walked == ([ups[0] & ~1] if sparse else [])


@pytest.mark.parametrize("n,k", [(4, 0), (4, 1), (4, 2), (4, 3), (4, 4),
                                 (3, 1), (3, 2)])
def test_check_graded_passes(n, k):
    report = check_graded(renner.orbit(n, k))
    assert report.passed, report.violations


def test_hasse_dot_shape():
    dot = order.hasse_dot(order.interval((0, 0, 0, 1), (0, 0, 0, 3)))
    assert dot.count("->") == 2
    assert dot.count("[len=") == 3
    assert '"0001" [len=0];' in dot
    assert dot.startswith("digraph hasse {")


def test_one_orbit_stays_resident(fresh_orbits):
    # once another orbit is asked for, nothing of the last one stays
    # alive, neither its poset (with its rows and actions) nor its
    # packing, plan, R table, certificate and Hecke tables; asked for
    # again, it is built afresh, equal to before.  A list or tuple cannot
    # be weakly referenced, so each table's one referrer is shown to be
    # the store of the resident orbit, ``order.kept`` (the Hecke columns
    # and barred columns, every one or of the bases alone, through the
    # pair that holds them)
    poset = order.orbit_poset(4, 2)
    table, bars = rpoly.orbit_table(4, 2), hecke.orbit_bars(4, 2)
    bases, plan = hecke.base_columns(4, 2), rpoly.orbit_plan(4, 2)
    certificate = hecke.certificate(4, 2)
    assert poset.ups and poset.downs and order.orbit_action(4, 2, "left")
    old = [[dict(row) for row in rows] for rows in (table, *bars)] + \
        [{b: dict(row) for b, row in rows.items()} for rows in bases]

    def referrers(kept):
        return [r for r in gc.get_referrers(kept) if not isinstance(r, types.FrameType)]
    assert referrers(table) == referrers(bars) == referrers(bases) == referrers(plan) == \
        referrers(certificate) == [order.kept]
    (rows, barred), (base_rows, base_barred) = bars, bases
    assert referrers(rows) == referrers(barred) == [bars]
    assert referrers(base_rows) == referrers(base_barred) == [bases]
    alive = [weakref.ref(kept) for kept in (poset, rpoly.orbit_packing(4, 2))]
    del poset, table, bars, bases, plan, certificate, rows, barred, base_rows, base_barred
    order.orbit_poset(4, 3)
    gc.collect()
    assert [ref() for ref in alive] == [None, None]
    table, bars = rpoly.orbit_table(4, 2), hecke.orbit_bars(4, 2)
    assert [table, *bars, *hecke.base_columns(4, 2)] == old
    holds, columns = hecke.certificate(4, 2)
    assert holds and list(columns) == list(rpoly.orbit_bounds(4, 2)[1])
    assert list(columns.values()) == list(map(bars[0].__getitem__, columns))


def test_a_value_built_during_a_switch_is_kept_for_its_own_orbit(monkeypatch,
                                                                 fresh_orbits):
    # a fill that asks for another orbit makes that one resident while
    # R_3 k = 1's table is built; the table is kept under its own orbit
    # and never read for the other
    expected = [dict(column) for column in rpoly.orbit_table(3, 2)]
    order.orbit_poset.cache_clear()
    fill = rpoly._fill

    def fill_then_switch(*args, **kwargs):
        table = fill(*args, **kwargs)
        order.orbit_poset(3, 2)
        return table
    monkeypatch.setattr(rpoly, "_fill", fill_then_switch)
    assert len(rpoly.orbit_table(3, 1)) == len(renner.orbit(3, 1))
    table = rpoly.orbit_table(3, 2)
    assert len(table) == len(renner.orbit(3, 2)) and table == expected


def test_a_failed_build_drops_nothing(fresh_orbits):
    rows = rpoly.delta_rows(3, 1)
    with pytest.raises(ValueError):
        order.orbit_poset(3, 5)
    assert rpoly.delta_rows(3, 1) is rows


def test_single_interval_queries_keep_no_rows():
    # covers and Mobius values read rows on the fly; only the sweeps
    # build the kept ones
    poset = order.interval((0, 0, 1, 2), (3, 4, 0, 0))
    order.hasse_dot(poset)
    poset.mobius(0, len(poset.elements) - 1)
    assert "ups" not in vars(poset) and "downs" not in vars(poset)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_orbit_action_is_the_product_and_the_length_step(n):
    for k in range(n + 1):
        elements = order.orbit_poset(n, k).elements
        for side in ("left", "right"):
            action = order.orbit_action(n, k, side)
            assert len(action) == n - 1
            for i, (to, step) in enumerate(action, 1):
                s = weyl.simple_reflection(n, i)
                for w, t, d in zip(elements, to, step):
                    moved = (renner.multiply(s, w) if side == "left"
                             else renner.multiply(w, s))
                    assert elements[t] == moved
                    assert d == renner.length(moved) - renner.length(w)
                    assert d == renner.length_step(w, i, side)
    with pytest.raises(ValueError, match="side"):
        order.orbit_action(n, 0, "up")


@pytest.mark.parametrize("n", range(1, 7))
def test_zero_length_step_iff_fixed(n):
    # s_i keeps the length of an element exactly when it fixes it, on
    # both sides: the row lifting check reads a step of 0 as s sigma = sigma
    for k in range(n + 1):
        for side in ("left", "right"):
            for to, step in order.orbit_action(n, k, side):
                assert all((d == 0) == (t == a)
                           for a, (t, d) in enumerate(zip(to, step))), (n, k, side)


@pytest.mark.parametrize("n", range(1, 6))
def test_relabelled_rows_match_a_leq_scan(n):
    # for the identity and every s_i on either side, rows(to)[x] holds the
    # c with elements[x] <= elements[to[c]], as an order.leq scan finds
    # them; the kept rows are the single ones and the scan's, both ways
    for k in range(n + 1):
        poset = order.orbit_poset(n, k)
        # above[x][y] is '1' iff elements[x] <= elements[y]; below transposed
        above = ["".join("01"[order.leq(x, y)] for y in poset.elements)
                 for x in poset.elements]
        below = ["".join(column) for column in zip(*above)]
        identity = range(len(above))

        def scanned(scan, to):
            return [int("".join(map(row.__getitem__, reversed(to))), 2) for row in scan]

        assert poset.ups == [poset.up(i) for i in identity] == scanned(above, identity)
        assert poset.downs == [poset.down(j) for j in identity] == scanned(below, identity)
        actions = order.orbit_action(n, k, "left") + order.orbit_action(n, k, "right")
        for to in [identity, *(to for to, _ in actions)]:
            assert poset.rows(to) == scanned(above, to), (n, k, to)


@pytest.mark.parametrize("n", range(1, 6))
def test_downs_are_the_transpose_of_ups(n):
    # the lifting sweep's column check reads down(c) as the a with c in
    # up(a)
    for k in range(n + 1):
        poset = order.orbit_poset(n, k)
        assert poset.downs == [sum(1 << a for a, up in enumerate(poset.ups) if up >> c & 1)
                               for c in range(len(poset.ups))], (n, k)


def _search_lengths(theta, sigma):
    # the poset of [theta, sigma], built with renner.length out of reach,
    # whose lengths must be renner.length's
    with mock.patch.object(renner, "length", side_effect=AssertionError("called")):
        poset = order.IntervalPoset(theta, sigma)
    assert poset.lengths == tuple(map(renner.length, poset.elements)), (theta, sigma)
    return poset


@pytest.mark.parametrize("n", range(1, 7))
def test_search_lengths_are_renner_lengths(n):
    for k in range(n + 1):
        _search_lengths(renner.orbit_minimum(n, k), renner.orbit_maximum(n, k))


@pytest.mark.parametrize("n", [7, 8])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_search_lengths_are_renner_lengths_sampled(n, data):
    # [theta, sigma] for a random sigma and theta up to six descents
    # below it, on either side
    values = data.draw(st.permutations(range(1, n + 1)))
    keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    sigma = theta = tuple(a if kept else 0 for a, kept in zip(values, keep))
    for _ in range(data.draw(st.integers(0, 6))):
        side = data.draw(st.sampled_from(("left", "right")))
        lower = [i for i in range(1, n) if renner.length_step(theta, i, side) < 0]
        if lower:
            s = weyl.simple_reflection(n, data.draw(st.sampled_from(lower)))
            theta = renner.multiply(s, theta) if side == "left" else renner.multiply(theta, s)
    poset = _search_lengths(theta, sigma)
    assert (poset.elements[0], poset.elements[-1]) == (theta, sigma)


STAR_ORBITS = [pytest.param(n, k, id=f"R{n}-k{k}")
               for n in range(1, 5) for k in range(n + 1)] + [pytest.param(5, 2, id="R5-k2")]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_star_is_the_anti_automorphism(n):
    # sigma* = w0 sigma^-1 w0, with sigma^-1 the transposed rook matrix,
    # and (s_i sigma)* = sigma* s_(n-i), on every element of R_n
    w0 = tuple(range(n, 0, -1))
    for k in range(n + 1):
        for sigma in renner.orbit(n, k):
            inverse = tuple(sigma.index(v) + 1 if v in sigma else 0
                            for v in range(1, n + 1))
            assert order.star(sigma) == renner.multiply(renner.multiply(w0, inverse), w0)
            for i in range(1, n):
                assert order.star(renner.multiply(weyl.simple_reflection(n, i), sigma)) \
                    == renner.multiply(order.star(sigma), weyl.simple_reflection(n, n - i))


@pytest.mark.parametrize("n,k", STAR_ORBITS)
def test_orbit_star_is_an_involution_keeping_lengths_and_order(n, k):
    poset, star = order.orbit_poset(n, k), order.orbit_star(n, k)
    assert [poset.elements[a] for a in star] == list(map(order.star, poset.elements))
    assert [star[a] for a in star] == list(range(len(star)))
    assert [poset.lengths[a] for a in star] == list(poset.lengths)
    for a, up in enumerate(poset.ups):
        assert sum(1 << star[b] for b in order.bits(up)) == poset.ups[star[a]], a


def test_bits_walks_dense_and_sparse_masks_alike():
    # the bulk walk of a dense mask and the bit walk of a sparse one give
    # the positions a scan of the binary digits gives, around the switch
    rng = random.Random(5)
    for length in (1, 8, 63, 64, 65, 100, 300, 2000):
        for density in (0.0, 0.02, 0.1, 0.13, 0.5, 1.0):
            mask = sum(1 << i for i in range(length) if rng.random() < density)
            assert list(order.bits(mask)) == [i for i in range(length) if mask >> i & 1]
