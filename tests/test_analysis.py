import inspect
import itertools
from collections import Counter

import pytest

from oracles import (check_lifting, embeddable_in_weyl_necessary,
                     lifting_by_pairs, linear_length2_bruteforce, monoid_elements,
                     nonempty_descent_by_words, putcha_by_pairs, witness_leq)
from rookorder import analysis, order, renner, weyl

DESCENT_TABLE = {
    (0, 0, 1, 2): (set(), set()),
    (0, 0, 1, 3): ({2}, set()),
    (1, 0, 0, 2): (set(), {1}),
    (3, 0, 0, 2): ({1, 2}, {1}),
    (0, 4, 2, 0): ({1, 3}, {2, 3}),
}


def test_descent_table_rows():
    for sigma, (left, right) in DESCENT_TABLE.items():
        got_left, got_right = analysis.descent_sets(sigma)
        assert set(got_left) == left, sigma
        assert set(got_right) == right, sigma


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descent_rule_agrees_with_raw_definition(n):
    for sigma in monoid_elements(n):
        assert analysis.descent_sets(sigma) == \
            (renner.descents(sigma, "left"), renner.descents(sigma, "right"))


@pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (2, 1)])
def test_nonempty_descent_report(n, k):
    report = analysis.check_nonempty_descent(renner.orbit(n, k))
    assert report.passed, report.violations
    assert report.checked == len(renner.orbit(n, k))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nonempty_descent_matches_the_word_oracle(n):
    # in orbit order, reversed, and on every other element but the
    # minimum, which reports it missing
    for k in range(n + 1):
        orbit = renner.orbit(n, k)
        for elements in (orbit, orbit[::-1], orbit[1::2]):
            assert_same_report(analysis.check_nonempty_descent(elements),
                               nonempty_descent_by_words(elements))


@pytest.mark.parametrize("elements", [
    renner.orbit(3, 1) + renner.orbit(3, 2),
    renner.orbit(3, 2) + renner.orbit(2, 1),
], ids=["ranks", "sizes"])
def test_nonempty_descent_rejects_two_orbits(elements):
    with pytest.raises(ValueError):
        analysis.check_nonempty_descent(elements)


@pytest.mark.parametrize("step", [(0, 2), (-2, 0), (1, 300), (-300, 1)])
def test_moved_refuses_a_step_that_is_not_a_length_step(step):
    with pytest.raises(ValueError):
        analysis._moved(step)


def test_find_linear_length2():
    theta, sigma = (0, 0, 0, 1), (0, 0, 0, 3)
    assert analysis.find_linear_length2(theta, sigma) == (theta, sigma)
    assert analysis.find_linear_length2((0, 0, 1, 2), (0, 0, 2, 3)) is None
    assert analysis.find_linear_length2((0, 1), (0, 1)) is None
    with pytest.raises(ValueError):
        analysis.find_linear_length2((0, 0, 1, 0), (0, 0, 0, 3))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_linear_length2_scan_matches_bruteforce_on_orbits(n):
    for k in range(n + 1):
        bottom, top = renner.orbit_minimum(n, k), renner.orbit_maximum(n, k)
        pairs = analysis.linear_length2_pairs(bottom, top)
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == linear_length2_bruteforce(
            renner.orbit(n, k), witness_leq, bottom, top), (n, k)


@pytest.mark.parametrize("n", [2, 3])
def test_linear_length2_scan_matches_bruteforce_on_intervals(n):
    # every same-orbit pair; incomparable ones have an empty interval
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            assert set(analysis.linear_length2_pairs(theta, sigma)) == \
                linear_length2_bruteforce(elems, witness_leq,
                                          theta, sigma), (theta, sigma)


@pytest.mark.parametrize("n", [2, 3])
def test_linear_witness_iff_zero_constant_term(n):
    from rookorder import rpoly
    for k in range(n + 1):
        for theta, sigma in itertools.product(renner.orbit(n, k), repeat=2):
            if not order.leq(theta, sigma):
                continue
            witness = analysis.find_linear_length2(theta, sigma)
            r0 = rpoly.rpoly(theta, sigma).constant_term
            assert (witness is None) == (r0 != 0), (theta, sigma)
            if witness is not None:
                alpha, beta = witness
                assert order.leq(theta, alpha) and order.leq(beta, sigma)
                assert renner.length(beta) - renner.length(alpha) == 2
                assert len(order.interval_elements(alpha, beta)) == 3


def test_embeddability_necessary_condition():
    assert not embeddable_in_weyl_necessary((0, 0, 0, 1), (0, 0, 0, 3))
    assert embeddable_in_weyl_necessary((0, 0, 1, 2), (0, 0, 2, 3))
    assert embeddable_in_weyl_necessary((0, 1), (0, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_length2_interval_dichotomy(n):
    # every length-2 interval has exactly 3 or 4 elements
    for k in range(n + 1):
        elems = renner.orbit(n, k)
        for theta, sigma in itertools.product(elems, repeat=2):
            if renner.length(sigma) - renner.length(theta) == 2 and \
                    order.leq(theta, sigma):
                assert len(order.interval_elements(theta, sigma)) in (3, 4)


def test_check_lifting_clause_b_example():
    assert check_lifting((0, 1), (0, 2), 1) == ("b", True)


def test_check_lifting_clause_a_witnessed():
    # sweep R_3 orbits for triples where clause (a) applies strictly
    seen = 0
    for k in range(4):
        for theta, sigma in itertools.product(renner.orbit(3, k), repeat=2):
            if theta == sigma or not order.leq(theta, sigma):
                continue
            for i in (1, 2):
                clause, holds = check_lifting(theta, sigma, i)
                assert holds, (theta, sigma, i, clause)
                if clause == "a":
                    seen += 1
    assert seen > 0


def test_check_lifting_not_applicable():
    # s strictly lowers theta: neither clause applies
    theta, sigma = (0, 2), (2, 0)
    s1 = weyl.simple_reflection(2, 1)
    assert renner.length(renner.multiply(s1, theta)) < renner.length(theta)
    assert renner.length(renner.multiply(s1, sigma)) < renner.length(sigma)
    clause, _ = check_lifting((1, 0), (2, 0), 1)
    assert clause == "b"
    assert check_lifting(theta, sigma, 1) == ("not applicable", True)


def test_check_lifting_requires_strict_pair():
    with pytest.raises(ValueError):
        check_lifting((0, 1), (0, 1), 1)


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2)])
def test_lifting_sweep(n, k):
    report = analysis.lifting_violations(n, k)
    assert report.passed, report.violations[:3]


@pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 2), (3, 3), (4, 0)])
def test_putcha_conjecture_orbits(n, k):
    report = analysis.verify_putcha_conjecture(renner.orbit(n, k))
    assert report.passed, report.violations[:3]


def test_putcha_mutation_is_caught(corrupt_mobius):
    # a corrupted Mobius function must produce violation certificates
    corrupt_mobius(order.orbit_poset(3, 2), lambda mu, gap: mu + 1 if gap == 2 else mu)
    report = analysis.verify_putcha_conjecture(renner.orbit(3, 2))
    assert not report.passed
    cert = report.violations[0]
    assert set(cert) >= {"theta", "sigma", "mobius", "expected", "interval"}


def assert_same_report(got, expected):
    assert (got.name, got.checked) == (expected.name, expected.checked)
    assert got.violations == expected.violations


@pytest.mark.parametrize("n,ks", [pytest.param(n, range(n + 1), id=f"R{n}")
                                  for n in range(1, 6)]
                         + [pytest.param(6, [2], id="R6-k2")])
def test_row_sweeps_match_pair_oracles(n, ks, monkeypatch):
    # every row and column of a correct orbit passes its check, so no
    # pair is checked one by one (no Mobius value is read off a row, and
    # no lifting pair is expanded), lifting relabels rows exactly at the
    # images of the bottoms each s raises, each once, and the reports
    # are the pair-by-pair oracles'
    def expanded(*args):
        raise AssertionError("a row of a correct orbit was checked pair by pair")

    relabel, built = order.IntervalPoset.rows, []

    def rows(poset, to, at=None):
        built.append((to, Counter(range(len(poset.elements)) if at is None else at)))
        return relabel(poset, to, at)

    for k in ks:
        with monkeypatch.context() as patch:
            patch.setattr(order, "mobius_at", expanded)
            patch.setattr(analysis, "_lifting_holds", expanded)
            patch.setattr(order.IntervalPoset, "rows", rows)
            putcha = analysis.verify_putcha_conjecture(renner.orbit(n, k))
            built.clear()
            lifting = analysis.lifting_violations(n, k)
        assert built == [(to, Counter({t for t, d in zip(to, step) if d > 0}))
                         for to, step in order.orbit_action(n, k, "left")]
        assert_same_report(putcha, putcha_by_pairs(renner.orbit(n, k)))
        assert_same_report(lifting, lifting_by_pairs(n, k))


def test_putcha_failing_rows_expand_like_the_oracle(corrupt_mobius):
    # linear length-2 intervals read mu = 2: no M_(+1) or M_(-1) changes,
    # so only the no-other-value part of the row check sees the fault;
    # on a whole orbit and on every other element of it
    poset = order.orbit_poset(4, 2)
    corrupt_mobius(poset, lambda mu, gap: 2 if gap == 2 and mu == 0 else mu)
    for elements in (renner.orbit(4, 2), renner.orbit(4, 2)[::2]):
        report = analysis.verify_putcha_conjecture(elements)
        assert report.violations
        assert_same_report(report, putcha_by_pairs(elements))


# every Mobius fault the tests put in through ``corrupt_mobius``
MOBIUS_FAULTS = {
    "gap-2-plus-one": lambda mu, gap: mu + 1 if gap == 2 else mu,
    "linear-reads-2": lambda mu, gap: 2 if gap == 2 and mu == 0 else mu,
    "gap-1-negated": lambda mu, gap: -mu if gap == 1 else mu,
}


def _putcha_rows(check, elements, monkeypatch, identity=False):
    # ((checked, violations) of check(elements), the bottoms whose Mobius
    # row it filled), with ``order.orbit_star`` the identity if asked
    filled, fill = [], order.mobius_row
    with monkeypatch.context() as patch:
        patch.setattr(order, "mobius_row",
                      lambda bottom, up, down: filled.append(bottom) or fill(bottom, up, down))
        if identity:
            patch.setattr(order, "orbit_star",
                          lambda n, k: tuple(range(len(order.orbit_poset(n, k).elements))))
        report = check(elements)
    return (report.checked, report.violations), filled


@pytest.mark.parametrize("fault", [None, *MOBIUS_FAULTS], ids=["clean", *MOBIUS_FAULTS])
@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (4, 2), (5, 2)])
def test_putcha_star_skip_reads_as_the_identity_star(n, k, fault, corrupt_mobius,
                                                     monkeypatch, fresh_orbits):
    # the sweep fills the row of a only where star(a) >= a or the row of
    # star(a) failed, and its report is the one every row gives
    poset, elements = order.orbit_poset(n, k), renner.orbit(n, k)
    if fault:
        corrupt_mobius(poset, MOBIUS_FAULTS[fault])
    got, filled = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch)
    want, every = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch,
                               identity=True)
    assert got == want and bool(want[1]) == bool(fault)
    star = order.orbit_star(n, k)
    failed = {poset.index[renner.parse_element(v["theta"])] for v in want[1]}
    assert every == list(range(len(elements)))
    assert filled == [a for a in every if star[a] >= a or star[a] in failed]
    assert fault or len(filled) < len(every)


def test_putcha_star_falls_back_on_a_one_sided_fault(corrupt_mobius, monkeypatch, fresh_orbits):
    # an up row that star does not carry to its partner's, a length it
    # does not keep, or a given set that star does not keep, leaves the
    # identity: every row is filled, and the report is the identity
    # star's, with the fault that a skip of a row would hide
    n, k = 4, 2
    poset, elements = order.orbit_poset(n, k), renner.orbit(n, k)
    star, ups, downs = order.orbit_star(n, k), poset.ups, poset.downs
    a, c = next((a, c) for a in range(len(star)) if star[a] < a
                for c in range(len(star)) if not (ups[a] | downs[a]) >> c & 1)
    changed = [*ups[:a], ups[a] | 1 << c, *ups[a + 1:]]  # c is not above a
    with monkeypatch.context() as patch:
        patch.setitem(vars(poset), "ups", changed)
        got, filled = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch)
        want, _ = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch,
                               identity=True)
    theta = renner.format_element(elements[a])
    assert got == want and any(v["theta"] == theta for v in want[1])
    assert filled == list(range(len(elements)))

    lengths = poset.lengths  # one element a level up, the last of its own
    a = next(a for a in range(len(star) - 1) if star[a] != a and lengths[a + 1] > lengths[a])
    with monkeypatch.context() as patch:
        patch.setattr(poset, "lengths", (*lengths[:a], lengths[a] + 1, *lengths[a + 1:]))
        got, filled = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch)
        want, _ = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch,
                               identity=True)
    assert got == want and want[1] and filled == list(range(len(elements)))

    corrupt_mobius(poset, MOBIUS_FAULTS["gap-2-plus-one"])
    x = next(x for x in range(len(star)) if star[x] > x)
    given = elements[:x] + elements[x + 1:]  # star(x) is given, x is not
    got, filled = _putcha_rows(analysis.verify_putcha_conjecture, given, monkeypatch)
    want, _ = _putcha_rows(analysis.verify_putcha_conjecture, given, monkeypatch, identity=True)
    theta = renner.format_element(elements[star[x]])
    assert got == want and any(v["theta"] == theta for v in want[1])
    assert filled == [a for a in range(len(elements)) if a != x]


def test_putcha_star_mutant_that_skips_a_failing_partner_is_caught(corrupt_mobius,
                                                                   monkeypatch, fresh_orbits):
    # the sweep with the partner of a failing row skipped too: under a
    # fault that fails both rows of a pair, its report loses the
    # partner's violations, and so differs from the identity star's
    source = inspect.getsource(analysis.verify_putcha_conjecture)
    skip = "star[a] < a and not failed >> star[a] & 1"
    assert source.count(skip) == 1
    namespace = dict(vars(analysis))
    exec(source.replace(skip, "star[a] < a"), namespace)
    mutant = namespace["verify_putcha_conjecture"]
    elements = renner.orbit(3, 2)
    corrupt_mobius(order.orbit_poset(3, 2), MOBIUS_FAULTS["gap-2-plus-one"])
    want, _ = _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch,
                           identity=True)
    assert _putcha_rows(analysis.verify_putcha_conjecture, elements, monkeypatch)[0] == want
    got, _ = _putcha_rows(mutant, elements, monkeypatch)
    assert got[0] == want[0] and got[1] != want[1]


# corrupted s_1 actions on R_4 k = 2, each breaking one lifting
# condition: clause (a) s theta < s sigma, or in clause (b)
# s theta <= sigma or theta <= s sigma; each is one containment of the
# row check, so a row check without it passes every row
LIFTING_MUTANTS = {
    # s_1 reads as raising every element, so clause (a) applies to every
    # pair under s_1 and fails where s_1 swaps theta and sigma
    "a": ("a", lambda to, step: (to, (1,) * len(to))),
    # s_1 sends 0013 where it sends 0012: s theta = s sigma is not above
    "a-strict": ("a", lambda to, step: ((to[0], to[0], *to[2:]), step)),
    # s_1 sends every element it fixes to the maximum
    "b-up": ("s theta <= sigma", lambda to, step: (
        tuple(len(to) - 1 if d == 0 else t for t, d in zip(to, step)), step)),
    # s_1 sends every element it lowers to the minimum
    "b-row": ("theta <= s sigma", lambda to, step: (
        tuple(0 if d < 0 else t for t, d in zip(to, step)), step)),
}


def test_lifting_failing_rows_expand_like_the_oracle(monkeypatch):
    # each corrupted action is flagged, pair by pair, as the oracle flags
    # it, and every failing pair breaks only the mutant's one condition
    original = order.orbit_action
    for name, (broken, change) in LIFTING_MUTANTS.items():
        def corrupted(n, k, side, change=change):
            first, *rest = original(n, k, side)
            return (change(*first), *rest)

        with monkeypatch.context() as patch:
            patch.setattr(order, "orbit_action", corrupted)
            report = analysis.lifting_violations(4, 2)
            assert report.violations, name
            assert_same_report(report, lifting_by_pairs(4, 2))
        poset, (to, _) = order.orbit_poset(4, 2), corrupted(4, 2, "left")[0]

        def below(x, y):
            return order.leq(poset.elements[x], poset.elements[y])

        for cert in report.violations:
            a, b = (poset.index[renner.parse_element(cert[end])] for end in ("theta", "sigma"))
            fails = {"a"} if cert["clause"] == "a" else {
                condition for condition, holds in (("s theta <= sigma", below(to[a], b)),
                                                   ("theta <= s sigma", below(a, to[b])))
                if not holds}
            assert (cert["s"], fails) == (1, {broken}), (name, cert)


def test_classify_interval():
    linear = analysis.classify_interval((0, 0, 0, 1), (0, 0, 0, 3))
    assert linear.shape == "linear"
    assert linear.mobius == 0
    assert linear.r_constant_term == 0
    assert linear.linear_witness is not None

    diamond = analysis.classify_interval((0, 0, 1, 2), (0, 0, 2, 3))
    assert diamond.shape == "diamond"
    assert diamond.mobius == 1
    assert diamond.r_constant_term == 1
    assert diamond.linear_witness is None

    small = analysis.classify_interval((0, 1), (2, 0))
    assert small.shape == "diamond"
    assert small.mobius == 1

    point = analysis.classify_interval((0, 1), (0, 1))
    assert point.shape == "linear"
    assert point.mobius == 1

    big = analysis.classify_interval(renner.orbit_minimum(4, 1),
                                     renner.orbit_maximum(4, 1))
    assert big.shape == "higher-length"


def test_classification_constant_term_equals_mobius():
    for k in range(4):
        for theta, sigma in itertools.product(renner.orbit(3, k), repeat=2):
            if order.leq(theta, sigma):
                info = analysis.classify_interval(theta, sigma)
                assert info.r_constant_term == info.mobius


def test_lifting_sweep_checked_count():
    # one check per comparable pair theta < sigma and simple reflection
    assert analysis.lifting_violations(5, 2).checked == 34300


def test_lifting_sweep_is_exhaustive_at_n6():
    reports = [analysis.lifting_violations(6, k) for k in range(7)]
    assert sum(report.checked for report in reports) == 35336360
    assert [report.violations for report in reports] == [[]] * 7
