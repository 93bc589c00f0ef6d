import itertools

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
    # every row of a correct orbit passes its row check, so no pair is
    # checked one by one (no Mobius value is read off a row, and lifting
    # is tested once per bottom and s), and the reports are the
    # pair-by-pair oracles'
    def expanded(*args):
        raise AssertionError("a row of a correct orbit was checked pair by pair")

    row_holds, lifting_tests = analysis._lifting_holds, []
    for k in ks:
        with monkeypatch.context() as patch:
            patch.setattr(order, "mobius_at", expanded)
            patch.setattr(analysis, "_lifting_holds",
                          lambda *args: lifting_tests.append(args) or row_holds(*args))
            putcha = analysis.verify_putcha_conjecture(renner.orbit(n, k))
            lifting_tests.clear()
            lifting = analysis.lifting_violations(n, k)
        assert len(lifting_tests) == len(renner.orbit(n, k)) * (n - 1)
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
