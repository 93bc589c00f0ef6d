"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them)."""

import itertools
import time

from oracles import coset_factorization_violations, degree, witness_leq
from rookorder import analysis, cli, hecke, order, renner, rpoly, verify, weyl
from rookorder.polynomials import Q, Q_MINUS_1


def report(num, name, ok, detail=""):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num} {name} failed{detail}"


def same_orbit_pairs(n, k):
    return itertools.product(renner.orbit(n, k), repeat=2)


def comparable_pairs(n, k):
    for theta, sigma in same_orbit_pairs(n, k):
        if order.leq(theta, sigma):
            yield theta, sigma


def test_criterion_01_descent_table():
    start = time.perf_counter()
    got = cli.descent_table()
    elapsed = time.perf_counter() - start
    expected = (
        "sigma\tx\te\ty_inv\tdes_L\tdes_R\n"
        "0012\t1234\t1200\t3412\t-\t-\n"
        "0013\t1324\t1200\t3412\ts2\t-\n"
        "1002\t1234\t1200\t1342\t-\ts1\n"
        "3002\t3214\t1200\t1342\ts1,s2\ts1\n"
        "0420\t4213\t1200\t3124\ts1,s3\ts2,s3\n"
    )
    report(1, "descent-table", got == expected and elapsed < 1.0,
           f" ({elapsed:.3f}s)")


def test_criterion_02_length2_table():
    start = time.perf_counter()
    linear = ((0, 0, 0, 1), (0, 0, 0, 3))
    diamond = ((0, 0, 1, 2), (0, 0, 2, 3))
    ok = (
        rpoly.rpoly(*linear) == Q * Q_MINUS_1
        and rpoly.rpoly(*linear).constant_term == 0
        and rpoly.rpoly(*diamond) == Q_MINUS_1 * Q_MINUS_1
        and rpoly.rpoly(*diamond).constant_term == 1
        and len(order.interval_elements(*linear)) == 3
        and len(order.interval_elements(*diamond)) == 4
    )
    elapsed = time.perf_counter() - start
    report(2, "length2-table", ok and elapsed < 1.0, f" ({elapsed:.3f}s)")


def test_criterion_03_mobius_identity():
    bad = []
    elapsed_n4 = 0.0
    for n in (1, 2, 3, 4):
        start = time.perf_counter()
        for k in range(n + 1):
            for theta, sigma in comparable_pairs(n, k):
                if rpoly.rpoly(theta, sigma).constant_term != \
                        order.mobius_direct(theta, sigma):
                    bad.append((theta, sigma))
        if n == 4:
            elapsed_n4 = time.perf_counter() - start
    report(3, "mobius-identity", not bad and elapsed_n4 < 60.0,
           f" (n=4 sweep {elapsed_n4:.1f}s)")


def test_criterion_04_degree_monic_constant_term():
    bad = []
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for theta, sigma in same_orbit_pairs(n, k):
                r = rpoly.rpoly(theta, sigma)
                if bool(r) != witness_leq(theta, sigma):
                    bad.append((theta, sigma, "support"))
                    continue
                if not r:
                    continue
                gap = renner.length(sigma) - renner.length(theta)
                if degree(r) != gap or r.coeffs[-1] != 1 \
                        or r.constant_term not in (0, (-1) ** gap):
                    bad.append((theta, sigma, r))
    report(4, "degree-monic-constant-term", not bad, f" {bad[:3]}")


def test_criterion_05_putcha_conjecture(inject):
    bad = []
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            result = analysis.verify_putcha_conjecture(renner.orbit(n, k))
            bad.extend(result.violations)
    # mutation check: a corrupted Mobius value must be caught
    inject("mobius", 4, 2, lambda mu, gap: -mu if gap == 1 else mu)
    mutated = analysis.verify_putcha_conjecture(renner.orbit(4, 2))
    report(5, "putcha-conjecture", not bad and not mutated.passed)


def test_criterion_06_linear_interval_criterion():
    bad = []
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for theta, sigma in comparable_pairs(n, k):
                witness = analysis.find_linear_length2(theta, sigma)
                r0 = rpoly.rpoly(theta, sigma).constant_term
                if (witness is None) != (r0 != 0):
                    bad.append((theta, sigma))
    report(6, "linear-interval-criterion", not bad, f" {bad[:3]}")


def test_criterion_07_delta_identity():
    bad = []
    checked = 0
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for theta, sigma in same_orbit_pairs(n, k):
                checked += 1
                if not rpoly.verify_delta_identity(theta, sigma):
                    bad.append((theta, sigma))
    report(7, "delta-identity", not bad, f" ({checked} pairs)")


def test_criterion_08_hecke_oracle():
    bad = []
    for n in (2, 3):
        for k in range(n + 1):
            result = verify.hecke_oracle_report(n, k)
            bad.extend(result.violations)
    report(8, "hecke-oracle", not bad, f" {bad[:2]}")


def test_criterion_09_lifting_and_descents():
    bad = []
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            lifting = analysis.lifting_violations(n, k)
            bad.extend(lifting.violations)
            descent = analysis.check_nonempty_descent(renner.orbit(n, k))
            bad.extend(descent.violations)
    report(9, "lifting-and-descents", not bad, f" {bad[:3]}")


def test_criterion_10_specialization_to_weyl():
    bad = []
    for n in (1, 2, 3, 4):
        perms = weyl.all_permutations(n)
        for w in perms:
            if renner.length(w) != weyl.length(w):
                bad.append(("length", w))
        for u, v in itertools.product(perms, repeat=2):
            if order.leq(u, v) != weyl.bruhat_leq(u, v):
                bad.append(("order", u, v))
            if rpoly.rpoly(u, v) != weyl.classical_rpoly(u, v):
                bad.append(("rpoly", u, v))
    report(10, "identity-orbit-specialization", not bad, f" {bad[:3]}")


def test_criterion_11_coset_factorization():
    bad = []
    for n in (1, 2, 3):
        bad.extend(coset_factorization_violations(n))
    report(11, "coset-factorization", not bad, f" {bad[:3]}")
