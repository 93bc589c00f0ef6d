import contextlib
import os
import sys

import pytest
from hypothesis import settings

from rookorder import hecke, order, rpoly

sys.path.insert(0, os.path.dirname(__file__))

import faults

# Every property test draws the same examples on every run and keeps no
# example database; each test sets its own max_examples.
settings.register_profile("rookorder", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("rookorder")


@pytest.fixture
def fresh_orbits():
    """No orbit resident before the test or after it, so the tables a
    test builds under a patch are built within it and dropped with it."""
    order.orbit_poset.cache_clear()
    yield
    order.orbit_poset.cache_clear()


@pytest.fixture
def inject(fresh_orbits):
    """inject(target, n, k, change): ``faults.inject``, held to the end
    of the test."""
    with contextlib.ExitStack() as held:
        yield lambda *fault: held.enter_context(faults.inject(*fault))


@pytest.fixture
def delta_tables():
    """delta_tables(n, k): the packed columns of R and R' of the rank-k
    orbit of R_n that the delta report reads, R' filled alone."""
    return lambda n, k: (rpoly.orbit_table(n, k),
                         rpoly._fill(n, k, "R'", rpoly.orbit_packing(n, k)))


@pytest.fixture
def count_sums(monkeypatch):
    """The left rows that ``rpoly.triple_sums`` is called on from then on,
    in call order."""
    calls, triple_sums = [], rpoly.triple_sums
    monkeypatch.setattr(rpoly, "triple_sums",
                        lambda left, rows: calls.append(left) or triple_sums(left, rows))
    return calls


@pytest.fixture
def drop_product():
    """drop(n, k): the R table of the rank-k orbit of R_n, its
    certificate, its delta product and the per-pair reader's entry
    dropped, now and after the test, so that the next check fills and
    sums afresh."""
    orbits = []

    def pop(n, k):
        for key in ((rpoly.delta_rows.__wrapped__, n, k), (hecke.certificate.__wrapped__, n, k),
                    (rpoly.orbit_table.__wrapped__, n, k), rpoly.verify_delta_identity):
            order.kept.pop(key, None)

    def drop(n, k):
        orbits.append((n, k))
        pop(n, k)
    yield drop
    for n, k in orbits:
        pop(n, k)
