import os
import sys

import pytest
from hypothesis import settings

from rookorder import order, rpoly

sys.path.insert(0, os.path.dirname(__file__))

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
def corrupt_fill(monkeypatch, fresh_orbits):
    """corrupt(module, n, k, change): from then on, the packed tables
    that ``module._fill`` (of ``rpoly`` or ``hecke``) fills for the
    rank-k orbit of R_n go through change(packing, rows, other_rows),
    in place, as they are built.  A sweep that starts at another rank
    drops the orbit's tables and builds them again, and these carry the
    fault too."""
    def corrupt(module, n, k, change):
        fill = module._fill

        def corrupted(*args):
            tables = fill(*args)
            if args[:2] == (n, k) and len(tables) == 2:  # packed, not bounds
                change(args[-1], *tables)
            return tables
        monkeypatch.setattr(module, "_fill", corrupted)
    return corrupt


@pytest.fixture
def corrupt_mobius(monkeypatch):
    """corrupt(poset, change): every Mobius row that ``order.mobius_row``
    fills from then on, which must be a row of ``poset``, reads
    change(mu, length gap) in place of mu, both in the row sweeps and in
    ``IntervalPoset.mobius``.  The memo of ``poset`` starts empty and is
    put back afterwards."""
    original = order.mobius_row

    def corrupt(poset, change):
        def corrupted(bottom, up, down):
            row, out = original(bottom, up, down), {}
            for t in order.bits(up):
                mu = change(order.mobius_at(row, t),
                            poset.lengths[t] - poset.lengths[bottom])
                if mu:
                    out[mu] = out.get(mu, 0) | (1 << t)
            return out
        monkeypatch.setattr(order, "mobius_row", corrupted)
        monkeypatch.setattr(poset, "_mobius", {})
    return corrupt


@pytest.fixture
def count_sums(monkeypatch):
    """The left rows that ``rpoly.triple_sums`` is called on from then on,
    in call order."""
    calls, triple_sums = [], rpoly.triple_sums
    monkeypatch.setattr(rpoly, "triple_sums",
                        lambda left, rows: calls.append(left) or triple_sums(left, rows))
    return calls


@pytest.fixture
def full_sums(monkeypatch):
    """full_sums(check, n, k): (checked, violations) of the report
    check(n, k) with every sigma summed, as under an ``order.orbit_star``
    that is the identity, which the patch is only while check runs."""
    def run(check, n, k):
        with monkeypatch.context() as patch:
            patch.setattr(order, "orbit_star",
                          lambda n, k: tuple(range(len(order.orbit_poset(n, k).elements))))
            report = check(n, k)
        return report.checked, report.violations
    return run
