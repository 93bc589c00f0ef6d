import os
import sys

import pytest
from hypothesis import settings

from rookorder import hecke, order, rpoly, verify
from rookorder.polynomials import Kronecker

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
    rank-k orbit of R_n go through change(packing, table, other_table),
    in place, as they are built; every such table is a list of columns,
    one per sigma.  Each fill fills one table, and change gets it and
    None for the other.  ``rpoly``: R and None on the fill of the
    orbit's one R table (``rpoly.orbit_table``), which the delta and
    Hecke reports both read, so a fault of R is applied once and reaches
    both; None and R' on each fill of R': the one fill of the orbit's
    certificate (``hecke.certificate``), whose verdict both reports and
    whose base columns the Hecke report read, the fill of the delta
    report's fallback (``verify._delta_identity``), whose product reads
    it, and the fill of the per-pair delta product
    (``rpoly.delta_rows``).  ``hecke``: the Hecke columns and None, and
    None and the barred columns, on each of its two pairs of fills:
    every column (``hecke.orbit_bars(n, k)``), which only the Hecke
    report's fallback, and the Laurent path, read; and the columns of
    the Hecke bases, None elsewhere (``hecke.orbit_bars(n, k, False)``),
    which its clean path reads.  A fault of a Hecke column off the bases
    reaches the first alone: a test of it runs the report under
    ``fallback`` or ``full_sums``.  A sweep that starts at another rank
    drops the orbit's tables and builds them again, and these carry the
    fault too.  A test fails if a fault it installed never changed a
    table: with the R table resident, a fault of R installed after its
    fill would otherwise pass unseen."""
    installed = []

    def corrupt(module, n, k, change):
        fill, ran = module._fill, []
        installed.append(((module.__name__, n, k), ran))

        def corrupted(*args, **kwargs):
            tables = fill(*args, **kwargs)
            packing = next((arg for arg in args if isinstance(arg, Kronecker)), None)
            if args[:2] == (n, k) and packing is not None:  # packed, not bounds
                given = (None, tables) if kwargs.get("barred") else (tables, None)
                before = [table and [column and dict(column) for column in table]
                          for table in given]
                change(packing, *given)
                ran.append(before != list(given))
            return tables
        monkeypatch.setattr(module, "_fill", corrupted)
    yield corrupt
    missed = [fault for fault, ran in installed if not any(ran)]
    if missed:
        pytest.fail(f"faults that never changed a table: {missed}")


@pytest.fixture
def delta_tables():
    """delta_tables(n, k): the columns of R and R' of the rank-k orbit of
    R_n, packed, that the delta report and ``rpoly.delta_rows`` read: the
    orbit's R table and R' filled alone, through ``rpoly._fill``, so
    that a ``corrupt_fill`` fault reaches both."""
    return lambda n, k: (rpoly.orbit_table(n, k),
                         rpoly._fill(n, k, rpoly.orbit_packing(n, k), barred=True))


@pytest.fixture
def corrupt_mobius(monkeypatch):
    """corrupt(poset, change): every Mobius row that ``order.mobius_row``
    fills from then on, which must be a row of ``poset``, reads
    change(mu, length gap) in place of mu, both in the row sweeps and in
    ``IntervalPoset.mobius``, which keeps no row."""
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
def drop_product():
    """drop(n, k): the delta product that the rank-k orbit of R_n keeps
    for the per-pair reader (``rpoly.delta_rows``), the reader's
    reference to it, the orbit's certificate (``hecke.certificate``) and
    the R table that both read (``rpoly.orbit_table``), no longer
    resident, now and again after the test.  The next check then fills R
    again and certifies or sums afresh, from the tables as they are by
    then: call it before a check that counts sums or follows a fault
    installed after R was filled."""
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


@pytest.fixture
def full_sums(monkeypatch, drop_product):
    """full_sums(check, n, k): (checked, violations) of the report
    check(n, k) with every sigma summed, as with the local certificate
    (``hecke.certify``) refusing every pair of tables.  That turns off
    the orbit's shared certificate (``hecke.certificate``), which is
    dropped and made again under the patch: the delta report then sums
    its product, and the Hecke report takes its fallback, which reads
    every Hecke column (``hecke.orbit_bars(n, k)``) and sums every row.
    The patch holds only while check runs.  The R table and the
    certificate are made afresh under it and dropped after it."""
    def run(check, n, k):
        with monkeypatch.context() as patch:
            patch.setattr(hecke, "certify", lambda *args: False)
            drop_product(n, k)
            report = check(n, k)
            drop_product(n, k)
        return report.checked, report.violations
    return run


@pytest.fixture
def fallback(monkeypatch):
    """The Hecke report takes its fallback on every orbit, as where the
    columns of its bases differ from those of R' or R: it reads every
    Hecke column (``hecke.orbit_bars(n, k)``) and certifies bar o bar
    on the Hecke tables alone, so that a fault of a Hecke column off the
    bases, which its clean path never reads, reaches it."""
    monkeypatch.setattr(verify, "_bases_agree", lambda *args: False)


@pytest.fixture
def delta_fallback(monkeypatch):
    """The delta report takes its fallback on every orbit, as where the
    certificate refuses R' and R: ``hecke.certify`` refuses every pair
    of tables, and every kept certificate (``hecke.certificate``) is
    dropped with the R table it read, so that the report fills R' again
    and sums its product (``rpoly.product_rows``), every sigma, as a
    sum-counting test expects.  The Hecke report, which a test of the
    delta report does not run, would take its summed path too."""
    monkeypatch.setattr(hecke, "certify", lambda *args: False)
    builds = hecke.certificate.__wrapped__, rpoly.orbit_table.__wrapped__
    for key in [key for key in order.kept if isinstance(key, tuple) and key[0] in builds]:
        del order.kept[key]


@pytest.fixture
def full_bounds(monkeypatch):
    """full_bounds(check, n, k): (checked, violations) of the report
    check(n, k) with the Hecke tables of the orbit built afresh under the
    oracle's full bound fill (``oracles.full_bound_check``) in place of
    the base check of ``hecke._check_bounds``, which the patch is only
    while check runs; they are dropped after it.  A fault that
    ``corrupt_fill`` puts into a Hecke fill is in the new tables too."""
    from oracles import full_bound_check

    def drop(n, k):
        for key in ((n, k), (n, k, False)):
            order.kept.pop((hecke.orbit_bars.__wrapped__, *key), None)

    def run(check, n, k):
        with monkeypatch.context() as patch:
            patch.setattr(hecke, "_check_bounds", full_bound_check)
            drop(n, k)
            report = check(n, k)
            drop(n, k)
        return report.checked, report.violations
    return run
