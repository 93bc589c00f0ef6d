import os
import sys

import pytest
from hypothesis import settings

from rookorder import hecke, order, rpoly, verify

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
    """corrupt(table, n, k, change): from then on, every packed table
    named ``table`` that ``rpoly._fill``, the one fill of the orbit
    tables, fills for the rank-k orbit of R_n goes through
    change(packing, columns), in place, as it is built; columns holds
    one column per sigma.  A table is named by the kind of its fill:
    "R" and "R'" are filled from the minimum, and the Hecke tables "H"
    and "Bar", of kinds R' and R, from the base columns ``bases``.
    "R": the fill of the orbit's one R table (``rpoly.orbit_table``),
    which the delta and Hecke reports both read, so a fault of R is
    applied once and reaches both.  "R'": each fill of R': the one fill
    of the orbit's certificate (``hecke.certificate``), whose verdict
    both reports and whose base columns the Hecke report read, the fill
    of the delta report's fallback (``verify._delta_identity``), whose
    product reads it, and the fill of the per-pair delta product
    (``rpoly.delta_rows``).  "H" and "Bar": the fill of the full Hecke
    tables (``hecke.orbit_bars(n, k)``), which only the Hecke report's
    fallback, and the Laurent path, read; its clean path compares the
    base columns of ``hecke.base_columns``, which no fill fills, so a
    test of these faults runs the report under ``fallback`` or
    ``full_sums``.  A sweep that starts at another rank drops the
    orbit's tables and builds them again, and these carry the fault too.
    A test fails if a fault it installed never changed a table: with the
    R table resident, a fault of R installed after its fill would
    otherwise pass unseen."""
    names = {("R", False): "R", ("R'", False): "R'", ("R'", True): "H", ("R", True): "Bar"}
    installed = []

    def corrupt(table, n, k, change):
        fill, ran = rpoly._fill, []
        installed.append(((table, n, k), ran))

        def corrupted(m, j, kind, packing=None, bases=None):
            columns = fill(m, j, kind, packing, bases)
            if (m, j) == (n, k) and names.get((kind, bases is not None)) == table:
                before = [dict(column) for column in columns]
                change(packing, columns)
                ran.append(before != columns)
            return columns
        monkeypatch.setattr(rpoly, "_fill", corrupted)
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
                         rpoly._fill(n, k, "R'", rpoly.orbit_packing(n, k)))


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
    on the Hecke tables alone, so that a fault of H or Bar that
    ``corrupt_fill`` puts into the full Hecke fill, which its clean path
    never reads, reaches it."""
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
    while check runs: the base columns (``hecke.base_columns``) and the
    full Hecke tables (``hecke.orbit_bars``) are dropped before it and
    after it.  A fault that ``corrupt_fill`` puts into a Hecke fill is in
    the new tables too."""
    from oracles import full_bound_check

    def drop(n, k):
        for build in (hecke.base_columns, hecke.orbit_bars):
            order.kept.pop((build.__wrapped__, n, k), None)

    def run(check, n, k):
        with monkeypatch.context() as patch:
            patch.setattr(hecke, "_check_bounds", full_bound_check)
            drop(n, k)
            report = check(n, k)
            drop(n, k)
        return report.checked, report.violations
    return run
