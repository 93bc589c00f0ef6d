import os
import sys

import pytest
from hypothesis import settings

from rookorder import order

sys.path.insert(0, os.path.dirname(__file__))

# Every property test draws the same examples on every run and keeps no
# example database; each test sets its own max_examples.
settings.register_profile("rookorder", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("rookorder")


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
