"""The query pool of the ``cli-queries`` workload.

A run does rounds of the 101 slots of ``ROUND``.  Each slot names a
stratum (command, n, orbit ranks), and the run's ``QueryStream`` deals
one recorded query of that stratum.  Strata fix the mix of commands and
sizes, so that every seed sends the same share of cheap, middling and
whole-orbit queries and the percentiles land on the same kind of query:
p50 on the light queries, whose time is interpreter start and import
(0.1-0.2 s on the recording machine: 2 cores, Python 3.11), p90 among
the ``order`` queries at n = 8, whose time is the ``order.leq`` witness
loop over W(f) W_e (0.25-0.35 s).  Above those sit ``rpoly`` at n = 4,
k = 3 and n = 6, k = 1 (0.3-1.1 s) and at n = 5, k = 2 (3 s), whose time
is ``analysis.linear_length2_pairs`` scanning the whole orbit.

The mix is chosen, not measured from any use: the slots per stratum and
the ranks each stratum draws from were set by hand so that the
percentiles stay steady from seed to seed and a round fits in a 30 s
run.  Seeded uniform draws over command, n and rank would put about one
query in six on ranks that take a second or more, some of them past the
8 s deadline.  Ranks left out, with the time one query took on the idle
recording machine (two random queries per rank):

* ranks whose queries miss or near the deadline, so a query would fail:
  ``order`` n = 8 on the same orbit at k = 1 (over 10 s) and across
  orbits (several over 10 s); ``order`` n = 7 across orbits (up to 6 s);
  ``rpoly`` n = 5, k = 3, 4 (over 10 s) and k = 5 (6-9 s, the full-rank
  whole-orbit scan); ``rpoly`` n = 6, k >= 2 (over 10 s); ``mobius``
  n = 6, k = 4 (one query over 10 s);
* ranks of 0.5-4 s, left out to keep a round short: ``order`` n = 7,
  k = 1 and n = 8, k = 2, 8 (0.9-1.3 s); ``mobius`` n = 6, k = 2 (up to
  0.8 s); ``hasse`` n = 6, k = 3 (0.6-1.1 s) and k = 4-6 (2-4 s);
* cheap ranks (under 0.3 s), left out by choice: ``order`` k = 0 and
  k = n for n = 4-6, n = 7 at k = 0, 6, 7 and n = 8 at k = 0, 3-6;
  ``mobius`` n = 5 at k = 0, 3-5 and n = 6 at k = 0, 3, 5, 6; ``hasse``
  k = 0, 4 at n = 4, k = 0, 4, 5 at n = 5 and k = 0 at n = 6; ``rpoly``
  k = 0, 2, 4 at n = 4, k = 0 at n = 5 and n = 6.

The pool file holds each query's exit code and the SHA-256 of its stdout
as recorded by ``record_golden.py``; a run requires the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

POOL_FILE = Path(__file__).with_name("cli_golden.json")
POOL_SEED = 20240801
PER_STRATUM = 12

# name: (command, n, ranks of theta, same orbit for the pair)
STRATA = {
    "descents-n4": ("descents", 4, range(0, 5), None),
    "descents-n5": ("descents", 5, range(0, 6), None),
    "descents-n6": ("descents", 6, range(0, 7), None),
    "descents-n7": ("descents", 7, range(0, 8), None),
    "descents-n8": ("descents", 8, range(0, 9), None),
    "order-n4": ("order", 4, range(1, 4), False),
    "order-n5": ("order", 5, range(1, 5), False),
    "order-n6": ("order", 6, range(1, 6), False),
    "order-n7": ("order", 7, range(2, 6), True),
    "order-n8": ("order", 8, range(7, 8), True),
    "mobius-n4": ("mobius", 4, range(0, 5), True),
    "mobius-n5": ("mobius", 5, range(1, 3), True),
    "mobius-n6": ("mobius", 6, range(1, 2), True),
    "hasse-n4": ("hasse", 4, range(1, 4), True),
    "hasse-n5": ("hasse", 5, range(1, 4), True),
    "hasse-n6": ("hasse", 6, range(1, 3), True),
    "rpoly-n4-k1": ("rpoly", 4, range(1, 2), True),
    "rpoly-n4-k3": ("rpoly", 4, range(3, 4), True),
    "rpoly-n5-k1": ("rpoly", 5, range(1, 2), True),
    "rpoly-n6-k1": ("rpoly", 6, range(1, 2), True),
    "rpoly-n5-k2": ("rpoly", 5, range(2, 3), True),
}

# 37 light queries and every ``order`` query at n = 8 of the pool.
_HALF = (
    ["descents-n4", "descents-n5", "descents-n6", "descents-n7", "descents-n8"] * 2
    + ["order-n4", "order-n5", "order-n6", "order-n7"] * 2
    + ["mobius-n4", "mobius-n5", "hasse-n4", "hasse-n5"] * 3
    + ["rpoly-n4-k1", "rpoly-n5-k1", "hasse-n6"] * 2 + ["mobius-n6"]
    + ["order-n8"] * 12
)
# The whole-orbit scans, once a round.  p90 of a round falls among the 24
# ``order`` queries at n = 8 (the 10 queries beyond it are these 3 and
# light ones with a long tail).  With 6 scans and 12 of those queries a
# run, p90 moved 7-9% from seed to seed; with 3 and 24, 4%.
_SCANS = ["rpoly-n4-k3", "rpoly-n6-k1", "rpoly-n5-k2"]
# 101 queries, enough to leave p90 10 samples beyond it.  The first
# ``TRACED`` hold every stratum; the traced run sends only those.
ROUND = _HALF + _SCANS + _HALF
TRACED = len(_HALF) + len(_SCANS)

# ROADMAP's known hang cases: bounded by a deadline and reported by
# name, outside the timed rounds.
HANG_CASES = (
    ("order", "87654321", "00000000"),
    ("rpoly", "123456", "654321"),
    ("mobius", "123456", "654321"),
)


def load_pool() -> dict[str, list[dict]]:
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)["strata"]


class QueryStream:
    """Rounds of queries drawn with a seeded generator.  Each stratum deals
    from its own shuffled deck of pool entries and reshuffles when the deck
    runs out, so a run covers a stratum's pool evenly rather than by
    chance; a round uses every entry of a stratum with 12 or 24 slots."""

    def __init__(self, pool: dict[str, list[dict]], seed: int):
        self._pool = pool
        self._rng = random.Random(seed)
        self._decks: dict[str, list[dict]] = {}

    def _deal(self, stratum: str) -> dict:
        deck = self._decks.get(stratum)
        if not deck:
            deck = list(self._pool[stratum])
            self._rng.shuffle(deck)
            self._decks[stratum] = deck
        return deck.pop()

    def next_round(self) -> list[dict]:
        """One pool entry per slot of ``ROUND``."""
        return [self._deal(stratum) for stratum in ROUND]


def make_pool_argv(rookorder) -> dict[str, list[list[str]]]:
    """Draw ``PER_STRATUM`` distinct queries per stratum from the library's
    orbits; pairs for interval commands are comparable (by the rank-matrix
    test), so every query is expected to exit 0."""
    renner, order = rookorder.renner, rookorder.order
    rng = random.Random(POOL_SEED)
    fmt = renner.format_element
    pool = {}
    for name, (command, n, ranks, same_orbit) in STRATA.items():
        seen: list[list[str]] = []
        while len(seen) < PER_STRATUM:
            k = rng.choice(ranks)
            theta = rng.choice(renner.orbit(n, k))
            if command == "descents":
                argv = [command, fmt(theta)]
            elif not same_orbit:
                sigma = rng.choice(renner.orbit(n, rng.choice(ranks)))
                argv = [command, fmt(theta), fmt(sigma)]
            else:
                sigma = rng.choice(renner.orbit(n, k))
                if command != "order" and not order.dominance_leq(theta, sigma):
                    theta, sigma = sigma, theta
                    if not order.dominance_leq(theta, sigma):
                        continue
                argv = [command, fmt(theta), fmt(sigma)]
            if argv not in seen:
                seen.append(argv)
        pool[name] = seen
    return pool
