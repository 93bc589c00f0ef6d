"""Tests of the benchmark's own arithmetic and bookkeeping.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

import cli_pool
import run
import spans
import speed
import summary

sys.path.insert(0, str(run.SRC))


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.mark.parametrize("count, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    # 100 samples leave exactly 10 beyond p90, which floating point
    # arithmetic (100 * 0.1 < 10) would get wrong
    assert summary.tail_percentile(count) == expected


def test_percentile_interpolates_between_ranks():
    data = list(range(1, 101))
    assert summary.percentile(data, 50) == pytest.approx(50.5)
    assert summary.percentile(data, 90) == pytest.approx(90.1)
    assert summary.percentile(reversed(data), 90) == pytest.approx(90.1)
    assert summary.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    tracer.open("a")           # a: 0..10, children b (2..5) and c (6..9)
    clock.now = 2.0
    tracer.open("b")
    clock.now = 5.0
    tracer.close()
    clock.now = 6.0
    tracer.open("c")
    clock.now = 9.0
    tracer.close()
    clock.now = 10.0
    tracer.close()
    assert tracer.self_s == {"a": 4.0, "b": 3.0, "c": 3.0}
    assert tracer.calls == {"a": 1, "b": 1, "c": 1}


def test_self_time_of_recursion_sums_to_the_outer_span():
    # rpoly(3) -> rpoly(2) -> rpoly(1), one time unit of own work each,
    # the way rpoly.rpoly and order.mobius_direct call themselves
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def recurse(depth):
        tracer.open("rpoly.rpoly")
        clock.now += 1.0
        if depth > 1:
            recurse(depth - 1)
        tracer.close()

    recurse(3)
    assert tracer.calls["rpoly.rpoly"] == 3
    assert tracer.self_s["rpoly.rpoly"] == 3.0  # not 3 + 2 + 1


def test_tagged_spans_split_self_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    for tag, cost in (("k2-2", 1.0), ("k2-2", 2.0), ("k1-3", 4.0)):
        tracer.open(spans.LEQ, tag)
        clock.now += cost
        tracer.close()
    trace = summary.merge_traces([tracer.snapshot()])
    values = summary.layer_metrics(trace, [
        "order.leq.calls", "order.leq.self_s", "order.leq.calls.k2-2",
        "order.leq.self_s.k2-2", "order.leq.self_s.k-cross",
        "order.leq.calls.k5-5"])
    assert values == {
        "order.leq.calls": 3, "order.leq.self_s": 7.0,
        "order.leq.calls.k2-2": 2, "order.leq.self_s.k2-2": 3.0,
        "order.leq.self_s.k-cross": 4.0, "order.leq.calls.k5-5": 0}


def test_merge_sums_counts_and_takes_largest_cache():
    one = {"calls": {"f": 2}, "self_s": {"f": 1.0}, "caches": {"f": [3, 1, 4]}}
    two = {"calls": {"f": 1}, "self_s": {"f": 0.5}, "caches": {"f": [0, 4, 2]}}
    trace = summary.merge_traces([one, two])
    values = summary.layer_metrics(
        trace, ["f.calls", "f.self_s", "f.hit_ratio", "f.cache_entries", "g.hit_ratio"])
    assert values == {"f.calls": 3, "f.self_s": 1.5, "f.hit_ratio": 3 / 8,
                      "f.cache_entries": 4, "g.hit_ratio": 0.0}


def test_failed_frac_accounting():
    outcome = run.Outcome()
    outcome.record(None)
    outcome.record("missed the deadline", wrong=False)
    outcome.record("stdout differs")
    outcome.record(None)
    assert (outcome.attempted, outcome.failed) == (4, 2)
    assert outcome.wrong == ["stdout differs"]
    assert summary.failed_frac(outcome.attempted, outcome.failed) == 0.5
    with pytest.raises(ValueError):
        summary.failed_frac(0, 0)
    with pytest.raises(ValueError):
        summary.failed_frac(2, 3)


def test_query_check_catches_each_kind_of_failure():
    import rookorder
    text = b"0012 <= 0023: true\n0023 <= 0012: false\n"
    entry = {"argv": ["order", "0012", "0023"], "rc": 0,
             "sha256": hashlib.sha256(text).hexdigest()}
    assert run.check_query(entry, 0, text, rookorder) is None
    assert "deadline" in run.check_query(entry, None, b"", rookorder)
    assert "exit code" in run.check_query(entry, 2, text, rookorder)
    assert "differs" in run.check_query(entry, 0, text + b"\n", rookorder)
    # a recorded answer that contradicts the rank-matrix test is caught too
    wrong = b"0012 <= 0023: false\n0023 <= 0012: false\n"
    entry["sha256"] = hashlib.sha256(wrong).hexdigest()
    assert "dominance_leq" in run.check_query(entry, 0, wrong, rookorder)
    mismatch = b"mu = 1\nR(0) = 0\n"
    entry = {"argv": ["mobius", "0012", "0023"], "rc": 0,
             "sha256": hashlib.sha256(mismatch).hexdigest()}
    assert "differ" in run.check_query(entry, 0, mismatch, rookorder)


def test_install_sees_recursion_and_is_undone():
    from rookorder import rpoly
    original = rpoly.rpoly
    original.cache_clear()
    tracer = spans.Tracer()
    installation = spans.install(tracer)
    try:
        rpoly.rpoly((0, 0, 1, 2), (0, 0, 2, 3))
    finally:
        installation.remove()
    assert rpoly.rpoly is original
    assert tracer.calls["rpoly.rpoly"] > 1
    assert tracer.calls["order.leq"] >= 1
    hits, misses, _ = installation.cache_stats()["rpoly.rpoly"]
    assert misses == tracer.calls["rpoly.rpoly"] - hits


def test_query_stream_deals_every_pool_entry_before_repeating():
    pool = {name: [{"argv": [name, str(i)]} for i in range(12)]
            for name in cli_pool.STRATA}
    stream = cli_pool.QueryStream(pool, seed=5)
    dealt = [q["argv"][1] for q in stream.next_round()[:cli_pool.TRACED]
             if q["argv"][0] == "order-n8"]
    assert sorted(dealt, key=int) == [str(i) for i in range(12)]
    again = cli_pool.QueryStream(pool, seed=5)
    assert again.next_round() == cli_pool.QueryStream(pool, seed=5).next_round()


def test_benchmark_json_matches_the_code():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(cli_pool.ROUND) == set(cli_pool.STRATA) == set(cli_pool.load_pool())
    assert set(cli_pool.ROUND[:cli_pool.TRACED]) == set(cli_pool.STRATA)
    assert summary.tail_percentile(len(cli_pool.ROUND)) == 90


def test_pinned_totals():
    assert sum(run.PINNED_CHECKED["verify-sweep"].values()) == 74186
    assert sum(run.PINNED_CHECKED["hecke-oracle"].values()) == 55642


def test_rescale_scales_each_stretch_by_its_kernel_time():
    ref = speed.REFERENCE_KERNEL_S
    # samples end at t = 1 and t = 2; the second ran at half speed
    samples = [(1.0, ref), (2.0, 2 * ref)]
    raw, norm = speed.rescale(samples, 0.0, 3.0, window=1)
    assert raw == pytest.approx(3 - 3 * ref)
    # 0..1 at full speed, 1..2 and the tail after the last sample at half
    assert norm == pytest.approx((1 - ref) + (1 - 2 * ref) / 2 + 1 / 2)
    with pytest.raises(ValueError):
        speed.rescale(samples, 2.5, 3.0)


def test_rescale_window_damps_one_slow_sample():
    ref = speed.REFERENCE_KERNEL_S
    samples = [(t, 5 * ref if t == 3.0 else ref) for t in (1.0, 2.0, 3.0, 4.0, 5.0)]
    raw, damped = speed.rescale(samples, 0.0, 5.0, window=3)
    assert damped == pytest.approx(raw) == pytest.approx(5 - 9 * ref)
    _, undamped = speed.rescale(samples, 0.0, 5.0, window=1)
    assert undamped < damped
