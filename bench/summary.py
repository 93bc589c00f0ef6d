"""The benchmark's arithmetic: percentiles, failure accounting and the
per-layer metrics built from span totals."""

from __future__ import annotations

import statistics

# Percentiles in tenths of a percent, so that "10 samples beyond" is
# decided in integers (100 * (1 - 0.9) is 9.999... in floating point).
_CANDIDATE_PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10

# Per-layer names that are not a (module, function, statistic) triple.
CROSS_ORBIT = "k-cross"
OVERHEAD = "trace.overhead_s"


def tail_percentile(count: int) -> float | None:
    """The highest of p50, p90, p99 and p99.9 that has at least
    ``MIN_BEYOND`` of ``count`` samples above it, or None."""
    best = None
    for permille in _CANDIDATE_PERMILLE:
        if count * (1000 - permille) >= MIN_BEYOND * 1000:
            best = permille / 10
    return best


def percentile(values, p: float) -> float:
    """The p-th percentile by linear interpolation between closest ranks
    (``statistics.quantiles`` with the inclusive method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if len(data) == 1:
        return data[0]
    if not 0 < p < 100:
        raise ValueError(f"percentile {p} outside (0, 100)")
    cuts = statistics.quantiles(data, n=1000, method="inclusive")
    return cuts[round(p * 10) - 1]


def failed_frac(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones; a run attempts at least one."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def merge_traces(traces: list[dict]) -> dict:
    """Sum the span totals of several processes; cache sizes take the
    maximum, because each process starts with empty caches."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    caches: dict[str, list[int]] = {}
    for trace in traces:
        for name, n in trace["calls"].items():
            calls[name] = calls.get(name, 0) + n
        for name, s in trace["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, (hits, misses, size) in trace["caches"].items():
            h, m, z = caches.get(name, (0, 0, 0))
            caches[name] = [h + hits, m + misses, max(z, size)]
    return {"calls": calls, "self_s": self_s, "caches": caches}


def _tagged(totals: dict, base: str, tag: str | None, zero):
    if tag is None:
        return totals.get(base, zero)
    if tag != CROSS_ORBIT:
        return totals.get(f"{base}@{tag}", zero)
    # every rank pair (ke, kf) with ke != kf
    prefix = f"{base}@k"
    total = zero
    for key, value in totals.items():
        if key.startswith(prefix):
            ke, kf = key[len(prefix):].split("-")
            if ke != kf:
                total += value
    return total


def layer_metrics(trace: dict, names) -> dict[str, float]:
    """Values for per-layer metric names of the form
    ``<module>.<function>.<stat>``, or ``<module>.<function>.<stat>.<tag>``
    for spans split by a tag such as the rank pair ``k2-2`` of
    ``order.leq``; a function that never ran reads 0."""
    values = {}
    for metric in names:
        base, stat, tag = split_metric(metric)
        if stat == "calls":
            values[metric] = _tagged(trace["calls"], base, tag, 0)
        elif stat == "self_s":
            values[metric] = _tagged(trace["self_s"], base, tag, 0.0)
        elif stat in ("hit_ratio", "cache_entries"):
            hits, misses, size = trace["caches"].get(base, (0, 0, 0))
            if stat == "cache_entries":
                values[metric] = size
            else:
                values[metric] = hits / (hits + misses) if hits + misses else 0.0
        else:
            raise ValueError(f"unknown statistic in {metric!r}")
    return values


def split_metric(metric: str) -> tuple[str, str, str | None]:
    """(function, statistic, tag) of a per-layer metric name."""
    parts = metric.split(".")
    if parts[-1].startswith("k") and "-" in parts[-1]:
        return ".".join(parts[:-2]), parts[-2], parts[-1]
    return ".".join(parts[:-1]), parts[-1], None
