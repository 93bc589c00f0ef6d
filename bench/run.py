"""Benchmark of rookorder: exhaustive sweeps, the Hecke oracle and cold
CLI queries, end to end and layer by layer.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it runs the library from
``src/`` with nothing to build.  Every unit of work runs in a fresh
interpreter, because the library's ``lru_cache`` memos are process-wide
and unbounded.

Workloads:

* ``verify-sweep``: the ``rookorder verify`` checks (Putcha, lifting,
  non-empty descents, the delta identity on all pairs) over every orbit
  of R_4, then Putcha, lifting and descents on the rank-2 orbit of R_5.
* ``hecke-oracle``: ``verify.hecke_oracle_report`` on every orbit of R_4
  and on the rank-2 orbit of R_5.
* ``cli-queries``: a closed loop with one client sending single
  ``python -m rookorder`` queries, drawn by the seed from a recorded pool
  (``cli_pool.py``), each under a deadline.  The known hang cases run
  afterwards under the same deadline and are reported by name.

A unit of work is one sweep, or one round of 101 queries; an operation
whose latency counts is one sweep, or one query.  With ``--trace 0`` the
last line holds the end-to-end metrics:

* ``setup_s``: median of 7 fresh interpreters' time to import rookorder
  and, for the sweeps, enumerate their orbits (for ``cli-queries``: the
  import each query pays);
* ``wall_s``: median time of a unit of work;
* ``checks_per_s``: passed checks (``Report.checked``; one per query)
  per second of work;
* ``latency_p50_ms``, ``latency_p90_ms``: percentiles of operation
  latency (at least 100 queries, so p90 has 10 samples beyond it; the
  sweeps give only 3 to 5);
* ``peak_rss_mb``: the largest peak RSS of any child process.

Every time metric is in reference-normalised units (``speed.py``): the
time measured, times a fixed reference time over the time a reference
task took next to the work, so that a change in the machine's speed
cancels out.  They are not wall-clock times: on the idle 2-core machine
the benchmark was tuned on, sweep figures read about 15% above the raw
time and query figures about 30% below it.  The raw value of each time
metric is printed next to it.  With ``--trace 1`` the last line holds the
per-layer metrics from ``spans.py`` and the tracing overhead.  Lines
before it give provenance, failures, the hang cases and every metric
with its unit.

``--seconds`` bounds the timed loop: it runs units of work while the
next one is expected to end in time, and at least the minimum each
workload needs (3 sweeps, or 1 round of queries).  The set-up
measurement before the loop (about 3 s) and, for ``cli-queries``, the
hang-case probe after it (8 s) come on top.

``attempted`` counts sweep tasks (one per report) or queries.  A failure
is a report with violations or with a ``checked`` count other than the
recorded one, a query whose exit code or stdout differs from the
recording, an ``order`` answer that disagrees with
``order.dominance_leq``, a ``mobius``/``rpoly`` answer with mu != R(0),
or a missed deadline.  The hang cases are reported apart from these.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import cli_pool
import spans
import speed
import summary

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("verify-sweep", "hecke-oracle", "cli-queries")
SETUP_REPEATS = 7
MIN_SWEEPS = 3
QUERY_DEADLINE_S = 8.0
WORKER_TIMEOUT_S = 150.0

# Report.checked of every task, recorded at the seed commit.
PINNED_CHECKED = {
    "verify-sweep": {
        "putcha n=4 k=0": 1, "lifting n=4 k=0": 0,
        "nonempty-descent n=4 k=0": 1, "delta n=4 k=0": 1,
        "putcha n=4 k=1": 100, "lifting n=4 k=1": 252,
        "nonempty-descent n=4 k=1": 16, "delta n=4 k=1": 256,
        "putcha n=4 k=2": 1375, "lifting n=4 k=2": 3909,
        "nonempty-descent n=4 k=2": 72, "delta n=4 k=2": 5184,
        "putcha n=4 k=3": 2335, "lifting n=4 k=3": 6717,
        "nonempty-descent n=4 k=3": 96, "delta n=4 k=3": 9216,
        "putcha n=4 k=4": 213, "lifting n=4 k=4": 567,
        "nonempty-descent n=4 k=4": 24, "delta n=4 k=4": 576,
        "putcha n=5 k=2": 8775, "lifting n=5 k=2": 34300,
        "nonempty-descent n=5 k=2": 200,
    },
    "hecke-oracle": {
        "hecke n=4 k=0": 2, "hecke n=4 k=1": 272, "hecke n=4 k=2": 5256,
        "hecke n=4 k=3": 9312, "hecke n=4 k=4": 600, "hecke n=5 k=2": 40200,
    },
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

_CACHED = ("weyl.classical_rpoly", "weyl.reduced_word", "renner.standard_form",
           "renner.length", "order.leq", "order.interval_elements",
           "order.mobius_direct", "rpoly.rpoly")
_LEQ_TAGS = tuple(f"k{k}-{k}" for k in range(9)) + (summary.CROSS_ORBIT,)


def per_layer_names() -> list[str]:
    names = []
    for module, attr, kind in spans.LAYERS:
        base = f"{module}.{attr}"
        names.append(f"{base}.calls")
        if kind == spans.SPAN:
            names.append(f"{base}.self_s")
        if base in _CACHED:
            names += [f"{base}.hit_ratio", f"{base}.cache_entries"]
    for stat in ("calls", "self_s"):
        names += [f"{spans.LEQ}.{stat}.{tag}" for tag in _LEQ_TAGS]
    names.append(summary.OVERHEAD)
    return names


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(spec: dict) -> tuple[dict, float]:
    """Run ``worker.py`` in a fresh interpreter; return its result and the
    parent's clock reading just before the process was started."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1]), start


@contextlib.contextmanager
def pinned():
    """Keep this process, and the children it starts, on one processor,
    so that the reference starts timed between children ran on the
    processor the children ran on."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class StartClock:
    """Times child processes and rescales each by the mean of the empty
    interpreter starts timed just before and just after it; consecutive
    children share the start timed between them."""

    def __init__(self):
        self._last = speed.interpreter_start(_env())

    def rescale(self, raw_s: float) -> float:
        before, self._last = self._last, speed.interpreter_start(_env())
        return speed.rescale_by_start(raw_s, (before + self._last) / 2)


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """(raw, rescaled) fresh-interpreter set-up times.  A first unmeasured
    start fills the bytecode cache, as an installed package has it."""
    run_worker({"workload": workload, "mode": "setup"})
    times = []
    with pinned():
        clock = StartClock()
        for _ in range(SETUP_REPEATS):
            result, start = run_worker({"workload": workload, "mode": "setup"})
            raw = result["ready_at"] - start
            times.append((raw, clock.rescale(raw)))
    return times


def run_query(argv: list[str], deadline_s: float) -> dict:
    """One ``python -m rookorder`` invocation under a deadline."""
    cmd = [sys.executable, "-m", "rookorder", *argv]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"rc": None, "stdout": b"", "s": time.perf_counter() - start}
    return {"rc": proc.returncode, "stdout": out, "s": time.perf_counter() - start}


_ORDER_LINE = re.compile(r"^(\S+) <= (\S+): (true|false)$")
_FIELD_LINE = re.compile(r"^(R\(0\)|mu) = (-?\d+)$")


def check_query(entry: dict, rc, stdout: bytes, rookorder) -> str | None:
    """Why a query's result is wrong, or None.  The recorded exit code and
    stdout bytes must match; ``order`` answers must agree with the
    rank-matrix test ``order.dominance_leq``; ``rpoly`` and ``mobius``
    must print mu = R(0)."""
    argv = entry["argv"]
    if rc is None:
        return f"missed the {QUERY_DEADLINE_S:g} s deadline"
    if rc != entry["rc"]:
        return f"exit code {rc}, recorded {entry['rc']}"
    if hashlib.sha256(stdout).hexdigest() != entry["sha256"]:
        return "stdout differs from the recorded output"
    text = stdout.decode()
    if argv[0] == "order":
        for line in text.splitlines():
            m = _ORDER_LINE.match(line)
            if m is None:
                return f"unexpected order output line {line!r}"
            a, b = (rookorder.renner.parse_element(s) for s in m.group(1, 2))
            if rookorder.order.dominance_leq(a, b) != (m.group(3) == "true"):
                return f"{line!r} disagrees with dominance_leq"
    elif argv[0] in ("rpoly", "mobius"):
        fields = dict(m.group(1, 2) for m in map(_FIELD_LINE.match, text.splitlines())
                      if m is not None)
        if len(fields) != 2 or fields["mu"] != fields["R(0)"]:
            return f"mu and R(0) differ or are missing: {fields}"
    return None


def provenance(args) -> dict:
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "processor": platform.processor() or "unknown",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Outcome:
    """What a run attempted, what failed and why, and its metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.notes: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.raw: dict[str, float] = {}

    def record(self, problem: str | None, wrong: bool = True) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if wrong:
                self.wrong.append(problem)


def _check_sweep(workload: str, unit: dict, outcome: Outcome) -> None:
    pinned = PINNED_CHECKED[workload]
    names = [t["name"] for t in unit["tasks"]]
    if names != list(pinned):
        outcome.record(f"sweep ran tasks {names}, expected {list(pinned)}")
        return
    for task in unit["tasks"]:
        problem = None
        if task["violations"]:
            problem = f"{task['name']}: {task['violations']} violations"
        elif task["checked"] != pinned[task["name"]]:
            problem = (f"{task['name']}: checked {task['checked']}, "
                       f"pinned {pinned[task['name']]}")
        outcome.record(problem)


def _sweep_seconds(unit: dict) -> tuple[float, float]:
    return speed.rescale(unit["samples"], unit["start"], unit["end"])


def run_sweeps(args, outcome: Outcome) -> None:
    workload = args.workload
    spec = {"workload": workload, "mode": "sweep"}
    if args.trace:
        plain, _ = run_worker(spec)
        traced, _ = run_worker({**spec, "trace": True})
        for unit in (plain, traced):
            _check_sweep(workload, unit, outcome)
        _layer_metrics(outcome, summary.merge_traces([traced["trace"]]),
                       _sweep_seconds(traced)[1] - _sweep_seconds(plain)[1])
        return
    setup = measure_setup(workload)
    units = []
    loop_start = time.perf_counter()
    while len(units) < MIN_SWEEPS or _room_for_another(loop_start, units, args.seconds):
        unit, started = run_worker(spec)
        unit["elapsed"] = time.perf_counter() - started
        _check_sweep(workload, unit, outcome)
        units.append(unit)
    times = [_sweep_seconds(u) for u in units]
    checked = sum(t["checked"] for u in units for t in u["tasks"])
    _end_to_end(outcome, setup, times, checked,
                [(raw * 1000.0, norm * 1000.0) for raw, norm in times])
    outcome.notes.append(f"{len(units)} sweeps of {len(units[0]['tasks'])} tasks; "
                         "a sweep is the unit of work and of latency")


def _room_for_another(loop_start: float, units: list[dict], seconds: int) -> bool:
    mean_unit = sum(u["elapsed"] for u in units) / len(units)
    return time.perf_counter() - loop_start + mean_unit <= seconds


def _record_query(outcome: Outcome, entry: dict, rc, stdout: bytes, rookorder) -> bool:
    problem = check_query(entry, rc, stdout, rookorder)
    outcome.record(problem, wrong=rc is not None)
    if problem is not None:
        outcome.notes.append(f"failed: rookorder {' '.join(entry['argv'])}: {problem}")
    return problem is None


def _query_loop(seconds: int, stream, outcome: Outcome, rookorder):
    """Closed loop, one client: send each query of a round when the last
    one has finished, rounds until ``seconds`` are used up.  Returns the
    (raw, rescaled) time of each round, the (raw, rescaled) latency of
    every query in ms, and how many queries passed."""
    rounds, latencies, answered = [], [], 0
    clock = StartClock()
    loop_start = time.perf_counter()
    while not rounds or _room_for_another(loop_start, rounds, seconds):
        round_start = time.perf_counter()
        raw_total = norm_total = 0.0
        for entry in stream.next_round():
            result = run_query(entry["argv"], QUERY_DEADLINE_S)
            norm = clock.rescale(result["s"])
            # a failed query keeps its latency: a missed deadline reads as one
            answered += _record_query(outcome, entry, result["rc"],
                                      result["stdout"], rookorder)
            latencies.append((result["s"] * 1000.0, norm * 1000.0))
            raw_total += result["s"]
            norm_total += norm
        rounds.append({"raw": raw_total, "norm": norm_total,
                       "elapsed": time.perf_counter() - round_start})
    return [(r["raw"], r["norm"]) for r in rounds], latencies, answered


def run_cli(args, outcome: Outcome) -> None:
    sys.path.insert(0, str(SRC))
    import rookorder
    stream = cli_pool.QueryStream(cli_pool.load_pool(), args.seed)
    if args.trace:
        # each query runs twice in worker.py, untraced and traced, so that
        # the difference is the cost of tracing alone
        traces, seconds = [], {False: 0.0, True: 0.0}
        with pinned():
            clock = StartClock()
            for entry in stream.next_round()[:cli_pool.TRACED]:
                for trace in (False, True):
                    unit, started = run_worker({"workload": "cli-queries", "mode": "query",
                                                "trace": trace, "queries": [entry["argv"]]})
                    seconds[trace] += clock.rescale(time.perf_counter() - started)
                    out = unit["outputs"][0]
                    _record_query(outcome, entry, out["rc"], out["stdout"].encode(), rookorder)
                traces.append(unit["trace"])
        _layer_metrics(outcome, summary.merge_traces(traces), seconds[True] - seconds[False])
    else:
        setup = measure_setup("cli-queries")
        with pinned():
            rounds, latencies, answered = _query_loop(args.seconds, stream, outcome, rookorder)
        _end_to_end(outcome, setup, rounds, answered, latencies)
        outcome.notes.append(f"{len(rounds)} rounds of {len(cli_pool.ROUND)} queries; "
                             "a round is the unit of work, a query that of latency")
    _probe_hang_cases(outcome)


def _probe_hang_cases(outcome: Outcome) -> None:
    """Run the known hang cases side by side, each under the query
    deadline, and name each one with its outcome."""
    with ThreadPoolExecutor(max_workers=len(cli_pool.HANG_CASES)) as pool:
        futures = [pool.submit(run_query, list(case), QUERY_DEADLINE_S)
                   for case in cli_pool.HANG_CASES]
        results = [f.result() for f in futures]
    for case, result in zip(cli_pool.HANG_CASES, results):
        command = "rookorder " + " ".join(case)
        if result["rc"] is None:
            outcome.notes.append(f"hang case: {command}: missed the "
                                 f"{QUERY_DEADLINE_S:g} s deadline")
        else:
            outcome.notes.append(f"hang case: {command}: exit {result['rc']} in "
                                 f"{result['s']:.2f} s (deadline {QUERY_DEADLINE_S:g} s)")


def _end_to_end(outcome: Outcome, setup: list[tuple[float, float]],
                units: list[tuple[float, float]], checked: int,
                latencies: list[tuple[float, float]]) -> None:
    """Record the end-to-end metrics from (raw, rescaled) pairs of set-up
    times, unit times and latencies in ms; ``checked`` passed checks were
    made in the latencies' sum.  The raw value of each time metric goes
    to ``outcome.raw``."""
    def time_metrics(which: int) -> dict[str, float]:
        ms = [t[which] for t in latencies]
        return {
            "setup_s": statistics.median(t[which] for t in setup),
            "wall_s": statistics.median(t[which] for t in units),
            "checks_per_s": checked / (sum(ms) / 1000.0),
            "latency_p50_ms": summary.percentile(ms, 50),
            "latency_p90_ms": summary.percentile(ms, 90),
        }

    outcome.raw = time_metrics(0)
    values = {**time_metrics(1), "peak_rss_mb": _peak_rss_mb()}
    for name, value in values.items():
        outcome.metrics[name] = (value, END_TO_END_UNITS[name])
    tail = summary.tail_percentile(len(latencies))
    outcome.notes.append(
        f"latency samples: {len(latencies)}; highest percentile with "
        f"{summary.MIN_BEYOND}+ samples beyond: "
        + (f"p{tail:g}" if tail is not None else "none"))


def _layer_metrics(outcome: Outcome, trace: dict, overhead_s: float) -> None:
    names = per_layer_names()
    values = summary.layer_metrics(trace, [n for n in names if n != summary.OVERHEAD])
    values[summary.OVERHEAD] = overhead_s
    for name in names:
        outcome.metrics[name] = (values[name], _layer_unit(name))
    outcome.notes.append("trace " + json.dumps(trace, sort_keys=True))


def _layer_unit(name: str) -> str:
    stat = summary.split_metric(name)[1]
    return {"calls": "count", "self_s": "s", "hit_ratio": "ratio",
            "cache_entries": "count", "overhead_s": "s"}[stat]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rookorder" / "__init__.py").is_file():
        print(f"bench: no rookorder package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    print(f"rookorder benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    outcome = Outcome()
    if args.workload == "cli-queries":
        run_cli(args, outcome)
    else:
        run_sweeps(args, outcome)
    for note in outcome.notes:
        print(note)
    for problem in outcome.wrong:
        print(f"wrong: {problem}")
    frac = summary.failed_frac(outcome.attempted, outcome.failed)
    print(f"  {'failed_frac':<44} {frac:.6f} ({outcome.failed}/{outcome.attempted})")
    if outcome.raw:
        print("  times are reference-normalised (speed.py); the raw time is in brackets")
    for name, (value, unit) in outcome.metrics.items():
        raw = f" (raw {outcome.raw[name]:.6g} {unit})" if name in outcome.raw else ""
        print(f"  {name:<44} {value:.6g} {unit}{raw}")
    print(json.dumps({
        "correct": not outcome.wrong,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
