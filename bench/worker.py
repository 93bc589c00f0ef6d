"""One unit of benchmark work in a fresh interpreter.

    PYTHONPATH=src python3 bench/worker.py '<json spec>'

The spec names the workload, the mode and whether to trace:

* ``setup``: import the library and enumerate the workload's orbits,
  then stop; the parent times this from process start.
* ``sweep``: set up, then run every task of the sweep once.
* ``query``: set up, then call ``rookorder.cli.main`` on each argv of
  ``queries`` (the traced run of ``cli-queries``, with and without
  tracing; one query per process).

The result is one JSON object on stdout.  ``ready_at`` is the
``time.perf_counter`` reading when set-up ended; on Linux that clock is
shared by all processes, so the parent can subtract its own start time.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import time


def _setup(workload: str, tracer):
    installation = None
    if workload == "cli-queries":
        import rookorder.cli  # noqa: F401  (the import every query pays)
    else:
        import rookorder
    if tracer is not None:
        import spans
        installation = spans.install(tracer)
    if workload != "cli-queries":
        from rookorder import renner
        for n, k in SWEEP_ORBITS:
            renner.orbit(n, k)
    return installation


SWEEP_ORBITS = tuple((4, k) for k in range(5)) + ((5, 2),)


def _delta_all_pairs(n: int, k: int):
    from rookorder import renner, rpoly
    elems = renner.orbit(n, k)
    checked = violations = 0
    for theta, sigma in itertools.product(elems, repeat=2):
        checked += 1
        if not rpoly.verify_delta_identity(theta, sigma):
            violations += 1
    return checked, violations


def _report(fn, *args):
    def task():
        report = fn(*args)
        return report.checked, len(report.violations)
    return task


def sweep_tasks(workload: str) -> list[tuple[str, object]]:
    """The fixed list of (name, task) of a sweep; a task returns
    (checked, violations).  Enumerated here rather than through
    ``verify.run_suite`` so that edits to the suites do not change the
    work measured."""
    from rookorder import analysis, renner, verify
    tasks = []
    if workload == "verify-sweep":
        for n, k in SWEEP_ORBITS:
            elems = renner.orbit(n, k)
            tasks.append((f"putcha n={n} k={k}",
                          _report(analysis.verify_putcha_conjecture, elems)))
            tasks.append((f"lifting n={n} k={k}",
                          _report(analysis.lifting_violations, n, k)))
            tasks.append((f"nonempty-descent n={n} k={k}",
                          _report(analysis.check_nonempty_descent, elems)))
            if n == 4:
                tasks.append((f"delta n={n} k={k}",
                              lambda n=n, k=k: _delta_all_pairs(n, k)))
    elif workload == "hecke-oracle":
        for n, k in SWEEP_ORBITS:
            tasks.append((f"hecke n={n} k={k}",
                          _report(verify.hecke_oracle_report, n, k)))
    else:
        raise ValueError(f"no sweep for workload {workload!r}")
    return tasks


def _run_sweep(workload: str) -> dict:
    import speed
    results = []
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        for name, task in sweep_tasks(workload):
            t0 = time.perf_counter()
            checked, violations = task()
            results.append({"name": name, "start": t0, "end": time.perf_counter(),
                            "checked": checked, "violations": violations})
        end = time.perf_counter()
    return {"tasks": results, "start": start, "end": end, "samples": probe.samples}


def _run_queries(queries: list[list[str]]) -> dict:
    import rookorder.cli
    outputs = []
    for argv in queries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = rookorder.cli.main(list(argv))
        outputs.append({"rc": rc, "stdout": buf.getvalue()})
    return {"outputs": outputs}


def main(spec: dict) -> dict:
    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
    installation = _setup(spec["workload"], tracer)
    result = {"ready_at": time.perf_counter()}
    if spec["mode"] == "sweep":
        result.update(_run_sweep(spec["workload"]))
    elif spec["mode"] == "query":
        result.update(_run_queries(spec["queries"]))
    elif spec["mode"] != "setup":
        raise ValueError(f"unknown mode {spec['mode']!r}")
    if installation is not None:
        result["trace"] = tracer.snapshot(installation.cache_stats())
        installation.remove()
    return result


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
