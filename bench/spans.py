"""In-memory spans around calls into rookorder's layers.

The benchmark wraps public functions by replacing module attributes.
Every cross-layer call, and the recursive calls inside ``rpoly`` and
``order``, look the name up on the module, so the wrappers see all of
that traffic without any edit to the library.

Spans are aggregated as they close: per name the call count and the
self time (the span's duration minus the time its child spans cover).
Nothing leaves the process until ``Tracer.snapshot`` is called at the end
of a unit of work.
"""

from __future__ import annotations

import importlib
import time

SPAN = "span"
COUNT = "count"

# (module, attribute, kind).  A dotted attribute names a method on a
# class.  COUNT is for leaves called millions of times, where a span
# would cost more than the work it measures; their time stays in the
# caller's self time.
LAYERS = (
    ("weyl", "bruhat_leq", SPAN),
    ("weyl", "classical_rpoly", SPAN),
    ("weyl", "reduced_word", SPAN),
    ("weyl", "compose", COUNT),
    ("renner", "standard_form", SPAN),
    ("renner", "length", SPAN),
    ("renner", "orbit", SPAN),
    ("renner", "multiply", COUNT),
    ("order", "leq", SPAN),
    ("order", "interval_elements", SPAN),
    ("order", "mobius_direct", SPAN),
    ("order", "interval", SPAN),
    ("rpoly", "rpoly", SPAN),
    ("rpoly", "delta_identity_sum", SPAN),
    ("polynomials", "IntPoly.__mul__", SPAN),
    ("polynomials", "IntPoly.__add__", SPAN),
    ("polynomials", "Laurent.__mul__", SPAN),
    ("polynomials", "Laurent.__add__", SPAN),
    ("hecke", "bar_Asigma", SPAN),
    ("hecke", "mult_As_left", SPAN),
    ("hecke", "mult_Aw_left", SPAN),
    ("hecke", "rpoly_via_bar", SPAN),
    ("hecke", "bar_element", SPAN),
    ("analysis", "linear_length2_pairs", SPAN),
    ("analysis", "verify_putcha_conjecture", SPAN),
    ("analysis", "lifting_violations", SPAN),
    ("analysis", "check_nonempty_descent", SPAN),
    ("analysis", "descent_sets", SPAN),
    ("analysis", "classify_interval", SPAN),
    ("analysis", "find_linear_length2", SPAN),
    ("verify", "hecke_oracle_report", SPAN),
    ("cli", "main", SPAN),
)

# Class attributes that are aliases of a wrapped method, so that
# ``2 * p`` is traced like ``p * 2``.
_ALIASES = {"__mul__": "__rmul__", "__add__": "__radd__"}

LEQ = "order.leq"


def _rank(word) -> int:
    return sum(1 for a in word if a)


def rank_pair_tag(theta, sigma) -> str:
    """``k<ke>-<kf>``: the orbit ranks of the two arguments of ``leq``."""
    return f"k{_rank(theta)}-{_rank(sigma)}"


class Tracer:
    """Open spans on a stack; totals per name (and per name and tag)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, tag, start, child seconds]
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}

    def open(self, name: str, tag: str | None = None) -> None:
        self._stack.append([name, tag, self.clock(), 0.0])

    def close(self) -> None:
        name, tag, start, child = self._stack.pop()
        duration = self.clock() - start
        own = duration - child
        keys = (name,) if tag is None else (name, f"{name}@{tag}")
        for key in keys:
            self.calls[key] = self.calls.get(key, 0) + 1
            self.self_s[key] = self.self_s.get(key, 0.0) + own
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def snapshot(self, caches: dict | None = None) -> dict:
        """JSON-ready totals; ``caches`` maps a name to (hits, misses, size)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "caches": {name: list(stats) for name, stats in (caches or {}).items()},
        }


def _span_wrapper(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close()
    return traced


def _leq_wrapper(tracer: Tracer, fn):
    def traced(theta, sigma):
        tracer.open(LEQ, rank_pair_tag(theta, sigma))
        try:
            return fn(theta, sigma)
        finally:
            tracer.close()
    return traced


def _count_wrapper(tracer: Tracer, name: str, fn):
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return counted


class Installation:
    """The wrappers put in place by ``install``; ``remove`` undoes them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.originals: dict[str, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def cache_stats(self) -> dict[str, tuple[int, int, int]]:
        """(hits, misses, entries) of every wrapped ``lru_cache`` function."""
        stats = {}
        for name, fn in self.originals.items():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                stats[name] = (ci.hits, ci.misses, ci.currsize)
        return stats

    def remove(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()


def install(tracer: Tracer, package: str = "rookorder") -> Installation:
    """Wrap every entry of ``LAYERS`` in the imported package."""
    inst = Installation(tracer)
    for module_name, attr, kind in LAYERS:
        module = importlib.import_module(f"{package}.{module_name}")
        owner = module
        if "." in attr:
            cls_name, attr_name = attr.split(".")
            owner = getattr(module, cls_name)
        else:
            attr_name = attr
        name = f"{module_name}.{attr}"
        fn = owner.__dict__[attr_name]
        inst.originals[name] = fn
        if kind == COUNT:
            new = _count_wrapper(tracer, name, fn)
        elif name == LEQ:
            new = _leq_wrapper(tracer, fn)
        else:
            new = _span_wrapper(tracer, name, fn)
        inst._replace(owner, attr_name, new)
        alias = _ALIASES.get(attr_name)
        if alias is not None and owner.__dict__.get(alias) is fn:
            inst._replace(owner, alias, new)
    return inst
