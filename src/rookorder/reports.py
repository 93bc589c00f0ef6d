"""Uniform result type for verification sweeps."""

from __future__ import annotations


class Report:
    """The outcome of one check: its name, the number of cases checked,
    one certificate per violation, and the run time ``verify.run_suite``
    sets.  A plain class, so that importing the library does not import
    ``dataclasses`` (and ``inspect`` with it) into every command."""

    def __init__(self, name: str, checked: int = 0, violations: list | None = None,
                 runtime_ms: float = 0.0):
        self.name = name
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.runtime_ms = runtime_ms

    @property
    def passed(self) -> bool:
        return not self.violations
