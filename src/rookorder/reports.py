"""Uniform result type for verification sweeps."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    runtime_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations
