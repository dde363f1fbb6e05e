"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class Report:
    """Measured metric values (units live in ``BENCHMARK.json``) plus checks."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    tracer: Optional[object] = None  # the traced run's spans, written by run.py

    def problem(self, problem: str) -> None:
        """Describe a failed operation or check; the first few are kept."""
        if len(self.problems) < 20:
            self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.problems
