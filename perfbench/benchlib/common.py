"""What every workload module shares: the run context and the outcome
of one measured pass."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

from benchlib.env import Workdir
from benchlib.hostspeed import HostSpeed


@dataclass
class Context:
    root: Path          # checkout root
    src: Path           # <root>/src, the program under test
    seed: int
    workdir: Workdir
    #: Reference slices timed between this run's measured operations.
    host: HostSpeed = field(default_factory=HostSpeed)


@dataclass
class Pass:
    """Outcome of one measured pass of a workload."""

    e2e: Dict[str, float]
    layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digests: List[Tuple[str, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Peak RSS of helper processes (the serve daemon), added to ours.
    child_rss_mb: float = 0.0
    #: Host seconds of each cold run, in order (sim sweeps).
    run_s: List[float] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        """Count one operation whose output was wrong."""
        self.failed += 1
        self.problems.append(problem)
