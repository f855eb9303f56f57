"""Environment hygiene, scratch directories and host facts."""

from __future__ import annotations

import os
import platform
import resource
import shutil
from pathlib import Path
from typing import Dict, Optional

#: Knobs that change what or how the program runs; each must be unset.
FORBIDDEN_ENV = ("REPRO_FAULTS", "REPRO_IO_FAULTS", "REPRO_NET_FAULTS",
                 "REPRO_SNAPSHOT_EVERY", "REPRO_CHECK", "REPRO_RUN_TIMEOUT",
                 "REPRO_KERNEL")


class EnvironmentProblem(RuntimeError):
    """The benchmark cannot run meaningfully in this environment."""


def check_clean_env() -> None:
    set_knobs = [name for name in FORBIDDEN_ENV if name in os.environ]
    if set_knobs:
        raise EnvironmentProblem(
            f"unset {', '.join(set_knobs)} before benchmarking: they "
            f"inject faults, add checks or pick a non-default kernel")


def host_facts() -> Dict[str, object]:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


class Workdir:
    """Per-run scratch tree inside the checkout, removed on close.

    Every cache dir, campaign store and daemon state of a run lives
    here, so no run reads another's results or the user's
    ``~/.cache/repro``.
    """

    def __init__(self, root: Path):
        self.root = root / f"run-{os.getpid()}"
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self._count = 0

    def use_cache(self, label: str) -> Path:
        """Point this process's repro cache and campaign store at a new
        empty directory and return it."""
        self._count += 1
        path = self.root / f"{self._count:03d}-{label}"
        path.mkdir()
        os.environ["REPRO_CACHE_DIR"] = str(path)
        os.environ["REPRO_CAMPAIGN_DB"] = str(path / "campaigns.sqlite")
        return path

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def assert_cache_inside(workdir: Workdir) -> None:
    from repro.sim import cache as disk_cache

    resolved = disk_cache.cache_dir().resolve()
    if workdir.root.resolve() not in resolved.parents:
        raise EnvironmentProblem(
            f"repro cache dir {resolved} is outside the run's scratch "
            f"tree {workdir.root}")


def child_env(src: Path, tmp: Path,
              extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a ``repro`` subprocess of this run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["TMPDIR"] = str(tmp)
    env["REPRO_JOBS"] = "1"
    env.update(extra or {})
    return env


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise EnvironmentProblem(f"no VmHWM for pid {pid}")

