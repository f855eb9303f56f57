#!/usr/bin/env python3
"""Time the simulation loop on a cold, serial Fig. 9-style sweep.

Runs the sweep of ``bench_engine.py`` (PSA and PSA-SD speedups over
original SPP across the representative workload subset) once, from an
empty disk cache and an empty trace memo, through the one demand path
every run takes (``Core.run`` over ``MemoryHierarchy._access``).  The
measured accesses/s compare directly to the archived cold-serial rate in
``results/engine_speedup.txt`` — on the same host only: figures from
different hosts do not compare.

Emits ``benchmarks/results/BENCH_kernel.json``.

Usage::

    REPRO_SCALE=small python benchmarks/bench_kernel.py
    REPRO_MAX_WORKLOADS=4 python benchmarks/bench_kernel.py   # smoke
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_common import representative_workloads  # noqa: E402

from repro.sim import runner  # noqa: E402
from repro.sim.config import accesses_for_scale, current_scale  # noqa: E402
from repro.workloads import suites  # noqa: E402

VARIANTS = ["psa", "psa-sd"]
RESULTS_PATH = REPO_ROOT / "benchmarks" / "results" / "BENCH_kernel.json"

#: Cold-serial accesses/s of the archived run (same sweep, same
#: REPRO_SCALE=small) from ``results/engine_speedup.txt``.
ARCHIVED_BASELINE_ACC_S = 14273.172


def main() -> int:
    workloads = representative_workloads()
    with tempfile.TemporaryDirectory() as cache_dir:
        os.environ["REPRO_JOBS"] = "1"
        os.environ["REPRO_CACHE_DIR"] = cache_dir
        runner.clear_cache()
        runner.reset_engine_stats()
        suites._generate_memo.clear()   # cold: regenerate every trace
        start = time.perf_counter()
        for variant in VARIANTS:
            runner.speedups_over_baseline(workloads, "spp", variant)
        elapsed = time.perf_counter() - start
        stats = runner.engine_stats()
    rate = stats.accesses_per_sec
    payload = {
        "benchmark": "bench_kernel",
        "sweep": (f"{len(workloads)} workloads x {1 + len(VARIANTS)} "
                  f"configs (spp original/psa/psa-sd), cold serial"),
        "scale": current_scale(),
        "accesses_per_run": accesses_for_scale(),
        "machine": {"cores": os.cpu_count(),
                    "platform": f"{platform.system()} {platform.machine()}",
                    "python": platform.python_version()},
        "seconds": round(elapsed, 3),
        "simulated_runs": stats.simulated,
        "accesses_per_sec": round(rate, 3),
        "archived_baseline_accesses_per_sec": ARCHIVED_BASELINE_ACC_S,
        "speedup_vs_archived_baseline": round(
            rate / ARCHIVED_BASELINE_ACC_S, 3),
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\narchived to {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
