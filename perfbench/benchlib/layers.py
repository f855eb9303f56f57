"""Which layer each ``repro`` module belongs to, and profiler grouping.

The fused simulation kernel inlines the memory, VM, prefetch and PSA
code, so per-call timers inside the loop would perturb it.  Traced runs
instead profile ``Core.run`` with ``cProfile`` and add up each
function's self time by the layer of the module that defines it.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path
from typing import Dict, Optional

#: Module-name prefix -> layer.  The longest matching prefix wins; the
#: bare ``repro`` entry matches only the package itself, so a new
#: subpackage maps to ``other`` until it is given a layer here.
LAYER_OF_PREFIX = {
    "repro": "cli",
    "repro.__main__": "cli",
    "repro.cli": "cli",
    "repro.analysis": "analysis",
    "repro.campaign": "campaign",
    "repro.core": "psa",
    "repro.cpu": "kernel",
    "repro.memory": "memory",
    "repro.prefetch": "prefetch",
    "repro.serve": "serve",
    "repro.sim": "sim",
    "repro.sim.cache": "cache",
    "repro.sim.config": "sim",
    "repro.sim.doctor": "cache",
    "repro.sim.faults": "engine",
    "repro.sim.iofaults": "cache",
    "repro.sim.kernel": "kernel",
    "repro.sim.metrics": "sim",
    "repro.sim.multicore": "sim",
    "repro.sim.runner": "engine",
    "repro.sim.simulator": "sim",
    "repro.sim.snapshot": "sim",
    "repro.sim.supervisor": "engine",
    "repro.verify": "verify",
    "repro.vm": "vm",
    "repro.workloads": "workloads",
}

#: Profiler pseudo-module of C functions (``len``, ``dict.get``, ...).
BUILTINS = "builtins"
OTHER = "other"


def layer_of(module: str) -> str:
    """Layer of a dotted module name (``other`` outside ``repro``)."""
    parts = module.split(".")
    for end in range(len(parts), 1, -1):
        layer = LAYER_OF_PREFIX.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return LAYER_OF_PREFIX.get(module, OTHER)


def module_of(filename: str, src_root: Path) -> Optional[str]:
    """Dotted module name of a source file under *src_root*, else None."""
    try:
        rel = Path(filename).resolve().relative_to(src_root.resolve())
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else None


def self_time_by_layer(profile: cProfile.Profile,
                       src_root: Path) -> Dict[str, float]:
    """Seconds of profiler self time per layer (plus ``builtins``)."""
    totals: Dict[str, float] = {}
    for (filename, _line, _func), row in pstats.Stats(profile).stats.items():
        self_s = row[2]
        if filename == "~":
            layer = BUILTINS
        else:
            module = module_of(filename, src_root)
            layer = layer_of(module) if module else OTHER
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals
