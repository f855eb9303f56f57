"""Pinned results for configurations the golden corpus does not cover.

The golden corpus (``tests/golden/digests.json``) replays default
configurations only.  The configurations below exercise the rest of the
demand path: a shared-LLC multicore mix, the L1D (IPCP) prefetchers, an
LLC prefetcher fed by PPM, the TLB-prefetch extension, 1GB pages, and
runs under ``REPRO_CHECK`` and the differential oracle.

``tests/golden/pinned_paths.json`` holds their digests as recorded
before the simulation loop was merged into one demand method.  They
must never be regenerated: a mismatch means simulation semantics moved.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cpu.core import Core
from repro.sim import multicore, simulator
from repro.sim.config import SystemConfig
from repro.sim.metrics import collect_metrics
from repro.sim.simulator import build_hierarchy, simulate_workload
from repro.verify import golden, invariants
from repro.workloads.suites import catalog

PINS = Path(__file__).parent / "golden" / "pinned_paths.json"
N = 3000


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_digests(metrics, hierarchy=None) -> dict:
    out = {"metrics": golden.metrics_digest(metrics)}
    if hierarchy is not None:
        out["state"] = _sha(repr(hierarchy.state_dict()))
    return out


def _single(workload="lbm", **kwargs):
    """Digests of one ``simulate_workload`` run and its hierarchy."""
    captured = []
    real = simulator.build_hierarchy

    def spy(*args, **kw):
        built = real(*args, **kw)
        captured.append(built[0])
        return built

    simulator.build_hierarchy = spy
    try:
        metrics = simulate_workload(workload, n_accesses=N, **kwargs)
    finally:
        simulator.build_hierarchy = real
    return _run_digests(metrics, captured[-1])


def pin_mix() -> dict:
    specs = [catalog()["lbm"], catalog()["mcf"]]
    config = multicore.multicore_config(SystemConfig(), len(specs))
    shared = []
    real_cache, real_dram = multicore.Cache, multicore.DRAM

    def cache(*args, **kw):
        shared.append(real_cache(*args, **kw))
        return shared[-1]

    def dram(*args, **kw):
        shared.append(real_dram(*args, **kw))
        return shared[-1]

    multicore.Cache, multicore.DRAM = cache, dram
    try:
        result = multicore.simulate_mix(specs, config, "spp", "psa",
                                        n_accesses=N)
    finally:
        multicore.Cache, multicore.DRAM = real_cache, real_dram
    llc, dram_ = shared
    counters = {
        "ipcs": result.ipcs,
        "llc": [llc.demand_accesses, llc.demand_hits, llc.demand_misses,
                llc.useful_prefetches, llc.prefetch_fills, llc.writebacks],
        "dram": [dram_.reads, dram_.writes, dram_.row_hits,
                 dram_.row_misses, dram_.total_queue_cycles],
    }
    return {"counters": counters,
            "metrics": _sha(json.dumps(counters, sort_keys=True)),
            "state": _sha(repr((llc.state_dict(), dram_.state_dict())))}


def pin_llc_prefetcher() -> dict:
    config = SystemConfig(ppm_to_llc=True)
    trace = catalog()["mcf"].generate(N)
    hierarchy, module = build_hierarchy(trace, config, "spp", "psa",
                                        llc_prefetcher="spp")
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    result = core.run(trace, warmup_records=N // 2)
    metrics = collect_metrics(trace.name, "spp", "psa", hierarchy, result,
                              module)
    return _run_digests(metrics, hierarchy)


def pin_check() -> dict:
    invariants.force(True)
    try:
        return _single("mcf", variant="psa-sd")
    finally:
        invariants.force(None)


CASES = {
    "mix-lbm-mcf": pin_mix,
    "l1d-ipcp": lambda: _single("milc", l1d="ipcp"),
    "l1d-ipcp++": lambda: _single("milc", l1d="ipcp++"),
    "llc-spp-ppm": pin_llc_prefetcher,
    "tlb-prefetch": lambda: _single(
        "mcf", config=SystemConfig(tlb_prefetch=True)),
    "gb-fraction": lambda: _single("lbm", gb_fraction=0.3),
    "repro-check": pin_check,
    "oracle": lambda: _single("lbm", variant="psa-sd", oracle=True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_digest_unchanged(name):
    pinned = json.loads(PINS.read_text())[name]
    # The pins were recorded with the invariant layer off (except the
    # one run that forces it on): REPRO_CHECK adds the allocator's
    # claimed intervals to the state it snapshots.
    invariants.force(False)
    try:
        assert CASES[name]() == pinned, f"{name}: results drifted"
    finally:
        invariants.force(None)
