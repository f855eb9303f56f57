"""Names and units of every metric the benchmark prints.

``BENCHMARK.json`` lists the same names; a test keeps the two equal.
Both workloads print every end-to-end metric and, in a traced run,
every per-layer metric.  The serving and campaign layers, which the
simulation sweeps do not reach, come from the companion workloads a
traced run adds (see ``perfbench/README.md``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (name, unit, better) of the end-to-end metrics.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("sim_acc_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Figures every sweep pass measures, after the sweep, but no bound
#: gates: warm fetches of sub-millisecond work moved by a quarter or more
#: between runs on a shared 2-core host.  A traced run reports them,
#: taken from its untraced pass.
UNGATED: List[Tuple[str, str]] = [
    ("hit_ms_p50", "ms"),
    ("hit_ms_p99", "ms"),
    ("resume_cells_per_s", "1/s"),
]

#: (name, unit) of the per-layer metrics of a traced run.
PER_LAYER: List[Tuple[str, str]] = UNGATED + [
    # repro.workloads
    ("workloads.generate_s", "s"),
    # repro.sim.simulator
    ("sim.build_s", "s"),
    ("sim.loop_s", "s"),
    ("sim.loop_ns_per_access", "ns"),
    ("sim.collect_s", "s"),
    # repro.sim.runner / supervisor
    ("engine.self_s", "s"),
    ("engine.simulated", "count"),
    ("engine.disk_hits", "count"),
    ("engine.retries", "count"),
    ("engine.failed", "count"),
    # repro.sim.cache
    ("cache.store_ms_p50", "ms"),
    ("cache.stores", "count"),
    ("cache.load_ms_p50", "ms"),
    ("cache.loads", "count"),
    # wall time of the traced pass, the base of every layer share
    ("bench.pass_s", "s"),
    # the untraced pass's host-speed reference (benchlib.hostspeed)
    ("host.slowdown", "ratio"),
    # in-loop profiler self time, grouped by module layer
    ("loop.kernel_self_s", "s"),
    ("loop.memory_self_s", "s"),
    ("loop.prefetch_self_s", "s"),
    ("loop.psa_self_s", "s"),
    ("loop.vm_self_s", "s"),
    ("loop.builtins_self_s", "s"),
    # simulated counts, summed over the workload's cold runs
    ("core.instructions", "count"),
    ("core.ipc_geomean", "ipc"),
    ("l2.demand_misses", "count"),
    ("llc.demand_misses", "count"),
    ("pf.proposed", "count"),
    ("pf.issued_l2", "count"),
    ("pf.useful_l2", "count"),
    ("pf.accuracy_l2", "ratio"),
    ("pf.dropped_mshr", "count"),
    ("psa.discard_4k_in_2m", "count"),
    ("vm.page_walks", "count"),
    ("vm.stlb_miss_ratio", "ratio"),
    ("dram.reads", "count"),
    ("dram.row_hit_ratio", "ratio"),
]

#: What a traced run prints from each companion workload, as (printed
#: name, unit, pass, name in that pass): pass ``e2e`` is the companion's
#: untraced pass, ``layer`` its traced pass.
COMPANION_METRICS: Dict[str, List[Tuple[str, str, str, str]]] = {
    # 120 cells of a few hundred accesses, run cold, then resumed
    "campaign-tiny": [
        ("tiny.cells_per_s", "1/s", "e2e", "cells_per_s"),
        ("tiny.resume_cells_per_s", "1/s", "e2e", "resume_cells_per_s"),
        ("tiny.pass_s", "s", "layer", "bench.pass_s"),
        ("tiny.sim.build_s", "s", "layer", "sim.build_s"),
        ("tiny.engine.self_s", "s", "layer", "engine.self_s"),
        ("tiny.cache.store_ms_p50", "ms", "layer", "cache.store_ms_p50"),
        ("tiny.cache.stores", "count", "layer", "cache.stores"),
        ("campaign.register_s", "s", "layer", "campaign.register_s"),
        ("campaign.record_ms_p50", "ms", "layer", "campaign.record_ms_p50"),
        ("campaign.records", "count", "layer", "campaign.records"),
        ("campaign.sync_s", "s", "layer", "campaign.sync_s"),
        ("campaign.query_s", "s", "layer", "campaign.query_s"),
    ],
    # open-loop traffic against a ``repro serve`` subprocess
    "serve-open": [
        ("open.hit_ms_p50", "ms", "e2e", "hit_ms_p50"),
        ("open.hit_ms_p99", "ms", "e2e", "hit_ms_p99"),
        ("open.miss_s_p50", "s", "e2e", "miss_s_p50"),
        ("client.hit_ms_p50", "ms", "layer", "client.hit_ms_p50"),
        ("serve.hit_service_ms_p50", "ms", "layer",
         "serve.hit_service_ms_p50"),
        ("serve.hit_service_ms_p99", "ms", "layer",
         "serve.hit_service_ms_p99"),
        ("serve.http_ms_p50", "ms", "layer", "serve.http_ms_p50"),
        ("serve.miss_service_s_p50", "s", "layer",
         "serve.miss_service_s_p50"),
        ("serve.engine_util", "ratio", "layer", "serve.engine_util"),
        ("serve.hit_rate", "ratio", "layer", "serve.hit_rate"),
        ("serve.coalesced", "count", "layer", "serve.coalesced"),
        ("serve.rejected", "count", "layer", "serve.rejected"),
        ("bench.gen_lag_ms_p99", "ms", "layer", "bench.gen_lag_ms_p99"),
    ],
}

PER_LAYER += [(name, unit) for rows in COMPANION_METRICS.values()
              for name, unit, _, _ in rows]
# traced runs of the sweep against the same runs untraced
PER_LAYER.append(("trace.overhead_pct", "%"))

E2E_UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END}
LAYER_UNITS: Dict[str, str] = dict(PER_LAYER)
