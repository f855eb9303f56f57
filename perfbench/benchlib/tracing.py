"""Traced-run instrumentation: spans around public ``repro`` calls, a
profiler inside ``Core.run``, and the per-layer figures derived from
both."""

from __future__ import annotations

import cProfile
from pathlib import Path
from typing import Dict, Iterable, Optional

from benchlib import layers
from benchlib.spans import SpanRecorder, by_name, self_times
from benchlib.stats import geomean, median


class Tracer:
    """Span recorder plus the in-loop profiler of one traced pass."""

    def __init__(self, src_root: Path):
        self.src_root = src_root
        self.recorder = SpanRecorder()
        self.profile = cProfile.Profile()

    def install(self) -> None:
        from repro.campaign import execute
        from repro.campaign.store import CampaignStore
        from repro.cpu.core import Core
        from repro.serve.client import ServeClient
        from repro.sim import cache, runner, simulator
        from repro.workloads.suites import WorkloadSpec

        rec = self.recorder
        rec.wrap(WorkloadSpec, "generate", "workloads.generate")
        rec.wrap(simulator, "build_hierarchy", "sim.build")
        rec.wrap(simulator, "collect_metrics", "sim.collect")
        rec.wrap(runner, "run_batch", "engine.run_batch")
        # ``execute`` imported the name itself, so it is wrapped there too.
        rec.wrap(execute, "run_batch", "engine.run_batch")
        rec.wrap(cache, "store", "cache.store")
        rec.wrap(cache, "load", "cache.load")
        rec.wrap(CampaignStore, "register", "campaign.register")
        rec.wrap(CampaignStore, "record", "campaign.record")
        rec.wrap(CampaignStore, "sync_from_cache", "campaign.sync")
        rec.wrap(CampaignStore, "speedup_rows", "campaign.query")
        rec.wrap(ServeClient, "submit", "client.submit")

        profile = self.profile

        def make_loop(run):
            def profiled(*args, **kwargs):
                with rec.span("sim.loop"):
                    profile.enable()
                    try:
                        return run(*args, **kwargs)
                    finally:
                        profile.disable()
            return profiled

        rec.patch(Core, "run", make_loop)

    def restore(self) -> None:
        self.recorder.restore()

    def layer_metrics(self, records: int) -> Dict[str, float]:
        """Span and profiler figures shared by every workload.

        *records* is the number of trace records the traced pass ran
        through ``Core.run`` (warmup included).
        """
        spans = self.recorder.spans
        groups = by_name(spans)
        selfs = self_times(spans)

        def total_s(name: str, prefix: Optional[str] = None) -> float:
            chosen = groups.get(name, []) if prefix is None else \
                by_name(spans, prefix).get(name, [])
            return sum(s.duration_ns for s in chosen) / 1e9

        def p50_ms(name: str, prefix: Optional[str] = None) -> float:
            chosen = groups.get(name, []) if prefix is None else \
                by_name(spans, prefix).get(name, [])
            return median([s.duration_ns / 1e6 for s in chosen]) \
                if chosen else 0.0

        loop_s = total_s("sim.loop")
        by_layer = layers.self_time_by_layer(self.profile, self.src_root) \
            if loop_s else {}
        cold_records = by_name(spans, "cold").get("campaign.record", [])
        return {
            "workloads.generate_s": total_s("workloads.generate"),
            "sim.build_s": total_s("sim.build"),
            "sim.loop_s": loop_s,
            "sim.loop_ns_per_access": loop_s * 1e9 / records
            if records else 0.0,
            "sim.collect_s": total_s("sim.collect"),
            "engine.self_s": sum(selfs[s.span_id] for s in
                                 groups.get("engine.run_batch", []))
            / 1e9,
            "cache.store_ms_p50": p50_ms("cache.store"),
            "cache.stores": len(groups.get("cache.store", [])),
            "cache.load_ms_p50": p50_ms("cache.load"),
            "cache.loads": len(groups.get("cache.load", [])),
            "campaign.register_s": total_s("campaign.register"),
            "campaign.record_ms_p50": p50_ms("campaign.record", "cold"),
            "campaign.records": len(cold_records),
            "campaign.sync_s": total_s("campaign.sync"),
            "campaign.query_s": total_s("campaign.query"),
            "loop.kernel_self_s": by_layer.get("kernel", 0.0),
            "loop.memory_self_s": by_layer.get("memory", 0.0),
            "loop.prefetch_self_s": by_layer.get("prefetch", 0.0),
            "loop.psa_self_s": by_layer.get("psa", 0.0),
            "loop.vm_self_s": by_layer.get("vm", 0.0),
            "loop.builtins_self_s": by_layer.get(layers.BUILTINS, 0.0),
        }


def engine_counts(before: dict, after: dict) -> Dict[str, float]:
    """``EngineStats`` deltas of one pass (from ``to_dict`` snapshots)."""
    return {f"engine.{name}": after[name] - before[name]
            for name in ("simulated", "disk_hits", "retries", "failed")}


def simulated_counts(runs: Iterable) -> Dict[str, float]:
    """Model counts of a set of ``RunMetrics``: exact, so a change that
    only speeds the simulator up leaves every one identical."""
    runs = list(runs)
    n = len(runs) or 1
    issued = sum(m.pf_issued_l2 for m in runs)
    useful = sum(m.l2_useful_prefetches for m in runs)
    return {
        "core.instructions": sum(m.instructions for m in runs),
        "core.ipc_geomean": geomean([m.ipc for m in runs]),
        "l2.demand_misses": sum(m.l2_demand_misses for m in runs),
        "llc.demand_misses": sum(m.llc_demand_misses for m in runs),
        "pf.proposed": sum(m.boundary.proposed for m in runs),
        "pf.issued_l2": issued,
        "pf.useful_l2": useful,
        "pf.accuracy_l2": useful / issued if issued else 0.0,
        "pf.dropped_mshr": sum(m.pf_dropped_mshr for m in runs),
        "psa.discard_4k_in_2m": sum(m.boundary.discarded_cross_4k_in_2m
                                    for m in runs),
        "vm.page_walks": sum(m.page_walks for m in runs),
        "vm.stlb_miss_ratio": sum(m.stlb_miss_ratio for m in runs) / n,
        "dram.reads": sum(m.dram_reads for m in runs),
        "dram.row_hit_ratio": sum(m.dram_row_hit_ratio for m in runs) / n,
    }
