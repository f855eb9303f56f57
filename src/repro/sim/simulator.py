"""Single-core simulation driver.

``simulate_workload`` is the repo's main entry point: it assembles the
allocator, hierarchy, prefetch module, optional L1D prefetcher and core for
one (workload, configuration) pair, runs the trace with a warmup prefix,
and returns a ``RunMetrics`` snapshot.

The paper's methodology (Section V) uses half the trace for warmup and
half for measurement; ``warmup_fraction=0.5`` reproduces that split.
"""

from __future__ import annotations

import zlib
from typing import Optional, Union

from repro.core.factory import make_l2_module
from repro.cpu.core import Core
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetch.ipcp import IPCP
from repro.sim import faults
from repro.sim.config import DuelingConfig, SystemConfig, accesses_for_scale
from repro.sim.metrics import RunMetrics, collect_metrics
from repro.workloads.suites import WorkloadSpec, catalog
from repro.workloads.trace import Trace

L1D_PREFETCHERS = ("none", "ipcp", "ipcp++")


def allocator_seed(trace_name: str) -> int:
    """Stable per-trace allocator seed.

    Must not depend on ``hash()``: PYTHONHASHSEED salting would make the
    physical layout differ between worker processes, sessions, and
    machines, breaking parallel/serial equivalence and the disk cache.

    Uses the full 32-bit crc32 value: truncating to 16 bits made distinct
    trace names collide onto identical physical layouts.
    """
    return zlib.crc32(trace_name.encode()) & 0xFFFFFFFF


def build_hierarchy(trace: Trace, config: SystemConfig, prefetcher: str,
                    variant: str, l1d: str = "none",
                    oracle_page_size: bool = False,
                    table_scale: float = 1.0,
                    dueling: Optional[DuelingConfig] = None,
                    core_id: int = 0,
                    gb_fraction: float = 0.0,
                    llc_prefetcher: str = "none",
                    llc_variant: str = "psa",
                    shared_llc=None, shared_dram=None):
    """Construct (hierarchy, module) for one run. Exposed for tests."""
    from repro.vm.allocator import PhysicalMemoryAllocator

    if l1d not in L1D_PREFETCHERS:
        raise ValueError(f"l1d must be one of {L1D_PREFETCHERS}, got {l1d!r}")
    allocator = PhysicalMemoryAllocator(
        thp_fraction=trace.thp_fraction, seed=allocator_seed(trace.name),
        core_id=core_id, gb_fraction=gb_fraction)
    module = make_l2_module(prefetcher, variant, config,
                            table_scale=table_scale, dueling=dueling)
    llc_module = None
    if llc_prefetcher != "none":
        llc_module = make_l2_module(llc_prefetcher, llc_variant, config,
                                    table_scale=table_scale)
    hierarchy = MemoryHierarchy(
        config, allocator, l2_module=module, llc_module=llc_module,
        oracle_page_size=oracle_page_size,
        shared_llc=shared_llc, shared_dram=shared_dram)
    if l1d != "none":
        hierarchy.l1d_prefetcher = IPCP(
            cross_page=(l1d == "ipcp++"),
            may_cross=hierarchy.translator.is_tlb_resident)
    return hierarchy, module


def simulate_trace(trace: Trace, config: Optional[SystemConfig] = None,
                   prefetcher: str = "spp", variant: str = "psa",
                   l1d: str = "none", oracle_page_size: bool = False,
                   warmup_fraction: float = 0.5,
                   table_scale: float = 1.0,
                   gb_fraction: float = 0.0,
                   dueling: Optional[DuelingConfig] = None,
                   oracle: bool = False,
                   snapshot_key: Optional[tuple] = None) -> RunMetrics:
    """Simulate one prepared trace and return its metrics.

    With ``oracle=True`` a differential reference model shadows the run
    (see ``repro.verify.oracle``): every functional decision is replayed
    by a naive model and diffed.  The resulting ``VerifyReport`` is
    attached as ``metrics.oracle_report``; a divergence raises
    ``OracleDivergence``.

    ``snapshot_key`` (the run's cache fingerprint) enables crash-consistent
    checkpointing when ``REPRO_SNAPSHOT_EVERY`` is set: the run stores its
    full state every N accesses, resumes from the latest valid snapshot
    when one exists, and discards it on successful completion.  The oracle
    shadows functional decisions incrementally and cannot be rebuilt
    mid-trace, so snapshotting is disabled under ``oracle=True``.
    """
    from repro.sim import snapshot as snapshot_store

    config = config if config is not None else SystemConfig()
    hierarchy, module = build_hierarchy(
        trace, config, prefetcher, variant, l1d=l1d,
        oracle_page_size=oracle_page_size, table_scale=table_scale,
        dueling=dueling, gb_fraction=gb_fraction)
    observer = None
    if oracle:
        from repro.verify.oracle import OracleDivergence, attach_oracle
        observer = attach_oracle(hierarchy)
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    warmup = int(len(trace.records) * warmup_fraction)

    snapshotting = (snapshot_key is not None and not oracle
                    and snapshot_store.snapshot_enabled())
    start_index = 0
    if snapshotting:
        resumed = snapshot_store.load(snapshot_key)
        if resumed is not None:
            access_index, state = resumed
            try:
                core.load_state_dict(state["core"])
                hierarchy.load_state_dict(state["hierarchy"])
                start_index = access_index + 1
            except (KeyError, ValueError, TypeError, IndexError,
                    AttributeError):
                # A snapshot from an incompatible configuration slipped
                # past the header checks: rebuild fresh and start over.
                snapshot_store._quarantine(
                    snapshot_store.snapshot_path(snapshot_key))
                hierarchy, module = build_hierarchy(
                    trace, config, prefetcher, variant, l1d=l1d,
                    oracle_page_size=oracle_page_size,
                    table_scale=table_scale, dueling=dueling,
                    gb_fraction=gb_fraction)
                core = Core(hierarchy, config.rob_entries,
                            config.fetch_width)
                start_index = 0

    on_record = None
    every = 0
    kill_armed = faults.kill_armed()
    if snapshotting or kill_armed:
        every = snapshot_store.snapshot_every() if snapshotting else 0

        def on_record(index: int) -> None:
            # Store *before* the kill hook so a mid-run death leaves the
            # latest interval boundary on disk; the (index + 1) phase is
            # anchored to the trace, not the attempt, so resumed runs
            # snapshot at the same access indices as uninterrupted ones.
            if every and (index + 1) % every == 0:
                snapshot_store.store(snapshot_key, index,
                                     {"core": core.state_dict(),
                                      "hierarchy": hierarchy.state_dict()})
            if kill_armed:
                faults.access_checkpoint(index)

    result = core.run(trace, warmup_records=warmup,
                      start_index=start_index, on_record=on_record)
    metrics = collect_metrics(trace.name, prefetcher, variant, hierarchy,
                              result, module)
    if snapshotting:
        snapshot_store.discard(snapshot_key)
    if observer is not None:
        report = observer.finish()
        metrics.oracle_report = report
        if not report.ok:
            raise OracleDivergence(report)
    return metrics


def simulate_workload(workload: Union[str, WorkloadSpec],
                      config: Optional[SystemConfig] = None,
                      prefetcher: str = "spp", variant: str = "psa",
                      l1d: str = "none", oracle_page_size: bool = False,
                      n_accesses: Optional[int] = None,
                      warmup_fraction: float = 0.5,
                      table_scale: float = 1.0,
                      gb_fraction: float = 0.0,
                      dueling: Optional[DuelingConfig] = None,
                      oracle: bool = False,
                      snapshot_key: Optional[tuple] = None) -> RunMetrics:
    """Generate a catalog workload's trace and simulate it."""
    # Injected faults (REPRO_FAULTS) fire here, inside the real run
    # call stack, so the supervision layer sees realistic failures.
    faults.checkpoint("workload")
    spec = (catalog(include_non_intensive=True)[workload]
            if isinstance(workload, str) else workload)
    n = n_accesses if n_accesses is not None else accesses_for_scale()
    trace = spec.generate(n)
    return simulate_trace(
        trace, config=config, prefetcher=prefetcher, variant=variant,
        l1d=l1d, oracle_page_size=oracle_page_size,
        warmup_fraction=warmup_fraction, table_scale=table_scale,
        gb_fraction=gb_fraction, dueling=dueling, oracle=oracle,
        snapshot_key=snapshot_key)
