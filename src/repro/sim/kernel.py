"""Columnar hot-path kernel: chunked, vectorized trace execution.

The scalar simulator spends most of its time in per-access Python
dispatch: attribute lookups, method calls and re-derived shifts on the
way from ``Core.step`` through the hierarchy to DRAM.  This module keeps
the *model* bit-for-bit identical while restructuring the *execution*:

1. **Chunk preparation (vectorized).**  For each chunk of trace records
   the allocator classifies every address's page size and computes its
   physical address, native TLB page and block number in numpy
   (``PhysicalMemoryAllocator.prepare_chunk``).  Page-size decisions are
   pure hashes, so they vectorize exactly; first-touch allocations are
   replayed scalar, in access order, so allocator state (including dict
   insertion order, which pickled snapshots serialize) matches the
   scalar path bitwise.  The kernel then derives the remaining pure
   per-record columns — ROB entry counts, fetch-cycle increments,
   store flags, TLB lookup keys and set indices, and L1/L2/LLC set
   indices — in one vectorized pass per chunk.

2. **Fused inner loop (scalar, hoisted).**  A single flat loop walks the
   precomputed columns and executes the core timing model and the
   hierarchy demand/prefetch paths with structure references and hot
   counters hoisted into locals, feeding the *unchanged* scalar state
   machines (prefetcher FSMs, Set-Dueling, MSHR contents, replacement
   stamps).  Counters batched in locals are flushed to their objects at
   chunk boundaries and around the rare escapes into un-inlined
   machinery (page walks, writeback cascades).

Runs the fused loop cannot mirror exactly (``_supports_fast``: the
oracle's observer, invariant checks, stand-in components) take the
scalar reference loop.  Equivalence is enforced three ways: the
golden-trace corpus digests, scalar-vs-fused state digests, and the
snapshot/resume tests (chunk boundaries are clamped to snapshot
barriers, so mid-run state dumps are bitwise identical to scalar ones).

What stays scalar and why: the prefetcher FSMs (SPP lookahead, PPF
features, Set-Dueling counters) mutate tables per event with
data-dependent control flow — vectorizing them would fork the model.
They account for a bounded share of the per-access cost once the
dispatch around them is gone.

Environment knobs (see README):

- ``REPRO_KERNEL``  : ``auto`` (default) | ``vector`` | ``scalar``.
- ``REPRO_CHUNK``   : records per chunk (default 4096, min 1).
"""

from __future__ import annotations

import os

try:
    import numpy as _np
except ImportError:                            # pragma: no cover
    _np = None

from repro.sim.config import ConfigurationError, env_int
from repro.verify import invariants

#: Default records per chunk: large enough to amortize the vectorized
#: pass and the boundary flushes, small enough that first-touch
#: pre-allocation stays a short lookahead.
DEFAULT_CHUNK = 4096

KERNEL_MODES = ("auto", "vector", "scalar")

_INF = float("inf")


def kernel_mode() -> str:
    """The ``REPRO_KERNEL`` knob: auto (default), vector, or scalar."""
    raw = os.environ.get("REPRO_KERNEL", "").strip().lower()
    if not raw:
        return "auto"
    if raw not in KERNEL_MODES:
        raise ConfigurationError(
            f"REPRO_KERNEL must be one of {KERNEL_MODES}, got {raw!r}")
    return raw


def chunk_size() -> int:
    """The ``REPRO_CHUNK`` knob: records per kernel chunk."""
    return env_int("REPRO_CHUNK", DEFAULT_CHUNK, minimum=1)


# ----------------------------------------------------------------------
# Capability gates
# ----------------------------------------------------------------------

def _supports_fast(core, hierarchy) -> bool:
    """The fused loop mirrors specific implementations; anything it
    inlines must be exactly the stock class (a subclass could override
    behaviour the loop bypasses), every replacement policy must be plain
    LRU (``FIFOPolicy`` subclasses it with a different ``on_hit``), and
    observers/invariant checks need the un-fused event sites.

    Chunk pre-translation is only sound when nothing else allocates: the
    TLB-prefetch extension and the L1D (virtual-address) prefetcher both
    call ``allocator.translate`` mid-stream, which would interleave
    first-touch allocations with the chunk's replay and change frame
    assignment order.  A subclassed allocator may do anything at all."""
    from repro.cpu.core import Core
    from repro.memory.cache import Cache
    from repro.memory.dram import DRAM
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.memory.mshr import MSHR
    from repro.memory.replacement import LRUPolicy
    from repro.core.ppm import PageSizePropagationModule
    from repro.vm.allocator import PhysicalMemoryAllocator
    from repro.vm.tlb import TLB
    from repro.vm.walker import AddressTranslator
    if not (type(core) is Core
            and type(hierarchy) is MemoryHierarchy
            and type(hierarchy.allocator) is PhysicalMemoryAllocator
            and hierarchy.l1d_prefetcher is None
            and not hierarchy.config.tlb_prefetch
            and hierarchy.observer is None
            and not hierarchy._check
            and not invariants.enabled()
            and hierarchy.llc_module is None
            and type(hierarchy.dram) is DRAM
            and type(hierarchy.translator) is AddressTranslator
            and type(hierarchy.translator.dtlb) is TLB
            and type(hierarchy.ppm) is PageSizePropagationModule):
        return False
    for cache in (hierarchy.l1d, hierarchy.l2c, hierarchy.llc):
        if type(cache) is not Cache:
            return False
        if (type(cache.mshr) is not MSHR
                or type(cache.pf_mshr) is not MSHR):
            return False
        for policy in cache._policies:
            if type(policy) is not LRUPolicy:
                return False
    return True


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def run_trace(core, trace, warmup_records: int = 0, start_index: int = 0,
              on_record=None, barrier_every: int = 0):
    """Execute *trace* on *core*; the ``Core.run`` entry point.

    Takes the fused loop when the configuration supports it (see
    ``_supports_fast``), else the scalar reference loop.
    """
    mode = kernel_mode()
    n = len(trace.records)
    hierarchy = core.hierarchy
    use_fast = (mode != "scalar" and _np is not None and n > 0
                and _supports_fast(core, hierarchy))
    if use_fast and on_record is not None and barrier_every <= 0:
        # An arbitrary per-record callback with no declared barrier must
        # observe exact state after every record; only the scalar loop
        # guarantees that.  (Snapshotting declares its barrier; kill
        # faults piggyback on it or tolerate the fallback.)
        use_fast = False
    if not use_fast:
        return core.run_scalar(trace, warmup_records=warmup_records,
                               start_index=start_index, on_record=on_record)
    try:
        cols = trace.columns()
    except (RuntimeError, OverflowError, TypeError, ValueError):
        # Addresses the columnar dtypes cannot hold (synthetic tests use
        # arbitrary ints): the scalar loop handles anything.
        return core.run_scalar(trace, warmup_records=warmup_records,
                               start_index=start_index, on_record=on_record)
    addresses = cols[1]

    if start_index == 0:
        core.reset()
    chunk = chunk_size()
    prepare = hierarchy.allocator.prepare_chunk
    index = start_index
    while index < n:
        if index == warmup_records:
            core.begin_measurement()
        end = min(index + chunk, n)
        if index < warmup_records:
            end = min(end, warmup_records)
        if barrier_every > 0:
            end = min(end, ((index // barrier_every) + 1) * barrier_every)
        pre = prepare(addresses[index:end])
        _run_chunk_fast(core, hierarchy, cols, pre, index, end, on_record)
        index = end
    if warmup_records >= n:
        core.begin_measurement()
    return core.finish()


def _run_chunk_fast(core, h, cols, pre, lo: int, hi: int,
                    on_record) -> None:
    """The fused inner loop: core timing + demand path + prefetch issue.

    Mirrors, line for line, the semantics of ``Core.step`` →
    ``MemoryHierarchy._access`` → ``_l2_demand`` → ``_llc_demand`` →
    ``_issue_l2_prefetch`` with the stock ``Cache``/``MSHR``/``TLB``/
    ``DRAM``/LRU implementations inlined (guarded by
    ``_supports_fast``).  Escapes into un-inlined machinery — the
    post-DTLB-miss translator (page walks), dirty-writeback cascades and
    the prefetch module callbacks — operate on object state only; the
    counters batched in locals are synced around the translator escape
    (the one escape that touches them) and flushed at chunk end.

    MSHR capacity sweeps are gated on each MSHR's ``_floor`` bound
    (``MSHR._expire`` applies the same gate on the scalar path): a sweep
    whose lower bound lies in the future deletes nothing, so skipping it
    leaves observable state untouched.
    """
    from repro.memory.cache import CacheLine

    paddr_l, ps_l, nat_l, block_l = pre
    # --- structures ----------------------------------------------------
    l1d = h.l1d
    l2c = h.l2c
    llc = h.llc
    dram = h.dram
    l1_sets = l1d._sets
    l1_pols = l1d._policies
    l1_ways = l1d.ways
    l1_lat = l1d.latency
    l2_sets = l2c._sets
    l2_pols = l2c._policies
    l2_mask = l2c._set_mask
    l2_ways = l2c.ways
    l2_lat = l2c.latency
    l3_sets = llc._sets
    l3_pols = llc._policies
    l3_mask = llc._set_mask
    l3_ways = llc.ways
    l3_lat = llc.latency
    l1_mshr = l1d.mshr
    l1_ments = l1_mshr._entries
    l1_cap = l1_mshr.capacity
    l1_pq = l1d.pf_mshr
    l1_pents = l1_pq._entries
    l2_mshr = l2c.mshr
    l2_ments = l2_mshr._entries
    l2_cap = l2_mshr.capacity
    l2_pq = l2c.pf_mshr
    l2_pents = l2_pq._entries
    l2_pq_cap = l2_pq.capacity
    l3_mshr = llc.mshr
    l3_ments = l3_mshr._entries
    l3_cap = l3_mshr.capacity
    l3_pq = llc.pf_mshr
    l3_pents = l3_pq._entries
    l3_pq_cap = l3_pq.capacity
    translator = h.translator
    dtlb = translator.dtlb
    dtlb_sets = dtlb._sets
    dtlb_nsets = dtlb.num_sets
    translate_miss = translator._translate_after_dtlb_miss
    walk_fn = h._walk_access
    module = h.l2_module
    mod_access = module.on_l2_access
    mod_useful = module.on_useful
    mod_miss = module.on_demand_miss
    mod_evict = module.on_evicted_unused
    writeback_l2 = h._writeback_to_l2
    writeback_llc = h._writeback_to_llc
    ppm = h.ppm
    ppm_enabled = ppm.enabled
    use_ps_bit = h.oracle_page_size or ppm_enabled
    ppm_to_llc = h.config.ppm_to_llc
    n_channels = dram.channels
    n_banks = dram.banks
    bank_row_div = n_banks * dram._blocks_per_row
    open_rows = dram._open_rows
    channel_free = dram._channel_free
    cpt = dram._cycles_per_transfer
    row_hit_lat = dram.config.row_hit_latency
    row_miss_lat = dram.config.row_miss_latency
    rob_entries = core.rob_entries
    fetch_width = core.fetch_width
    inflight = core.inflight
    inflight_append = inflight.append
    inflight_popleft = inflight.popleft
    # --- columnar per-chunk precompute (pure per-record functions) -----
    ips_l = cols[0][lo:hi].tolist()
    vaddrs_l = cols[1][lo:hi].tolist()
    isw_l = (cols[2][lo:hi] != 0).tolist()
    entries_arr = cols[3][lo:hi] + 1
    entries_l = entries_arr.tolist()
    finc_l = (entries_arr / fetch_width).tolist()
    deps_l = cols[4][lo:hi].tolist()
    blocks_arr = _np.array(block_l, dtype=_np.int64)
    s1_l = (blocks_arr & l1d._set_mask).tolist()
    s2_l = (blocks_arr & l2_mask).tolist()
    s3_l = (blocks_arr & l3_mask).tolist()
    dsi_l = (_np.array(nat_l, dtype=_np.int64) % dtlb_nsets).tolist()
    key_l = list(zip(ps_l, nat_l))
    # --- batched counters (flushed below; keep the lists in sync!) -----
    fetch = core.fetch
    retire_frontier = core.retire_frontier
    occupancy = core.occupancy
    last_load_complete = core.last_load_complete
    instructions = core.instructions
    memory_accesses = core.memory_accesses
    stall_cycles = core.stall_cycles
    h_loads = h.loads
    h_stores = h.stores
    h_load_lat = h.load_latency_sum
    l2_lat_sum = h.l2_demand_latency_sum
    l2_lat_cnt = h.l2_demand_latency_count
    l3_lat_sum = h.llc_demand_latency_sum
    l3_lat_cnt = h.llc_demand_latency_count
    pf_l2 = h.pf_issued_l2
    pf_llc = h.pf_issued_llc
    pf_drop = h.pf_dropped_mshr
    pf_red = h.pf_redundant
    l1_dem = l1d.demand_accesses
    l1_hit = l1d.demand_hits
    l1_miss = l1d.demand_misses
    l1_use = l1d.useful_prefetches
    l2_dem = l2c.demand_accesses
    l2_hit = l2c.demand_hits
    l2_missc = l2c.demand_misses
    l2_use = l2c.useful_prefetches
    l3_dem = llc.demand_accesses
    l3_hit = llc.demand_hits
    l3_missc = llc.demand_misses
    l3_use = llc.useful_prefetches
    dt_clock = dtlb._clock
    dt_hits = dtlb.hits
    dt_miss = dtlb.misses
    dt_hits2m = dtlb.hits_2m
    ppm_ann = ppm.annotations
    l1m_stalls = l1_mshr.stalls
    l1m_merges = l1_mshr.merges
    l1m_ins = l1_mshr.inserts
    l1p_merges = l1_pq.merges

    last = hi - 1
    for (i, entries, finc, is_write, dep, key, dsi, ps, block,
         s1, s2, s3, ip) in zip(
            range(lo, hi), entries_l, finc_l, isw_l, deps_l, key_l,
            dsi_l, ps_l, block_l, s1_l, s2_l, s3_l, ips_l):
        # --- Core.step: ROB reclaim + fetch ---------------------------
        while occupancy + entries > rob_entries and inflight:
            complete, freed = inflight_popleft()
            if complete > retire_frontier:
                retire_frontier = complete
            occupancy -= freed
        if retire_frontier > fetch:
            stall_cycles += retire_frontier - fetch
            fetch = retire_frontier
        fetch += finc
        issue_at = fetch
        if dep and last_load_complete > issue_at:
            issue_at = last_load_complete
        if is_write:
            h_stores += 1
        else:
            h_loads += 1
        # --- translate (DTLB native-key probe; walker on miss) --------
        dt_clock += 1
        dset = dtlb_sets[dsi]
        if key in dset:
            dset[key] = dt_clock
            dt_hits += 1
            if ps == 1:
                dt_hits2m += 1
            t = issue_at
        else:
            dt_miss += 1
            # Sync DTLB state the translator/walk path reads and writes
            # (the walker's cache/MSHR traffic uses object state only).
            dtlb._clock = dt_clock
            dtlb.hits = dt_hits
            dtlb.misses = dt_miss
            dtlb.hits_2m = dt_hits2m
            t = issue_at + translate_miss(vaddrs_l[i - lo], ps, issue_at,
                                          walk_fn)
            dt_clock = dtlb._clock
        # --- L1D demand ----------------------------------------------
        l1_set = l1_sets[s1]
        line = l1_set.get(block)
        l1_dem += 1
        if line is not None:
            pol = l1_pols[s1]
            c = pol._clock + 1
            pol._clock = c
            pol._stamps[block] = c
            l1_hit += 1
            if line.prefetch:
                l1_use += 1
                line.prefetch = False
            if is_write:
                line.dirty = True
            ready = t + l1_lat
            e = l1_ments.get(block)
            if e is not None:
                if e[0] <= t:
                    del l1_ments[block]
                    e = None
                else:
                    l1m_merges += 1
            if e is None:
                e = l1_pents.get(block)
                if e is not None:
                    if e[0] <= t:
                        del l1_pents[block]
                        e = None
                    else:
                        l1p_merges += 1
            if e is not None and e[0] > ready:
                ready = e[0]
        else:
            l1_miss += 1
            e = l1_ments.get(block)
            if e is not None:
                if e[0] <= t:
                    del l1_ments[block]
                    e = None
                else:
                    l1m_merges += 1
            if e is None:
                e = l1_pents.get(block)
                if e is not None:
                    if e[0] <= t:
                        del l1_pents[block]
                        e = None
                    else:
                        l1p_merges += 1
            if e is not None:
                # Merge with the in-flight fill.
                ready = e[0]
                floor = t + l1_lat
                if floor > ready:
                    ready = floor
            else:
                # True L1 miss: MSHR stall, then the L2 demand path.
                if len(l1_ments) >= l1_cap:
                    if l1_mshr._floor <= t:
                        dead = [b for b, en in l1_ments.items()
                                if en[0] <= t]
                        for b in dead:
                            del l1_ments[b]
                        l1_mshr._floor = min(
                            (en[0] for en in l1_ments.values()),
                            default=_INF)
                    if len(l1_ments) >= l1_cap:
                        l1m_stalls += 1
                        t = min(en[0] for en in l1_ments.values())
                t_l2 = t + l1_lat
                # --- _l2_demand ----------------------------------------
                psb = ps if use_ps_bit else None
                l2_set = l2_sets[s2]
                line2 = l2_set.get(block)
                hit2 = line2 is not None
                l2_dem += 1
                useful_issuer = None
                if hit2:
                    pol = l2_pols[s2]
                    c = pol._clock + 1
                    pol._clock = c
                    pol._stamps[block] = c
                    l2_hit += 1
                    if line2.prefetch:
                        l2_use += 1
                        line2.prefetch = False
                        useful_issuer = line2.issuer
                else:
                    l2_missc += 1
                if useful_issuer is not None:
                    mod_useful(block, useful_issuer)
                requests = mod_access(block, ip, hit2, s2, psb, ps)
                if hit2:
                    ready2 = t_l2 + l2_lat
                    e = l2_ments.get(block)
                    if e is not None:
                        if e[0] <= t_l2:
                            del l2_ments[block]
                            e = None
                        else:
                            l2_mshr.merges += 1
                    if e is None:
                        e = l2_pents.get(block)
                        if e is not None:
                            if e[0] <= t_l2:
                                del l2_pents[block]
                                e = None
                            else:
                                l2_pq.merges += 1
                    if e is not None and e[0] > ready2:
                        ready2 = e[0]
                else:
                    mod_miss(block)
                    e = l2_ments.get(block)
                    if e is not None:
                        if e[0] <= t_l2:
                            del l2_ments[block]
                            e = None
                        else:
                            l2_mshr.merges += 1
                    if e is None:
                        e = l2_pents.get(block)
                        if e is not None:
                            if e[0] <= t_l2:
                                del l2_pents[block]
                                e = None
                            else:
                                l2_pq.merges += 1
                    if e is not None:
                        ready2 = e[0]
                        floor = t_l2 + l2_lat
                        if floor > ready2:
                            ready2 = floor
                    else:
                        t_alloc = t_l2
                        if len(l2_ments) >= l2_cap:
                            if l2_mshr._floor <= t_l2:
                                dead = [b for b, en in l2_ments.items()
                                        if en[0] <= t_l2]
                                for b in dead:
                                    del l2_ments[b]
                                l2_mshr._floor = min(
                                    (en[0] for en in l2_ments.values()),
                                    default=_INF)
                            if len(l2_ments) >= l2_cap:
                                l2_mshr.stalls += 1
                                t_alloc = min(en[0]
                                              for en in l2_ments.values())
                        bit_llc = psb if ppm_to_llc else None
                        # --- _llc_demand (count_demand=True) -----------
                        t3 = t_alloc + l2_lat
                        l3_set = l3_sets[s3]
                        line3 = l3_set.get(block)
                        hit3 = line3 is not None
                        l3_dem += 1
                        ui3 = None
                        if hit3:
                            pol = l3_pols[s3]
                            c = pol._clock + 1
                            pol._clock = c
                            pol._stamps[block] = c
                            l3_hit += 1
                            if line3.prefetch:
                                l3_use += 1
                                line3.prefetch = False
                                ui3 = line3.issuer
                        else:
                            l3_missc += 1
                        if ui3 is not None:
                            mod_useful(block, ui3)
                        if hit3:
                            ready3 = t3 + l3_lat
                            e = l3_ments.get(block)
                            if e is not None:
                                if e[0] <= t3:
                                    del l3_ments[block]
                                    e = None
                                else:
                                    l3_mshr.merges += 1
                            if e is None:
                                e = l3_pents.get(block)
                                if e is not None:
                                    if e[0] <= t3:
                                        del l3_pents[block]
                                        e = None
                                    else:
                                        l3_pq.merges += 1
                            if e is not None and e[0] > ready3:
                                ready3 = e[0]
                        else:
                            e = l3_ments.get(block)
                            if e is not None:
                                if e[0] <= t3:
                                    del l3_ments[block]
                                    e = None
                                else:
                                    l3_mshr.merges += 1
                            if e is None:
                                e = l3_pents.get(block)
                                if e is not None:
                                    if e[0] <= t3:
                                        del l3_pents[block]
                                        e = None
                                    else:
                                        l3_pq.merges += 1
                            if e is not None:
                                ready3 = e[0]
                                floor = t3 + l3_lat
                                if floor > ready3:
                                    ready3 = floor
                            else:
                                tb = t3
                                if len(l3_ments) >= l3_cap:
                                    if l3_mshr._floor <= t3:
                                        dead = [b for b, en
                                                in l3_ments.items()
                                                if en[0] <= t3]
                                        for b in dead:
                                            del l3_ments[b]
                                        l3_mshr._floor = min(
                                            (en[0] for en
                                             in l3_ments.values()),
                                            default=_INF)
                                    if len(l3_ments) >= l3_cap:
                                        l3_mshr.stalls += 1
                                        tb = min(en[0] for en
                                                 in l3_ments.values())
                                # DRAM read.
                                tq = tb + l3_lat
                                ch = block % n_channels
                                within = block // n_channels
                                bank = within % n_banks
                                row = within // bank_row_div
                                start = channel_free[ch]
                                if start < tq:
                                    start = tq
                                dram.total_queue_cycles += start - tq
                                orow = open_rows[ch]
                                if orow[bank] == row:
                                    lat = row_hit_lat
                                    dram.row_hits += 1
                                else:
                                    lat = row_miss_lat
                                    dram.row_misses += 1
                                    orow[bank] = row
                                channel_free[ch] = start + cpt
                                dram.reads += 1
                                ready3 = start + lat
                                # llc.mshr.insert(block, ready3)
                                if len(l3_ments) >= l3_cap:
                                    if l3_mshr._floor <= ready3:
                                        dead = [b for b, en
                                                in l3_ments.items()
                                                if en[0] <= ready3]
                                        for b in dead:
                                            del l3_ments[b]
                                        l3_mshr._floor = min(
                                            (en[0] for en
                                             in l3_ments.values()),
                                            default=_INF)
                                    if len(l3_ments) >= l3_cap:
                                        raise RuntimeError(
                                            f"{l3_mshr.name}: insert into "
                                            f"full MSHR")
                                l3_ments[block] = (ready3, 0)
                                l3_mshr.inserts += 1
                                if ready3 < l3_mshr._floor:
                                    l3_mshr._floor = ready3
                                # _fill_llc(block)
                                existing = l3_set.get(block)
                                if existing is not None:
                                    existing.prefetch = False
                                else:
                                    pol = l3_pols[s3]
                                    st = pol._stamps
                                    if len(l3_set) >= l3_ways:
                                        victim = min(st, key=st.__getitem__)
                                        vline = l3_set.pop(victim)
                                        del st[victim]
                                        if vline.dirty:
                                            llc.writebacks += 1
                                        dirty_victim = vline.dirty
                                    else:
                                        victim = None
                                        dirty_victim = False
                                    l3_set[block] = CacheLine()
                                    c = pol._clock + 1
                                    pol._clock = c
                                    st[block] = c
                                    if dirty_victim:
                                        # LLC eviction: posted DRAM write.
                                        ch = victim % n_channels
                                        within = victim // n_channels
                                        bank = within % n_banks
                                        row = within // bank_row_div
                                        start = channel_free[ch]
                                        dram.total_queue_cycles += start
                                        orow = open_rows[ch]
                                        if orow[bank] != row:
                                            dram.row_misses += 1
                                            orow[bank] = row
                                        else:
                                            dram.row_hits += 1
                                        channel_free[ch] = start + cpt
                                        dram.writes += 1
                        l3_lat_sum += ready3 - t3
                        l3_lat_cnt += 1
                        # --- back in _l2_demand: allocate + fill L2 ----
                        ready2 = ready3
                        ps_ins = 0 if bit_llc is None else bit_llc
                        if len(l2_ments) >= l2_cap:
                            if l2_mshr._floor <= ready2:
                                dead = [b for b, en in l2_ments.items()
                                        if en[0] <= ready2]
                                for b in dead:
                                    del l2_ments[b]
                                l2_mshr._floor = min(
                                    (en[0] for en in l2_ments.values()),
                                    default=_INF)
                            if len(l2_ments) >= l2_cap:
                                raise RuntimeError(
                                    f"{l2_mshr.name}: insert into full MSHR")
                        l2_ments[block] = (ready2, ps_ins)
                        l2_mshr.inserts += 1
                        if ready2 < l2_mshr._floor:
                            l2_mshr._floor = ready2
                        # _fill_l2(block)
                        existing = l2_set.get(block)
                        if existing is not None:
                            existing.prefetch = False
                        else:
                            pol = l2_pols[s2]
                            st = pol._stamps
                            evicted_line = None
                            if len(l2_set) >= l2_ways:
                                victim = min(st, key=st.__getitem__)
                                evicted_line = l2_set.pop(victim)
                                del st[victim]
                                if evicted_line.dirty:
                                    l2c.writebacks += 1
                            l2_set[block] = CacheLine()
                            c = pol._clock + 1
                            pol._clock = c
                            st[block] = c
                            if evicted_line is not None:
                                if evicted_line.prefetch:
                                    mod_evict(victim, evicted_line.issuer)
                                if evicted_line.dirty:
                                    writeback_llc(victim)
                l2_lat_sum += ready2 - t_l2
                l2_lat_cnt += 1
                # --- prefetch issue (_issue_l2_prefetch per request) --
                for request in requests:
                    pb = request.block
                    s2p = pb & l2_mask
                    if pb in l2_sets[s2p]:
                        pf_red += 1
                        continue
                    e = l2_ments.get(pb)
                    if e is not None and e[0] <= t_l2:
                        del l2_ments[pb]
                        e = None
                    if e is None:
                        e = l2_pents.get(pb)
                        if e is not None and e[0] <= t_l2:
                            del l2_pents[pb]
                            e = None
                    if e is not None:
                        pf_red += 1
                        continue
                    fill_l2 = request.fill_l2
                    if fill_l2 and len(l2_pents) >= l2_pq_cap:
                        if l2_pq._floor <= t_l2:
                            dead = [b for b, en in l2_pents.items()
                                    if en[0] <= t_l2]
                            for b in dead:
                                del l2_pents[b]
                            l2_pq._floor = min(
                                (en[0] for en in l2_pents.values()),
                                default=_INF)
                        if len(l2_pents) >= l2_pq_cap:
                            pf_drop += 1
                            continue
                    # Locate the data: LLC probe (touches LRU on hit).
                    s3p = pb & l3_mask
                    l3p_set = l3_sets[s3p]
                    line3 = l3p_set.get(pb)
                    if line3 is not None:
                        pol = l3_pols[s3p]
                        c = pol._clock + 1
                        pol._clock = c
                        pol._stamps[pb] = c
                        pf_ready = t_l2 + l2_lat + l3_lat
                    else:
                        e = l3_ments.get(pb)
                        if e is not None:
                            if e[0] <= t_l2:
                                del l3_ments[pb]
                                e = None
                            else:
                                l3_mshr.merges += 1
                        if e is None:
                            e = l3_pents.get(pb)
                            if e is not None:
                                if e[0] <= t_l2:
                                    del l3_pents[pb]
                                    e = None
                                else:
                                    l3_pq.merges += 1
                        if e is not None:
                            pf_ready = e[0]
                        else:
                            if len(l3_pents) >= l3_pq_cap:
                                if l3_pq._floor <= t_l2:
                                    dead = [b for b, en in l3_pents.items()
                                            if en[0] <= t_l2]
                                    for b in dead:
                                        del l3_pents[b]
                                    l3_pq._floor = min(
                                        (en[0] for en in l3_pents.values()),
                                        default=_INF)
                                if len(l3_pents) >= l3_pq_cap:
                                    pf_drop += 1
                                    continue
                            # DRAM read for the prefetch.
                            tq = t_l2 + l2_lat + l3_lat
                            ch = pb % n_channels
                            within = pb // n_channels
                            bank = within % n_banks
                            row = within // bank_row_div
                            start = channel_free[ch]
                            if start < tq:
                                start = tq
                            dram.total_queue_cycles += start - tq
                            orow = open_rows[ch]
                            if orow[bank] == row:
                                lat = row_hit_lat
                                dram.row_hits += 1
                            else:
                                lat = row_miss_lat
                                dram.row_misses += 1
                                orow[bank] = row
                            channel_free[ch] = start + cpt
                            dram.reads += 1
                            pf_ready = start + lat
                            # llc.pf_mshr.insert(pb, pf_ready)
                            if len(l3_pents) >= l3_pq_cap:
                                if l3_pq._floor <= pf_ready:
                                    dead = [b for b, en in l3_pents.items()
                                            if en[0] <= pf_ready]
                                    for b in dead:
                                        del l3_pents[b]
                                    l3_pq._floor = min(
                                        (en[0] for en in l3_pents.values()),
                                        default=_INF)
                                if len(l3_pents) >= l3_pq_cap:
                                    raise RuntimeError(
                                        f"{l3_pq.name}: insert into full "
                                        f"MSHR")
                            l3_pents[pb] = (pf_ready, 0)
                            l3_pq.inserts += 1
                            if pf_ready < l3_pq._floor:
                                l3_pq._floor = pf_ready
                            # _fill_llc(pb, prefetch=not fill_l2, issuer)
                            pf_flag = not fill_l2
                            existing = l3p_set.get(pb)
                            if existing is not None:
                                if not pf_flag:
                                    existing.prefetch = False
                            else:
                                pol = l3_pols[s3p]
                                st = pol._stamps
                                victim = None
                                dirty_victim = False
                                if len(l3p_set) >= l3_ways:
                                    victim = min(st, key=st.__getitem__)
                                    vline = l3p_set.pop(victim)
                                    del st[victim]
                                    if vline.dirty:
                                        llc.writebacks += 1
                                        dirty_victim = True
                                l3p_set[pb] = CacheLine(
                                    prefetch=pf_flag, issuer=request.issuer)
                                c = pol._clock + 1
                                pol._clock = c
                                st[pb] = c
                                if pf_flag:
                                    llc.prefetch_fills += 1
                                if dirty_victim:
                                    ch = victim % n_channels
                                    within = victim // n_channels
                                    bank = within % n_banks
                                    row = within // bank_row_div
                                    start = channel_free[ch]
                                    dram.total_queue_cycles += start
                                    orow = open_rows[ch]
                                    if orow[bank] != row:
                                        dram.row_misses += 1
                                        orow[bank] = row
                                    else:
                                        dram.row_hits += 1
                                    channel_free[ch] = start + cpt
                                    dram.writes += 1
                    if fill_l2:
                        # l2c.pf_mshr.insert(pb, pf_ready)
                        if len(l2_pents) >= l2_pq_cap:
                            if l2_pq._floor <= pf_ready:
                                dead = [b for b, en in l2_pents.items()
                                        if en[0] <= pf_ready]
                                for b in dead:
                                    del l2_pents[b]
                                l2_pq._floor = min(
                                    (en[0] for en in l2_pents.values()),
                                    default=_INF)
                            if len(l2_pents) >= l2_pq_cap:
                                raise RuntimeError(
                                    f"{l2_pq.name}: insert into full MSHR")
                        l2_pents[pb] = (pf_ready, 0)
                        l2_pq.inserts += 1
                        if pf_ready < l2_pq._floor:
                            l2_pq._floor = pf_ready
                        # _fill_l2(pb, prefetch=True, issuer)
                        l2p_set = l2_sets[s2p]
                        existing = l2p_set.get(pb)
                        if existing is not None:
                            pass  # prefetch fill merges without clearing
                        else:
                            pol = l2_pols[s2p]
                            st = pol._stamps
                            evicted_line = None
                            if len(l2p_set) >= l2_ways:
                                victim = min(st, key=st.__getitem__)
                                evicted_line = l2p_set.pop(victim)
                                del st[victim]
                                if evicted_line.dirty:
                                    l2c.writebacks += 1
                            l2p_set[pb] = CacheLine(
                                prefetch=True, issuer=request.issuer)
                            c = pol._clock + 1
                            pol._clock = c
                            st[pb] = c
                            l2c.prefetch_fills += 1
                            if evicted_line is not None:
                                if evicted_line.prefetch:
                                    mod_evict(victim, evicted_line.issuer)
                                if evicted_line.dirty:
                                    writeback_llc(victim)
                        pf_l2 += 1
                    else:
                        if line3 is not None:
                            pf_red += 1
                        else:
                            pf_llc += 1
                ready = ready2
                # --- PPM annotation: L1D MSHR insert -------------------
                bit1 = ps if ppm_enabled else 0
                if ppm_enabled:
                    ppm_ann += 1
                if len(l1_ments) >= l1_cap:
                    if l1_mshr._floor <= ready:
                        dead = [b for b, en in l1_ments.items()
                                if en[0] <= ready]
                        for b in dead:
                            del l1_ments[b]
                        l1_mshr._floor = min(
                            (en[0] for en in l1_ments.values()),
                            default=_INF)
                    if len(l1_ments) >= l1_cap:
                        raise RuntimeError(
                            f"{l1_mshr.name}: insert into full MSHR")
                l1_ments[block] = (ready, bit1)
                l1m_ins += 1
                if ready < l1_mshr._floor:
                    l1_mshr._floor = ready
                # --- _fill_l1(block, dirty=is_write) -------------------
                existing = l1_set.get(block)
                if existing is not None:
                    existing.dirty = existing.dirty or is_write
                    existing.prefetch = False
                else:
                    pol = l1_pols[s1]
                    st = pol._stamps
                    evicted_line = None
                    if len(l1_set) >= l1_ways:
                        victim = min(st, key=st.__getitem__)
                        evicted_line = l1_set.pop(victim)
                        del st[victim]
                        if evicted_line.dirty:
                            l1d.writebacks += 1
                    l1_set[block] = CacheLine(dirty=is_write)
                    c = pol._clock + 1
                    pol._clock = c
                    st[block] = c
                    if evicted_line is not None and evicted_line.dirty:
                        writeback_l2(victim)
        # --- Core.step epilogue ---------------------------------------
        if is_write:
            complete = issue_at + 1.0
        else:
            complete = ready
            h_load_lat += complete - issue_at
            last_load_complete = complete
        inflight_append((complete, entries))
        occupancy += entries
        instructions += entries
        memory_accesses += 1
        if on_record is not None and i != last:
            on_record(i)

    # --- flush batched counters (must mirror the loads above) ---------
    core.fetch = fetch
    core.retire_frontier = retire_frontier
    core.occupancy = occupancy
    core.last_load_complete = last_load_complete
    core.instructions = instructions
    core.memory_accesses = memory_accesses
    core.stall_cycles = stall_cycles
    h.loads = h_loads
    h.stores = h_stores
    h.load_latency_sum = h_load_lat
    h.l2_demand_latency_sum = l2_lat_sum
    h.l2_demand_latency_count = l2_lat_cnt
    h.llc_demand_latency_sum = l3_lat_sum
    h.llc_demand_latency_count = l3_lat_cnt
    h.pf_issued_l2 = pf_l2
    h.pf_issued_llc = pf_llc
    h.pf_dropped_mshr = pf_drop
    h.pf_redundant = pf_red
    l1d.demand_accesses = l1_dem
    l1d.demand_hits = l1_hit
    l1d.demand_misses = l1_miss
    l1d.useful_prefetches = l1_use
    l2c.demand_accesses = l2_dem
    l2c.demand_hits = l2_hit
    l2c.demand_misses = l2_missc
    l2c.useful_prefetches = l2_use
    llc.demand_accesses = l3_dem
    llc.demand_hits = l3_hit
    llc.demand_misses = l3_missc
    llc.useful_prefetches = l3_use
    dtlb._clock = dt_clock
    dtlb.hits = dt_hits
    dtlb.misses = dt_miss
    dtlb.hits_2m = dt_hits2m
    ppm.annotations = ppm_ann
    l1_mshr.stalls = l1m_stalls
    l1_mshr.merges = l1m_merges
    l1_mshr.inserts = l1m_ins
    l1_pq.merges = l1p_merges
    if on_record is not None:
        on_record(last)
