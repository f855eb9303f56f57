"""The full memory hierarchy: TLBs/PTW + L1D + L2C + LLC + DRAM + PPM.

Timing model
------------
Functional-latency with MSHR-limited concurrency: every access computes the
cycle its data becomes available, walking down the levels and adding each
level's latency; DRAM adds row-buffer- and bandwidth-dependent delay.  An
access to a block already in flight merges with the MSHR entry; a full MSHR
stalls the requester until an entry frees.  The OOO core model on top
converts these ready-cycles into IPC through ROB occupancy.

This is where PPM is wired in (Section IV-A of the paper):

1. an L1D miss knows its page size from the translation metadata (the L1D
   is VIPT, translation happens in parallel with the L1 access);
2. PPM writes the page-size bit into the allocated L1D MSHR entry;
3. the L2C prefetcher is engaged on L2C demand accesses — i.e. L1D misses —
   and receives the bit with the request stream.

Dirty evictions write back to the next level; LLC dirty evictions consume
DRAM write bandwidth.  Page-walk reads travel through L2C/LLC/DRAM (but do
not train the prefetcher), so walk latency responds to cache pressure and
2MB pages genuinely shorten walks.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.ppm import PageSizePropagationModule
from repro.core.psa import L2PrefetchModule
from repro.memory.address import (
    BLOCKS_PER_1G,
    BLOCKS_PER_2M,
    BLOCKS_PER_4K,
    PAGE_1G_BITS,
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
)
from repro.memory.cache import Cache, CacheLine
from repro.memory.dram import DRAM
from repro.prefetch.base import L1DPrefetcher, PrefetchRequest
from repro.sim.config import SystemConfig
from repro.verify import invariants
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.page_table import PageTable
from repro.vm.walker import AddressTranslator

#: Native page-number shift, indexed by page-size code (4KB, 2MB, 1GB).
_PAGE_SHIFT = (PAGE_4K_BITS, PAGE_2M_BITS, PAGE_1G_BITS)


class MemoryHierarchy:
    """One core's private hierarchy, optionally sharing LLC and DRAM."""

    def __init__(self, config: SystemConfig,
                 allocator: PhysicalMemoryAllocator,
                 l2_module: Optional[L2PrefetchModule] = None,
                 llc_module: Optional[L2PrefetchModule] = None,
                 l1d_prefetcher: Optional[L1DPrefetcher] = None,
                 oracle_page_size: bool = False,
                 shared_llc: Optional[Cache] = None,
                 shared_dram: Optional[DRAM] = None,
                 page_table: Optional[PageTable] = None) -> None:
        config.validate()
        self.config = config
        self.allocator = allocator
        self.l1d = Cache(config.l1d)
        self.l2c = Cache(config.l2c)
        self.llc = shared_llc if shared_llc is not None else Cache(config.llc)
        self.dram = shared_dram if shared_dram is not None else DRAM(config.dram)
        self.translator = AddressTranslator(config, allocator, page_table)
        self.ppm = PageSizePropagationModule(
            enabled=config.ppm_enabled,
            num_page_sizes=config.num_page_sizes)
        self.l2_module = l2_module if l2_module is not None else L2PrefetchModule()
        #: Optional LLC prefetcher (Section IV-A "Applicability on LLC
        #: Prefetching").  It is engaged on LLC demand accesses (L2C
        #: misses); its page-size information arrives via the L2C MSHR
        #: when ``config.ppm_to_llc`` is set.
        self.llc_module = llc_module
        self.l1d_prefetcher = l1d_prefetcher
        #: "Magic" page-size oracle (Figs. 4/5): the prefetcher knows the
        #: page size even without PPM.  With PPM enabled this is equivalent
        #: by construction (the simulated PPM bit is always correct).
        self.oracle_page_size = oracle_page_size
        #: Optional semantic-event observer (see ``repro.verify.oracle``).
        #: When set, the hierarchy narrates every functional decision —
        #: translations, per-level demand outcomes, fills with their
        #: victims, prefetch issues, walk reads — so a reference model can
        #: replay and diff them.  None costs one branch per site.
        self.observer = None
        self._check = invariants.enabled()
        # --- statistics -------------------------------------------------
        self.loads = 0
        self.stores = 0
        self.load_latency_sum = 0.0
        self.l2_demand_latency_sum = 0.0
        self.l2_demand_latency_count = 0
        self.llc_demand_latency_sum = 0.0
        self.llc_demand_latency_count = 0
        self.pf_issued_l2 = 0       # prefetches targeted at the L2C
        self.pf_issued_llc = 0      # prefetches targeted at the LLC
        self.pf_dropped_mshr = 0    # dropped because an MSHR was full
        self.pf_redundant = 0       # target already cached or in flight
        self.l1_pf_issued = 0
        self.walk_reads = 0

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def load(self, vaddr: int, ip: int, now: float) -> float:
        """Demand load; returns the cycle the data is available."""
        self.loads += 1
        ready = self._access(vaddr, ip, now, False)
        self.load_latency_sum += ready - now
        return ready

    def store(self, vaddr: int, ip: int, now: float) -> float:
        """Demand store (write-allocate, posted; caller may ignore timing)."""
        self.stores += 1
        return self._access(vaddr, ip, now, True)

    def _access(self, vaddr: int, ip: int, now: float,
                is_write: bool) -> float:
        """The demand path: translation, L1D, L2C (+ prefetch issue), LLC.

        Every demand access of every run executes this one method, from
        ``Core.run`` and ``Core.step`` alike.  Hot structures are probed
        inline and counters are written straight to their objects.  The
        oracle's observer events sit behind one test of ``obs`` each, the
        REPRO_CHECK invariants behind the components' ``_check`` flags.
        """
        obs = self.observer
        if obs is not None:
            obs.on_access_begin(vaddr, is_write)
        # --- translation: the DTLB is probed at the address's native
        # granularity, the only key under which it can be cached --------
        paddr, page_size = self.allocator.translate(vaddr)
        dtlb = self.translator.dtlb
        page = vaddr >> _PAGE_SHIFT[page_size]
        key = (page_size, page)
        clock = dtlb._clock + 1
        dtlb._clock = clock
        tlb_set = dtlb._sets[page % dtlb.num_sets]
        if key in tlb_set:
            tlb_set[key] = clock
            dtlb.hits += 1
            if page_size == PAGE_SIZE_2M:
                dtlb.hits_2m += 1
            t = now
        else:
            dtlb.misses += 1
            t = now + self.translator._translate_after_dtlb_miss(
                vaddr, page_size, now, self._walk_access)
        if obs is not None:
            obs.on_translate(vaddr, paddr, page_size)
        block = paddr >> 6
        # --- L1D ------------------------------------------------------
        l1d = self.l1d
        s1 = block & l1d._set_mask
        line = l1d._sets[s1].get(block)
        hit = line is not None
        l1d.demand_accesses += 1
        if hit:
            policy = l1d._policies[s1]
            policy._clock += 1
            policy._stamps[block] = policy._clock
            l1d.demand_hits += 1
            if line.prefetch:
                l1d.useful_prefetches += 1
                line.prefetch = False
        else:
            l1d.demand_misses += 1
        # Emitted at lookup time, before any L1 prefetch can fill this set:
        # the observer's mirror must see the same state the lookup saw.
        if obs is not None:
            obs.on_l1_demand(block, hit, is_write)
        if self.l1d_prefetcher is not None and not is_write:
            for pf_vaddr in self.l1d_prefetcher.on_access(vaddr, ip, hit):
                self._issue_l1_prefetch(pf_vaddr, t)
        pending = l1d.inflight_lookup(block, t)
        if hit:
            if is_write:
                line.dirty = True
            ready = t + l1d.latency
            if pending is not None and pending[0] > ready:
                # The line was filled by a still-in-flight (pre)fetch: the
                # demand waits for the remaining latency (late prefetch).
                ready = pending[0]
            return ready
        if pending is not None:
            if is_write:
                if obs is not None:
                    obs.on_mark_dirty("l1d", block)
                l1d.mark_dirty(block)
            return max(pending[0], t + l1d.latency)
        mshr = l1d.mshr
        if len(mshr._entries) >= mshr.capacity:
            t = mshr.stall_until_free(t)
        # --- L2C demand: engages the L2C prefetcher -------------------
        t = t + l1d.latency
        if self.oracle_page_size:
            page_size_bit = page_size
        else:
            page_size_bit = self.ppm.page_size_for_l2(page_size)
        l2c = self.l2c
        s2 = block & l2c._set_mask
        l2_set = l2c._sets[s2]
        line = l2_set.get(block)
        hit = line is not None
        l2c.demand_accesses += 1
        useful_issuer = None
        if hit:
            policy = l2c._policies[s2]
            policy._clock += 1
            policy._stamps[block] = policy._clock
            l2c.demand_hits += 1
            if line.prefetch:
                l2c.useful_prefetches += 1
                line.prefetch = False
                useful_issuer = line.issuer
        else:
            l2c.demand_misses += 1
        module = self.l2_module
        if useful_issuer is not None:
            module.on_useful(block, useful_issuer)
        requests = module.on_l2_access(block, ip, hit, s2, page_size_bit,
                                       page_size)
        if not hit:
            module.on_demand_miss(block)
        pending = l2c.inflight_lookup(block, t)
        if obs is not None:
            obs.on_l2_demand(block, hit, not hit and pending is not None,
                             page_size_bit, useful_issuer)
        if hit:
            ready = t + l2c.latency
            if pending is not None and pending[0] > ready:
                ready = pending[0]   # late prefetch: partial latency saving
        elif pending is not None:
            ready = max(pending[0], t + l2c.latency)
        else:
            l2_mshr = l2c.mshr
            t_alloc = t
            if len(l2_mshr._entries) >= l2_mshr.capacity:
                t_alloc = l2_mshr.stall_until_free(t)
            bit = page_size_bit if self.config.ppm_to_llc else None
            ready = self._llc_demand(block, t_alloc + l2c.latency, ip,
                                     bit, page_size)
            l2_mshr.insert(block, ready, 0 if bit is None else bit)
            # Fill the L2C: merge into a resident line, else place (LRU).
            victim = None
            existing = l2_set.get(block)
            if existing is not None:
                existing.prefetch = False
            else:
                victim, victim_line = l2c._place(l2_set, s2, block,
                                                 CacheLine())
            if obs is not None:
                obs.on_fill("l2c", block, False, False, -1, victim)
            if victim is not None:
                self._l2_evicted(victim, victim_line)
        self.l2_demand_latency_sum += ready - t
        self.l2_demand_latency_count += 1
        if requests:
            self._issue_l2_prefetches(requests, t, block, page_size_bit)
        # PPM: the page-size bit rides in the L1D MSHR entry.
        self.ppm.annotate_l1d_miss(mshr, block, ready, page_size)
        # Fill the L1D: merge into a resident line, else place (LRU).
        victim = None
        l1_set = l1d._sets[s1]
        existing = l1_set.get(block)
        if existing is not None:
            existing.dirty = existing.dirty or is_write
            existing.prefetch = False
        else:
            victim, victim_line = l1d._place(l1_set, s1, block,
                                             CacheLine(is_write))
        if obs is not None:
            obs.on_fill("l1d", block, is_write, False, -1, victim)
        if victim is not None and victim_line.dirty:
            self._writeback_to_l2(victim)
        return ready

    def _llc_demand(self, block: int, t: float, ip: int = 0,
                    page_size_bit: Optional[int] = None,
                    true_page_size: int = 0,
                    count_demand: bool = True) -> float:
        """LLC access for an L2C demand miss (or, uncounted, a walk read).

        Page-walk reads reuse this path but are not demand traffic: they
        must not perturb coverage/accuracy accounting or train the LLC
        prefetcher.
        """
        obs = self.observer
        llc = self.llc
        s3 = block & llc._set_mask
        llc_set = llc._sets[s3]
        line = llc_set.get(block)
        hit = line is not None
        if hit:
            policy = llc._policies[s3]
            policy._clock += 1
            policy._stamps[block] = policy._clock
        useful_issuer = None
        llc_module = self.llc_module if count_demand else None
        if count_demand:
            llc.demand_accesses += 1
            if hit:
                llc.demand_hits += 1
                if line.prefetch:
                    llc.useful_prefetches += 1
                    line.prefetch = False
                    useful_issuer = line.issuer
                    self.l2_module.on_useful(block, useful_issuer)
            else:
                llc.demand_misses += 1
            if llc_module is not None:
                llc_requests = llc_module.on_l2_access(
                    block, ip, hit, s3, page_size_bit, true_page_size)
        pending = llc.inflight_lookup(block, t)
        if obs is not None:
            obs.on_llc_demand(block, hit, not hit and pending is not None,
                              count_demand, useful_issuer)
        if hit:
            ready = t + llc.latency
            if pending is not None and pending[0] > ready:
                ready = pending[0]   # late prefetch: partial latency saving
        elif pending is not None:
            ready = max(pending[0], t + llc.latency)
        else:
            mshr = llc.mshr
            t_alloc = t
            if len(mshr._entries) >= mshr.capacity:
                t_alloc = mshr.stall_until_free(t)
            ready = self.dram.access(block, t_alloc + llc.latency)
            mshr.insert(block, ready)
            # Fill the LLC: merge into a resident line, else place (LRU).
            victim = None
            existing = llc_set.get(block)
            if existing is not None:
                existing.prefetch = False
            else:
                victim, victim_line = llc._place(llc_set, s3, block,
                                                 CacheLine())
            if obs is not None:
                obs.on_fill("llc", block, False, False, -1, victim)
            if victim is not None and victim_line.dirty:
                # Posted write: consumes DRAM bandwidth, nobody waits.
                self.dram.access(victim, 0.0, is_write=True)
        if count_demand:
            self.llc_demand_latency_sum += ready - t
            self.llc_demand_latency_count += 1
            if llc_module is not None:
                for request in llc_requests:
                    self._issue_llc_prefetch(request, t, block,
                                             page_size_bit)
        return ready

    # ------------------------------------------------------------------
    # Fills and writebacks
    # ------------------------------------------------------------------
    def _writeback_to_l2(self, block: int) -> None:
        if self.l2c.contains(block):
            if self.observer is not None:
                self.observer.on_mark_dirty("l2c", block)
            self.l2c.mark_dirty(block)
        else:
            evicted = self.l2c.fill(block, dirty=True)
            if self.observer is not None:
                self.observer.on_fill("l2c", block, True, False, -1,
                                      None if evicted is None else evicted[0])
            if evicted is not None:
                self._l2_evicted(*evicted)

    def _fill_l2(self, block: int, prefetch: bool = False,
                 issuer: int = -1) -> None:
        evicted = self.l2c.fill(block, prefetch=prefetch, issuer=issuer)
        if self.observer is not None:
            self.observer.on_fill("l2c", block, False, prefetch, issuer,
                                  None if evicted is None else evicted[0])
        if evicted is not None:
            self._l2_evicted(*evicted)

    def _l2_evicted(self, victim_block: int, victim_line: CacheLine) -> None:
        if victim_line.prefetch:
            # Prefetched but never demanded: negative feedback (PPF).
            self.l2_module.on_evicted_unused(victim_block, victim_line.issuer)
        if victim_line.dirty:
            self._writeback_to_llc(victim_block)

    def _writeback_to_llc(self, block: int) -> None:
        if self.llc.contains(block):
            if self.observer is not None:
                self.observer.on_mark_dirty("llc", block)
            self.llc.mark_dirty(block)
        else:
            evicted = self.llc.fill(block, dirty=True)
            if self.observer is not None:
                self.observer.on_fill("llc", block, True, False, -1,
                                      None if evicted is None else evicted[0])
            self._handle_llc_eviction(evicted)

    def _fill_llc(self, block: int, prefetch: bool = False,
                  issuer: int = -1) -> None:
        evicted = self.llc.fill(block, prefetch=prefetch, issuer=issuer)
        if self.observer is not None:
            self.observer.on_fill("llc", block, False, prefetch, issuer,
                                  None if evicted is None else evicted[0])
        self._handle_llc_eviction(evicted)

    def _handle_llc_eviction(self, evicted) -> None:
        if evicted is None:
            return
        victim_block, victim_line = evicted
        if victim_line.dirty:
            # Posted write: consumes DRAM bandwidth, nobody waits on it.
            self.dram.access(victim_block, 0.0, is_write=True)

    # ------------------------------------------------------------------
    # Prefetch issue
    # ------------------------------------------------------------------
    def _check_prefetch_bounds(self, target: int, trigger: int,
                               page_size_bit: Optional[int],
                               where: str) -> None:
        """REPRO_CHECK: a prefetch must stay inside its trigger's page.

        Two independent formulations, deliberately *not* sharing code with
        :func:`repro.core.psa.prefetch_window` (so a bug there cannot fool
        the check):

        1. the window implied by the page-size information the prefetcher
           was given — 4KB when the bit is absent or 0, the 2MB page when
           it says 2MB, the 1GB page when it says 1GB;
        2. the pool-geometry ground truth: the target must lie inside the
           physical page the allocator actually carved for the trigger,
           and the delivered bit must agree with that page's true size.
        """
        if page_size_bit == PAGE_SIZE_1G:
            span = BLOCKS_PER_1G
        elif page_size_bit == PAGE_SIZE_2M or page_size_bit is True:
            span = BLOCKS_PER_2M
        else:
            span = BLOCKS_PER_4K
        lo = trigger & ~(span - 1)
        if not lo <= target <= lo + span - 1:
            invariants.violated(
                f"{where}: prefetch {target:#x} crosses the "
                f"{span * 64}-byte page boundary of trigger {trigger:#x} "
                f"(page-size bit {page_size_bit!r})")
        window = self.allocator.physical_window_of_block(trigger)
        if window is not None:
            lo_true, hi_true, true_ps = window
            if not lo_true <= target <= hi_true:
                invariants.violated(
                    f"{where}: prefetch {target:#x} leaves the physical "
                    f"page [{lo_true:#x}, {hi_true:#x}] of trigger "
                    f"{trigger:#x} (true page size {true_ps})")
            if page_size_bit is not None and page_size_bit is not True \
                    and page_size_bit != true_ps:
                invariants.violated(
                    f"{where}: page-size bit {page_size_bit} for trigger "
                    f"{trigger:#x} disagrees with pool geometry "
                    f"(true size {true_ps})")

    def _issue_l2_prefetches(self, requests: List[PrefetchRequest],
                             now: float, trigger: int,
                             page_size_bit: Optional[int]) -> None:
        """Issue the L2C prefetcher's requests for one demand access."""
        obs = self.observer
        check = self._check
        l2c = self.l2c
        llc = self.llc
        l2_sets = l2c._sets
        l2_mask = l2c._set_mask
        l2_inflight = l2c.mshr._entries
        l2_pq = l2c.pf_mshr
        l2_queued = l2_pq._entries
        l2_pq_capacity = l2_pq.capacity
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_pq = llc.pf_mshr
        llc_ready = now + l2c.latency + llc.latency
        redundant = dropped = issued_l2 = issued_llc = 0
        for request in requests:
            block = request.block
            if check:
                self._check_prefetch_bounds(block, trigger, page_size_bit,
                                            "L2C")
            if obs is not None:
                obs.on_prefetch_request("l2c", block, request.fill_l2,
                                        request.issuer, trigger,
                                        page_size_bit)
            # Resident or in flight (``l2c.inflight_contains`` inlined:
            # completed fills retire lazily) makes the request redundant.
            s2 = block & l2_mask
            l2_set = l2_sets[s2]
            present = block in l2_set
            if not present:
                entry = l2_inflight.get(block)
                if entry is not None and entry[0] <= now:
                    del l2_inflight[block]
                    entry = None
                if entry is None:
                    entry = l2_queued.get(block)
                    if entry is not None and entry[0] <= now:
                        del l2_queued[block]
                        entry = None
                present = entry is not None
            if present:
                redundant += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "redundant-l2c", False)
                continue
            fill_l2 = request.fill_l2
            # ``is_full`` only when at capacity; a future ``_floor``
            # means nothing can retire yet.
            if (fill_l2 and len(l2_queued) >= l2_pq_capacity
                    and (l2_pq._floor > now or l2_pq.is_full(now))):
                # Prefetch queue full: shed the request (ChampSim drops too).
                dropped += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "dropped-l2pq", False)
                continue
            # Locate the data.  The LLC probe touches LRU on a hit, so the
            # observer must learn about it *before* any fill events follow.
            s3 = block & llc_mask
            llc_set = llc_sets[s3]
            llc_hit = block in llc_set
            if llc_hit:
                policy = llc._policies[s3]
                policy._clock += 1
                policy._stamps[block] = policy._clock
            if obs is not None:
                obs.on_prefetch_llc_probe(block, llc_hit)
            if llc_hit:
                ready = llc_ready
            else:
                pending = llc.inflight_lookup(block, now)
                if pending is not None:
                    ready = pending[0]
                else:
                    if (len(llc_pq._entries) >= llc_pq.capacity
                            and (llc_pq._floor > now
                                 or llc_pq.is_full(now))):
                        dropped += 1
                        if obs is not None:
                            obs.on_prefetch_outcome(block, "dropped-llcpq",
                                                    False)
                        continue
                    ready = self.dram.access(block, llc_ready)
                    llc_pq.insert(block, ready)
                    # Fill the LLC (the probe missed, so no merge).
                    victim, victim_line = llc._place(
                        llc_set, s3, block,
                        CacheLine(False, not fill_l2, request.issuer))
                    if obs is not None:
                        obs.on_fill("llc", block, False, not fill_l2,
                                    request.issuer, victim)
                    if victim is not None and victim_line.dirty:
                        self.dram.access(victim, 0.0, is_write=True)
            if fill_l2:
                l2_pq.insert(block, ready)
                # Fill the L2C (not resident: the request was not
                # redundant).
                victim, victim_line = l2c._place(
                    l2_set, s2, block, CacheLine(False, True, request.issuer))
                if obs is not None:
                    obs.on_fill("l2c", block, False, True, request.issuer,
                                victim)
                if victim is not None:
                    self._l2_evicted(victim, victim_line)
                issued_l2 += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "issued-l2", llc_hit)
            elif llc_hit:
                # Already in LLC: the prefetch is a no-op there.
                redundant += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "redundant-llc", True)
            else:
                issued_llc += 1
                if obs is not None:
                    obs.on_prefetch_outcome(block, "issued-llc", False)
        self.pf_redundant += redundant
        self.pf_dropped_mshr += dropped
        self.pf_issued_l2 += issued_l2
        self.pf_issued_llc += issued_llc

    def _issue_llc_prefetch(self, request: PrefetchRequest, now: float,
                            trigger_block: Optional[int] = None,
                            page_size_bit: Optional[int] = None) -> None:
        """LLC-level prefetch: always fills the LLC, sourced from DRAM."""
        block = request.block
        if self._check and trigger_block is not None:
            self._check_prefetch_bounds(block, trigger_block, page_size_bit,
                                        "LLC")
        obs = self.observer
        if obs is not None:
            obs.on_prefetch_request("llc", block, False, request.issuer,
                                    trigger_block, page_size_bit)
        if self.llc.contains(block) or self.llc.inflight_contains(block, now):
            self.pf_redundant += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "redundant-llc", False)
            return
        if self.llc.pf_mshr.is_full(now):
            self.pf_dropped_mshr += 1
            if obs is not None:
                obs.on_prefetch_outcome(block, "dropped-llcpq", False)
            return
        ready = self.dram.access(block, now + self.llc.latency)
        self.llc.pf_mshr.insert(block, ready)
        self._fill_llc(block, prefetch=True, issuer=request.issuer)
        self.pf_issued_llc += 1
        if obs is not None:
            obs.on_prefetch_outcome(block, "issued-llc", False)

    def _issue_l1_prefetch(self, pf_vaddr: int, now: float) -> None:
        """L1D prefetch (IPCP): virtual address, fills the L1D.

        Virtual-address prefetches may legally cross physical page
        boundaries (they re-translate), so the physical-window invariant
        does not apply here.
        """
        paddr, page_size = self.allocator.translate(pf_vaddr)
        block = paddr >> 6
        if self.observer is not None:
            self.observer.on_l1_prefetch(pf_vaddr, block, page_size)
        if self.l1d.contains(block) or self.l1d.inflight_contains(block, now):
            return
        if self.l1d.pf_mshr.is_full(now):
            return
        l2_line = self.l2c.lookup(block, update_lru=False)
        if l2_line is not None:
            ready = now + self.l1d.latency + self.l2c.latency
        else:
            llc_line = self.llc.lookup(block, update_lru=False)
            if llc_line is not None:
                ready = (now + self.l1d.latency + self.l2c.latency
                         + self.llc.latency)
            else:
                inflight = self.llc.inflight_lookup(block, now)
                if inflight is not None:
                    ready = inflight[0]
                elif self.llc.pf_mshr.is_full(now):
                    return
                else:
                    ready = self.dram.access(
                        block, now + self.l1d.latency + self.l2c.latency
                        + self.llc.latency)
                    self.llc.pf_mshr.insert(block, ready)
                    self._fill_llc(block)
        self.l1d.pf_mshr.insert(block, ready, page_size=page_size)
        evicted = self.l1d.fill(block, prefetch=True)
        if self.observer is not None:
            self.observer.on_fill("l1d", block, False, True, -1,
                                  None if evicted is None else evicted[0])
        if evicted is not None and evicted[1].dirty:
            self._writeback_to_l2(evicted[0])
        self.l1_pf_issued += 1

    # ------------------------------------------------------------------
    # Page-walk traffic
    # ------------------------------------------------------------------
    def _walk_access(self, paddr: int, now: float) -> float:
        """One serial PTE read through L2C -> LLC -> DRAM (no prefetching)."""
        self.walk_reads += 1
        obs = self.observer
        block = paddr >> 6
        line = self.l2c.lookup(block)
        if line is not None:
            if obs is not None:
                obs.on_walk_read(paddr, True, False)
            return now + self.l2c.latency
        inflight = self.l2c.inflight_lookup(block, now)
        if inflight is not None:
            if obs is not None:
                obs.on_walk_read(paddr, False, True)
            return max(inflight[0], now + self.l2c.latency)
        if obs is not None:
            obs.on_walk_read(paddr, False, False)
        t = self.l2c.mshr.stall_until_free(now)
        ready = self._llc_demand(block, t + self.l2c.latency,
                                 count_demand=False)
        self.l2c.mshr.insert(block, ready)
        self._fill_l2(block)
        return ready

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero all counters at the warmup/measurement boundary.

        Structural state (cache contents, TLBs, prefetcher tables) is
        deliberately preserved — only the statistics restart, matching the
        paper's warm-up-then-measure methodology.
        """
        if self.observer is not None:
            self.observer.on_reset_stats()
        for cache in (self.l1d, self.l2c, self.llc):
            cache.reset_stats()
        self.dram.reset_stats()
        self.translator.reset_stats()
        if hasattr(self.l2_module, "reset_stats"):
            self.l2_module.reset_stats()
        self.loads = self.stores = 0
        self.load_latency_sum = 0.0
        self.l2_demand_latency_sum = 0.0
        self.l2_demand_latency_count = 0
        self.llc_demand_latency_sum = 0.0
        self.llc_demand_latency_count = 0
        self.pf_issued_l2 = self.pf_issued_llc = 0
        self.pf_dropped_mshr = self.pf_redundant = 0
        self.l1_pf_issued = 0
        self.walk_reads = 0

    def state_dict(self) -> dict:
        """Snapshot the full hierarchy: caches, DRAM, VM, modules, stats.

        Wiring (the observer, the L1D prefetcher's ``may_cross`` closure,
        shared LLC/DRAM references) is structural and never serialized;
        ``load_state_dict`` expects a hierarchy rebuilt with the identical
        configuration.
        """
        state = {
            "l1d": self.l1d.state_dict(),
            "l2c": self.l2c.state_dict(),
            "llc": self.llc.state_dict(),
            "dram": self.dram.state_dict(),
            "translator": self.translator.state_dict(),
            "allocator": self.allocator.state_dict(),
            "ppm": self.ppm.state_dict(),
            "l2_module": self.l2_module.state_dict(),
            "llc_module": (None if self.llc_module is None
                           else self.llc_module.state_dict()),
            "l1d_prefetcher": (None if self.l1d_prefetcher is None
                               else self.l1d_prefetcher.state_dict()),
            "stats": (self.loads, self.stores, self.load_latency_sum,
                      self.l2_demand_latency_sum,
                      self.l2_demand_latency_count,
                      self.llc_demand_latency_sum,
                      self.llc_demand_latency_count,
                      self.pf_issued_l2, self.pf_issued_llc,
                      self.pf_dropped_mshr, self.pf_redundant,
                      self.l1_pf_issued, self.walk_reads),
        }
        return state

    def load_state_dict(self, state: dict) -> None:
        self.l1d.load_state_dict(state["l1d"])
        self.l2c.load_state_dict(state["l2c"])
        self.llc.load_state_dict(state["llc"])
        self.dram.load_state_dict(state["dram"])
        self.translator.load_state_dict(state["translator"])
        self.allocator.load_state_dict(state["allocator"])
        self.ppm.load_state_dict(state["ppm"])
        self.l2_module.load_state_dict(state["l2_module"])
        if self.llc_module is not None and state["llc_module"] is not None:
            self.llc_module.load_state_dict(state["llc_module"])
        if (self.l1d_prefetcher is not None
                and state["l1d_prefetcher"] is not None):
            self.l1d_prefetcher.load_state_dict(state["l1d_prefetcher"])
        (self.loads, self.stores, self.load_latency_sum,
         self.l2_demand_latency_sum, self.l2_demand_latency_count,
         self.llc_demand_latency_sum, self.llc_demand_latency_count,
         self.pf_issued_l2, self.pf_issued_llc, self.pf_dropped_mshr,
         self.pf_redundant, self.l1_pf_issued,
         self.walk_reads) = state["stats"]

    def avg_load_latency(self) -> float:
        """Mean core-visible load latency (translation + hierarchy)."""
        return self.load_latency_sum / self.loads if self.loads else 0.0

    def l2_avg_demand_latency(self) -> float:
        if not self.l2_demand_latency_count:
            return 0.0
        return self.l2_demand_latency_sum / self.l2_demand_latency_count

    def llc_avg_demand_latency(self) -> float:
        if not self.llc_demand_latency_count:
            return 0.0
        return self.llc_demand_latency_sum / self.llc_demand_latency_count

    def l2_coverage(self) -> float:
        """Fraction of would-be L2C misses eliminated by prefetching."""
        would_be = self.l2c.useful_prefetches + self.l2c.demand_misses
        return self.l2c.useful_prefetches / would_be if would_be else 0.0

    def llc_coverage(self) -> float:
        would_be = self.llc.useful_prefetches + self.llc.demand_misses
        return self.llc.useful_prefetches / would_be if would_be else 0.0

    def l2_accuracy(self) -> float:
        return (self.l2c.useful_prefetches / self.pf_issued_l2
                if self.pf_issued_l2 else 0.0)

    def llc_accuracy(self) -> float:
        return (self.llc.useful_prefetches / self.pf_issued_llc
                if self.pf_issued_llc else 0.0)
