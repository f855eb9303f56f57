"""Differential oracle: a naive reference model diffed against the fast
hierarchy.

The fast simulator (``repro.memory.hierarchy``) interleaves functional
state with timing tricks — lazy MSHR retirement, eager fills, merged
misses.  This module replays the same trace through a *deliberately
simple* reference model and diffs the two block-by-block:

- **Timing-independent semantics are recomputed from scratch.**  The
  oracle owns naive reimplementations of the TLBs, the MMU (page-
  structure) cache, the page-walk flow and all three cache levels
  (plain per-set dicts with timestamp LRU).  From the virtual address
  stream alone it predicts every translation, every page-walk PTE read,
  every hit/miss outcome, every LRU victim, and every demand counter.
- **Timing-dependent *scheduling* is treated as a logged input.**
  Whether a miss merged with an in-flight fill or a prefetch was shed at
  a full queue depends on cycle arithmetic the reference model refuses
  to reproduce; the hierarchy narrates those decisions through its
  ``observer`` hook and the oracle validates their *legality* (a merge
  may only be claimed for a non-resident block; a prefetch may never
  leave its trigger's physical page) and applies their state effects to
  its mirrors.

Every mismatch is recorded as a divergence; :meth:`OracleObserver.finish`
performs the final block-by-block state and counter diff and returns a
:class:`VerifyReport`.

The oracle is single-core only: with a shared LLC another core's fills
would mutate state this observer never sees.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.memory.address import (
    BLOCKS_PER_1G,
    BLOCKS_PER_2M,
    BLOCKS_PER_4K,
    PAGE_1G_BITS,
    PAGE_1G_SIZE,
    PAGE_2M_BITS,
    PAGE_2M_SIZE,
    PAGE_4K_BITS,
    PAGE_4K_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.prefetch.base import ISSUER_PSA, ISSUER_PSA_2MB
from repro.vm.allocator import PT_NODE_BASE, PhysicalMemoryAllocator
from repro.vm.page_table import LEVEL_SHIFTS, PageTable

#: Recorded divergences are capped; past this only the count grows.
MAX_RECORDED = 25


class OracleDivergence(AssertionError):
    """The fast hierarchy and the reference model disagreed."""

    def __init__(self, report: "VerifyReport") -> None:
        super().__init__(report.headline())
        self.report = report


class VerifyReport:
    """Outcome of one fast-vs-oracle run."""

    def __init__(self) -> None:
        self.divergences: List[str] = []
        self.total_divergences = 0
        self.events = 0
        self.accesses = 0
        #: name -> (fast value, oracle value); filled by the final diff.
        self.counters: Dict[str, Tuple[float, float]] = {}

    @property
    def ok(self) -> bool:
        return self.total_divergences == 0

    def headline(self) -> str:
        if self.ok:
            return (f"oracle: OK — {self.accesses} accesses, "
                    f"{self.events} events, "
                    f"{len(self.counters)} counters matched")
        return (f"oracle: {self.total_divergences} divergence(s) over "
                f"{self.accesses} accesses; first: {self.divergences[0]}")

    def to_text(self) -> str:
        """Full human-readable diff (the CI failure artifact)."""
        lines = [self.headline(), ""]
        if self.divergences:
            lines.append("Divergences (first %d of %d):"
                         % (len(self.divergences), self.total_divergences))
            lines.extend(f"  - {d}" for d in self.divergences)
            lines.append("")
        lines.append("Counter comparison (fast vs oracle):")
        width = max((len(k) for k in self.counters), default=0)
        for name in sorted(self.counters):
            fast, mine = self.counters[name]
            marker = "" if fast == mine else "   <-- MISMATCH"
            lines.append(f"  {name:<{width}}  {fast!r} vs {mine!r}{marker}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Naive structures (independent reimplementations, no code shared with
# the fast simulator's versions)
# ----------------------------------------------------------------------
class NaiveTLB:
    """Set-associative TLB mirror: dict-of-dicts, timestamp LRU."""

    def __init__(self, entries: int, ways: int) -> None:
        self.ways = ways
        self.num_sets = entries // ways
        self._sets: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def _probe_keys(self, vaddr: int):
        yield (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        yield (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        yield (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)

    def lookup(self, vaddr: int) -> Optional[int]:
        self._clock += 1
        for key in self._probe_keys(vaddr):
            tlb_set = self._sets[key[1] % self.num_sets]
            if key in tlb_set:
                tlb_set[key] = self._clock
                self.hits += 1
                return key[0]
        self.misses += 1
        return None

    def contains(self, vaddr: int) -> bool:
        return any(key in self._sets[key[1] % self.num_sets]
                   for key in self._probe_keys(vaddr))

    def fill(self, vaddr: int, page_size: int) -> None:
        if page_size == PAGE_SIZE_1G:
            key = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        elif page_size == PAGE_SIZE_2M:
            key = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        else:
            key = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        tlb_set = self._sets[key[1] % self.num_sets]
        if key not in tlb_set and len(tlb_set) >= self.ways:
            del tlb_set[min(tlb_set, key=tlb_set.__getitem__)]
        self._clock += 1
        tlb_set[key] = self._clock

    def reset_stats(self) -> None:
        self.hits = self.misses = 0


class NaiveMMUCache:
    """Fully associative page-structure cache mirror."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int], int] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def probe(self, vaddr: int, max_level: int) -> int:
        for level in range(max_level - 1, -1, -1):
            key = (level, vaddr >> LEVEL_SHIFTS[level])
            if key in self._entries:
                self._clock += 1
                self._entries[key] = self._clock
                self.hits += 1
                return level + 1
        self.misses += 1
        return 0

    def fill(self, vaddr: int, level: int) -> None:
        key = (level, vaddr >> LEVEL_SHIFTS[level])
        if key not in self._entries and len(self._entries) >= self.capacity:
            del self._entries[min(self._entries,
                                  key=self._entries.__getitem__)]
        self._clock += 1
        self._entries[key] = self._clock


class CacheMirror:
    """One cache level as a list of plain dicts with timestamp LRU.

    A line is ``[stamp, dirty, prefetch, issuer]``.  Fill-on-resident
    merges metadata without touching LRU, exactly the semantics the fast
    cache promises.
    """

    def __init__(self, name: str, num_sets: int, ways: int) -> None:
        self.name = name
        self.num_sets = num_sets
        self.ways = ways
        self._mask = num_sets - 1
        self._sets: List[Dict[int, list]] = [{} for _ in range(num_sets)]
        self._clock = 0
        self.reset_counters()

    def reset_counters(self) -> None:
        self.demand_accesses = self.demand_hits = self.demand_misses = 0
        self.useful_prefetches = self.prefetch_fills = self.writebacks = 0

    def line(self, block: int) -> Optional[list]:
        return self._sets[block & self._mask].get(block)

    def contains(self, block: int) -> bool:
        return block in self._sets[block & self._mask]

    def touch(self, block: int) -> None:
        line = self.line(block)
        if line is not None:
            self._clock += 1
            line[0] = self._clock

    def fill(self, block: int, dirty: bool, prefetch: bool,
             issuer: int):
        """Insert a block; return the evicted block (or None)."""
        cache_set = self._sets[block & self._mask]
        existing = cache_set.get(block)
        if existing is not None:
            existing[1] = existing[1] or dirty
            if not prefetch:
                existing[2] = False
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = min(cache_set, key=lambda b: cache_set[b][0])
            if cache_set.pop(victim)[1]:
                self.writebacks += 1
        self._clock += 1
        cache_set[block] = [self._clock, dirty, prefetch, issuer]
        if prefetch:
            self.prefetch_fills += 1
        return victim

    def demand(self, block: int, hit: bool, is_write: bool) -> Optional[int]:
        """Replay a demand access; return the useful-prefetch issuer."""
        self.demand_accesses += 1
        issuer = None
        if hit:
            self.demand_hits += 1
            line = self.line(block)
            self.touch(block)
            if line[2]:
                self.useful_prefetches += 1
                line[2] = False
                issuer = line[3]
            if is_write:
                line[1] = True
        else:
            self.demand_misses += 1
        return issuer

    def resident_blocks(self) -> List[int]:
        blocks: List[int] = []
        for cache_set in self._sets:
            blocks.extend(cache_set)
        return blocks


# ----------------------------------------------------------------------
# The observer
# ----------------------------------------------------------------------
class OracleObserver:
    """Consumes the hierarchy's event stream and diffs it online."""

    def __init__(self, hierarchy) -> None:
        self.hierarchy = hierarchy
        cfg = hierarchy.config
        self.config = cfg
        fast_alloc = hierarchy.allocator
        if fast_alloc._map_4k or fast_alloc._map_2m or fast_alloc._map_1g:
            raise ValueError("oracle must attach before the first access "
                             "(allocator already holds mappings)")
        core_id = (fast_alloc.pt_node_base - PT_NODE_BASE) >> 28
        self.alloc = PhysicalMemoryAllocator(
            thp_fraction=fast_alloc.thp_fraction, seed=fast_alloc.seed,
            core_id=core_id, gb_fraction=fast_alloc.gb_fraction)
        self.pt = PageTable(self.alloc.pt_node_base)
        self.dtlb = NaiveTLB(cfg.dtlb.entries, cfg.dtlb.ways)
        self.stlb = NaiveTLB(cfg.stlb.entries, cfg.stlb.ways)
        self.mmu = NaiveMMUCache(cfg.pwc_entries)
        self.caches = {
            "l1d": CacheMirror("l1d", cfg.l1d.sets, cfg.l1d.ways),
            "l2c": CacheMirror("l2c", cfg.l2c.sets, cfg.l2c.ways),
            "llc": CacheMirror("llc", cfg.llc.sets, cfg.llc.ways),
        }
        selector = getattr(hierarchy.l2_module, "selector", None)
        self._csel: Optional[int] = None if selector is None else selector.csel
        self._csel_max = 0 if selector is None else selector.csel_max
        # Translator mirror counters
        self.walks = 0
        self.walk_levels_fetched = 0
        self.tlb_prefetches = 0
        # Hierarchy mirror counters
        self.loads = self.stores = 0
        self.walk_reads = 0
        self.pf_issued_l2 = self.pf_issued_llc = 0
        self.pf_redundant = self.pf_dropped = 0
        self.l1_pf_issued = 0
        # Per-access transient state
        self._pending: Optional[dict] = None
        self._expected_walks: deque = deque()
        self._pending_pf: Optional[Tuple[str, int, bool]] = None
        self.report = VerifyReport()

    # -- divergence plumbing -------------------------------------------
    def _diverge(self, message: str) -> None:
        report = self.report
        report.total_divergences += 1
        if len(report.divergences) < MAX_RECORDED:
            where = (f"access #{report.accesses}"
                     if self._pending is None else
                     f"access #{report.accesses} "
                     f"(vaddr {self._pending['vaddr']:#x})")
            report.divergences.append(f"[{where}] {message}")

    # -- naive translation ---------------------------------------------
    def _walk(self, vaddr: int, page_size: int) -> List[int]:
        self.walks += 1
        if page_size == PAGE_SIZE_1G:
            leaf = self.config.page_walk_levels_1g
        elif page_size == PAGE_SIZE_2M:
            leaf = self.config.page_walk_levels_2m
        else:
            leaf = self.config.page_walk_levels_4k
        start = self.mmu.probe(vaddr, leaf)
        addresses = self.pt.walk_addresses(vaddr, page_size, start)
        self.walk_levels_fetched += len(addresses)
        for level in range(start, leaf - 1):
            self.mmu.fill(vaddr, level)
        return addresses

    def _predict_translation(self, vaddr: int) -> Tuple[int, int, List[int]]:
        """Naive replay of the translator: (paddr, page size, PTE reads)."""
        paddr, page_size = self.alloc.translate(vaddr)
        pte_reads: List[int] = []
        if self.dtlb.lookup(vaddr) is None:
            if self.stlb.lookup(vaddr) is not None:
                self.dtlb.fill(vaddr, page_size)
            else:
                pte_reads.extend(self._walk(vaddr, page_size))
                self.stlb.fill(vaddr, page_size)
                self.dtlb.fill(vaddr, page_size)
                if self.config.tlb_prefetch:
                    if page_size == PAGE_SIZE_1G:
                        span = PAGE_1G_SIZE
                    elif page_size == PAGE_SIZE_2M:
                        span = PAGE_2M_SIZE
                    else:
                        span = PAGE_4K_SIZE
                    nxt = (vaddr // span + 1) * span
                    if not self.stlb.contains(nxt):
                        _, nxt_size = self.alloc.translate(nxt)
                        pte_reads.extend(self._walk(nxt, nxt_size))
                        self.stlb.fill(nxt, nxt_size)
                        self.tlb_prefetches += 1
        return paddr, page_size, pte_reads

    # -- event hooks (called by the hierarchy) -------------------------
    def on_access_begin(self, vaddr: int, is_write: bool) -> None:
        self.report.events += 1
        self.report.accesses += 1
        if self._expected_walks:
            self._diverge(f"{len(self._expected_walks)} predicted page-walk "
                          f"read(s) never happened")
            self._expected_walks.clear()
        if is_write:
            self.stores += 1
        else:
            self.loads += 1
        paddr, page_size, pte_reads = self._predict_translation(vaddr)
        self._pending = {"vaddr": vaddr, "paddr": paddr,
                         "page_size": page_size, "block": paddr >> 6,
                         "is_write": is_write}
        self._expected_walks.extend(pte_reads)

    def on_translate(self, vaddr: int, paddr: int, page_size: int) -> None:
        self.report.events += 1
        pending = self._pending
        if pending is None or pending["vaddr"] != vaddr:
            self._diverge(f"translate of {vaddr:#x} without matching access")
            return
        if self._expected_walks:
            self._diverge(f"translation finished with "
                          f"{len(self._expected_walks)} predicted PTE "
                          f"read(s) outstanding")
            self._expected_walks.clear()
        if paddr != pending["paddr"] or page_size != pending["page_size"]:
            self._diverge(
                f"translation mismatch: fast {paddr:#x}/size {page_size}, "
                f"oracle {pending['paddr']:#x}/size {pending['page_size']}")

    def on_walk_read(self, paddr: int, l2_hit: bool, merged: bool) -> None:
        self.report.events += 1
        self.walk_reads += 1
        if not self._expected_walks:
            self._diverge(f"unpredicted page-walk read of PTE {paddr:#x}")
            return
        expected = self._expected_walks.popleft()
        if paddr != expected:
            self._diverge(f"page-walk read PTE {paddr:#x}, oracle expected "
                          f"{expected:#x}")
        block = paddr >> 6
        mirror = self.caches["l2c"]
        if l2_hit != mirror.contains(block):
            self._diverge(
                f"walk read of block {block:#x}: fast saw L2 "
                f"{'hit' if l2_hit else 'miss'}, mirror says "
                f"{'resident' if mirror.contains(block) else 'absent'}")
        if l2_hit:
            mirror.touch(block)
        elif merged and mirror.contains(block):
            self._diverge(f"walk read claims merge for resident block "
                          f"{block:#x}")

    def on_l1_demand(self, block: int, hit: bool, is_write: bool) -> None:
        self.report.events += 1
        pending = self._pending
        if pending is not None and block != pending["block"]:
            self._diverge(f"L1 demand block {block:#x} != translated "
                          f"block {pending['block']:#x}")
        mirror = self.caches["l1d"]
        if hit != mirror.contains(block):
            self._diverge(
                f"L1D demand {'hit' if hit else 'miss'} on block "
                f"{block:#x}, mirror says "
                f"{'resident' if mirror.contains(block) else 'absent'}")
            # Re-align the counters with the fast side's view.
            mirror.demand_accesses += 1
            if hit:
                mirror.demand_hits += 1
            else:
                mirror.demand_misses += 1
            return
        mirror.demand(block, hit, is_write)

    def _expected_page_size_bit(self) -> Optional[int]:
        if self._pending is None:
            return None
        if self.hierarchy.oracle_page_size or self.hierarchy.ppm.enabled:
            return self._pending["page_size"]
        return None

    def on_l2_demand(self, block: int, hit: bool, merged: bool,
                     page_size_bit: Optional[int],
                     useful_issuer: Optional[int]) -> None:
        self.report.events += 1
        pending = self._pending
        if pending is not None and block != pending["block"]:
            self._diverge(f"L2 demand block {block:#x} != translated "
                          f"block {pending['block']:#x}")
        expected_bit = self._expected_page_size_bit()
        if page_size_bit != expected_bit:
            self._diverge(
                f"PPM bit for block {block:#x} is {page_size_bit!r}, "
                f"oracle expected {expected_bit!r}")
        self._replay_demand("l2c", block, hit, merged, useful_issuer)

    def on_llc_demand(self, block: int, hit: bool, merged: bool,
                      demand: bool, useful_issuer: Optional[int]) -> None:
        self.report.events += 1
        if not demand:
            # Page-walk read: residency handled, counters must not move.
            mirror = self.caches["llc"]
            if hit != mirror.contains(block):
                self._diverge(
                    f"walk LLC {'hit' if hit else 'miss'} on block "
                    f"{block:#x}, mirror disagrees")
            if hit:
                mirror.touch(block)
            return
        self._replay_demand("llc", block, hit, merged, useful_issuer)

    def _replay_demand(self, level: str, block: int, hit: bool, merged: bool,
                       useful_issuer: Optional[int]) -> None:
        mirror = self.caches[level]
        resident = mirror.contains(block)
        if hit != resident:
            self._diverge(
                f"{level} demand {'hit' if hit else 'miss'} on block "
                f"{block:#x}, mirror says "
                f"{'resident' if resident else 'absent'}")
            mirror.demand_accesses += 1
            if hit:
                mirror.demand_hits += 1
            else:
                mirror.demand_misses += 1
            return
        if merged and resident:
            self._diverge(f"{level} claims merge for resident block "
                          f"{block:#x}")
        expected_issuer = None
        if hit:
            line = mirror.line(block)
            if line[2]:
                expected_issuer = line[3]
        if useful_issuer != expected_issuer:
            self._diverge(
                f"{level} useful-prefetch issuer for block {block:#x} is "
                f"{useful_issuer!r}, oracle expected {expected_issuer!r}")
        mirror.demand(block, hit, False)
        if useful_issuer is not None:
            self._apply_csel(useful_issuer)

    def _apply_csel(self, issuer: int) -> None:
        if self._csel is None:
            return
        if issuer == ISSUER_PSA:
            if self._csel > 0:
                self._csel -= 1
        elif issuer == ISSUER_PSA_2MB:
            if self._csel < self._csel_max:
                self._csel += 1

    def on_fill(self, level: str, block: int, dirty: bool, prefetch: bool,
                issuer: int, victim: Optional[int]) -> None:
        self.report.events += 1
        mirror = self.caches[level]
        my_victim = mirror.fill(block, dirty, prefetch, issuer)
        if victim != my_victim:
            self._diverge(
                f"{level} fill of block {block:#x}: fast evicted "
                f"{victim if victim is None else hex(victim)}, oracle's LRU "
                f"names {my_victim if my_victim is None else hex(my_victim)}")
            if victim is not None:
                # Follow the fast side so residency stays comparable.
                victim_set = mirror._sets[victim & mirror._mask]
                victim_set.pop(victim, None)
        if level == "l1d" and prefetch:
            self.l1_pf_issued += 1
        elif level == "l1d" and self._pending is not None:
            # A demand fill follows the miss's L1D MSHR allocation: PPM
            # must have written the access's page-size bit into it.
            expected = (self._pending["page_size"]
                        if self.hierarchy.ppm.enabled else 0)
            bit = self.hierarchy.l1d.mshr.page_size_of(block)
            if bit != expected:
                self._diverge(
                    f"L1D MSHR entry of block {block:#x} carries page-size "
                    f"bit {bit!r}, PPM should have written {expected!r}")

    def on_mark_dirty(self, level: str, block: int) -> None:
        self.report.events += 1
        line = self.caches[level].line(block)
        if line is None:
            self._diverge(f"{level} dirty-mark of non-resident block "
                          f"{block:#x}")
            return
        line[1] = True

    # -- prefetches -----------------------------------------------------
    def _legal_span(self, page_size_bit) -> int:
        if page_size_bit == PAGE_SIZE_1G:
            return BLOCKS_PER_1G
        if page_size_bit == PAGE_SIZE_2M or page_size_bit is True:
            return BLOCKS_PER_2M
        return BLOCKS_PER_4K

    def on_prefetch_request(self, level: str, block: int, fill_l2: bool,
                            issuer: int, trigger: Optional[int],
                            page_size_bit) -> None:
        self.report.events += 1
        self._pending_pf = (level, block, fill_l2)
        if trigger is None:
            return
        span = self._legal_span(page_size_bit)
        lo = trigger & ~(span - 1)
        if not lo <= block <= lo + span - 1:
            self._diverge(
                f"prefetch {block:#x} crosses the {span * 64}-byte page of "
                f"trigger {trigger:#x} (page-size bit {page_size_bit!r})")
        window = self.alloc.physical_window_of_block(trigger)
        if window is not None:
            lo_t, hi_t, true_size = window
            if not lo_t <= block <= hi_t:
                self._diverge(
                    f"prefetch {block:#x} leaves the physical page "
                    f"[{lo_t:#x}, {hi_t:#x}] of trigger {trigger:#x}")
            if (page_size_bit is not None and page_size_bit is not True
                    and page_size_bit != true_size):
                self._diverge(
                    f"page-size bit {page_size_bit!r} for trigger "
                    f"{trigger:#x} contradicts pool geometry "
                    f"(true size {true_size})")

    def on_prefetch_llc_probe(self, block: int, hit: bool) -> None:
        """The L2C prefetch-issue path probed the LLC (an LRU touch)."""
        self.report.events += 1
        mirror = self.caches["llc"]
        if hit != mirror.contains(block):
            self._diverge(
                f"prefetch LLC probe of block {block:#x}: fast saw "
                f"{'hit' if hit else 'miss'}, mirror says "
                f"{'resident' if mirror.contains(block) else 'absent'}")
        elif hit:
            mirror.touch(block)

    def on_prefetch_outcome(self, block: int, outcome: str,
                            llc_hit: bool) -> None:
        self.report.events += 1
        pf = self._pending_pf
        self._pending_pf = None
        if pf is None or pf[1] != block:
            self._diverge(f"prefetch outcome for {block:#x} without a "
                          f"matching request")
            return
        if outcome.startswith("redundant"):
            self.pf_redundant += 1
        elif outcome.startswith("dropped"):
            self.pf_dropped += 1
        elif outcome == "issued-l2":
            self.pf_issued_l2 += 1
        elif outcome == "issued-llc":
            self.pf_issued_llc += 1
        else:
            self._diverge(f"unknown prefetch outcome {outcome!r}")

    def on_l1_prefetch(self, pf_vaddr: int, block: int,
                       page_size: int) -> None:
        self.report.events += 1
        paddr, my_size = self.alloc.translate(pf_vaddr)
        if paddr >> 6 != block or my_size != page_size:
            self._diverge(
                f"L1 prefetch translation of {pf_vaddr:#x}: fast got block "
                f"{block:#x}/size {page_size}, oracle {paddr >> 6:#x}/size "
                f"{my_size}")

    def on_reset_stats(self) -> None:
        self.report.events += 1
        for mirror in self.caches.values():
            mirror.reset_counters()
        self.dtlb.reset_stats()
        self.stlb.reset_stats()
        self.walks = self.walk_levels_fetched = self.tlb_prefetches = 0
        self.loads = self.stores = 0
        self.walk_reads = 0
        self.pf_issued_l2 = self.pf_issued_llc = 0
        self.pf_redundant = self.pf_dropped = 0
        self.l1_pf_issued = 0

    # -- final diff ----------------------------------------------------
    def _diff_counter(self, name: str, fast, mine) -> None:
        self.report.counters[name] = (fast, mine)
        if fast != mine:
            self.report.total_divergences += 1
            if len(self.report.divergences) < MAX_RECORDED:
                self.report.divergences.append(
                    f"[final] counter {name}: fast {fast!r}, oracle {mine!r}")

    def _diff_cache(self, level: str, fast_cache) -> None:
        mirror = self.caches[level]
        fast_blocks = sorted(fast_cache.resident_blocks())
        mine_blocks = sorted(mirror.resident_blocks())
        if fast_blocks != mine_blocks:
            only_fast = sorted(set(fast_blocks) - set(mine_blocks))[:5]
            only_mine = sorted(set(mine_blocks) - set(fast_blocks))[:5]
            self.report.total_divergences += 1
            if len(self.report.divergences) < MAX_RECORDED:
                self.report.divergences.append(
                    f"[final] {level} residency differs "
                    f"({len(fast_blocks)} vs {len(mine_blocks)} blocks; "
                    f"fast-only {[hex(b) for b in only_fast]}, "
                    f"oracle-only {[hex(b) for b in only_mine]})")
        else:
            for block in fast_blocks:
                fast_line = fast_cache.lookup(block, update_lru=False)
                mine = mirror.line(block)
                if (fast_line.dirty != mine[1]
                        or fast_line.prefetch != mine[2]
                        or fast_line.issuer != mine[3]):
                    self.report.total_divergences += 1
                    if len(self.report.divergences) < MAX_RECORDED:
                        self.report.divergences.append(
                            f"[final] {level} block {block:#x} metadata: "
                            f"fast (dirty={fast_line.dirty}, "
                            f"prefetch={fast_line.prefetch}, "
                            f"issuer={fast_line.issuer}) vs oracle "
                            f"(dirty={mine[1]}, prefetch={mine[2]}, "
                            f"issuer={mine[3]})")
        for counter in ("demand_accesses", "demand_hits", "demand_misses",
                        "useful_prefetches", "prefetch_fills", "writebacks"):
            self._diff_counter(f"{level}.{counter}",
                               getattr(fast_cache, counter),
                               getattr(mirror, counter))

    def finish(self) -> VerifyReport:
        """Run the final block-by-block diff and return the report."""
        h = self.hierarchy
        self._diff_cache("l1d", h.l1d)
        self._diff_cache("l2c", h.l2c)
        self._diff_cache("llc", h.llc)
        self._diff_counter("hierarchy.loads", h.loads, self.loads)
        self._diff_counter("hierarchy.stores", h.stores, self.stores)
        self._diff_counter("hierarchy.walk_reads", h.walk_reads,
                           self.walk_reads)
        self._diff_counter("hierarchy.pf_issued_l2", h.pf_issued_l2,
                           self.pf_issued_l2)
        self._diff_counter("hierarchy.pf_issued_llc", h.pf_issued_llc,
                           self.pf_issued_llc)
        self._diff_counter("hierarchy.pf_redundant", h.pf_redundant,
                           self.pf_redundant)
        self._diff_counter("hierarchy.pf_dropped_mshr", h.pf_dropped_mshr,
                           self.pf_dropped)
        self._diff_counter("hierarchy.l1_pf_issued", h.l1_pf_issued,
                           self.l1_pf_issued)
        tr = h.translator
        self._diff_counter("translator.walks", tr.walks, self.walks)
        self._diff_counter("translator.walk_levels_fetched",
                           tr.walk_levels_fetched, self.walk_levels_fetched)
        self._diff_counter("translator.tlb_prefetches", tr.tlb_prefetches,
                           self.tlb_prefetches)
        self._diff_counter("dtlb.hits", tr.dtlb.hits, self.dtlb.hits)
        self._diff_counter("dtlb.misses", tr.dtlb.misses, self.dtlb.misses)
        self._diff_counter("stlb.hits", tr.stlb.hits, self.stlb.hits)
        self._diff_counter("stlb.misses", tr.stlb.misses, self.stlb.misses)
        self._diff_counter("mmu_cache.hits", tr.mmu_cache.hits,
                           self.mmu.hits)
        self._diff_counter("mmu_cache.misses", tr.mmu_cache.misses,
                           self.mmu.misses)
        fast_alloc = h.allocator
        self._diff_counter("allocator.pages_4k", len(fast_alloc._map_4k),
                           len(self.alloc._map_4k))
        self._diff_counter("allocator.pages_2m", len(fast_alloc._map_2m),
                           len(self.alloc._map_2m))
        self._diff_counter("allocator.pages_1g", len(fast_alloc._map_1g),
                           len(self.alloc._map_1g))
        if fast_alloc._map_4k != self.alloc._map_4k \
                or fast_alloc._map_2m != self.alloc._map_2m \
                or fast_alloc._map_1g != self.alloc._map_1g:
            self.report.total_divergences += 1
            if len(self.report.divergences) < MAX_RECORDED:
                self.report.divergences.append(
                    "[final] virtual-to-physical mappings differ")
        selector = getattr(h.l2_module, "selector", None)
        if selector is not None and self._csel is not None:
            self._diff_counter("set_dueling.csel", selector.csel, self._csel)
        return self.report


def attach_oracle(hierarchy) -> OracleObserver:
    """Attach a fresh oracle to a not-yet-run single-core hierarchy."""
    if hierarchy.observer is not None:
        raise ValueError("hierarchy already has an observer attached")
    observer = OracleObserver(hierarchy)
    hierarchy.observer = observer
    return observer
