"""Page walker with MMU (page-structure) caches, plus the full translator.

``AddressTranslator`` bundles the DTLB, STLB, MMU caches, page table and
allocator into the single entry point the hierarchy uses:

    paddr, latency, page_size = translator.translate(vaddr, now, walk_fn)

On a DTLB hit the latency is folded into the L1 access (0 extra cycles).
An STLB hit adds the STLB latency.  An STLB miss triggers a page walk: the
MMU caches may skip upper levels; each remaining level is a serial physical
memory read issued through ``walk_fn`` (the cache hierarchy), so walk
latency responds to cache contents and DRAM pressure.  2MB pages walk one
level less than 4KB pages (Section II-B1).
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.memory.address import PAGE_SIZE_1G, PAGE_SIZE_2M
from repro.sim.config import SystemConfig
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.page_table import LEVEL_SHIFTS, PageTable
from repro.vm.tlb import TLB

#: ``walk_fn(paddr, now) -> ready_cycle`` — one PTE read via the hierarchy.
WalkFn = Callable[[int, float], float]


class MMUCache:
    """Fully associative cache of upper-level page-table entries.

    Keyed by (level, virtual prefix).  A hit at level L means the walk can
    start at level L+1.  Models x86 page-structure caches (PML4E/PDPTE/PDE
    entries), which remove most upper-level walk references.
    """

    def __init__(self, entries: int) -> None:
        self.capacity = entries
        self._entries: Dict[Tuple[int, int], int] = {}
        self._clock = 0
        self.hits = 0
        self.misses = 0

    def deepest_cached_level(self, vaddr: int, max_level: int) -> int:
        """Return the first walk level that must be fetched from memory.

        Probes cached levels deepest-first.  ``max_level`` is the leaf
        level (exclusive upper bound on what the MMU cache may skip: the
        leaf PTE itself is never served from the MMU cache).
        """
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
            victim = min(self._entries, key=self._entries.__getitem__)
            del self._entries[victim]
        self._clock += 1
        self._entries[key] = self._clock

    def state_dict(self) -> dict:
        return {"entries": dict(self._entries), "clock": self._clock,
                "hits": self.hits, "misses": self.misses}

    def load_state_dict(self, state: dict) -> None:
        self._entries = {(k[0], k[1]): stamp
                         for k, stamp in state["entries"].items()}
        self._clock = state["clock"]
        self.hits = state["hits"]
        self.misses = state["misses"]


class AddressTranslator:
    """DTLB + STLB + MMU caches + page walker for one core."""

    def __init__(self, config: SystemConfig,
                 allocator: PhysicalMemoryAllocator,
                 page_table: PageTable | None = None) -> None:
        self.config = config
        self.allocator = allocator
        self.page_table = (page_table if page_table is not None
                           else PageTable(allocator.pt_node_base))
        self.dtlb = TLB(config.dtlb)
        self.stlb = TLB(config.stlb)
        self.mmu_cache = MMUCache(config.pwc_entries)
        self.walks = 0
        self.walk_levels_fetched = 0
        self.tlb_prefetches = 0

    # ------------------------------------------------------------------
    def translate(self, vaddr: int, now: float,
                  walk_fn: WalkFn) -> Tuple[int, float, int]:
        """Translate; return (paddr, extra latency in cycles, page size)."""
        paddr, page_size = self.allocator.translate(vaddr)
        if self.dtlb.lookup(vaddr) is not None:
            return paddr, 0.0, page_size
        return (paddr,
                self._translate_after_dtlb_miss(vaddr, page_size, now,
                                                walk_fn),
                page_size)

    def _translate_after_dtlb_miss(self, vaddr: int, page_size: int,
                                   now: float, walk_fn: WalkFn) -> float:
        """STLB probe, page walk and TLB fills after a DTLB miss."""
        latency = float(self.stlb.latency)
        if self.stlb.lookup(vaddr) is not None:
            self.dtlb.fill(vaddr, page_size)
            return latency
        latency += self.walk(vaddr, page_size, now + latency, walk_fn)
        self.stlb.fill(vaddr, page_size)
        self.dtlb.fill(vaddr, page_size)
        if self.config.tlb_prefetch:
            self._prefetch_next_translation(vaddr, page_size, now + latency,
                                            walk_fn)
        return latency

    def _prefetch_next_translation(self, vaddr: int, page_size: int,
                                   now: float, walk_fn: WalkFn) -> None:
        """Footnote-3 extension: walk the *next* virtual page's
        translation in the background and install it in the STLB.

        The walk's memory reads still consume cache/DRAM resources via
        ``walk_fn`` (posted — the demand access does not wait), so the
        prefetch is not free; it trades bandwidth for L1D page-crossing
        timeliness.
        """
        from repro.memory.address import (
            PAGE_1G_SIZE, PAGE_2M_SIZE, PAGE_4K_SIZE,
            PAGE_SIZE_1G, PAGE_SIZE_2M)
        if page_size == PAGE_SIZE_1G:
            span = PAGE_1G_SIZE
        elif page_size == PAGE_SIZE_2M:
            span = PAGE_2M_SIZE
        else:
            span = PAGE_4K_SIZE
        next_vaddr = (vaddr // span + 1) * span
        if self.stlb.contains(next_vaddr):
            return
        _, next_size = self.allocator.translate(next_vaddr)
        self.walk(next_vaddr, next_size, now, walk_fn)
        self.stlb.fill(next_vaddr, next_size)
        self.tlb_prefetches += 1

    def walk(self, vaddr: int, page_size: int, now: float,
             walk_fn: WalkFn) -> float:
        """Perform a page walk; return its latency in cycles."""
        self.walks += 1
        if page_size == PAGE_SIZE_1G:
            leaf_levels = self.config.page_walk_levels_1g
        elif page_size == PAGE_SIZE_2M:
            leaf_levels = self.config.page_walk_levels_2m
        else:
            leaf_levels = self.config.page_walk_levels_4k
        start = self.mmu_cache.deepest_cached_level(vaddr, leaf_levels)
        addresses = self.page_table.walk_addresses(vaddr, page_size, start)
        self.walk_levels_fetched += len(addresses)
        t = now
        for pte_addr in addresses:
            t = walk_fn(pte_addr, t)   # serial dependent reads
        # Cache the non-leaf levels just traversed.
        for level in range(start, leaf_levels - 1):
            self.mmu_cache.fill(vaddr, level)
        return t - now

    # ------------------------------------------------------------------
    def is_tlb_resident(self, vaddr: int) -> bool:
        """True when either TLB level holds the translation (for IPCP++)."""
        return self.dtlb.contains(vaddr) or self.stlb.contains(vaddr)

    def reset_stats(self) -> None:
        self.dtlb.reset_stats()
        self.stlb.reset_stats()
        self.walks = self.walk_levels_fetched = 0
        self.tlb_prefetches = 0

    def state_dict(self) -> dict:
        return {"dtlb": self.dtlb.state_dict(),
                "stlb": self.stlb.state_dict(),
                "mmu_cache": self.mmu_cache.state_dict(),
                "page_table": self.page_table.state_dict(),
                "stats": (self.walks, self.walk_levels_fetched,
                          self.tlb_prefetches)}

    def load_state_dict(self, state: dict) -> None:
        self.dtlb.load_state_dict(state["dtlb"])
        self.stlb.load_state_dict(state["stlb"])
        self.mmu_cache.load_state_dict(state["mmu_cache"])
        self.page_table.load_state_dict(state["page_table"])
        (self.walks, self.walk_levels_fetched,
         self.tlb_prefetches) = state["stats"]
