"""Translation Lookaside Buffers.

Set-associative TLBs holding translations at their native granularity: a
4KB entry is keyed by the 4KB virtual page number, a 2MB entry by the 2MB
virtual page number (so one 2MB entry covers 512x the reach — the
motivation for THP in Section II-B1).  A lookup probes both granularities.

The TLB is where PPM's input comes from: the page size of a block is part
of the address-translation metadata available after the (VIPT) L1 access,
and PPM copies it into the L1D MSHR entry on a miss.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.memory.address import (
    PAGE_1G_BITS,
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.sim.config import TLBConfig


class TLB:
    """One TLB level.  Entries are (page_size, native page number) keys."""

    def __init__(self, config: TLBConfig) -> None:
        if config.entries % config.ways:
            raise ValueError(f"{config.name}: entries not divisible by ways")
        self.name = config.name
        self.latency = config.latency
        self.ways = config.ways
        self.num_sets = config.entries // config.ways
        self._sets: List[Dict[Tuple[int, int], int]] = [
            {} for _ in range(self.num_sets)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.hits_2m = 0

    def _set_index(self, page: int) -> int:
        return page % self.num_sets

    def lookup(self, vaddr: int) -> Optional[int]:
        """Return the page size of a cached translation, or None on miss."""
        self._clock += 1
        key4k = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        set4k = self._sets[self._set_index(key4k[1])]
        if key4k in set4k:
            set4k[key4k] = self._clock
            self.hits += 1
            return PAGE_SIZE_4K
        key2m = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        set2m = self._sets[self._set_index(key2m[1])]
        if key2m in set2m:
            set2m[key2m] = self._clock
            self.hits += 1
            self.hits_2m += 1
            return PAGE_SIZE_2M
        key1g = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        set1g = self._sets[self._set_index(key1g[1])]
        if key1g in set1g:
            set1g[key1g] = self._clock
            self.hits += 1
            return PAGE_SIZE_1G
        self.misses += 1
        return None

    def contains(self, vaddr: int) -> bool:
        """Presence probe without statistics or LRU update (for IPCP++)."""
        key4k = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        if key4k in self._sets[self._set_index(key4k[1])]:
            return True
        key2m = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        if key2m in self._sets[self._set_index(key2m[1])]:
            return True
        key1g = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        return key1g in self._sets[self._set_index(key1g[1])]

    def fill(self, vaddr: int, page_size: int) -> None:
        """Install a translation at its native granularity (LRU victim)."""
        if page_size == PAGE_SIZE_1G:
            key = (PAGE_SIZE_1G, vaddr >> PAGE_1G_BITS)
        elif page_size == PAGE_SIZE_2M:
            key = (PAGE_SIZE_2M, vaddr >> PAGE_2M_BITS)
        else:
            key = (PAGE_SIZE_4K, vaddr >> PAGE_4K_BITS)
        tlb_set = self._sets[self._set_index(key[1])]
        if key not in tlb_set and len(tlb_set) >= self.ways:
            victim = min(tlb_set, key=tlb_set.__getitem__)
            del tlb_set[victim]
        self._clock += 1
        tlb_set[key] = self._clock

    def miss_ratio(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.hits_2m = 0

    def state_dict(self) -> dict:
        return {"sets": [dict(tlb_set) for tlb_set in self._sets],
                "clock": self._clock,
                "stats": (self.hits, self.misses, self.hits_2m)}

    def load_state_dict(self, state: dict) -> None:
        self._sets = [{(k[0], k[1]): stamp for k, stamp in tlb_set.items()}
                      for tlb_set in state["sets"]]
        self._clock = state["clock"]
        self.hits, self.misses, self.hits_2m = state["stats"]
