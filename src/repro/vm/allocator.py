"""Physical memory allocator with transparent-huge-page (THP) policy.

This is the OS-side substrate the paper's mechanism rides on.  Two
properties matter and are modelled faithfully:

1. **2MB pages are physically contiguous and aligned** — prefetching across
   a 4KB boundary *inside* a 2MB page lands on the correct data, which is
   exactly why PPM-enabled prefetching is safe there.
2. **4KB pages are scattered** — consecutive virtual 4KB pages map to
   unrelated physical frames, so a prefetch crossing a 4KB physical page
   boundary would fetch garbage (and is a security hazard); original
   prefetchers therefore discard such candidates.

The THP decision is made per 2MB-aligned virtual region on first touch,
using a deterministic hash so traces are reproducible: a region becomes a
2MB page with probability ``thp_fraction`` (mirroring how heavily a given
workload ends up backed by THP on a real system — Fig. 3 of the paper).

The allocator also exposes the live fraction of allocated memory mapped to
2MB pages, the quantity Fig. 3 plots via the ``page-collect`` tool.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.verify import invariants
from repro.memory.address import (
    BLOCK_BITS,
    PAGE_1G_BITS,
    PAGE_1G_SIZE,
    PAGE_2M_BITS,
    PAGE_4K_BITS,
    PAGE_4K_SIZE,
    PAGE_2M_SIZE,
    PAGE_SIZE_1G,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)

# Physical frame-number (4KB units) layout; regions are disjoint by
# construction.  DRAM capacity is not enforced: the model only uses
# physical addresses for indexing (rows, banks, cache sets), so a sparse
# layout is harmless and keeps allocation O(1).
PT_NODE_BASE = 0x0010_0000        # page-table node frames
POOL_4K_BASE = 0x0100_0000        # scattered 4KB data frames
POOL_4K_SPAN_BITS = 22            # 4M frames = 16GB of scatter space
POOL_2M_BASE_FRAMES = 0x0002_0000  # 2MB-frame numbers (above the 4KB pool)
POOL_1G_BASE_FRAMES = 0x0000_0400  # 1GB-frame numbers (above everything)

#: Odd multiplier => bijective scatter within the 4KB pool (no collisions).
_SCATTER_MULT = 0x9E3779B1


class PhysicalMemoryAllocator:
    """Demand-paged allocator supporting concurrent 4KB and 2MB pages."""

    def __init__(self, thp_fraction: float = 0.9, seed: int = 0,
                 core_id: int = 0, gb_fraction: float = 0.0) -> None:
        """``core_id`` shifts every physical pool so per-process allocators
        in a multi-core simulation hand out disjoint frames (1TB apart).

        ``gb_fraction`` enables the paper's "Additional Page Sizes"
        extension: that fraction of 1GB-aligned virtual regions is backed
        by manually allocated (hugetlbfs-style) 1GB pages.  Linux THP
        never does this transparently, so the default is 0.
        """
        if not 0.0 <= thp_fraction <= 1.0:
            raise ValueError(f"thp_fraction must be in [0,1], got {thp_fraction}")
        if not 0.0 <= gb_fraction <= 1.0:
            raise ValueError(f"gb_fraction must be in [0,1], got {gb_fraction}")
        self.thp_fraction = thp_fraction
        self.gb_fraction = gb_fraction
        self.seed = seed
        shift_4k_frames = core_id << 28
        self.pt_node_base = PT_NODE_BASE + shift_4k_frames
        self._pool_4k_base = POOL_4K_BASE + shift_4k_frames
        self._pool_2m_base = POOL_2M_BASE_FRAMES + (shift_4k_frames >> 9)
        self._pool_1g_base = POOL_1G_BASE_FRAMES + (shift_4k_frames >> 18)
        self._map_4k: Dict[int, int] = {}    # v4k page -> p4k frame
        self._map_2m: Dict[int, int] = {}    # v2m page -> p2m frame
        self._map_1g: Dict[int, int] = {}    # v1g page -> p1g frame
        # Reverse views (physical frames handed out, by size).  These give
        # the verification layer a *pool-geometry* ground truth for the
        # page size of a physical block, independent of the translation
        # path the fast simulator used.
        self._frames_4k: set = set()
        self._frames_2m: set = set()
        self._frames_1g: set = set()
        self._huge_decision: Dict[int, bool] = {}  # v2m page -> is huge
        self._gb_decision: Dict[int, bool] = {}    # v1g page -> is 1GB
        self._next_4k = 0
        self._next_2m = 0
        self._next_1g = 0
        # Fig. 3 accounting: (accesses_seen, fraction_2mb) samples.
        self.usage_samples: List[Tuple[int, float]] = []
        # REPRO_CHECK: claimed physical intervals in 4KB-frame units,
        # kept sorted and pairwise disjoint.  The page-table node region
        # is pre-claimed so data frames can never alias PTE storage.
        self._check = invariants.enabled()
        self._claimed_starts: List[int] = []
        self._claimed_ends: List[int] = []
        if self._check:
            self._claim_frames(self.pt_node_base, self._pool_4k_base,
                               "page-table node region")

    # ------------------------------------------------------------------
    # REPRO_CHECK: physical injectivity
    # ------------------------------------------------------------------
    def _claim_frames(self, start: int, end: int, what: str) -> None:
        """Claim the 4KB-frame interval [start, end); overlap is a bug.

        Every physical frame the allocator hands out (at any page size)
        passes through here when checks are on, so two virtual pages can
        never map to overlapping physical memory.
        """
        i = bisect.bisect_right(self._claimed_starts, start)
        if i > 0 and self._claimed_ends[i - 1] > start:
            invariants.violated(
                f"allocator: {what} [{start:#x}, {end:#x}) overlaps "
                f"claimed interval starting at "
                f"{self._claimed_starts[i - 1]:#x}")
        if i < len(self._claimed_starts) and self._claimed_starts[i] < end:
            invariants.violated(
                f"allocator: {what} [{start:#x}, {end:#x}) overlaps "
                f"claimed interval starting at {self._claimed_starts[i]:#x}")
        self._claimed_starts.insert(i, start)
        self._claimed_ends.insert(i, end)

    # ------------------------------------------------------------------
    # THP policy
    # ------------------------------------------------------------------
    def _decide_gb(self, v1g: int) -> bool:
        decision = self._gb_decision.get(v1g)
        if decision is None:
            h = (v1g * 2246822519 + self.seed * 131) & 0xFFFFFFFF
            decision = (h % 10_000) < int(self.gb_fraction * 10_000)
            self._gb_decision[v1g] = decision
        return decision

    def _decide_huge(self, v2m: int) -> bool:
        decision = self._huge_decision.get(v2m)
        if decision is None:
            h = (v2m * 2654435761 + self.seed * 97) & 0xFFFFFFFF
            decision = (h % 10_000) < int(self.thp_fraction * 10_000)
            self._huge_decision[v2m] = decision
        return decision

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, vaddr: int) -> Tuple[int, int]:
        """Map a virtual byte address to (physical byte address, page size).

        Allocates on first touch (demand paging).  Page size is
        ``PAGE_SIZE_2M`` when the containing 2MB-aligned virtual region was
        promoted by the THP policy, else ``PAGE_SIZE_4K``.
        """
        # The decision memos are probed inline: this runs once per access.
        v1g = vaddr >> PAGE_1G_BITS
        if self.gb_fraction and self._decide_gb(v1g):
            frame = self._map_1g.get(v1g)
            if frame is None:
                frame = self._pool_1g_base + self._next_1g
                self._next_1g += 1
                self._map_1g[v1g] = frame
                self._frames_1g.add(frame)
                if self._check:
                    start = frame << (PAGE_1G_BITS - PAGE_4K_BITS)
                    self._claim_frames(
                        start, start + (PAGE_1G_SIZE >> PAGE_4K_BITS),
                        f"1GB page for v1g {v1g:#x}")
            paddr = (frame << PAGE_1G_BITS) | (vaddr & (PAGE_1G_SIZE - 1))
            return paddr, PAGE_SIZE_1G
        v2m = vaddr >> PAGE_2M_BITS
        huge = self._huge_decision.get(v2m)
        if huge is None:
            huge = self._decide_huge(v2m)
        if huge:
            frame = self._map_2m.get(v2m)
            if frame is None:
                frame = self._pool_2m_base + self._next_2m
                self._next_2m += 1
                self._map_2m[v2m] = frame
                self._frames_2m.add(frame)
                if self._check:
                    start = frame << (PAGE_2M_BITS - PAGE_4K_BITS)
                    self._claim_frames(
                        start, start + (PAGE_2M_SIZE >> PAGE_4K_BITS),
                        f"2MB page for v2m {v2m:#x}")
            paddr = (frame << PAGE_2M_BITS) | (vaddr & (PAGE_2M_SIZE - 1))
            return paddr, PAGE_SIZE_2M
        v4k = vaddr >> PAGE_4K_BITS
        frame = self._map_4k.get(v4k)
        if frame is None:
            span_mask = (1 << POOL_4K_SPAN_BITS) - 1
            frame = self._pool_4k_base + ((self._next_4k * _SCATTER_MULT) & span_mask)
            self._next_4k += 1
            self._map_4k[v4k] = frame
            self._frames_4k.add(frame)
            if self._check:
                self._claim_frames(frame, frame + 1,
                                   f"4KB page for v4k {v4k:#x}")
        paddr = (frame << PAGE_4K_BITS) | (vaddr & (PAGE_4K_SIZE - 1))
        return paddr, PAGE_SIZE_4K

    def page_size(self, vaddr: int) -> int:
        """Ground-truth page size of a virtual address (allocating if new)."""
        return self.translate(vaddr)[1]

    def physical_window_of_block(self, block: int):
        """Ground truth for a *physical* cache block: its page's block span.

        Classifies the block by pool geometry (which physical frames have
        been handed out at which size) — deliberately not via the virtual
        translation path — and returns ``(lo_block, hi_block, page_size)``
        for the containing page, or ``None`` when the block lies in no
        allocated data page (page-table nodes, unallocated frames).

        This is what the boundary invariants and the differential oracle
        check prefetch targets against: a prefetch may never leave the
        physical page of its trigger, because adjacent frames belong to
        unrelated (or no) virtual pages.
        """
        frame_4k = block >> (PAGE_4K_BITS - BLOCK_BITS)
        if (frame_4k >> (PAGE_1G_BITS - PAGE_4K_BITS)) in self._frames_1g:
            lo = block & ~((PAGE_1G_SIZE >> BLOCK_BITS) - 1)
            return lo, lo + (PAGE_1G_SIZE >> BLOCK_BITS) - 1, PAGE_SIZE_1G
        if (frame_4k >> (PAGE_2M_BITS - PAGE_4K_BITS)) in self._frames_2m:
            lo = block & ~((PAGE_2M_SIZE >> BLOCK_BITS) - 1)
            return lo, lo + (PAGE_2M_SIZE >> BLOCK_BITS) - 1, PAGE_SIZE_2M
        if frame_4k in self._frames_4k:
            lo = block & ~((PAGE_4K_SIZE >> BLOCK_BITS) - 1)
            return lo, lo + (PAGE_4K_SIZE >> BLOCK_BITS) - 1, PAGE_SIZE_4K
        return None

    def is_mapped(self, vaddr: int) -> bool:
        v1g = vaddr >> PAGE_1G_BITS
        if self._gb_decision.get(v1g):
            return v1g in self._map_1g
        v2m = vaddr >> PAGE_2M_BITS
        if self._huge_decision.get(v2m):
            return v2m in self._map_2m
        return (vaddr >> PAGE_4K_BITS) in self._map_4k

    # ------------------------------------------------------------------
    # Fig. 3 accounting
    # ------------------------------------------------------------------
    @property
    def bytes_in_4k(self) -> int:
        return len(self._map_4k) * PAGE_4K_SIZE

    @property
    def bytes_in_2m(self) -> int:
        return len(self._map_2m) * PAGE_2M_SIZE

    @property
    def bytes_in_1g(self) -> int:
        return len(self._map_1g) * PAGE_1G_SIZE

    def thp_usage_fraction(self) -> float:
        """Fraction of currently allocated memory backed by 2MB pages."""
        total = self.bytes_in_4k + self.bytes_in_2m + self.bytes_in_1g
        return self.bytes_in_2m / total if total else 0.0

    def sample_usage(self, accesses_seen: int) -> None:
        """Record a (time, 2MB-usage) point for Fig. 3 style curves."""
        self.usage_samples.append((accesses_seen, self.thp_usage_fraction()))

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot every mutable mapping (frame sets as sorted lists so
        the serialized payload is canonical)."""
        return {
            "map_4k": dict(self._map_4k),
            "map_2m": dict(self._map_2m),
            "map_1g": dict(self._map_1g),
            "frames_4k": sorted(self._frames_4k),
            "frames_2m": sorted(self._frames_2m),
            "frames_1g": sorted(self._frames_1g),
            "huge_decision": dict(self._huge_decision),
            "gb_decision": dict(self._gb_decision),
            "next": (self._next_4k, self._next_2m, self._next_1g),
            "usage_samples": list(self.usage_samples),
            "claimed": (list(self._claimed_starts),
                        list(self._claimed_ends)),
        }

    def load_state_dict(self, state: dict) -> None:
        self._map_4k = dict(state["map_4k"])
        self._map_2m = dict(state["map_2m"])
        self._map_1g = dict(state["map_1g"])
        self._frames_4k = set(state["frames_4k"])
        self._frames_2m = set(state["frames_2m"])
        self._frames_1g = set(state["frames_1g"])
        self._huge_decision = dict(state["huge_decision"])
        self._gb_decision = dict(state["gb_decision"])
        self._next_4k, self._next_2m, self._next_1g = state["next"]
        self.usage_samples = [(a, f) for a, f in state["usage_samples"]]
        claimed_starts, claimed_ends = state["claimed"]
        if self._check:
            self._claimed_starts = list(claimed_starts)
            self._claimed_ends = list(claimed_ends)
