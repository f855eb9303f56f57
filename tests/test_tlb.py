"""Tests for repro.vm.tlb — dual-granularity TLBs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memory.address import (
    PAGE_1G_SIZE,
    PAGE_2M_SIZE,
    PAGE_4K_SIZE,
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
)
from repro.sim.config import SystemConfig, TLBConfig
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.tlb import TLB
from repro.vm.walker import AddressTranslator


def make(entries=16, ways=4):
    return TLB(TLBConfig("T", entries, ways, 1, 4))


class TestLookup:
    def test_miss_on_empty(self):
        tlb = make()
        assert tlb.lookup(0x1000) is None
        assert tlb.misses == 1

    def test_4k_fill_then_hit(self):
        tlb = make()
        tlb.fill(0x5000, PAGE_SIZE_4K)
        assert tlb.lookup(0x5000) == PAGE_SIZE_4K
        assert tlb.hits == 1

    def test_4k_entry_covers_only_its_page(self):
        tlb = make()
        tlb.fill(0x5000, PAGE_SIZE_4K)
        assert tlb.lookup(0x5000 + PAGE_4K_SIZE) is None

    def test_2m_entry_covers_whole_2m_page(self):
        """One 2MB entry has 512x the reach — the THP motivation."""
        tlb = make()
        tlb.fill(0, PAGE_SIZE_2M)
        for offset in (0, PAGE_4K_SIZE, PAGE_2M_SIZE - 1):
            assert tlb.lookup(offset) == PAGE_SIZE_2M

    def test_2m_entry_not_beyond_2m_boundary(self):
        tlb = make()
        tlb.fill(0, PAGE_SIZE_2M)
        assert tlb.lookup(PAGE_2M_SIZE) is None

    def test_2m_hits_counted(self):
        tlb = make()
        tlb.fill(0, PAGE_SIZE_2M)
        tlb.lookup(100)
        assert tlb.hits_2m == 1


class TestReplacement:
    def test_set_capacity_enforced(self):
        tlb = make(entries=4, ways=2)   # 2 sets x 2 ways
        # Fill three 4K pages mapping to the same set (page % 2 == 0).
        for page in (0, 2, 4):
            tlb.fill(page * PAGE_4K_SIZE, PAGE_SIZE_4K)
        resident = [tlb.contains(p * PAGE_4K_SIZE) for p in (0, 2, 4)]
        assert sum(resident) == 2
        assert resident[2]   # most recent always resident

    def test_lru_within_set(self):
        tlb = make(entries=4, ways=2)
        tlb.fill(0, PAGE_SIZE_4K)                    # page 0, set 0
        tlb.fill(2 * PAGE_4K_SIZE, PAGE_SIZE_4K)     # page 2, set 0
        tlb.lookup(0)                                # refresh page 0
        tlb.fill(4 * PAGE_4K_SIZE, PAGE_SIZE_4K)     # evicts page 2
        assert tlb.contains(0)
        assert not tlb.contains(2 * PAGE_4K_SIZE)

    def test_refill_does_not_duplicate(self):
        tlb = make(entries=4, ways=2)
        tlb.fill(0, PAGE_SIZE_4K)
        tlb.fill(0, PAGE_SIZE_4K)
        tlb.fill(2 * PAGE_4K_SIZE, PAGE_SIZE_4K)
        assert tlb.contains(0)


class TestContains:
    def test_contains_no_stat_change(self):
        tlb = make()
        tlb.fill(0x3000, PAGE_SIZE_4K)
        hits_before = tlb.hits
        assert tlb.contains(0x3000)
        assert tlb.hits == hits_before

    def test_contains_2m(self):
        tlb = make()
        tlb.fill(0, PAGE_SIZE_2M)
        assert tlb.contains(PAGE_4K_SIZE * 7)


class TestStats:
    def test_miss_ratio(self):
        tlb = make()
        tlb.lookup(0)               # miss
        tlb.fill(0, PAGE_SIZE_4K)
        tlb.lookup(0)               # hit
        assert tlb.miss_ratio() == pytest.approx(0.5)

    def test_reset(self):
        tlb = make()
        tlb.lookup(0)
        tlb.reset_stats()
        assert tlb.hits == tlb.misses == tlb.hits_2m == 0

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TLB(TLBConfig("bad", 10, 4, 1, 4))


# Virtual addresses that mix 4KB, 2MB and 1GB pages: a few pages of each
# size in four 1GB regions, so TLB sets fill up and evict.
mixed_vaddrs = st.lists(
    st.builds(lambda region, page, offset: (region * PAGE_1G_SIZE
                                            + page * PAGE_4K_SIZE + offset),
              st.integers(0, 3),
              st.sampled_from([0, 1, 2, 513, 1024, 1536, 4096, 262143]),
              st.integers(0, PAGE_4K_SIZE - 1)),
    min_size=1, max_size=80)


def _translator(tlb_prefetch):
    config = SystemConfig()
    config.dtlb = TLBConfig("DTLB", 8, 2, 1, 8)
    config.stlb = TLBConfig("STLB", 16, 4, 8, 16)
    config.tlb_prefetch = tlb_prefetch
    allocator = PhysicalMemoryAllocator(thp_fraction=0.5, seed=3,
                                        gb_fraction=0.5)
    return AddressTranslator(config, allocator)


@settings(max_examples=60, deadline=None)
@given(mixed_vaddrs, st.booleans())
def test_native_stlb_probe_matches_lookup(vaddrs, tlb_prefetch):
    """The STLB probe at the native key agrees with a probe of every key."""
    fast = _translator(tlb_prefetch)
    slow = _translator(tlb_prefetch)
    stlb = slow.stlb
    stlb.probe = lambda vaddr, page_size: stlb.lookup(vaddr) is not None

    def walk_fn(paddr, now):
        return now + 10 + (paddr >> 6) % 7

    now = 0.0
    for vaddr in vaddrs:
        result = fast.translate(vaddr, now, walk_fn)
        assert result == slow.translate(vaddr, now, walk_fn)
        now += 1.0
    assert repr(fast.state_dict()) == repr(slow.state_dict())
