"""Property tests: ``load_state_dict(state_dict())`` round-trips.

For every stateful component class, driving a component with a random
prefix, serializing it, loading the state into a *fresh* instance, and
then driving both with the same random suffix must produce identical
behaviour and identical final state.  This is the component-level
guarantee the crash-consistent snapshot/resume machinery
(``repro.sim.snapshot``) is built on.
"""

from hypothesis import given, strategies as st

from repro.memory.address import BLOCKS_PER_4K
from repro.memory.cache import Cache
from repro.prefetch.ampm import AMPM
from repro.prefetch.bop import BOP
from repro.prefetch.ipcp import IPCP
from repro.prefetch.ppf import PPF
from repro.prefetch.sms import SMS
from repro.prefetch.spp import SPP
from repro.prefetch.vldp import VLDP
from repro.sim.config import CacheConfig, DuelingConfig, TLBConfig
from repro.core.set_dueling import SetDuelingSelector
from repro.prefetch.base import ISSUER_PSA, ISSUER_PSA_2MB
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.vm.tlb import TLB

from conftest import make_ctx

# (block, ip, hit) access streams for physically-indexed components.
accesses = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1 << 22),
              st.sampled_from([0x400, 0x404, 0x408, 0x40c]),
              st.booleans()),
    min_size=1, max_size=60)

# Virtual addresses for TLB / allocator / L1D components.
vaddrs = st.lists(st.integers(min_value=0, max_value=1 << 28),
                  min_size=1, max_size=60)

PREFETCHERS = {
    "spp": SPP,
    "vldp": VLDP,
    "bop": BOP,
    "ppf": PPF,
    "sms": SMS,
    "ampm": AMPM,
}


def drive_prefetcher(pf, stream, window):
    """Feed a stream; return every (proposed, issued) decision made."""
    out = []
    for block, ip, hit in stream:
        ctx = make_ctx(block, ip=ip, hit=hit, window=window)
        pf.on_access(ctx)
        out.append([(r.block, r.fill_l2, r.issuer) for r in ctx.requests])
        if not hit:
            pf.on_demand_miss(block)
    return out


@given(accesses, accesses, st.sampled_from(sorted(PREFETCHERS)),
       st.sampled_from(["4k", "2m"]))
def test_prefetcher_roundtrip(prefix, suffix, name, window):
    factory = PREFETCHERS[name]
    original = factory()
    drive_prefetcher(original, prefix, window)

    clone = factory()
    clone.load_state_dict(original.state_dict())

    assert (drive_prefetcher(original, suffix, window)
            == drive_prefetcher(clone, suffix, window))
    assert original.state_dict() == clone.state_dict()


@given(vaddrs, vaddrs, st.booleans())
def test_ipcp_roundtrip(prefix, suffix, cross_page):
    original = IPCP(cross_page=cross_page)
    for vaddr in prefix:
        original.on_access(vaddr, 0x400, False)

    clone = IPCP(cross_page=cross_page)
    clone.load_state_dict(original.state_dict())

    for vaddr in suffix:
        assert (original.on_access(vaddr, 0x400, False)
                == clone.on_access(vaddr, 0x400, False))
    assert original.state_dict() == clone.state_dict()


@given(accesses, accesses)
def test_cache_roundtrip(prefix, suffix):
    config = CacheConfig(name="t", size_bytes=16 * 1024, ways=4,
                         latency=4, mshr_entries=8)

    def drive(cache, stream):
        out = []
        for block, _, dirty in stream:
            line = cache.lookup(block)
            if line is None:
                out.append(cache.fill(block, dirty=dirty))
            else:
                out.append(("hit", line.dirty, line.prefetch))
            cache.record_demand(line is not None, line)
        return out

    original = Cache(config)
    drive(original, prefix)
    clone = Cache(config)
    clone.load_state_dict(original.state_dict())

    def evicted(results):
        return [r if not isinstance(r, tuple) or r[0] == "hit"
                else (r[0], r[1].dirty) for r in results if r is not None]

    assert evicted(drive(original, suffix)) == evicted(drive(clone, suffix))
    assert original.state_dict() == clone.state_dict()


@given(vaddrs, vaddrs)
def test_tlb_roundtrip(prefix, suffix):
    config = TLBConfig(name="t", entries=64, ways=4, latency=1,
                       mshr_entries=4)

    def drive(tlb, stream):
        out = []
        for vaddr in stream:
            hit = tlb.lookup(vaddr)
            if hit is None:
                tlb.fill(vaddr, 4096)
            out.append(hit)
        return out

    original = TLB(config)
    drive(original, prefix)
    clone = TLB(config)
    clone.load_state_dict(original.state_dict())

    assert drive(original, suffix) == drive(clone, suffix)
    assert original.state_dict() == clone.state_dict()


@given(vaddrs, vaddrs, st.floats(min_value=0.0, max_value=1.0))
def test_allocator_roundtrip(prefix, suffix, thp):
    original = PhysicalMemoryAllocator(thp_fraction=thp, seed=7)
    for vaddr in prefix:
        original.translate(vaddr)

    clone = PhysicalMemoryAllocator(thp_fraction=thp, seed=7)
    clone.load_state_dict(original.state_dict())

    # Identical later translations (including pages first touched after
    # the snapshot: the RNG stream must resume, not restart).
    for vaddr in suffix:
        assert original.translate(vaddr) == clone.translate(vaddr)
    assert original.state_dict() == clone.state_dict()


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=1023),
                          st.sampled_from([ISSUER_PSA, ISSUER_PSA_2MB])),
                min_size=1, max_size=60),
       st.lists(st.integers(min_value=0, max_value=1023),
                min_size=1, max_size=60))
def test_set_dueling_roundtrip(events, probes):
    original = SetDuelingSelector(1024, DuelingConfig())
    for set_index, issuer in events:
        original.selected_for(set_index)
        original.on_useful(issuer)

    clone = SetDuelingSelector(1024, DuelingConfig())
    clone.load_state_dict(original.state_dict())

    for set_index in probes:
        assert original.selected_for(set_index) == clone.selected_for(
            set_index)
    assert original.state_dict() == clone.state_dict()


def test_streams_exercise_page_boundaries():
    """Sanity: the strided helper exists and spans a 4KB page."""
    spp = SPP()
    for i in range(2 * BLOCKS_PER_4K):
        spp.on_access(make_ctx(i, window="4k"))
    assert spp.state_dict()["ghr"] or spp.state_dict()["signature_table"]
