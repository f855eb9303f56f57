"""Fuzzing of fast-vs-oracle equivalence.

A hypothesis state machine drives one hierarchy — runtime invariants
forced on, differential oracle attached — through random interleavings of
loads, stores, time jumps, and a mid-run stats reset.  Teardown runs the
oracle's full block-by-block diff; any interleaving that desynchronises
the two models shrinks to a minimal reproducer.

Whole hypothesis traces (4KB/2MB/1GB mixes, strides that straddle page
boundaries, dependent-load chains) then run through ``Core.run`` twice,
under the oracle and unobserved: the oracle must pass and the two runs'
``state_dict`` must agree at every k-th record.  A mutation smoke test
compiles one-token bugs into the demand method and requires this fuzz
to fail on each.
"""

import inspect
import pickle

import pytest
from hypothesis import given, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

import repro.memory.hierarchy as hierarchy_module
from repro.core.factory import make_l2_module
from repro.cpu.core import Core
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.config import SystemConfig
from repro.vm.allocator import PhysicalMemoryAllocator
from repro.verify import invariants
from repro.verify.oracle import attach_oracle
from repro.workloads.trace import KIND_LOAD, KIND_STORE, Trace

#: Small enough for page reuse (TLB/cache hits), large enough to span
#: many 4KB and several 2MB pages.
VADDR_SPACE = 1 << 26


class FastVsOracleMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        invariants.force(True)
        config = SystemConfig()
        allocator = PhysicalMemoryAllocator(thp_fraction=0.5, seed=11)
        # psa-sd exercises the most machinery: composite prefetcher,
        # Set-Dueling roles, Csel updates, annotation bits.
        module = make_l2_module("spp", "psa-sd", config)
        self.hierarchy = MemoryHierarchy(config, allocator,
                                         l2_module=module)
        self.observer = attach_oracle(self.hierarchy)
        self.now = 0.0

    @rule(vaddr=st.integers(min_value=0, max_value=VADDR_SPACE - 1),
          store=st.booleans())
    def access(self, vaddr, store):
        if store:
            self.hierarchy.store(vaddr, 0x40, self.now)
        else:
            ready = self.hierarchy.load(vaddr, 0x40, self.now)
            assert ready >= self.now
        self.now += 1.0

    @rule(near=st.integers(min_value=-256, max_value=256),
          base=st.integers(min_value=0, max_value=VADDR_SPACE - 1))
    def access_near(self, near, base):
        """Strided neighbours: trains the prefetcher into issuing."""
        vaddr = max(0, base + near * 64)
        self.hierarchy.load(vaddr, 0x80, self.now)
        self.now += 1.0

    @rule(jump=st.floats(min_value=1.0, max_value=100_000.0))
    def advance_time(self, jump):
        """Let in-flight fills land (exercises merge-vs-fresh paths)."""
        self.now += jump

    @rule()
    def reset_stats(self):
        """The warmup boundary can fall anywhere in the stream."""
        self.hierarchy.reset_stats()

    def teardown(self):
        try:
            report = self.observer.finish()
            assert report.ok, report.to_text()
        finally:
            invariants.force(None)


TestFastVsOracle = FastVsOracleMachine.TestCase


def test_fuzz_through_core_model():
    """The OOO core driver on top must also stay in sync (it reorders
    nothing semantically, but issues with its own timing)."""
    import random

    rng = random.Random(5)
    invariants.force(True)
    try:
        config = SystemConfig()
        allocator = PhysicalMemoryAllocator(thp_fraction=0.7, seed=13)
        module = make_l2_module("spp", "psa-sd", config)
        hierarchy = MemoryHierarchy(config, allocator, l2_module=module)
        observer = attach_oracle(hierarchy)
        records = []
        base = 0
        for _ in range(1500):
            if rng.random() < 0.3:
                base = rng.randrange(VADDR_SPACE)
            else:
                base = (base + 64 * rng.randrange(1, 4)) % VADDR_SPACE
            kind = KIND_STORE if rng.random() < 0.2 else KIND_LOAD
            records.append((0x4, base, kind, rng.randrange(4), False))
        core = Core(hierarchy, config.rob_entries, config.fetch_width)
        core.run(Trace("fuzz", records), warmup_records=700)
        report = observer.finish()
        assert report.ok, report.to_text()
    finally:
        invariants.force(None)


# ----------------------------------------------------------------------
# Whole traces through ``Core.run``: oracle-shadowed vs unobserved
# ----------------------------------------------------------------------
#: Page spans a segment may straddle: 4KB, 2MB and 1GB.
PAGE_SPANS = (1 << 12, 1 << 21, 1 << 30)
STRIDES = (8, 64, 192, 4096 - 64, 4096 + 64, -64)


@st.composite
def segments(draw):
    """One run of accesses that starts just below a page boundary."""
    span = draw(st.sampled_from(PAGE_SPANS))
    region = draw(st.integers(min_value=1, max_value=4))   # 1GB region
    pages = draw(st.integers(min_value=1, max_value=3))
    below = draw(st.integers(min_value=0, max_value=8)) * 64
    return (region * PAGE_SPANS[2] + pages * span - below,
            draw(st.sampled_from(STRIDES)),
            draw(st.integers(min_value=1, max_value=40)),
            draw(st.booleans()),       # dependent-load chain
            draw(st.booleans()))       # stores mixed in


def trace_of(plan) -> list:
    """Expand segments into trace records."""
    records = []
    for start, stride, count, dep, stores in plan:
        for i in range(count):
            kind = KIND_STORE if stores and i % 3 == 2 else KIND_LOAD
            records.append((0x40 + 4 * (i % 4), max(0, start + i * stride),
                            kind, i % 3, dep and i > 0))
    return records


def run_traced(records, thp, gb, variant, every, hierarchy_cls, shadow):
    """Simulate *records*; return the states pickled every *every*
    records, and the oracle report when *shadow* is set."""
    config = SystemConfig()
    allocator = PhysicalMemoryAllocator(thp_fraction=thp, seed=3,
                                        gb_fraction=gb)
    hierarchy = hierarchy_cls(config, allocator,
                              l2_module=make_l2_module("spp", variant,
                                                       config))
    observer = attach_oracle(hierarchy) if shadow else None
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    states = []

    def on_record(index):
        if (index + 1) % every == 0:
            states.append(pickle.dumps((core.state_dict(),
                                        hierarchy.state_dict())))

    core.run(Trace("fuzz", records), warmup_records=len(records) // 2,
             on_record=on_record)
    states.append(pickle.dumps((core.state_dict(), hierarchy.state_dict())))
    return states, None if observer is None else observer.finish()


def check_one_path(plan, thp, gb, variant, every,
                   hierarchy_cls=MemoryHierarchy):
    """The oracle passes, and observing a run does not change it."""
    records = trace_of(plan)
    shadowed, report = run_traced(records, thp, gb, variant, every,
                                  hierarchy_cls, shadow=True)
    assert report.ok, report.to_text()
    plain, _ = run_traced(records, thp, gb, variant, every, hierarchy_cls,
                          shadow=False)
    assert len(plain) == len(shadowed)
    for k, (a, b) in enumerate(zip(shadowed, plain)):
        assert a == b, f"state diverged at checkpoint {k}"


@given(plan=st.lists(segments(), min_size=1, max_size=8),
       thp=st.sampled_from([0.0, 0.5, 1.0]),
       gb=st.sampled_from([0.0, 0.5]),
       variant=st.sampled_from(["original", "psa", "psa-2mb", "psa-sd"]),
       every=st.integers(min_value=1, max_value=64),
       check=st.booleans())
def test_oracle_shadows_the_one_path(plan, thp, gb, variant, every, check):
    invariants.force(check)
    try:
        check_one_path(plan, thp, gb, variant, every)
    finally:
        invariants.force(None)


# ----------------------------------------------------------------------
# Mutation smoke test: a one-token bug in the demand method must fail
# the fuzz above
# ----------------------------------------------------------------------
#: name -> (source text in ``MemoryHierarchy``, its one-token mutant)
MUTATIONS = {
    # PPM writes page-size bit 0 into the L1D MSHR entry.
    "ppm-bit-zero": (
        "self.ppm.annotate_l1d_miss(mshr, block, ready, page_size)",
        "self.ppm.annotate_l1d_miss(mshr, block, ready, 0)"),
    # The DTLB is probed at 4KB granularity whatever the page size.
    "dtlb-4k-key": (
        "page = vaddr >> _PAGE_SHIFT[page_size]",
        "page = vaddr >> _PAGE_SHIFT[0]"),
    # The L2C prefetcher is told every page is 2MB: PSA crosses 4KB
    # page boundaries it must not.
    "bit-always-2mb": (
        "s2, page_size_bit,\n", "s2, PAGE_SIZE_2M,\n"),
    # A demand store fill forgets the dirty bit.
    "store-fill-clean": (
        "CacheLine(is_write))", "CacheLine(False))"),
}

#: Straddling plans over every page size; each mutant must fail on one.
SMOKE_PLANS = [
    [(PAGE_SPANS[2] + k * span - 256, stride, 40, dep, True)
     for k, stride, dep in ((1, 64, False), (2, 4096 + 64, True),
                            (3, 192, False))]
    for span in PAGE_SPANS]


def mutant_hierarchy(old: str, new: str):
    """``MemoryHierarchy`` compiled from its source with *old* -> *new*."""
    source = inspect.getsource(hierarchy_module)
    assert source.count(old) == 1, f"mutation site not unique: {old!r}"
    namespace = {"__name__": "repro.memory.hierarchy_mutant"}
    exec(compile(source.replace(old, new), hierarchy_module.__file__,
                 "exec"), namespace)
    return namespace["MemoryHierarchy"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_fuzz_catches_mutation(name):
    mutant = mutant_hierarchy(*MUTATIONS[name])
    caught = 0
    for plan in SMOKE_PLANS:
        for thp, gb in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.0)):
            try:
                check_one_path(plan, thp, gb, "psa", 7, mutant)
            except AssertionError:
                caught += 1
    assert caught, f"mutation {name!r} went unnoticed by the fuzz"


def test_smoke_plans_pass_unmutated():
    for plan in SMOKE_PLANS:
        for thp, gb in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.0)):
            check_one_path(plan, thp, gb, "psa", 7)
