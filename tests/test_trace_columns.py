"""Property-based tests of the columnar trace view (hypothesis).

Trace I/O writes and reads traces through ``Trace.columns()`` / the
array properties instead of record tuples (the simulator walks the
tuples), so the two views must be interchangeable for *any* record list — including empty traces, mixed
loads/stores, zero bubbles and dependence chains — and the cached
arrays must never go stale when the record list is mutated.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.workloads.trace import (
    KIND_LOAD,
    KIND_STORE,
    Trace,
)

records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=(1 << 48) - 1),   # ip
        st.integers(min_value=0, max_value=(1 << 48) - 1),   # vaddr
        st.sampled_from([KIND_LOAD, KIND_STORE]),            # kind
        st.integers(min_value=0, max_value=300),             # bubble
        st.booleans(),                                       # dep
    ),
    min_size=0, max_size=200)

record_strategy = st.tuples(
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.integers(min_value=0, max_value=(1 << 48) - 1),
    st.sampled_from([KIND_LOAD, KIND_STORE]),
    st.integers(min_value=0, max_value=300),
    st.booleans())


def assert_views_agree(trace: Trace) -> None:
    """Every column must agree element-wise with the record tuples."""
    records = list(trace.records)
    ips, vaddrs, kinds, bubbles, deps = trace.columns()
    n = len(records)
    for array in (ips, vaddrs, kinds, bubbles, deps):
        assert len(array) == n
        assert not array.flags.writeable
    assert ips.dtype == np.uint64
    assert vaddrs.dtype == np.uint64
    assert bubbles.dtype == np.int64
    assert deps.dtype == np.bool_
    for i, (ip, vaddr, kind, bubble, dep) in enumerate(records):
        assert int(ips[i]) == ip
        assert int(vaddrs[i]) == vaddr
        assert int(kinds[i]) == kind
        assert int(bubbles[i]) == bubble
        assert bool(deps[i]) == dep
    # The named properties are views over the same cache.
    assert trace.addresses is vaddrs
    assert trace.pc is ips
    assert trace.bubbles is bubbles
    assert trace.depends is deps
    is_write = trace.is_write
    for i, record in enumerate(records):
        assert bool(is_write[i]) == (record[2] != KIND_LOAD)


@given(records_strategy)
def test_columns_agree_with_records(records):
    assert_views_agree(Trace(name="prop", records=records))


@given(records_strategy)
def test_columns_are_cached(records):
    trace = Trace(name="prop", records=records)
    first = trace.columns()
    assert trace.columns() is first
    assert trace.addresses is first[1]


@given(records_strategy, record_strategy)
def test_append_invalidates_and_rebuilds(records, extra):
    trace = Trace(name="prop", records=records)
    before = trace.columns()
    assert len(before[0]) == len(records)
    trace.records.append(extra)
    after = trace.columns()
    assert after is not before
    assert len(after[0]) == len(records) + 1
    assert_views_agree(trace)


@given(st.lists(record_strategy, min_size=1, max_size=50), record_strategy,
       st.data())
def test_setitem_invalidates(records, replacement, data):
    trace = Trace(name="prop", records=records)
    stale = trace.columns()
    index = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
    trace.records[index] = replacement
    fresh = trace.columns()
    assert fresh is not stale
    assert int(fresh[1][index]) == replacement[1]
    assert_views_agree(trace)


@given(st.lists(record_strategy, min_size=1, max_size=50))
def test_pop_and_clear_invalidate(records):
    trace = Trace(name="prop", records=records)
    trace.columns()
    trace.records.pop()
    assert len(trace.columns()[0]) == len(records) - 1
    trace.records.clear()
    assert len(trace.columns()[0]) == 0
    assert_views_agree(trace)


@given(records_strategy)
def test_records_reassignment_invalidates(records):
    """Reassigning ``records`` to a plain list must also invalidate."""
    trace = Trace(name="prop", records=[(1, 2, KIND_LOAD, 0, False)])
    stale = trace.columns()
    trace.records = list(records)
    fresh = trace.columns()
    assert fresh is not stale
    assert_views_agree(trace)


@given(records_strategy)
def test_from_arrays_round_trip(records):
    trace = Trace(name="prop", records=records)
    ips, vaddrs, kinds, bubbles, deps = trace.columns()
    rebuilt = Trace.from_arrays("rebuilt", ips, vaddrs, kinds, bubbles,
                                deps, thp_fraction=trace.thp_fraction,
                                suite=trace.suite)
    assert rebuilt.records == [
        (ip, vaddr, kind, bubble, bool(dep))
        for ip, vaddr, kind, bubble, dep in records]


def test_overflowing_address_raises():
    """Values the packed dtypes cannot hold must fail loudly, not wrap."""
    trace = Trace(name="big",
                  records=[(0, 1 << 70, KIND_LOAD, 0, False)])
    with pytest.raises((OverflowError, ValueError)):
        trace.columns()


def test_negative_address_raises():
    trace = Trace(name="neg", records=[(0, -4096, KIND_LOAD, 0, False)])
    with pytest.raises((OverflowError, ValueError)):
        trace.columns()
