"""Tests for the caches' LRU replacement (repro.memory.cache).

Each set keeps its lines in recency order, so the victim is the set's
first line.  ``MinScanCache`` below is the reference: fill-ordered sets,
one stamp dict and clock per set, and a ``min`` scan over the stamps for
the victim.  The differential test drives both with random operation
sequences and requires the same victims and byte-identical snapshots.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.cache import NO_ISSUER, Cache
from repro.sim.config import CacheConfig


def make_cache(sets=1, ways=3):
    return Cache(CacheConfig("T", sets * ways * 64, ways, 1, 4))


class TestLRU:
    def test_victim_is_least_recent_fill(self):
        cache = make_cache(ways=3)
        for block in (1, 2, 3):
            cache.fill(block)
        assert cache.fill(4)[0] == 1

    def test_hit_refreshes_recency(self):
        cache = make_cache(ways=3)
        for block in (1, 2, 3):
            cache.fill(block)
        cache.lookup(1)
        assert cache.fill(4)[0] == 2

    def test_evict_removes_tag(self):
        cache = make_cache(ways=2)
        cache.fill(1)
        cache.fill(2)
        assert cache.invalidate(1)
        assert cache.fill(3) is None
        assert cache.fill(4)[0] == 2

    def test_evict_unknown_tag_is_noop(self):
        cache = make_cache(ways=1)
        cache.fill(1)
        assert not cache.invalidate(99)
        assert cache.fill(2)[0] == 1

    def test_refill_refreshes(self):
        cache = make_cache(ways=2)
        cache.fill(1)
        cache.fill(2)
        cache.invalidate(1)
        cache.fill(1)
        assert cache.fill(3)[0] == 2


class MinScanCache:
    """Reference LRU: per-set stamp dicts and a ``min`` scan for victims."""

    def __init__(self, sets, ways):
        self.mask = sets - 1
        self.ways = ways
        self.sets = [{} for _ in range(sets)]
        self.stamps = [{} for _ in range(sets)]
        self.clocks = [0] * sets

    def _touch(self, idx, block):
        self.clocks[idx] += 1
        self.stamps[idx][block] = self.clocks[idx]

    def lookup(self, block, update_lru=True):
        idx = block & self.mask
        line = self.sets[idx].get(block)
        if line is not None and update_lru:
            self._touch(idx, block)
        return None if line is None else tuple(line)

    def fill(self, block, dirty, prefetch, issuer):
        idx = block & self.mask
        cache_set = self.sets[idx]
        line = cache_set.get(block)
        if line is not None:
            line[0] = line[0] or dirty
            if not prefetch:
                line[1] = False
            return None
        evicted = None
        if len(cache_set) >= self.ways:
            stamps = self.stamps[idx]
            victim = min(stamps, key=stamps.__getitem__)
            del stamps[victim]
            evicted = (victim, tuple(cache_set.pop(victim)))
        cache_set[block] = [dirty, prefetch, issuer]
        self._touch(idx, block)
        return evicted

    def invalidate(self, block):
        idx = block & self.mask
        self.stamps[idx].pop(block, None)
        return self.sets[idx].pop(block, None) is not None

    def state(self):
        return {"sets": [{block: tuple(line) for block, line in s.items()}
                         for s in self.sets],
                "policies": [{"stamps": dict(stamps), "clock": clock}
                             for stamps, clock in zip(self.stamps,
                                                      self.clocks)]}


def _line(line):
    return None if line is None else (line.dirty, line.prefetch, line.issuer)


def _replacement_state(cache):
    state = cache.state_dict()
    return {"sets": state["sets"], "policies": state["policies"]}


operations = st.lists(
    st.tuples(st.sampled_from(["fill", "hit", "peek", "invalidate",
                               "reload"]),
              st.integers(min_value=0, max_value=11),
              st.booleans(), st.booleans(),
              st.sampled_from([NO_ISSUER, 0, 1])),
    max_size=120)


@settings(max_examples=200, deadline=None)
@given(operations)
def test_recency_order_matches_min_scan(ops):
    config = CacheConfig("T", 2 * 4 * 64, 4, 1, 4)
    cache = Cache(config)
    reference = MinScanCache(2, 4)
    for op, block, dirty, prefetch, issuer in ops:
        if op == "fill":
            got = cache.fill(block, dirty=dirty, prefetch=prefetch,
                             issuer=issuer)
            want = reference.fill(block, dirty, prefetch, issuer)
            assert (None if got is None else (got[0], _line(got[1]))) == want
        elif op in ("hit", "peek"):
            update = op == "hit"
            assert (_line(cache.lookup(block, update_lru=update))
                    == reference.lookup(block, update_lru=update))
        elif op == "invalidate":
            assert cache.invalidate(block) == reference.invalidate(block)
        else:
            state = cache.state_dict()
            cache = Cache(config)
            cache.load_state_dict(state)
            assert repr(cache.state_dict()) == repr(state)
        assert repr(_replacement_state(cache)) == repr(reference.state())
