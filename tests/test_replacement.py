"""Tests for repro.memory.replacement — per-set LRU state."""

from repro.memory.replacement import LRUPolicy


class TestLRU:
    def test_victim_is_least_recent_fill(self):
        lru = LRUPolicy()
        for tag in ("a", "b", "c"):
            lru.on_fill(tag)
        assert lru.victim() == "a"

    def test_hit_refreshes_recency(self):
        lru = LRUPolicy()
        for tag in ("a", "b", "c"):
            lru.on_fill(tag)
        lru.on_hit("a")
        assert lru.victim() == "b"

    def test_evict_removes_tag(self):
        lru = LRUPolicy()
        lru.on_fill("a")
        lru.on_fill("b")
        lru.on_evict("a")
        assert lru.victim() == "b"

    def test_evict_unknown_tag_is_noop(self):
        lru = LRUPolicy()
        lru.on_fill("a")
        lru.on_evict("ghost")
        assert lru.victim() == "a"

    def test_refill_refreshes(self):
        lru = LRUPolicy()
        lru.on_fill("a")
        lru.on_fill("b")
        lru.on_fill("a")
        assert lru.victim() == "b"
