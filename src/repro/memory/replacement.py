"""LRU replacement state for one set of a set-associative structure.

The paper's configuration uses LRU at every cache level.  The cache keeps
one policy object per set; the hierarchy's demand path stamps hits on it
directly.
"""

from __future__ import annotations

from typing import Dict, Hashable


class LRUPolicy:
    """Least-recently-used ordering for one cache set.

    Implemented as a monotonic timestamp per resident tag; the victim is the
    tag with the smallest stamp.  For the associativities used here (8-16
    ways) a linear ``min`` scan is faster in CPython than maintaining an
    ordered structure.
    """

    __slots__ = ("_stamps", "_clock")

    def __init__(self) -> None:
        self._stamps: Dict[Hashable, int] = {}
        self._clock = 0

    def on_hit(self, tag: Hashable) -> None:
        self._clock += 1
        self._stamps[tag] = self._clock

    def on_fill(self, tag: Hashable) -> None:
        self._clock += 1
        self._stamps[tag] = self._clock

    def on_evict(self, tag: Hashable) -> None:
        self._stamps.pop(tag, None)

    def victim(self) -> Hashable:
        return min(self._stamps, key=self._stamps.__getitem__)

    def state_dict(self) -> dict:
        return {"stamps": dict(self._stamps), "clock": self._clock}

    def load_state_dict(self, state: dict) -> None:
        self._stamps = dict(state["stamps"])
        self._clock = state["clock"]
