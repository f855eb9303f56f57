"""Trace representation.

A trace is the unit the simulator executes: an ordered list of memory
records, each ``(ip, vaddr, kind, bubble, dep)``:

- ``ip``     : instruction pointer of the memory instruction (drives
  IP-indexed prefetchers such as IPCP and PPF features),
- ``vaddr``  : virtual byte address accessed,
- ``kind``   : ``KIND_LOAD`` or ``KIND_STORE``,
- ``bubble`` : count of non-memory instructions fetched before this one
  (they occupy ROB entries and fetch bandwidth),
- ``dep``    : True when the access depends on the previous load's value
  (pointer chasing — the access cannot issue before that load completes).

Plain tuples keep the simulator's inner loop allocation-free.  Traces also
carry the THP fraction their workload expects, which seeds the allocator.

Columnar view
-------------
Trace I/O (``repro.workloads.io``) reads and writes a trace as packed
numpy arrays rather than tuple-by-tuple: ``addresses`` (vaddr), ``pc``
(ip), ``is_write``, ``bubbles`` and ``depends``; the simulator itself
walks the record tuples.  The arrays are built
lazily from the record list on first use and cached; any mutation of the
record list (append, item assignment, slicing, reassigning ``records``)
invalidates the cache, so the two views can never disagree.  The record
list stays the source of truth — the arrays are a *view*, not a second
store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:                            # pragma: no cover
    _np = None

KIND_LOAD = 0
KIND_STORE = 1

Record = Tuple[int, int, int, int, bool]


class _ObservedList(list):
    """A list that counts its own mutations.

    The columnar cache of :class:`Trace` stores the mutation counter it
    was built at; a later mutation (through any of the mutating list
    methods) bumps the counter and thereby invalidates the cache.
    """

    __slots__ = ("mutations",)

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.mutations = 0


def _observed_mutator(name):
    base = getattr(list, name)

    def mutator(self, *args, **kwargs):
        self.mutations += 1
        return base(self, *args, **kwargs)

    mutator.__name__ = name
    return mutator


for _name in ("append", "extend", "insert", "remove", "pop", "clear",
              "sort", "reverse", "__setitem__", "__delitem__",
              "__iadd__", "__imul__"):
    setattr(_ObservedList, _name, _observed_mutator(_name))


@dataclass
class Trace:
    """A named, reproducible instruction/memory trace."""

    name: str
    records: List[Record] = field(default_factory=list)
    thp_fraction: float = 0.9
    suite: str = "synthetic"

    def __len__(self) -> int:
        return len(self.records)

    @property
    def instructions(self) -> int:
        return sum(r[3] + 1 for r in self.records)

    def memory_intensity(self) -> float:
        """Memory accesses per instruction (coarse MPKI predictor)."""
        instructions = self.instructions
        return len(self.records) / instructions if instructions else 0.0

    def footprint_bytes(self) -> int:
        """Approximate touched memory (distinct 4KB pages x 4KB)."""
        pages = {r[1] >> 12 for r in self.records}
        return len(pages) << 12

    # ------------------------------------------------------------------
    # Columnar view (lazy, cached, mutation-aware)
    # ------------------------------------------------------------------
    def _column_cache(self) -> Optional[tuple]:
        """Return the cached column tuple, rebuilding when stale."""
        if _np is None:
            raise RuntimeError(
                "numpy is required for the columnar trace view")
        records = self.records
        if not isinstance(records, _ObservedList):
            # First columnar access (or `records` was reassigned to a
            # plain list): wrap so future mutations are observable.
            records = _ObservedList(records)
            self.records = records
        cached = self.__dict__.get("_columns")
        if (cached is not None and cached[0] is records
                and cached[1] == records.mutations):
            return cached[2]
        n = len(records)
        ips = _np.empty(n, dtype=_np.uint64)
        vaddrs = _np.empty(n, dtype=_np.uint64)
        kinds = _np.empty(n, dtype=_np.uint8)
        bubbles = _np.empty(n, dtype=_np.int64)
        deps = _np.empty(n, dtype=_np.bool_)
        for i, (ip, vaddr, kind, bubble, dep) in enumerate(records):
            ips[i] = ip
            vaddrs[i] = vaddr
            kinds[i] = kind
            bubbles[i] = bubble
            deps[i] = dep
        for array in (ips, vaddrs, kinds, bubbles, deps):
            array.flags.writeable = False
        columns = (ips, vaddrs, kinds, bubbles, deps)
        self.__dict__["_columns"] = (records, records.mutations, columns)
        return columns

    def columns(self) -> tuple:
        """``(pc, addresses, kinds, bubbles, depends)`` numpy arrays.

        Built lazily from ``records`` and cached; mutating the record
        list invalidates and rebuilds the cache on next use.  The arrays
        are read-only — the record list remains the source of truth.
        """
        return self._column_cache()

    @property
    def addresses(self):
        """Virtual byte addresses as a ``uint64`` array."""
        return self._column_cache()[1]

    @property
    def pc(self):
        """Instruction pointers as a ``uint64`` array."""
        return self._column_cache()[0]

    @property
    def is_write(self):
        """Boolean array: True where the record is a store."""
        return self._column_cache()[2] != KIND_LOAD

    @property
    def bubbles(self):
        """Non-memory instructions fetched ahead of each access."""
        return self._column_cache()[3]

    @property
    def depends(self):
        """Boolean array: True where the access depends on the previous
        load (pointer chasing)."""
        return self._column_cache()[4]

    @classmethod
    def from_arrays(cls, name: str, ips: Sequence[int],
                    vaddrs: Sequence[int], kinds: Sequence[int],
                    bubbles: Sequence[int], deps: Sequence[bool],
                    thp_fraction: float = 0.9,
                    suite: str = "synthetic") -> "Trace":
        """Build a trace from parallel columns (e.g. a columnar file).

        The record list is materialised eagerly (it is the source of
        truth everywhere else); lengths must agree.
        """
        columns = [list(c) for c in (ips, vaddrs, kinds, bubbles, deps)]
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(
                f"column lengths disagree: {sorted(lengths)}")
        records = [(int(ip), int(va), int(kind), int(bubble), bool(dep))
                   for ip, va, kind, bubble, dep in zip(*columns)]
        return cls(name=name, records=records,
                   thp_fraction=thp_fraction, suite=suite)
