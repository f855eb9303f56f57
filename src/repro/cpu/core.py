"""Out-of-order core timing approximation.

A full OOO pipeline is not needed to reproduce the paper's effects — what
matters is that (a) independent long-latency loads overlap (MLP bounded by
the ROB), (b) dependent loads serialise (pointer chasing defeats MLP), and
(c) the core's fetch width bounds peak IPC.  The model:

- Instructions enter at ``fetch_width`` per cycle; each trace record
  carries ``bubble`` non-memory instructions ahead of its memory
  instruction, all occupying ROB entries.
- The ROB holds at most ``rob_entries`` instructions; when full, fetch
  stalls until the oldest instruction completes (in-order retirement is
  enforced with a running retire frontier).
- Loads complete at the hierarchy-reported ready cycle; records flagged
  ``dep`` additionally wait for the previous load's completion (dependent
  chains).  Stores are posted (write buffer) and complete in one cycle.

This is the altitude of interval models used for fast design-space
exploration; DESIGN.md §3 records it as a documented ChampSim
substitution.  The core is *steppable* (one trace record per ``step``) so
the multi-core driver can interleave cores by their local clocks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads.trace import KIND_LOAD, Record, Trace


@dataclass
class CoreResult:
    """Measured (post-warmup) outcome of one simulation run on one core."""

    instructions: int
    memory_accesses: int
    cycles: float
    #: Fetch cycles lost waiting for the oldest ROB entry to complete —
    #: the direct cost of untimely memory accesses.
    stall_cycles: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def mpki_of(self, misses: int) -> float:
        return 1000.0 * misses / self.instructions if self.instructions else 0.0


class Core:
    """ROB-bounded timing model; one ``step`` consumes one trace record."""

    def __init__(self, hierarchy: MemoryHierarchy, rob_entries: int = 352,
                 fetch_width: int = 4) -> None:
        if rob_entries < 1 or fetch_width < 1:
            raise ValueError("rob_entries and fetch_width must be >= 1")
        self.hierarchy = hierarchy
        self.rob_entries = rob_entries
        self.fetch_width = fetch_width
        self.reset()

    def reset(self) -> None:
        self.fetch = 0.0
        self.retire_frontier = 0.0
        self.occupancy = 0
        self.inflight: deque = deque()
        self.last_load_complete = 0.0
        self.instructions = 0
        self.memory_accesses = 0
        self.stall_cycles = 0.0
        self._measure_started_at = 0.0
        self._measured_instruction_base = 0
        self._measured_access_base = 0
        self._measured_stall_base = 0.0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """The core's local clock (used for multi-core interleaving)."""
        return self.fetch

    def begin_measurement(self) -> None:
        """Mark the end of warmup: cycles/instructions count from here.

        Hierarchy statistics restart too (cache/TLB/prefetcher *state*
        is kept warm) — the paper's warm-up-then-measure methodology.
        """
        self._measure_started_at = max(self.fetch, self.retire_frontier)
        self._measured_instruction_base = self.instructions
        self._measured_access_base = self.memory_accesses
        self._measured_stall_base = self.stall_cycles
        if hasattr(self.hierarchy, "reset_stats"):
            self.hierarchy.reset_stats()

    def step(self, record: Record) -> float:
        """Execute one trace record; return the access's completion cycle."""
        ip, vaddr, kind, bubble, dep = record
        entries = bubble + 1
        # Reclaim ROB space via in-order retirement.
        while self.occupancy + entries > self.rob_entries and self.inflight:
            complete, freed = self.inflight.popleft()
            if complete > self.retire_frontier:
                self.retire_frontier = complete
            self.occupancy -= freed
        if self.retire_frontier > self.fetch:
            self.stall_cycles += self.retire_frontier - self.fetch
            self.fetch = self.retire_frontier
        self.fetch += entries / self.fetch_width
        issue_at = self.fetch
        if dep and self.last_load_complete > issue_at:
            issue_at = self.last_load_complete
        if kind == KIND_LOAD:
            complete = self.hierarchy.load(vaddr, ip, issue_at)
            self.last_load_complete = complete
        else:
            self.hierarchy.store(vaddr, ip, issue_at)
            complete = issue_at + 1.0
        self.inflight.append((complete, entries))
        self.occupancy += entries
        self.instructions += entries
        self.memory_accesses += 1
        return complete

    def finish(self) -> CoreResult:
        """Drain the ROB and return the measured-portion result."""
        while self.inflight:
            complete, freed = self.inflight.popleft()
            if complete > self.retire_frontier:
                self.retire_frontier = complete
            self.occupancy -= freed
        end = max(self.fetch, self.retire_frontier)
        return CoreResult(
            instructions=self.instructions - self._measured_instruction_base,
            memory_accesses=self.memory_accesses - self._measured_access_base,
            cycles=max(end - self._measure_started_at, 1e-9),
            stall_cycles=self.stall_cycles - self._measured_stall_base,
        )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "fetch": self.fetch,
            "retire_frontier": self.retire_frontier,
            "occupancy": self.occupancy,
            "inflight": [(c, f) for c, f in self.inflight],
            "last_load_complete": self.last_load_complete,
            "instructions": self.instructions,
            "memory_accesses": self.memory_accesses,
            "stall_cycles": self.stall_cycles,
            "measure": (self._measure_started_at,
                        self._measured_instruction_base,
                        self._measured_access_base,
                        self._measured_stall_base),
        }

    def load_state_dict(self, state: dict) -> None:
        self.fetch = state["fetch"]
        self.retire_frontier = state["retire_frontier"]
        self.occupancy = state["occupancy"]
        self.inflight = deque((c, f) for c, f in state["inflight"])
        self.last_load_complete = state["last_load_complete"]
        self.instructions = state["instructions"]
        self.memory_accesses = state["memory_accesses"]
        self.stall_cycles = state["stall_cycles"]
        (self._measure_started_at, self._measured_instruction_base,
         self._measured_access_base,
         self._measured_stall_base) = state["measure"]

    # ------------------------------------------------------------------
    def run(self, trace: Trace, warmup_records: int = 0,
            start_index: int = 0, on_record=None) -> CoreResult:
        """Execute a whole trace; stats cover the post-warmup portion.

        ``start_index`` resumes mid-trace from checkpointed state (the
        core is *not* reset), and ``on_record(index)`` — called after each
        record completes — lets the snapshot machinery observe progress.

        The loop is :meth:`step` with the ROB and fetch state held in
        locals; they are written back before ``on_record`` and
        ``begin_measurement`` run, so both see exact object state.
        """
        if start_index == 0:
            self.reset()
        records = trace.records
        load = self.hierarchy.load
        store = self.hierarchy.store
        rob_entries = self.rob_entries
        fetch_width = self.fetch_width
        inflight = self.inflight
        fetch = self.fetch
        retire_frontier = self.retire_frontier
        occupancy = self.occupancy
        last_load_complete = self.last_load_complete
        instructions = self.instructions
        memory_accesses = self.memory_accesses
        stall_cycles = self.stall_cycles
        for index in range(start_index, len(records)):
            if index == warmup_records:
                self._store(fetch, retire_frontier, occupancy,
                            last_load_complete, instructions,
                            memory_accesses, stall_cycles)
                self.begin_measurement()
            ip, vaddr, kind, bubble, dep = records[index]
            entries = bubble + 1
            while occupancy + entries > rob_entries and inflight:
                complete, freed = inflight.popleft()
                if complete > retire_frontier:
                    retire_frontier = complete
                occupancy -= freed
            if retire_frontier > fetch:
                stall_cycles += retire_frontier - fetch
                fetch = retire_frontier
            fetch += entries / fetch_width
            issue_at = fetch
            if dep and last_load_complete > issue_at:
                issue_at = last_load_complete
            if kind == KIND_LOAD:
                complete = load(vaddr, ip, issue_at)
                last_load_complete = complete
            else:
                store(vaddr, ip, issue_at)
                complete = issue_at + 1.0
            inflight.append((complete, entries))
            occupancy += entries
            instructions += entries
            memory_accesses += 1
            if on_record is not None:
                self._store(fetch, retire_frontier, occupancy,
                            last_load_complete, instructions,
                            memory_accesses, stall_cycles)
                on_record(index)
        self._store(fetch, retire_frontier, occupancy, last_load_complete,
                    instructions, memory_accesses, stall_cycles)
        # A killed attempt can never have executed this (it dies inside the
        # loop), so firing it on resumed runs too matches the uninterrupted
        # execution exactly.
        if warmup_records >= len(records):
            self.begin_measurement()
        return self.finish()

    def _store(self, fetch: float, retire_frontier: float, occupancy: int,
               last_load_complete: float, instructions: int,
               memory_accesses: int, stall_cycles: float) -> None:
        """Write :meth:`run`'s loop locals back to the core."""
        self.fetch = fetch
        self.retire_frontier = retire_frontier
        self.occupancy = occupancy
        self.last_load_complete = last_load_complete
        self.instructions = instructions
        self.memory_accesses = memory_accesses
        self.stall_cycles = stall_cycles
