"""Acceptance tests for the single demand path.

Every simulation runs one method, ``MemoryHierarchy._access``, driven
either by ``Core.run`` (the ROB and fetch state held in loop locals) or
by ``Core.step`` (one record at a time, as the multicore interleaver
does).  The contract: both drivers produce **bitwise-identical** results
— metrics digests and full model state — across all five variants; a
run killed mid-trace and resumed from a snapshot matches an
uninterrupted one, snapshot bytes included; and the differential oracle
shadows the same method production runs take.
"""

import pickle

import pytest

from repro.cpu.core import Core
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim import faults, runner, snapshot
from repro.sim.config import SystemConfig
from repro.sim.metrics import collect_metrics
from repro.sim.simulator import build_hierarchy, simulate_trace
from repro.verify import golden
from repro.workloads.io import load_trace
from repro.workloads.suites import catalog
from repro.workloads.trace import KIND_LOAD, Trace

ALL_VARIANTS = ("none", "original", "psa", "psa-2mb", "psa-sd")

#: Snapshot interval and kill index: the kill lands between snapshots.
EVERY = 500
KILL_AT = 1300


def run_with_state(trace, variant, driver, prefetcher="spp"):
    """Simulate with one core driver; return (metrics digest, state)."""
    config = SystemConfig()
    hierarchy, module = build_hierarchy(trace, config, prefetcher, variant)
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    warmup = len(trace.records) // 2
    if driver == "run":
        result = core.run(trace, warmup_records=warmup)
    else:
        for index, record in enumerate(trace.records):
            if index == warmup:
                core.begin_measurement()
            core.step(record)
        result = core.finish()
    metrics = collect_metrics(trace.name, prefetcher, variant, hierarchy,
                              result, module)
    state = pickle.dumps({"core": core.state_dict(),
                          "hierarchy": hierarchy.state_dict()})
    return golden.metrics_digest(metrics), state


class TestBitwiseEquivalence:
    """``Core.run`` and ``Core.step`` agree on digests AND full state."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_golden_traces_all_variants(self, variant):
        for path in golden.ensure_traces():
            trace = load_trace(path)
            stepped = run_with_state(trace, variant, "step")
            looped = run_with_state(trace, variant, "run")
            assert stepped[0] == looped[0], (
                f"{trace.name}/{variant}: metrics digest diverged")
            assert stepped[1] == looped[1], (
                f"{trace.name}/{variant}: model state diverged")

    @pytest.mark.parametrize("prefetcher", ["ppf", "bop", "vldp"])
    def test_other_prefetchers(self, prefetcher):
        trace = catalog()["mcf"].generate(3000)
        assert (run_with_state(trace, "psa", "step", prefetcher)
                == run_with_state(trace, "psa", "run", prefetcher))


class TestFaultsAndSnapshots:
    """Kill mid-run, resume from a snapshot: still bitwise identical."""

    @pytest.fixture(autouse=True)
    def snapshot_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snaps"))
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", str(EVERY))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        runner.clear_cache()
        snapshot.reset_counters()
        yield
        faults.disarm()
        runner.clear_cache()

    def kill_then_resume(self, trace, variant, key):
        faults.arm([faults.FaultAction(kind="kill", at=KILL_AT, first=1)],
                   0)
        try:
            with pytest.raises(faults.InjectedCrash):
                simulate_trace(trace, prefetcher="spp", variant=variant,
                               snapshot_key=key)
            faults.arm([faults.FaultAction(kind="kill", at=KILL_AT,
                                           first=1)], 1)
            return simulate_trace(trace, prefetcher="spp", variant=variant,
                                  snapshot_key=key)
        finally:
            faults.disarm()

    @pytest.mark.parametrize("variant", ["psa", "psa-sd"])
    def test_kill_mid_run_resume_matches_uninterrupted(self, variant):
        trace = load_trace(golden.ensure_traces()[0])
        uninterrupted = simulate_trace(trace, prefetcher="spp",
                                       variant=variant)
        resumed = self.kill_then_resume(
            trace, variant, ("kernel-kill", trace.name, variant))
        assert (golden.metrics_digest(uninterrupted)
                == golden.metrics_digest(resumed)), (
            f"{variant}: killed+resumed run diverged from uninterrupted")
        assert snapshot.COUNTERS["loads"] == 1   # the resume used a snapshot

    def test_snapshot_payloads_bitwise_identical(self, monkeypatch):
        """The snapshot *bytes* written at each interval must not depend
        on whether the run was interrupted: a resumed run writes what an
        uninterrupted one writes."""
        trace = load_trace(golden.ensure_traces()[0])
        stored = {}
        real_store = snapshot.store

        def capture(key, index, state):
            stored.setdefault(key[0], {})[index] = pickle.dumps(state)
            return real_store(key, index, state)

        monkeypatch.setattr(snapshot, "store", capture)
        simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                       snapshot_key=("whole", trace.name))
        self.kill_then_resume(trace, "psa-sd", ("killed", trace.name))
        whole, killed = stored["whole"], stored["killed"]
        assert whole and set(killed) == set(whole)
        for index, payload in whole.items():
            assert killed[index] == payload, (
                f"snapshot at access {index} differs after kill+resume")


class TestOnePath:
    def test_addresses_beyond_64_bits_run(self):
        """Addresses no fixed-width column could hold simulate fine."""
        records = [(0, (1 << 69) + 64 * i, KIND_LOAD, 2, False)
                   for i in range(50)]
        trace = Trace(name="huge", records=records, thp_fraction=0.0)
        metrics = simulate_trace(trace, prefetcher="spp", variant="psa")
        assert metrics.memory_accesses == 25   # measured half

    def test_oracle_runs_the_production_path(self, monkeypatch):
        """The oracle shadows the very method every production run
        executes: with and without an observer, each access is one
        ``MemoryHierarchy._access`` call — and the oracle must pass."""
        calls = {True: 0, False: 0}
        access = MemoryHierarchy._access

        def spy(hierarchy, *args, **kwargs):
            calls[hierarchy.observer is not None] += 1
            return access(hierarchy, *args, **kwargs)

        monkeypatch.setattr(MemoryHierarchy, "_access", spy)
        trace = catalog()["mcf"].generate(1200)
        plain = simulate_trace(trace, prefetcher="spp", variant="psa-sd")
        shadowed = simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                                  oracle=True)
        assert calls == {False: 1200, True: 1200}
        assert shadowed.oracle_report is not None
        assert shadowed.oracle_report.ok
        assert golden.metrics_digest(plain) == golden.metrics_digest(
            shadowed)
