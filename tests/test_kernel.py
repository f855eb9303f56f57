"""Acceptance tests for the columnar hot-path kernel (PR 6 tentpole).

The contract: with ``REPRO_KERNEL=vector`` every simulation produces
**bitwise-identical** results to the scalar reference loop — metrics
digests, full model state, and snapshot/resume behaviour — across all
five variants, for any chunk size, and under injected mid-chunk faults.
"""

import pickle

import pytest

from repro.cpu.core import Core
from repro.sim import faults, kernel, runner, snapshot
from repro.sim.config import ConfigurationError, SystemConfig
from repro.sim.simulator import build_hierarchy, simulate_trace
from repro.verify import golden
from repro.workloads.io import load_trace
from repro.workloads.suites import catalog
from repro.workloads.trace import KIND_LOAD, Trace

ALL_VARIANTS = ("none", "original", "psa", "psa-2mb", "psa-sd")

#: Snapshot interval and kill index deliberately not multiples of the
#: chunk size below, so the kill lands mid-chunk and the snapshot
#: barrier forces a chunk split.
EVERY = 500
KILL_AT = 1300
CHUNK = 192


def run_with_state(trace, variant, mode, monkeypatch, prefetcher="spp"):
    """Simulate under one kernel mode; return (metrics digest, state)."""
    monkeypatch.setenv("REPRO_KERNEL", mode)
    config = SystemConfig()
    hierarchy, module = build_hierarchy(trace, config, prefetcher, variant)
    core = Core(hierarchy, config.rob_entries, config.fetch_width)
    core.run(trace, warmup_records=len(trace.records) // 2)
    metrics = simulate_trace(trace, prefetcher=prefetcher, variant=variant)
    state = pickle.dumps({"core": core.state_dict(),
                          "hierarchy": hierarchy.state_dict()})
    return golden.metrics_digest(metrics), state


class TestBitwiseEquivalence:
    """Scalar and vector kernels agree on digests AND full model state."""

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_golden_traces_all_variants(self, variant, monkeypatch):
        for path in golden.ensure_traces():
            trace = load_trace(path)
            scalar = run_with_state(trace, variant, "scalar", monkeypatch)
            vector = run_with_state(trace, variant, "vector", monkeypatch)
            assert scalar[0] == vector[0], (
                f"{trace.name}/{variant}: metrics digest diverged")
            assert scalar[1] == vector[1], (
                f"{trace.name}/{variant}: model state diverged")

    @pytest.mark.parametrize("prefetcher", ["ppf", "bop", "vldp"])
    def test_other_prefetchers(self, prefetcher, monkeypatch):
        trace = catalog()["mcf"].generate(3000)
        scalar = run_with_state(trace, "psa", "scalar", monkeypatch,
                                prefetcher=prefetcher)
        vector = run_with_state(trace, "psa", "vector", monkeypatch,
                                prefetcher=prefetcher)
        assert scalar == vector

    def test_chunk_size_is_invisible(self, monkeypatch):
        trace = catalog()["lbm"].generate(2500)
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        results = []
        for chunk in ("1", "7", "4096"):
            monkeypatch.setenv("REPRO_CHUNK", chunk)
            results.append(run_with_state(trace, "psa-sd", "vector",
                                          monkeypatch))
        assert results[0] == results[1] == results[2]


class TestFaultsAndSnapshots:
    """Kill mid-chunk, resume from a snapshot: still bitwise identical."""

    @pytest.fixture(autouse=True)
    def snapshot_engine(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snaps"))
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", str(EVERY))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_DISK_CACHE", "0")
        monkeypatch.setenv("REPRO_CHUNK", str(CHUNK))
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
    def test_kill_mid_chunk_resume_matches_both_kernels(
            self, variant, monkeypatch):
        trace = load_trace(golden.ensure_traces()[0])
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        scalar = simulate_trace(trace, prefetcher="spp", variant=variant)
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        uninterrupted = simulate_trace(trace, prefetcher="spp",
                                       variant=variant)
        resumed = self.kill_then_resume(
            trace, variant, ("kernel-kill", trace.name, variant))
        digests = {golden.metrics_digest(m)
                   for m in (scalar, uninterrupted, resumed)}
        assert len(digests) == 1, (
            f"{variant}: scalar / vector / killed+resumed runs diverged")
        assert snapshot.COUNTERS["loads"] == 1   # the resume used a snapshot

    def test_snapshot_payloads_bitwise_identical(self, monkeypatch):
        """The snapshot *bytes* written at each barrier must not depend
        on the kernel: resuming a scalar run from a vector snapshot (or
        vice versa) must be indistinguishable."""
        trace = load_trace(golden.ensure_traces()[0])
        stored = {}
        real_store = snapshot.store

        def capture(key, index, state):
            stored.setdefault(index, []).append(pickle.dumps(state))
            return real_store(key, index, state)

        monkeypatch.setattr(snapshot, "store", capture)
        for mode in ("scalar", "vector"):
            monkeypatch.setenv("REPRO_KERNEL", mode)
            simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                           snapshot_key=("payload", mode))
        assert stored and all(len(v) == 2 for v in stored.values())
        for index, payloads in stored.items():
            assert payloads[0] == payloads[1], (
                f"snapshot at access {index} differs between kernels")


class TestKnobsAndGating:
    def test_invalid_kernel_mode_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "simd")
        with pytest.raises(ConfigurationError):
            kernel.kernel_mode()

    def test_invalid_chunk_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHUNK", "0")
        with pytest.raises(ConfigurationError):
            kernel.chunk_size()
        monkeypatch.setenv("REPRO_CHUNK", "banana")
        with pytest.raises(ConfigurationError):
            kernel.chunk_size()

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        monkeypatch.delenv("REPRO_CHUNK", raising=False)
        assert kernel.kernel_mode() == "auto"
        assert kernel.chunk_size() == kernel.DEFAULT_CHUNK

    def test_unpackable_addresses_fall_back_to_scalar(self, monkeypatch):
        """Records outside the packed dtypes run — via the scalar loop."""
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        records = [(0, (1 << 69) + 64 * i, KIND_LOAD, 2, False)
                   for i in range(50)]
        trace = Trace(name="huge", records=records, thp_fraction=0.0)
        metrics = simulate_trace(trace, prefetcher="spp", variant="psa")
        assert metrics.memory_accesses == 25   # measured half

    def test_oracle_uses_scalar_loop(self, monkeypatch):
        """Under the differential oracle the hierarchy has an observer,
        so the run takes the scalar reference loop — and the oracle must
        pass."""
        monkeypatch.setenv("REPRO_KERNEL", "vector")
        scalar_runs = []
        run_scalar = Core.run_scalar

        def spy(core, *args, **kwargs):
            scalar_runs.append(core)
            return run_scalar(core, *args, **kwargs)

        monkeypatch.setattr(Core, "run_scalar", spy)
        monkeypatch.setattr(kernel, "_run_chunk_fast", lambda *a, **k:
                            pytest.fail("fused loop ran under the oracle"))
        trace = catalog()["mcf"].generate(1200)
        metrics = simulate_trace(trace, prefetcher="spp", variant="psa-sd",
                                 oracle=True)
        assert scalar_runs
        assert metrics.oracle_report is not None
        assert metrics.oracle_report.ok
