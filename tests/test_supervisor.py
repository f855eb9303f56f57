"""Tests for the supervision layer: retries, watchdogs, pool degradation,
checkpointing, and the ISSUE-4 acceptance scenario.

Every failure here is injected deterministically via REPRO_FAULTS (see
repro.sim.faults), so these tests exercise the real worker/pool/cache
machinery — no mocking of the failure itself.
"""

import os
import time

import pytest

from repro.sim import cache as disk_cache
from repro.sim import runner, supervisor
from repro.sim.runner import (
    RunRequest,
    engine_stats,
    reset_engine_stats,
    run_batch,
)
from repro.sim.supervisor import (
    RunTimeoutError,
    backoff_delay,
    max_retries,
    run_timeout,
)

N = 600


@pytest.fixture(autouse=True)
def fresh_supervised_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    runner.clear_cache()
    reset_engine_stats()
    yield
    runner.clear_cache()
    reset_engine_stats()


def req(workload="lbm", variant="psa", **kwargs):
    return RunRequest(workload, "spp", variant, n_accesses=N, **kwargs)


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay(3, 1) == backoff_delay(3, 1)

    def test_exponential_growth(self):
        base = backoff_delay(0, 0, base=0.1)
        assert backoff_delay(0, 2, base=0.1) > 2 * base

    def test_jitter_decorrelates_runs(self):
        delays = {backoff_delay(i, 0, base=0.1) for i in range(16)}
        assert len(delays) > 1

    def test_schedules_are_pinned(self):
        # Both backoffs share one crc32 jitter; these exact values pin
        # the engine and serve-client retry schedules bit for bit.
        from repro.serve.client import RetryPolicy

        assert backoff_delay(0, 0, base=0.1) == 0.15849609375
        assert backoff_delay(3, 1, base=0.1) == 0.22968750000000002
        assert backoff_delay(7, 2, base=0.5) == 2.99609375
        policy = RetryPolicy(retries=4, backoff_s=0.1, max_backoff_s=5.0)
        assert policy.delay_s(0) == 0.10410156250000001
        assert policy.delay_s(2, "x") == 0.701171875
        assert policy.delay_s(6, "429") == 5.693359375
        assert policy.delay_s(10, "t") == 9.4482421875

    def test_env_helpers(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "5")
        assert max_retries() == 5
        monkeypatch.delenv("REPRO_MAX_RETRIES")
        assert max_retries() == supervisor.DEFAULT_MAX_RETRIES
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "2.5")
        assert run_timeout() == 2.5
        monkeypatch.setenv("REPRO_RUN_TIMEOUT", "0")
        assert run_timeout() is None
        monkeypatch.delenv("REPRO_RUN_TIMEOUT")
        assert run_timeout() is None


class TestRetries:
    def test_transient_error_retried_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0:first=1")
        batch = run_batch([req()], jobs=1, strict=False)
        assert batch.ok
        assert batch.outcomes[0].attempts == 2
        assert engine_stats().retries == 1
        assert engine_stats().simulated == 1

    def test_transient_error_retried_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0:first=1")
        batch = run_batch([req(), req("milc")], jobs=2, strict=False)
        assert batch.ok
        assert batch.outcomes[0].attempts == 2
        assert batch.outcomes[1].attempts == 1

    def test_persistent_error_exhausts_budget(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        batch = run_batch([req()], jobs=1, strict=False, retries=2)
        outcome = batch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 3            # initial + 2 retries
        assert outcome.failure.exc_type == "InjectedError"
        assert outcome.failure.traceback        # full traceback captured

    def test_permanent_error_fails_immediately(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "truncate@0")
        batch = run_batch([req()], jobs=1, strict=False, retries=2)
        outcome = batch.outcomes[0]
        assert outcome.status == "failed"
        assert outcome.attempts == 1            # no retry for a bad trace
        assert outcome.failure.exc_type == "TraceFormatError"
        assert outcome.failure.permanent

    def test_invalid_request_rejected_before_scheduling(self):
        with pytest.raises(runner.RequestError, match="l1d"):
            run_batch([req(l1d="bogus")], strict=False)
        assert engine_stats().requests == 0
        assert engine_stats().simulated == 0


class TestStrictMode:
    def test_strict_reraises_original_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "truncate@0")
        with pytest.raises(ValueError, match="truncation"):
            run_batch([req()], jobs=1)

    def test_strict_reraises_original_from_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "truncate@0")
        with pytest.raises(ValueError, match="truncation"):
            run_batch([req(), req("milc")], jobs=2)

    def test_strict_failure_keeps_completed_checkpoints(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1")
        with pytest.raises(Exception):
            run_batch([req(), req("milc")], jobs=1, retries=0)
        # Run 0 completed before run 1 failed: its checkpoint survives.
        assert disk_cache.stats().entries == 1

    def test_fail_fast_skips_remaining(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@0")
        batch = run_batch([req(), req("milc")], jobs=1, strict=False,
                          retries=0, fail_fast=True)
        assert [o.status for o in batch.outcomes] == ["failed", "skipped"]


@pytest.mark.skipif(not supervisor._serial_watchdog_available(),
                    reason="SIGALRM watchdog needs a POSIX main thread")
class TestWatchdog:
    def test_serial_hang_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10")
        start = time.monotonic()
        batch = run_batch([req()], jobs=1, strict=False, timeout=0.4)
        elapsed = time.monotonic() - start
        outcome = batch.outcomes[0]
        assert outcome.status == "timeout"
        assert outcome.failure.kind == "timeout"
        assert "watchdog" in outcome.failure.message
        assert elapsed < 5.0                    # killed, not slept out

    def test_parallel_hang_killed_by_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=30")
        start = time.monotonic()
        batch = run_batch([req(), req("milc")], jobs=2, strict=False,
                          timeout=1.0)
        elapsed = time.monotonic() - start
        assert [o.status for o in batch.outcomes] == ["timeout", "ok"]
        assert batch.outcomes[0].failure.worker_pid
        assert elapsed < 20.0                   # SIGKILL, not a 30s sleep
        assert engine_stats().timeouts == 1

    def test_strict_timeout_raises_run_timeout_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@0:secs=10")
        with pytest.raises(RunTimeoutError):
            run_batch([req()], jobs=1, timeout=0.4)


class _AlwaysBrokenPool:
    """A pool whose submissions all die, simulating a broken pool."""

    def submit(self, *args, **kwargs):
        from concurrent.futures.process import BrokenProcessPool
        raise BrokenProcessPool("injected pool break")

    def shutdown(self, *args, **kwargs):
        pass


class TestPoolDegradation:
    """Satellite: BrokenProcessPool -> one rebuild -> serial fallback,
    bitwise-identical to a clean parallel run."""

    def _requests(self):
        return [req(), req("milc"), req("mcf")]

    def test_double_break_degrades_to_serial(self, monkeypatch):
        clean = run_batch(self._requests(), jobs=4, use_cache=False)

        made = []
        real_make_pool = supervisor._make_pool

        def breaking_make_pool(width):
            pool, queue = real_make_pool(width)
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass
            made.append(width)
            return _AlwaysBrokenPool(), queue

        monkeypatch.setattr(supervisor, "_make_pool", breaking_make_pool)
        reset_engine_stats()
        degraded = run_batch(self._requests(), jobs=4, use_cache=False)

        assert len(made) == 2                   # initial pool + one rebuild
        stats = engine_stats()
        assert stats.pool_rebuilds == 1
        assert stats.serial_fallbacks == 1
        assert stats.simulated == 3
        for clean_m, degraded_m in zip(clean, degraded):
            assert clean_m == degraded_m        # bitwise dataclass equality

    def test_single_break_recovers_on_rebuilt_pool(self, monkeypatch):
        real_make_pool = supervisor._make_pool
        calls = []

        def flaky_make_pool(width):
            calls.append(width)
            if len(calls) == 1:
                pool, queue = real_make_pool(width)
                try:
                    pool.shutdown(wait=False)
                except Exception:
                    pass
                return _AlwaysBrokenPool(), queue
            return real_make_pool(width)

        monkeypatch.setattr(supervisor, "_make_pool", flaky_make_pool)
        batch = run_batch(self._requests(), jobs=4, strict=False,
                          use_cache=False)
        assert batch.ok
        stats = engine_stats()
        assert stats.pool_rebuilds == 1
        assert stats.serial_fallbacks == 0


WORKLOADS_20 = ["lbm", "milc", "mcf", "soplex", "bwaves", "GemsFDTD",
                "libquantum", "fotonik3d_s", "roms_s", "gcc_s"]


class TestAcceptance:
    """The ISSUE-4 acceptance scenario: crash@4 + hang@9 in a 20-run
    batch -> exactly those two failed/timeout, 18 ok and cached, and a
    rerun completes the 2 from cache-miss only."""

    def _requests(self):
        return [RunRequest(w, "spp", v, n_accesses=N)
                for w in WORKLOADS_20 for v in ("psa", "original")]

    def test_crash_and_hang_in_20_run_batch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash@4;hang@9:secs=30")
        batch = run_batch(self._requests(), jobs=4, strict=False,
                          timeout=1.5, retries=1)
        statuses = [o.status for o in batch.outcomes]
        assert statuses[4] == "failed"
        assert batch.outcomes[4].failure.kind == "crash"
        assert statuses[9] == "timeout"
        assert statuses.count("ok") == 18
        assert "18/20 ok" in batch.summary_line()
        # Every completed run was checkpointed as it finished.
        assert disk_cache.stats().entries == 18
        assert len(batch.describe_failures()) == 2

        # Rerun with faults cleared: the 18 come from disk, only the
        # crashed and hung runs are re-simulated.
        monkeypatch.delenv("REPRO_FAULTS")
        runner.clear_cache()
        reset_engine_stats()
        rerun = run_batch(self._requests(), jobs=2, strict=False,
                          timeout=1.5, retries=1)
        assert rerun.ok
        stats = engine_stats()
        assert stats.disk_hits == 18
        assert stats.simulated == 2
        assert disk_cache.stats().entries == 20


class TestCheckpointing:
    def test_completed_runs_cached_despite_later_failure(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@2")
        batch = run_batch([req(), req("milc"), req("mcf")], jobs=1,
                          strict=False, retries=0)
        assert [o.status for o in batch.outcomes] == ["ok", "ok", "failed"]
        assert disk_cache.stats().entries == 2

    def test_corrupt_fault_exercises_quarantine(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@0")
        batch = run_batch([req()], jobs=1, strict=False)
        assert batch.ok                         # the run itself succeeded
        report = disk_cache.verify()
        assert report.corrupt == 1
        # The corrupt entry is a miss: the rerun re-simulates and heals.
        monkeypatch.delenv("REPRO_FAULTS")
        runner.clear_cache()
        reset_engine_stats()
        rerun = run_batch([req()], jobs=1, strict=False)
        assert rerun.ok
        assert engine_stats().simulated == 1
        assert list(disk_cache.quarantine_dir().glob("*.json"))

    def test_outcome_sources(self):
        batch = run_batch([req(), req()], jobs=1, strict=False)
        assert batch.outcomes[0].source == "simulated"
        assert batch.outcomes[1] is batch.outcomes[0]   # deduped twin
        runner.clear_cache()
        from_disk = run_batch([req()], jobs=1, strict=False)
        assert from_disk.outcomes[0].source == "disk"
        from_memo = run_batch([req()], jobs=1, strict=False)
        assert from_memo.outcomes[0].source == "memo"


class _FakeReportQueue:
    """Stands in for the worker->parent mp.Queue in unit tests."""

    def __init__(self, reports=()):
        self._reports = list(reports)

    def get_nowait(self):
        if self._reports:
            return self._reports.pop(0)
        import queue
        raise queue.Empty

    def close(self):
        pass

    def cancel_join_thread(self):
        pass


class _PreResolvedPool:
    """A pool whose futures are already done when submit() returns,
    modelling workers that finish while the parent is busy elsewhere
    (checkpointing via on_result, draining reports, ...)."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, task):
        from concurrent.futures import Future
        index = task[0]
        self.submitted.append(index)
        future = Future()
        future.set_result(
            {"ok": True, "pid": 1, "metrics": f"metrics-{index}"})
        return future

    def shutdown(self, *args, **kwargs):
        pass


def _payload(exc_type, permanent, pid=2):
    return {"ok": False, "kind": "error", "pid": pid,
            "exc_type": exc_type, "message": "boom", "traceback": "tb",
            "permanent": permanent, "exc_bytes": None}


class TestReviewRegressions:
    """Pinned fixes from the supervision-layer review."""

    def test_already_done_futures_are_collected(self, monkeypatch):
        # A future that is done before the parent's next wait() pass
        # must still be collected — not orphaned and re-simulated in
        # the serial phase (or reaped as a bogus TIMEOUT).
        pool = _PreResolvedPool()
        monkeypatch.setattr(supervisor, "_make_pool",
                            lambda width: (pool, _FakeReportQueue()))
        monkeypatch.setattr(
            runner, "_execute",
            lambda request: pytest.fail("orphaned result re-simulated "
                                        "in the serial phase"))
        outcomes, stats = supervisor.supervise(
            ["a", "b", "c"], width=2, timeout=None, retries=0)
        assert [o.status for o in outcomes] == ["ok"] * 3
        assert [o.metrics for o in outcomes] == [
            "metrics-0", "metrics-1", "metrics-2"]
        assert sorted(pool.submitted) == [0, 1, 2]  # exactly one attempt each
        assert not stats.serial_fallback

    def test_stale_start_report_ignored(self):
        # A "start" report from an attempt that already failed must not
        # re-arm the watchdog: the pid it names is running another task.
        sup = supervisor._Supervisor(["a"], 2, 5.0, 2, None, None, False)
        sup.attempts[0] = 1                      # attempt 0 failed; retrying
        running = {}
        sup._drain_reports(
            _FakeReportQueue([("start", 0, 111, 0)]), running)
        assert running == {}
        sup._drain_reports(
            _FakeReportQueue([("start", 0, 222, 1)]), running)
        assert running[0][0] == 222              # current attempt accepted

    def test_harvest_preserves_failures_across_pool_break(self):
        from concurrent.futures import Future
        sup = supervisor._Supervisor(["a", "b"], 2, None, 1, None, None,
                                     False)
        ok_future = Future()
        ok_future.set_result({"ok": True, "pid": 1, "metrics": "m0"})
        bad_future = Future()
        bad_future.set_result(_payload("ValueError", permanent=True))
        futures = {ok_future: 0, bad_future: 1}
        running = {1: (2, 0.0)}
        sup._harvest_done(futures, running)
        assert sup.outcomes[0].status == "ok"
        # The permanent failure keeps its record and attempt charge
        # instead of being requeued for a free re-execution.
        assert sup.outcomes[1].status == "failed"
        assert sup.outcomes[1].failure.exc_type == "ValueError"
        assert sup.attempts[1] == 1
        assert not futures and not running

    def test_harvest_charges_transient_failures(self):
        from concurrent.futures import Future
        sup = supervisor._Supervisor(["a"], 2, None, 2, None, None, False)
        future = Future()
        future.set_result(_payload("RuntimeError", permanent=False))
        futures = {future: 0}
        sup._harvest_done(futures, {})
        assert sup.outcomes[0] is None           # retry scheduled
        assert sup.attempts[0] == 1              # ... but attempt charged
        assert sup.not_before[0] > 0             # ... with backoff
        assert not futures
