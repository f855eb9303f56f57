"""Experiment engine: batched, parallel, persistently cached simulation.

The benchmarks regenerate many figures from overlapping sets of runs (e.g.
the SPP-original baseline appears in Figs. 4, 5, 8, 10, 11, 12).  The
engine removes that redundancy at three levels:

1. **Deduplication** — ``run_batch`` collapses requests with identical
   fingerprints, so a shared baseline is simulated once per batch.
2. **Caching** — finished ``RunMetrics`` are memoised in-process *and*
   persisted to a content-addressed on-disk cache (``repro.sim.cache``),
   so they survive across pytest sessions and CLI invocations.
3. **Parallelism** — unique uncached runs are fanned out over a
   ``ProcessPoolExecutor`` sized by ``REPRO_JOBS`` (default: all cores;
   ``1`` recovers the serial path), then results fan back in request
   order.  Runs are deterministic (see the stable allocator seeding in
   ``repro.sim.simulator``), so parallel metrics are bitwise-equal to
   serial ones.
4. **Supervision** — execution is delegated to ``repro.sim.supervisor``:
   per-run watchdog timeouts (``REPRO_RUN_TIMEOUT``), retry with
   exponential backoff for transient failures (``REPRO_MAX_RETRIES``),
   pool-break recovery (one rebuild, then serial fallback), and
   per-completion checkpointing to the on-disk cache so a killed batch
   resumes where it left off.  ``run_batch(strict=False)`` returns a
   ``BatchResult`` of per-request outcomes instead of raising on the
   first failure; deterministic fault injection (``REPRO_FAULTS``, see
   ``repro.sim.faults``) exercises every one of those paths.

``run``/``speedup``/``speedups_over_baseline``/``variant_sweep``/
``run_many``/``pair_metrics`` are all thin frontends over ``run_batch``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.factory import PREFETCHERS, VARIANTS
from repro.sim import cache as disk_cache
from repro.sim import config
from repro.sim import faults, supervisor
from repro.sim.supervisor import (   # re-exported for callers
    BatchResult,
    RunFailure,
    RunOutcome,
)
from repro.sim.config import (   # RequestError re-exported for callers
    DuelingConfig,
    RequestError,
    SystemConfig,
    accesses_for_scale,
)
from repro.sim.metrics import RunMetrics
from repro.sim.simulator import L1D_PREFETCHERS, simulate_workload
from repro.workloads.suites import WorkloadSpec, catalog

_CACHE: Dict[tuple, RunMetrics] = {}

#: Set in pool workers so nested engine calls never spawn a second pool.
_IN_WORKER_ENV = "REPRO_IN_WORKER"


def job_count() -> int:
    """Worker-pool width: ``REPRO_JOBS`` env, default ``os.cpu_count()``."""
    if os.environ.get(_IN_WORKER_ENV):
        return 1
    jobs = config.env_int("REPRO_JOBS", 0)
    return jobs if jobs > 0 else (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------

def _freeze(value):
    """Recursively convert a value into a hashable, order-stable tuple."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return tuple((f.name, _freeze(getattr(value, f.name)))
                     for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


@functools.lru_cache(maxsize=None)
def _workload_names() -> frozenset:
    """Catalog names a request may give as its workload (built once)."""
    return frozenset(catalog(include_non_intensive=True))


def _finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class RunRequest:
    """One (workload, prefetcher, variant, configuration) simulation."""

    workload: Union[str, WorkloadSpec]
    prefetcher: str = "spp"
    variant: str = "psa"
    l1d: str = "none"
    oracle_page_size: bool = False
    n_accesses: Optional[int] = None
    table_scale: float = 1.0
    gb_fraction: float = 0.0
    config: Optional[SystemConfig] = None
    dueling: Optional[DuelingConfig] = None

    def validate(self) -> None:
        """Raise :class:`RequestError` unless every field names a run
        that can execute.

        The one check of a run request: the CLI, serve admission and
        campaign expansion all reach it through :meth:`resolved`, so an
        impossible request is rejected before anything is scheduled.
        """
        workload = self.workload
        if not (isinstance(workload, WorkloadSpec)
                or isinstance(workload, str)
                and workload in _workload_names()):
            raise RequestError(f"unknown workload {workload!r} "
                               f"(see 'repro catalog --all')")
        for name, choices in (("prefetcher", PREFETCHERS),
                              ("variant", VARIANTS),
                              ("l1d", L1D_PREFETCHERS)):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                raise RequestError(f"unknown {name} {value!r} "
                                   f"(choose from {sorted(choices)})")
        n, scale, gb = self.n_accesses, self.table_scale, self.gb_fraction
        for name, ok, what in (
                ("oracle_page_size", isinstance(self.oracle_page_size, bool),
                 "a bool"),
                ("n_accesses", n is None or type(n) is int and n >= 1,
                 "a positive integer"),
                ("table_scale", _finite(scale) and scale > 0,
                 "a finite number > 0"),
                ("gb_fraction", _finite(gb) and 0 <= gb <= 1,
                 "a finite number in [0, 1]")):
            if not ok:
                raise RequestError(
                    f"{name} must be {what}, got {getattr(self, name)!r}")
        if self.config is not None:
            try:
                self.config.validate()
            except (ValueError, ArithmeticError) as exc:
                raise RequestError(
                    f"invalid configuration: {exc}") from exc

    def resolved(self) -> "RunRequest":
        """:meth:`validate`, then fill scale/config defaults and cast the
        float fields to ``float``, so the fingerprint is self-contained
        and one experiment has one key whichever surface built it."""
        self.validate()
        config = self.config if self.config is not None else SystemConfig()
        return dataclasses.replace(
            self,
            n_accesses=(self.n_accesses if self.n_accesses is not None
                        else accesses_for_scale()),
            table_scale=float(self.table_scale),
            gb_fraction=float(self.gb_fraction),
            config=config,
            dueling=self.dueling if self.dueling is not None
            else config.dueling)

    def key(self) -> tuple:
        """Complete fingerprint, derived automatically from every field.

        ``_freeze`` recurses through the request and all nested dataclasses
        (``SystemConfig``, its cache/TLB/DRAM/dueling members, a
        ``WorkloadSpec`` workload), so adding a knob anywhere automatically
        widens the key — two different configurations can never collide.
        """
        return ("run", _freeze(self.resolved()))


#: The request fields a submission body or a campaign axis sets by
#: name; ``config`` is reached through dotted SystemConfig paths.
PARAM_FIELDS = tuple(f.name for f in dataclasses.fields(RunRequest)
                     if f.name not in ("config", "dueling"))


# ----------------------------------------------------------------------
# Engine statistics
# ----------------------------------------------------------------------

@dataclass
class EngineStats:
    """Cumulative accounting of what the engine did this process."""

    requests: int = 0
    deduped: int = 0          # requests collapsed onto an in-batch twin
    memo_hits: int = 0        # served from the in-process memo
    disk_hits: int = 0        # served from the on-disk cache
    simulated: int = 0        # actually executed (and succeeded)
    sim_wall_s: float = 0.0   # summed per-run wall time (all workers)
    batch_wall_s: float = 0.0  # wall time spent inside run_batch
    simulated_accesses: int = 0  # trace records executed (incl. warmup)
    failed: int = 0           # runs that exhausted retries
    timeouts: int = 0         # runs killed by the watchdog
    retries: int = 0          # extra attempts scheduled
    pool_rebuilds: int = 0    # broken pools rebuilt
    serial_fallbacks: int = 0  # batches degraded to serial execution

    @property
    def cache_hits(self) -> int:
        return self.deduped + self.memo_hits + self.disk_hits

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.requests if self.requests else 0.0

    @property
    def accesses_per_sec(self) -> float:
        """Aggregate simulation throughput over engine wall time."""
        return (self.simulated_accesses / self.batch_wall_s
                if self.batch_wall_s else 0.0)

    def to_dict(self) -> dict:
        """Machine-readable snapshot: every counter plus the derived
        rates, so campaign tooling and outside scripts never have to
        parse ``summary_line`` text."""
        data = {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)}
        data["cache_hits"] = self.cache_hits
        data["cache_hit_rate"] = self.cache_hit_rate
        data["accesses_per_sec"] = self.accesses_per_sec
        return data

    def summary_line(self) -> str:
        line = (f"engine: {self.requests} requests "
                f"({self.simulated} simulated, {self.memo_hits} memo, "
                f"{self.disk_hits} disk, {self.deduped} deduped) | "
                f"cache hit-rate {self.cache_hit_rate * 100:.1f}% | "
                f"{self.simulated_accesses:,} accesses in "
                f"{self.batch_wall_s:.2f}s = "
                f"{self.accesses_per_sec:,.0f} accesses/s")
        if self.failed or self.timeouts or self.retries:
            line += (f" | {self.failed} failed, {self.timeouts} timed out, "
                     f"{self.retries} retried")
        return line


_STATS = EngineStats()


def engine_stats() -> EngineStats:
    """The process-wide cumulative engine statistics."""
    return _STATS


def reset_engine_stats() -> None:
    global _STATS
    _STATS = EngineStats()


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is left untouched)."""
    _CACHE.clear()


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _execute(request: RunRequest) -> RunMetrics:
    """Simulate one resolved request, stamping per-run wall time.

    The request's fingerprint doubles as the snapshot key: when
    ``REPRO_SNAPSHOT_EVERY`` is set, a retried/resumed attempt of the
    same request picks up its own mid-run checkpoint automatically.
    """
    start = time.perf_counter()
    metrics = simulate_workload(
        request.workload, config=request.config,
        prefetcher=request.prefetcher, variant=request.variant,
        l1d=request.l1d, oracle_page_size=request.oracle_page_size,
        n_accesses=request.n_accesses, table_scale=request.table_scale,
        gb_fraction=request.gb_fraction, dueling=request.dueling,
        snapshot_key=request.key())
    metrics.wall_time_s = time.perf_counter() - start
    return metrics


def _worker_init() -> None:
    os.environ[_IN_WORKER_ENV] = "1"


def _coerce(request) -> RunRequest:
    if isinstance(request, RunRequest):
        return request
    if isinstance(request, dict):
        return RunRequest(**request)
    raise TypeError(f"expected RunRequest or dict, got {type(request)!r}")


def run_batch(requests: Iterable[Union[RunRequest, dict]],
              jobs: Optional[int] = None,
              use_cache: bool = True,
              strict: bool = True,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              fail_fast: Optional[bool] = None
              ) -> Union[List[RunMetrics], BatchResult]:
    """Execute a batch of runs under supervision.

    Requests are deduplicated by fingerprint; unique misses (after the
    in-process memo and the on-disk cache) are scheduled across a process
    pool of ``jobs`` workers (default ``REPRO_JOBS``) under
    ``repro.sim.supervisor``: per-run watchdog ``timeout`` (default
    ``REPRO_RUN_TIMEOUT``), up to ``retries`` extra attempts for
    transient failures (default ``REPRO_MAX_RETRIES``), broken-pool
    rebuild then serial fallback, and per-completion cache
    checkpointing.  With ``use_cache=False`` every request is simulated
    fresh and nothing is read from or written to either cache.

    With ``strict=True`` (the default) the first failure re-raises its
    original exception and a plain ``List[RunMetrics]`` is returned in
    request order.  With ``strict=False`` a :class:`BatchResult` of
    per-request :class:`RunOutcome` records is returned and no exception
    propagates.  ``fail_fast`` (default: the value of ``strict``)
    controls whether remaining runs are skipped after the first failure.

    Every request is checked by :meth:`RunRequest.validate` first: an
    invalid one raises :class:`RequestError` before anything is
    scheduled or counted, even with ``strict=False``.
    """
    batch_start = time.perf_counter()
    reqs = [_coerce(r).resolved() for r in requests]
    keys = [r.key() for r in reqs]
    _STATS.requests += len(reqs)

    outcomes: Dict[tuple, RunOutcome] = {}
    pending: List[Tuple[tuple, RunRequest]] = []
    scheduled = set()
    for key, req in zip(keys, reqs):
        if key in outcomes or key in scheduled:
            _STATS.deduped += 1
            continue
        if use_cache:
            memo = _CACHE.get(key)
            if memo is not None:
                outcomes[key] = RunOutcome(status=supervisor.OK,
                                           metrics=memo, source="memo")
                _STATS.memo_hits += 1
                continue
            disk = disk_cache.load(key)
            if disk is not None:
                outcomes[key] = RunOutcome(status=supervisor.OK,
                                           metrics=disk, source="disk")
                _CACHE[key] = disk
                _STATS.disk_hits += 1
                continue
        scheduled.add(key)
        pending.append((key, req))

    if pending:
        width = min(jobs if jobs is not None else job_count(), len(pending))
        plan = faults.plan_from_env(len(pending))
        resolved_timeout = (supervisor.run_timeout() if timeout is None
                            else (timeout if timeout > 0 else None))
        resolved_retries = (supervisor.max_retries() if retries is None
                            else max(0, retries))

        def _checkpoint(index: int, metrics: RunMetrics) -> None:
            key = pending[index][0]
            if use_cache:
                _CACHE[key] = metrics
                disk_cache.store(key, metrics)
                if plan is not None:
                    for _ in plan.post_store_actions(index):
                        faults.corrupt_file(disk_cache.entry_path(key))

        run_outcomes, sup_stats = supervisor.supervise(
            [req for _, req in pending], width=width,
            timeout=resolved_timeout, retries=resolved_retries,
            plan=plan, on_result=_checkpoint,
            fail_fast=strict if fail_fast is None else fail_fast)

        for (key, req), outcome in zip(pending, run_outcomes):
            outcomes[key] = outcome
            if outcome.ok:
                _STATS.simulated += 1
                _STATS.sim_wall_s += outcome.metrics.wall_time_s
                _STATS.simulated_accesses += req.n_accesses
        _STATS.retries += sup_stats.retries
        _STATS.failed += sup_stats.failed
        _STATS.timeouts += sup_stats.timeouts
        _STATS.pool_rebuilds += sup_stats.pool_rebuilds
        _STATS.serial_fallbacks += int(sup_stats.serial_fallback)

    _STATS.batch_wall_s += time.perf_counter() - batch_start
    ordered = [outcomes[key] for key in keys]
    if strict:
        bad = [o for o in ordered if not o.ok]
        if bad:
            # Prefer the run that actually failed over any skipped runs
            # that merely trailed it under fail-fast.
            primary = next((o for o in bad if o.failure is not None), bad[0])
            supervisor.reraise(primary)
        return [o.metrics for o in ordered]
    return BatchResult(ordered, requests=reqs)


def parallel_map(fn: Callable, items: Sequence,
                 jobs: Optional[int] = None) -> List:
    """Map a picklable function over items on the engine's worker pool.

    Used for work that is parallel but not ``RunMetrics``-shaped (e.g. the
    multi-core mix simulations).  Falls back to a plain loop when the pool
    width is 1 or there is nothing to parallelise.
    """
    items = list(items)
    width = min(jobs if jobs is not None else job_count(), len(items))
    if width <= 1:
        return [fn(item) for item in items]
    try:
        with ProcessPoolExecutor(max_workers=width,
                                 initializer=_worker_init) as pool:
            return list(pool.map(fn, items))
    except BrokenProcessPool:
        # Degrade to in-process serial execution rather than dying.
        _STATS.serial_fallbacks += 1
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Frontends (all batched under the hood)
# ----------------------------------------------------------------------

def run(workload: str, prefetcher: str = "spp", variant: str = "psa",
        config: Optional[SystemConfig] = None, l1d: str = "none",
        oracle_page_size: bool = False, n_accesses: Optional[int] = None,
        table_scale: float = 1.0,
        dueling: Optional[DuelingConfig] = None,
        use_cache: bool = True) -> RunMetrics:
    """Simulate one workload under one configuration (cached)."""
    request = RunRequest(
        workload, prefetcher, variant, l1d=l1d,
        oracle_page_size=oracle_page_size, n_accesses=n_accesses,
        table_scale=table_scale, config=config, dueling=dueling)
    return run_batch([request], use_cache=use_cache)[0]


def _target_request(workload, prefetcher, variant, config, n_accesses,
                    **kwargs) -> RunRequest:
    return RunRequest(workload, prefetcher, variant, config=config,
                      n_accesses=n_accesses, **kwargs)


def speedup(workload: str, prefetcher: str, variant: str,
            baseline_variant: str = "original",
            baseline_prefetcher: Optional[str] = None,
            config: Optional[SystemConfig] = None,
            n_accesses: Optional[int] = None,
            **kwargs) -> float:
    """IPC ratio of (prefetcher, variant) over the baseline variant."""
    use_cache = kwargs.pop("use_cache", True)
    target, base = run_batch([
        _target_request(workload, prefetcher, variant, config, n_accesses,
                        **kwargs),
        RunRequest(workload, baseline_prefetcher or prefetcher,
                   baseline_variant, config=config, n_accesses=n_accesses),
    ], use_cache=use_cache)
    return target.speedup_over(base)


def speedups_over_baseline(workloads: Iterable[str], prefetcher: str,
                           variant: str, baseline_variant: str = "original",
                           config: Optional[SystemConfig] = None,
                           n_accesses: Optional[int] = None,
                           **kwargs) -> Dict[str, float]:
    """Per-workload speedups of one variant over the baseline (one batch)."""
    use_cache = kwargs.pop("use_cache", True)
    workloads = list(workloads)
    requests = [_target_request(w, prefetcher, variant, config, n_accesses,
                                **kwargs) for w in workloads]
    requests += [RunRequest(w, prefetcher, baseline_variant, config=config,
                            n_accesses=n_accesses) for w in workloads]
    metrics = run_batch(requests, use_cache=use_cache)
    targets, bases = metrics[:len(workloads)], metrics[len(workloads):]
    return {w: t.speedup_over(b)
            for w, t, b in zip(workloads, targets, bases)}


def variant_sweep(workloads: Iterable[str], prefetcher: str,
                  variants: Iterable[str],
                  baseline_variant: str = "original",
                  config: Optional[SystemConfig] = None,
                  n_accesses: Optional[int] = None,
                  **kwargs) -> Dict[str, Dict[str, float]]:
    """variant -> {workload -> speedup over baseline}, as one batch."""
    use_cache = kwargs.pop("use_cache", True)
    workloads = list(workloads)
    variants = list(variants)
    requests = [_target_request(w, prefetcher, v, config, n_accesses,
                                **kwargs)
                for v in variants for w in workloads]
    requests += [RunRequest(w, prefetcher, baseline_variant, config=config,
                            n_accesses=n_accesses) for w in workloads]
    metrics = run_batch(requests, use_cache=use_cache)
    bases = dict(zip(workloads, metrics[len(variants) * len(workloads):]))
    sweep: Dict[str, Dict[str, float]] = {}
    for i, variant in enumerate(variants):
        row = metrics[i * len(workloads):(i + 1) * len(workloads)]
        sweep[variant] = {w: t.speedup_over(bases[w])
                          for w, t in zip(workloads, row)}
    return sweep


def run_many(workloads: Iterable[str], prefetcher: str, variant: str,
             config: Optional[SystemConfig] = None,
             n_accesses: Optional[int] = None,
             **kwargs) -> List[RunMetrics]:
    use_cache = kwargs.pop("use_cache", True)
    return run_batch(
        [_target_request(w, prefetcher, variant, config, n_accesses,
                         **kwargs) for w in workloads],
        use_cache=use_cache)


def pair_metrics(workload: str, prefetcher: str, variant: str,
                 baseline_variant: str = "original",
                 config: Optional[SystemConfig] = None,
                 n_accesses: Optional[int] = None,
                 **kwargs) -> Tuple[RunMetrics, RunMetrics]:
    """(variant run, baseline run) for delta metrics (Fig. 10)."""
    use_cache = kwargs.pop("use_cache", True)
    target, base = run_batch([
        _target_request(workload, prefetcher, variant, config, n_accesses,
                        **kwargs),
        RunRequest(workload, prefetcher, baseline_variant, config=config,
                   n_accesses=n_accesses),
    ], use_cache=use_cache)
    return target, base


def pair_metrics_many(workloads: Iterable[str], prefetcher: str,
                      variant: str, baseline_variant: str = "original",
                      config: Optional[SystemConfig] = None,
                      n_accesses: Optional[int] = None,
                      **kwargs) -> Dict[str, Tuple[RunMetrics, RunMetrics]]:
    """Batched ``pair_metrics`` across workloads (one engine batch)."""
    use_cache = kwargs.pop("use_cache", True)
    workloads = list(workloads)
    requests = [_target_request(w, prefetcher, variant, config, n_accesses,
                                **kwargs) for w in workloads]
    requests += [RunRequest(w, prefetcher, baseline_variant, config=config,
                            n_accesses=n_accesses) for w in workloads]
    metrics = run_batch(requests, use_cache=use_cache)
    return {w: (t, b) for w, t, b in zip(
        workloads, metrics[:len(workloads)], metrics[len(workloads):])}
