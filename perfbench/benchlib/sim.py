"""The two simulation-sweep workloads.

Both drive cold 40k-access runs one request at a time through
``runner.run_batch``, serially, into a fresh cache: a 2MB-backed
streaming set where SPP/PSA candidates carry the host time, and a
4KB-scattered irregular set where translation and DRAM do.  The seed
renames a copy of each catalog ``WorkloadSpec`` (kind, params and THP
fraction unchanged), which changes both the generated trace and the
allocator layout.  A sweep longer than one pass over every trace and
variant goes on with copies renamed once more, so no run repeats.

The untraced pass times a host-speed reference slice before each run
and after the last; its timed figures are reported scaled by the run's
slowdown (see ``benchlib.hostspeed``).

A traced pass profiles a prefix of the same sweep, so its runs and
their digests compare one to one with the untraced pass.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import time
from typing import Dict, List, Sequence

from benchlib.common import Context, Pass
from benchlib.stats import median, tail_percentile
from benchlib.tracing import engine_counts, simulated_counts

#: High-THP streaming/strided traces: prefetch candidates dominate.
STREAM_2M = ("lbm", "libquantum", "GemsFDTD", "fotonik3d_s", "bwaves",
             "milc")
#: Pointer-chase, 4KB-grain and low-THP traces: walks and DRAM dominate.
IRREGULAR_4K = ("mcf", "omnetpp", "xalancbmk_s", "gobmk",
                "graph_analytics", "soplex")
VARIANTS = ("original", "psa", "psa-2mb", "psa-sd")
#: The default (``small``) scale, so the runs are what ``repro run`` does.
ACCESSES = 40_000
#: Host seconds one cold run is budgeted at when sizing the sweep
#: (1.4-1.8s on a shared 2-core host).  The sweep length depends only on
#: ``--seconds``, never on measured speed, so two commits simulate the
#: same runs and their counts compare.
NOMINAL_RUN_S = 1.6
#: Share of the sweep a traced pass runs: the profiler slows the loop
#: about 2.4 times.
TRACED_SHARE = 1 / 3
#: Warm re-runs of the whole sweep, each one ``run_batch`` call that the
#: disk cache answers: the sweep's ``resume_cells_per_s``.
RESUMES = 50
#: Warm-cache fetches per hit probe: enough for a p99 with ten beyond it.
HIT_PROBE_SAMPLES = 3000


def seeded_specs(names, seed: int, cycle: int = 0) -> list:
    """Renamed copies of the catalog specs *names*; each *cycle* gives
    other names, so other traces and layouts."""
    from repro.workloads.suites import catalog

    specs = catalog(include_non_intensive=True)
    suffix = f".s{seed}" + (f".{cycle}" if cycle else "")
    return [dataclasses.replace(specs[name], name=name + suffix)
            for name in names]


def sweep_requests(names, seed: int, n_runs: int) -> list:
    """*n_runs* cold runs in a trace-major Latin order over the variants,
    so any prefix covers every trace before repeating one and spreads
    the variants evenly.  Past one pass over every trace and variant the
    order starts again on the next cycle of renamed specs."""
    from repro.sim.runner import RunRequest

    requests = []
    cycle = 0
    while len(requests) < n_runs:
        specs = seeded_specs(names, seed, cycle)
        for r in range(len(VARIANTS)):
            for t, spec in enumerate(specs):
                variant = VARIANTS[(r + t) % len(VARIANTS)]
                requests.append(RunRequest(spec, "spp", variant,
                                           n_accesses=ACCESSES))
        cycle += 1
    return requests[:n_runs]


def runs_for(seconds: float) -> int:
    return max(2, round(seconds / NOMINAL_RUN_S))


def traced_runs(n_runs: int) -> int:
    return max(1, round(n_runs * TRACED_SHARE))


def label(request) -> str:
    return f"{request.workload.name}/{request.variant}"


class HitProbe:
    """Fetches finished runs one at a time from the warm disk cache.

    The in-process memo is cleared before each fetch, so every request
    goes ``run_batch`` -> disk cache, as a second ``repro run`` of the
    same experiment does.  Each payload must digest like the cold run
    that produced it.
    """

    def __init__(self):
        self.latencies: List[float] = []
        self.outcome = Pass(e2e={})

    def fetch(self, requests: Sequence, digests: Sequence[str],
              count: int) -> None:
        from repro.sim import runner
        from repro.verify.golden import metrics_digest

        # Objects alive now outlive the fetches: keep the collector from
        # rescanning them, as a fresh process would not hold them.
        gc.freeze()
        for _ in range(count):
            k = len(self.latencies) % len(requests)
            request, expected = requests[k], digests[k]
            runner.clear_cache()
            start = time.perf_counter()
            [metrics] = runner.run_batch([request])
            self.latencies.append(time.perf_counter() - start)
            self.outcome.attempted += 1
            if metrics_digest(metrics) != expected:
                self.outcome.fail(f"warm fetch of a {request.variant} run "
                                  f"differs from its cold run")
        gc.unfreeze()

    def e2e(self) -> Dict[str, float]:
        q, tail = tail_percentile([x * 1e3 for x in self.latencies],
                                  cap=99.0)
        self.outcome.notes.append(
            f"hit probe: {len(self.latencies)} warm fetches, tail p{q:g}")
        return {"hit_ms_p50": median(self.latencies) * 1e3,
                "hit_ms_p99": tail}


def merge(into: Pass, other: Pass) -> None:
    """Fold a sub-pass's counts and findings into *into*."""
    into.attempted += other.attempted
    into.failed += other.failed
    into.problems.extend(other.problems)
    into.notes.extend(other.notes)


class SimSweep:
    def __init__(self, names):
        self.names = names

    def setup(self, ctx: Context, seconds: float) -> List:
        ctx.workdir.use_cache("sim-setup")
        return sweep_requests(self.names, ctx.seed, runs_for(seconds))

    def teardown(self, state) -> None:
        pass

    def measure(self, ctx: Context, requests, seconds: float, tracer,
                pass_no: int) -> Pass:
        from repro.sim import runner
        from repro.verify.golden import metrics_digest
        from repro.workloads import suites

        if tracer is not None:
            requests = requests[:traced_runs(len(requests))]
        ctx.workdir.use_cache(f"sim-pass{pass_no}")
        runner.clear_cache()
        suites._generate_memo.clear()
        before = runner.engine_stats().to_dict()

        def request_tag(rid):
            return (tracer.recorder.request(rid) if tracer is not None
                    else contextlib.nullcontext())

        if tracer is not None:
            tracer.install()
        try:
            runs, latencies, digests = [], [], []
            probe = HitProbe()
            for request in requests:
                if tracer is None:
                    ctx.host.sample()
                with request_tag(f"cold-{label(request)}"):
                    start = time.perf_counter()
                    [metrics] = runner.run_batch([request])
                latencies.append(time.perf_counter() - start)
                runs.append(metrics)
                digests.append(metrics_digest(metrics))
            if tracer is None:
                ctx.host.sample()
            # A later ``repro run`` starts with none of the sweep's
            # traces on its heap; neither does the probe.
            suites._generate_memo.clear()
            gc.collect()
            with request_tag("probe"):
                probe.fetch(requests, digests, HIT_PROBE_SAMPLES)
            resume_s, resumes_wrong = [], 0
            with request_tag("resume"):
                for _ in range(RESUMES):
                    runner.clear_cache()
                    start = time.perf_counter()
                    again = runner.run_batch(requests)
                    resume_s.append(time.perf_counter() - start)
                    resumes_wrong += [metrics_digest(m)
                                      for m in again] != digests
        finally:
            if tracer is not None:
                tracer.restore()
        after = runner.engine_stats().to_dict()

        records = len(runs) * ACCESSES
        wall = sum(latencies)
        slowdown = ctx.host.slowdown() if tracer is None else 1.0
        outcome = Pass(e2e={
            "sim_acc_per_s": records / wall * slowdown,
            "resume_cells_per_s": len(requests) / median(resume_s),
            **probe.e2e(),
        }, attempted=len(requests) + RESUMES)
        merge(outcome, probe.outcome)
        for _ in range(resumes_wrong):
            outcome.fail("a warm re-run of the sweep differs from the cold "
                         "sweep")
        outcome.digests = [(label(r), d) for r, d in zip(requests, digests)]
        outcome.run_s = latencies
        outcome.notes.append(f"sweep: {len(runs)} cold runs x {ACCESSES} "
                             f"accesses in {wall:.2f}s, "
                             f"{records / wall:.6g} accesses/s unscaled")
        if tracer is None:
            # Determinism: the first run again, uncached, must digest
            # the same (a traced pass is compared with the untraced one
            # by the caller instead).
            outcome.attempted += 1
            again = runner.run_batch([requests[0]], use_cache=False)[0]
            if metrics_digest(again) != digests[0]:
                outcome.fail(f"{label(requests[0])}: re-run digest differs")
            # Exact model counts come from the whole untraced sweep.
            outcome.layer.update(simulated_counts(runs))
        else:
            outcome.layer.update(tracer.layer_metrics(records))
            outcome.layer.update(engine_counts(before, after))
        return outcome
