"""The open-loop serving companion against a ``repro serve`` subprocess.

Set-up boots the daemon (``--jobs 1``) and warms a seeded hit set of
2k-access runs.  The measured loop then sends seeded Poisson arrivals
at a fixed rate, about a seventh of what one closed-loop client
reaches on a 2-core host, so queueing does not amplify the host's own
speed swings.  One arrival in 200 is a cold 2k-access miss (45-70ms of
engine time); half of the misses are sent again while in flight, so
the daemon coalesces them.  Every request is timed from when it was
due.  The daemon's engine thread shares the interpreter lock with its
event loop, so misses show in the hit tail.  A traced run of either
simulation workload runs it, for the serving layers.

Load comes from this process with two threads: one sends every
request on schedule, the other (the main thread) long-polls misses.
"""

from __future__ import annotations

import contextlib
import gc
import queue
import random
import select
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

from benchlib import env as benv
from benchlib.common import Context, Pass
from benchlib.openloop import (HIT, MISS, Outcome, lags, latencies,
                               poisson_schedule)
from benchlib.sim import IRREGULAR_4K, STREAM_2M, VARIANTS
from benchlib.stats import median, tail_percentile
from benchlib.tracing import simulated_counts

HIT_SET = 12
ACCESSES = 2000
#: Open-loop arrival rate, requests per second.
RATE_PER_S = 150.0
#: One arrival in this many is a cold miss.
MISS_EVERY = 200
#: Misses come from traces whose 2k-access runs cost alike (45-70ms of
#: engine time each on a 2-core host), so the stalls they cause in the
#: hit path are alike too.
MISS_TRACES = ("mcf", "omnetpp", "xalancbmk_s", "gobmk")
MISS_VARIANTS = ("original", "psa", "psa-2mb")
RESUBMIT_FRACTION = 0.5
RESUBMIT_AFTER_S = 0.02
#: Latency limit on the hit p99, milliseconds.
HIT_P99_LIMIT_MS = 5.0
BOOT_TIMEOUT_S = 60.0
WAIT_TIMEOUT_S = 120.0


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port.

    It shares this process's fresh cache dir, so the benchmark can read
    the cache entry of any request it sent.
    """

    def __init__(self, ctx: Context):
        from repro.serve.client import ServeClient

        cache = ctx.workdir.use_cache("serve")
        self.log = open(cache / "daemon.log", "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--log-level", "warning"],
            env=benv.child_env(ctx.src, ctx.workdir.root,
                               {"REPRO_CACHE_DIR": str(cache)}),
            cwd=ctx.root, stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                       BOOT_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                raise RuntimeError(f"daemon did not start: {line!r}")
            self.port = int(line.split("http://")[1].split()[0]
                            .rsplit(":", 1)[1])
            self.client = ServeClient(port=self.port, client_id="bench",
                                      timeout=WAIT_TIMEOUT_S)
            if not self.client.healthz().body.get("ok"):
                raise RuntimeError("daemon /healthz is not ok")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        return benv.pid_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


@dataclass
class ServeState:
    daemon: Daemon
    hits: List[dict]
    expected: List[dict]       # cache payload of each hit-set request


def _pool():
    return [(w, v) for w in STREAM_2M + IRREGULAR_4K for v in VARIANTS]


def hit_bodies(seed: int) -> List[dict]:
    chosen = random.Random(seed).sample(_pool(), HIT_SET)
    return [{"workload": w, "variant": v, "n_accesses": ACCESSES}
            for w, v in chosen]


def miss_bodies(seed: int, count: int, pass_no: int) -> List[dict]:
    """Distinct cold requests: a trace length no other request (nor the
    other pass) uses.

    The misses cycle through the pool from a seeded start, so every
    seed costs the engine about the same.
    """
    pool = [(w, v) for w in MISS_TRACES for v in MISS_VARIANTS]
    start = random.Random(seed).randrange(len(pool))
    return [{"workload": pool[(start + i) % len(pool)][0],
             "variant": pool[(start + i) % len(pool)][1],
             "n_accesses": ACCESSES + 1 + 2 * i + pass_no}
            for i in range(count)]


def cache_payload(body: dict):
    from repro.serve.protocol import parse_run_request
    from repro.sim import cache as disk_cache

    return disk_cache.load_payload(parse_run_request(body).key())


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


class ServeOpen:
    def setup(self, ctx: Context, seconds: float) -> ServeState:
        daemon = Daemon(ctx)
        try:
            hits = hit_bodies(ctx.seed)
            for body in hits:
                response = daemon.client.submit_and_wait(
                    body, timeout=WAIT_TIMEOUT_S)
                if response.run_status != "ok":
                    raise RuntimeError(f"warm-up of {body} failed: "
                                       f"{response.status} {response.body}")
            return ServeState(daemon, hits,
                              [cache_payload(body) for body in hits])
        except BaseException:
            daemon.stop()
            raise

    def teardown(self, state: ServeState) -> None:
        state.daemon.stop()

    def measure(self, ctx: Context, state: ServeState, seconds: float,
                tracer, pass_no: int) -> Pass:
        from repro.serve.client import ServeClient
        from repro.sim.cache import metrics_from_dict
        from repro.verify.golden import metrics_digest

        schedule = poisson_schedule(ctx.seed, RATE_PER_S, seconds, HIT_SET,
                                    MISS_EVERY, RESUBMIT_FRACTION,
                                    RESUBMIT_AFTER_S)
        misses = miss_bodies(ctx.seed, 1 + max(
            (a.index for a in schedule if a.kind != HIT), default=0),
            pass_no)
        port = state.daemon.port
        outcomes: List[Outcome] = []
        payloads: Dict[int, dict] = {}      # miss outcome -> metrics
        wrong: List[int] = []               # hits with a wrong payload
        pending: "queue.Queue" = queue.Queue()
        errors: List[BaseException] = []

        def request(rid):
            return (tracer.recorder.request(rid) if tracer is not None
                    else contextlib.nullcontext())

        def body_of(arrival):
            return (state.hits[arrival.index] if arrival.kind == HIT
                    else misses[arrival.index])

        def send(t0: float) -> None:
            client = ServeClient(port=port, client_id="bench-open",
                                 timeout=WAIT_TIMEOUT_S)
            try:
                for n, arrival in enumerate(schedule):
                    due = t0 + arrival.due_s
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    outcome = Outcome(arrival, due, time.perf_counter())
                    with request(f"{arrival.kind}-{n}"):
                        response = client.submit(body_of(arrival))
                    outcomes.append(outcome)
                    if response.status == 202:
                        pending.put((n, outcome, response.body["job_id"]))
                        continue
                    outcome.done_at = time.perf_counter()
                    outcome.ok = (response.status == 200
                                  and response.run_status == "ok")
                    if not outcome.ok:
                        continue
                    if arrival.kind == HIT:
                        # Checked here rather than kept: thousands of
                        # retained payloads would make the collector
                        # stall this thread.
                        if response.body["metrics"] \
                                != state.expected[arrival.index]:
                            wrong.append(n)
                    else:
                        payloads[n] = response.body["metrics"]
            except BaseException as exc:          # reported by the caller
                errors.append(exc)
            finally:
                pending.put(None)

        before = state.daemon.client.metrics().body
        if tracer is not None:
            tracer.install()
        # Objects alive now are never garbage: keep the collector from
        # rescanning them while the generator runs.
        gc.collect()
        gc.freeze()
        try:
            sender = threading.Thread(
                target=send, args=(time.perf_counter() + 0.05,),
                name="bench-sender", daemon=True)
            sender.start()
            waiter = ServeClient(port=port, client_id="bench-wait",
                                 timeout=WAIT_TIMEOUT_S)
            while True:
                item = pending.get()
                if item is None:
                    break
                n, outcome, job_id = item
                response = waiter.wait(job_id, timeout=WAIT_TIMEOUT_S)
                outcome.done_at = time.perf_counter()
                outcome.ok = response.run_status == "ok"
                if outcome.ok:
                    payloads[n] = response.result["metrics"]
            sender.join(timeout=WAIT_TIMEOUT_S)
            if sender.is_alive():
                raise RuntimeError("sender thread did not finish")
            if errors:
                raise errors[0]
            after = state.daemon.client.metrics().body
        finally:
            gc.unfreeze()
            if tracer is not None:
                tracer.restore()

        outcome = Pass(e2e={}, attempted=len(schedule))
        outcome.failed = sum(1 for o in outcomes if not o.ok)
        wrong += [n for n, payload in payloads.items()
                  if payload != cache_payload(
                      misses[outcomes[n].arrival.index])]
        outcome.failed += len(wrong)
        outcome.problems += [f"request {n} ({outcomes[n].arrival.kind}) "
                             f"payload differs from its cache entry"
                             for n in sorted(wrong)]

        hit_ms = [x * 1e3 for x in latencies(outcomes, HIT)]
        q, hit_tail = tail_percentile(hit_ms, cap=99.0)
        miss_s = latencies(outcomes, MISS)
        outcome.e2e = {
            "hit_ms_p50": median(hit_ms),
            "hit_ms_p99": hit_tail,
            "miss_s_p50": median(miss_s),
        }
        outcome.child_rss_mb = state.daemon.peak_rss_mb()
        over = sum(1 for x in hit_ms if x > HIT_P99_LIMIT_MS)
        outcome.notes.append(
            f"serve pass {pass_no}: {len(schedule)} arrivals at "
            f"{RATE_PER_S:g}/s, {len(hit_ms)} hits (tail p{q:g}) and "
            f"{len(miss_s)} misses; hit p99 limit {HIT_P99_LIMIT_MS:g} ms "
            f"{'met' if hit_tail <= HIT_P99_LIMIT_MS else 'MISSED'} "
            f"({over} hits over it)")
        miss_runs = {n: metrics_from_dict(payloads[n])
                     for n, o in enumerate(outcomes)
                     if o.arrival.kind == MISS and o.ok}
        outcome.digests = [
            ("miss/{workload}/{variant}/{n_accesses}".format(
                **misses[outcomes[n].arrival.index]), metrics_digest(run))
            for n, run in miss_runs.items()]
        if tracer is not None:
            outcome.layer.update(self._layers(tracer, outcomes, before,
                                              after))
        outcome.layer.update(simulated_counts(miss_runs.values()))
        return outcome

    @staticmethod
    def _layers(tracer, outcomes, before, after) -> Dict[str, float]:
        from benchlib.spans import by_name

        layer = tracer.layer_metrics(records=0)
        submits = by_name(tracer.recorder.spans, HIT).get(
            "client.submit", [])
        client_ms = median([s.duration_ns / 1e6 for s in submits])
        service = after["service_time_s"]
        counters = {k: _delta(after, before, "counters", k)
                    for k in after["counters"]}
        submitted = counters["submitted"]
        layer.update({
            "client.hit_ms_p50": client_ms,
            "serve.hit_service_ms_p50": service["hit"]["p50"] * 1e3,
            "serve.hit_service_ms_p99": service["hit"]["p99"] * 1e3,
            "serve.http_ms_p50": client_ms - service["hit"]["p50"] * 1e3,
            "serve.miss_service_s_p50": service["miss"]["p50"],
            "serve.engine_util": _delta(after, before, "engine_busy_s")
            / _delta(after, before, "uptime_s"),
            "serve.hit_rate": counters["cache_hits"] / submitted
            if submitted else 0.0,
            "serve.coalesced": counters["coalesced"],
            "serve.rejected": sum(v for k, v in counters.items()
                                  if k.startswith("rejected")),
            "bench.gen_lag_ms_p99": tail_percentile(
                [x * 1e3 for x in lags(outcomes)], cap=99.0)[1],
            **{f"engine.{k}": _delta(after, before, "engine", k)
               for k in ("simulated", "disk_hits", "retries", "failed")},
        })
        return layer

