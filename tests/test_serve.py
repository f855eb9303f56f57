"""End-to-end tests of the serving layer (daemon + client over real HTTP).

Every test boots a real daemon on an ephemeral port and talks to it
through the stdlib client — nothing is mocked.  The core contracts:

- a cache-hit submission returns a payload **bitwise-equal** to a direct
  ``run_batch`` result (serialized metrics compared as JSON bytes);
- duplicate in-flight submissions coalesce onto one simulation;
- backpressure (full queue) and per-client quota rejections carry the
  right status codes (429) with ``Retry-After``, distinguished by the
  body's ``error`` field;
- invalid submissions are rejected at admission (400) without burning
  an engine slot, and unknown jobs are 404.
"""

import json

import pytest

from repro.sim import cache as disk_cache
from repro.sim import runner, snapshot
from repro.sim.runner import RunRequest, run_batch
from repro.serve import ServeClient, protocol
from repro.serve.app import start_in_thread
from repro.serve.queue import AdmissionQueue, percentile

N = 600


@pytest.fixture(autouse=True)
def fresh_engine(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.delenv("REPRO_MAX_RETRIES", raising=False)
    monkeypatch.delenv("REPRO_SNAPSHOT_EVERY", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    runner.clear_cache()
    runner.reset_engine_stats()
    yield
    runner.clear_cache()
    runner.reset_engine_stats()


@pytest.fixture
def daemon():
    handles = []

    def _boot(**kwargs):
        kwargs.setdefault("engine_jobs", 2)
        kwargs.setdefault("batch_linger_s", 0.01)
        handle = start_in_thread(**kwargs)
        handles.append(handle)
        return handle

    yield _boot
    for handle in handles:
        handle.stop()


def req_body(workload="lbm", variant="psa", **kwargs):
    body = {"workload": workload, "prefetcher": "spp",
            "variant": variant, "n_accesses": N}
    body.update(kwargs)
    return body


def engine_request(body):
    """The direct-engine twin of a wire submission body."""
    return RunRequest(body["workload"], body.get("prefetcher", "spp"),
                      body["variant"], n_accesses=body["n_accesses"])


class TestBasics:
    def test_healthz_and_metrics(self, daemon):
        client = ServeClient(port=daemon().port)
        health = client.healthz()
        assert health.status == 200 and health.body["ok"] is True
        metrics = client.metrics()
        assert metrics.status == 200
        assert metrics.body["queue_depth"] == 0
        assert "p99" in metrics.body["service_time_s"]["hit"]

    def test_unknown_paths_and_methods(self, daemon):
        client = ServeClient(port=daemon().port)
        assert client._request("GET", "/nope").status == 404
        assert client._request("GET", "/submit").status == 405
        assert client._request("GET", "/jobs/ffffffffffffffff").status \
            == 404

    def test_malformed_bodies_are_400(self, daemon):
        client = ServeClient(port=daemon().port)
        assert client.submit({}).status == 400                 # no workload
        assert client.submit({"workload": "lbm",
                              "bogus": 1}).status == 400       # unknown key
        assert client.submit({"workload": "no-such"}).status == 400
        assert client.submit({"workload": "lbm",
                              "n_accesses": -5}).status == 400
        assert client.submit(
            {"workload": "lbm",
             "config": {"llc.nope": 1}}).status == 400
        batch = client.submit_batch([])
        assert batch.status == 400


class TestCacheHitAdmission:
    def test_hit_is_bitwise_equal_to_run_batch(self, daemon):
        body = req_body()
        direct = run_batch([engine_request(body)])[0]

        client = ServeClient(port=daemon().port)
        response = client.submit(body)
        assert response.status == 200
        assert response.body["source"] == "cache"

        expected = disk_cache.metrics_to_dict(direct)
        served = response.body["metrics"]
        assert json.dumps(served, sort_keys=True) \
            == json.dumps(expected, sort_keys=True)

    def test_miss_then_resubmit_hits_bitwise(self, daemon):
        client = ServeClient(port=daemon().port)
        body = req_body(workload="milc")
        first = client.submit(body)
        assert first.status == 202
        done = client.wait(first.body["job_id"], timeout=180)
        assert done.body["result"]["status"] == "ok"
        served_miss = done.body["result"]["metrics"]

        again = client.submit(body)
        assert again.status == 200 and again.body["source"] == "cache"
        assert json.dumps(again.body["metrics"], sort_keys=True) \
            == json.dumps(served_miss, sort_keys=True)

        # ... and both equal a direct engine read of the same cache.
        direct = run_batch([engine_request(body)])[0]
        assert json.dumps(disk_cache.metrics_to_dict(direct),
                          sort_keys=True) \
            == json.dumps(served_miss, sort_keys=True)

    def test_hit_does_not_consume_quota(self, daemon):
        handle = daemon(quota=1)
        body = req_body()
        run_batch([engine_request(body)])
        client = ServeClient(port=handle.port, client_id="hits")
        for _ in range(5):
            assert client.submit(body).status == 200
        assert handle.app.quotas.total_in_flight() == 0


class TestCoalescing:
    def test_duplicate_submissions_share_one_job(self, daemon):
        handle = daemon()
        handle.pause()
        a = ServeClient(port=handle.port, client_id="a")
        b = ServeClient(port=handle.port, client_id="b")
        body = req_body(workload="mcf")

        first = a.submit(body)
        second = b.submit(body)
        third = a.submit(body)
        assert first.status == second.status == third.status == 202
        assert first.body["job_id"] == second.body["job_id"] \
            == third.body["job_id"]
        assert not first.body["coalesced"]
        assert second.body["coalesced"] and third.body["coalesced"]
        assert handle.app.queue.depth() == 1      # one scheduled run

        handle.resume()
        done = a.wait(first.body["job_id"], timeout=180)
        assert done.body["result"]["status"] == "ok"
        assert done.body["submissions"] == 3
        # Exactly one simulation happened for the three submissions.
        assert handle.app.queue.counters["coalesced"] == 2
        assert runner.engine_stats().simulated == 1

    def test_distinct_requests_get_distinct_jobs(self, daemon):
        handle = daemon()
        handle.pause()
        client = ServeClient(port=handle.port)
        r1 = client.submit(req_body(variant="psa"))
        r2 = client.submit(req_body(variant="original"))
        assert r1.body["job_id"] != r2.body["job_id"]
        assert handle.app.queue.depth() == 2
        handle.resume()
        assert client.wait(r1.body["job_id"],
                           timeout=180).body["result"]["status"] == "ok"
        assert client.wait(r2.body["job_id"],
                           timeout=180).body["result"]["status"] == "ok"


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self, daemon):
        handle = daemon(queue_depth=2, quota=0)
        handle.pause()
        client = ServeClient(port=handle.port)
        variants = ["psa", "original", "psa-2mb"]
        responses = [client.submit(req_body(variant=v))
                     for v in variants]
        assert [r.status for r in responses] == [202, 202, 429]
        rejected = responses[-1]
        assert rejected.body["error"] == "queue_full"
        assert rejected.retry_after_s >= 1
        assert handle.app.queue.counters["rejected_queue_full"] == 1
        handle.resume()
        for accepted in responses[:2]:
            done = client.wait(accepted.body["job_id"], timeout=180)
            assert done.body["result"]["status"] == "ok"

    def test_client_quota_is_429_and_scoped_per_client(self, daemon):
        handle = daemon(quota=2, queue_depth=16)
        handle.pause()
        greedy = ServeClient(port=handle.port, client_id="greedy")
        polite = ServeClient(port=handle.port, client_id="polite")
        variants = ["psa", "original", "psa-2mb"]
        responses = [greedy.submit(req_body(variant=v))
                     for v in variants]
        assert [r.status for r in responses] == [202, 202, 429]
        assert responses[-1].body["error"] == "quota_exceeded"
        assert responses[-1].retry_after_s >= 1
        # A different client is unaffected by greedy's exhaustion.
        other = polite.submit(req_body(variant="psa-sd"))
        assert other.status == 202
        handle.resume()
        done = greedy.wait(responses[0].body["job_id"], timeout=240)
        assert done.body["result"]["status"] == "ok"
        polite.wait(other.body["job_id"], timeout=240)
        # Terminal jobs release their quota slots.
        greedy.wait(responses[1].body["job_id"], timeout=240)
        assert handle.app.quotas.total_in_flight() == 0
        assert greedy.submit(req_body(workload="omnetpp")).status == 202

    def test_coalesced_resubmit_by_same_client_is_quota_idempotent(
            self, daemon):
        handle = daemon(quota=1)
        handle.pause()
        client = ServeClient(port=handle.port, client_id="one")
        first = client.submit(req_body())
        dup = client.submit(req_body())
        assert first.status == 202 and dup.status == 202
        assert dup.body["coalesced"]
        # The duplicate did not consume a second slot...
        assert handle.app.quotas.in_flight("one") == 1
        # ...but a distinct request would exceed the quota of 1.
        assert client.submit(
            req_body(variant="original")).status == 429
        handle.resume()
        client.wait(first.body["job_id"], timeout=180)


class TestBatchEndpoint:
    def test_mixed_hit_miss_batch(self, daemon):
        hit_body = req_body()
        run_batch([engine_request(hit_body)])
        client = ServeClient(port=daemon().port)
        response = client.submit_batch(
            [hit_body, req_body(variant="original")])
        assert response.status == 200
        results = response.body["results"]
        assert results[0]["http_status"] == 200
        assert results[0]["source"] == "cache"
        assert results[1]["http_status"] == 202
        done = client.wait(results[1]["job_id"], timeout=180)
        assert done.body["result"]["status"] == "ok"

    def test_batch_rejections_are_per_item(self, daemon):
        handle = daemon(queue_depth=1, quota=0)
        handle.pause()
        client = ServeClient(port=handle.port)
        response = client.submit_batch(
            [req_body(variant="psa"), req_body(variant="original"),
             {"workload": "no-such"}])
        statuses = [r["http_status"]
                    for r in response.body["results"]]
        assert statuses == [202, 429, 400]
        assert response.body["results"][1]["retry_after_s"] >= 1
        handle.resume()
        client.wait(response.body["results"][0]["job_id"], timeout=180)


class TestProgress:
    def test_progress_probe_and_stream(self, daemon, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_EVERY", "200")
        handle = daemon(engine_jobs=1)
        client = ServeClient(port=handle.port)
        submitted = client.submit(req_body(workload="omnetpp"))
        assert submitted.status == 202
        job_id = submitted.body["job_id"]
        events = list(client.progress_stream(job_id, interval=0.05))
        assert events, "stream must yield at least the terminal event"
        terminal = events[-1]
        assert terminal["state"] == "done"
        assert terminal["result"]["status"] == "ok"
        assert terminal["total_accesses"] == N
        # After completion the plain probe reports the terminal state.
        probe = client.progress(job_id, detail=True)
        assert probe.status == 200
        assert probe.body["state"] == "done"
        assert probe.body["accesses_done"] == N

    def test_snapshot_peek_reports_progress_without_unpickling(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path / "snaps"))
        key = ("run", ("probe",))
        assert snapshot.peek(key) is None
        assert snapshot.store(key, 1234, {"core": {}, "hierarchy": {}})
        header = snapshot.peek(key)
        assert header["access_index"] == 1234
        # A stale-salt snapshot reads as absent, mirroring load().
        monkeypatch.setattr(snapshot, "_salt", lambda: "other")
        assert snapshot.peek(key) is None


class TestRestartHitServing:
    def test_completed_work_survives_daemon_restart(self, daemon):
        bodies = [req_body(variant=v) for v in ("psa", "original")]
        first = daemon()
        client = ServeClient(port=first.port)
        payloads = {}
        for body in bodies:
            submitted = client.submit(body)
            done = client.wait(submitted.body["job_id"], timeout=180)
            payloads[submitted.body["job_id"]] = \
                done.body["result"]["metrics"]
        first.stop()

        # Same cache dir, fresh daemon: the in-memory queue died, but
        # every completed run was checkpointed to the disk cache by the
        # engine, so resubmissions are inline hits, bitwise-equal.
        runner.clear_cache()    # drop the memo: force the disk path
        second = daemon()
        client2 = ServeClient(port=second.port)
        for body in bodies:
            response = client2.submit(body)
            assert response.status == 200
            assert response.body["source"] == "cache"
            assert json.dumps(response.body["metrics"], sort_keys=True) \
                == json.dumps(payloads[response.body["job_id"]],
                              sort_keys=True)


class TestProtocol:
    def test_parse_round_trips_campaign_style_overrides(self):
        request = protocol.parse_run_request(
            {"workload": "lbm", "variant": "psa",
             "n_accesses": 100,
             "config": {"llc.size_bytes": 1 << 20,
                        "ppm_enabled": False}})
        assert request.config.llc.size_bytes == 1 << 20
        assert request.config.ppm_enabled is False
        # The fingerprint is the engine's: identical to building the
        # request directly.
        from repro.sim.config import SystemConfig
        import dataclasses
        config = SystemConfig()
        config.llc = dataclasses.replace(config.llc,
                                         size_bytes=1 << 20)
        config.ppm_enabled = False
        direct = RunRequest("lbm", "spp", "psa", n_accesses=100,
                            config=config)
        assert request.key() == direct.key()

    def test_bad_override_types_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_run_request(
                {"workload": "lbm",
                 "config": {"llc.size_bytes": "big"}})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_run_request(
                {"workload": "lbm", "gb_fraction": 1.5})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_run_request(
                {"workload": "lbm", "oracle_page_size": "yes"})
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_run_request(
                {"workload": "lbm",
                 "config": {"llc.size_bytes": 12345}})  # invalid geometry
        for body in ('{"workload": "mcf", "gb_fraction": NaN}',
                     '{"workload": "mcf", "table_scale": Infinity}'):
            with pytest.raises(protocol.ProtocolError):
                protocol.parse_run_request(json.loads(body))


class TestQueueUnit:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) in (50.0, 51.0)
        assert percentile(samples, 0.99) == 99.0

    def test_retry_after_scales_with_backlog(self):
        queue = AdmissionQueue(max_depth=64)
        queue.latencies["miss"] = [2.0]
        assert queue.retry_after_s() == 2       # (0 pending + 1) * 2s
        for index in range(10):
            queue.admit(f"job{index}", "d", None, ("k", index))
        assert queue.retry_after_s() == 22      # (10 + 1) * 2s
        queue.latencies["miss"] = [1000.0]
        assert queue.retry_after_s() == 120     # clamped
