"""Stdlib HTTP client for the ``repro serve`` daemon.

Built on ``http.client`` (which transparently decodes the daemon's
chunked progress streams), one connection per call, so it works from
tests, benchmarks, scripts and other hosts without any dependency.

Every method returns a :class:`Response` carrying the raw HTTP status
and the parsed JSON body — tests assert on status codes directly
(200 hit, 202 queued, 400 bad request, 404 unknown job, 429
backpressure/quota).

**Resilience.**  Transport failures (connection refused mid-restart,
reset sockets, a garbled reply that fails to parse) are retried with
exponentially backed-off, deterministic jitter under a bounded budget
(:class:`RetryPolicy`, ``REPRO_CLIENT_RETRIES`` /
``REPRO_CLIENT_BACKOFF``), behind a simple open/half-open circuit
breaker so a dead daemon fails fast instead of saturating its listen
queue.  Protocol-level responses are *never* retried at this layer —
a 429 is returned to the caller verbatim — but
:meth:`ServeClient.submit_and_wait` honours 429/503 ``Retry-After``
and survives daemon restarts: a job id the new daemon has never heard
of (404 ``unknown_job``) is resubmitted, and completed work re-serves
as a cache hit.

Every client-side socket operation crosses the ``repro.serve.netfaults``
shim, so ``REPRO_NET_FAULTS`` can deterministically refuse dials,
reset sends, and garble reads to prove all of the above recovery paths
actually fire.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.serve import netfaults
from repro.sim.config import env_float, env_int
from repro.sim.supervisor import backoff_jitter


class ServeClientError(RuntimeError):
    """The daemon could not be reached or answered garbage."""


class GarbledResponseError(http.client.HTTPException):
    """A reply that failed to parse as JSON.

    Subclasses ``HTTPException`` so the transport retry loop treats a
    corrupted-in-flight response exactly like a reset socket: every
    request is idempotent by content-addressing, so re-asking is always
    safe and usually succeeds.
    """


def client_retries() -> int:
    """Transport retry budget per request (``REPRO_CLIENT_RETRIES``)."""
    return env_int("REPRO_CLIENT_RETRIES", 4, minimum=0)


def client_backoff() -> float:
    """Base backoff seconds between transport retries
    (``REPRO_CLIENT_BACKOFF``)."""
    return env_float("REPRO_CLIENT_BACKOFF", 0.1, minimum=0.0)


@dataclass
class RetryPolicy:
    """How hard one client tries before declaring the daemon gone.

    ``retries`` transport attempts are added after the first failure,
    spaced ``backoff_s * 2**attempt`` apart (capped at
    ``max_backoff_s``) plus a deterministic crc32 jitter so N clients
    restarted together do not reconnect in lockstep.  After
    ``breaker_threshold`` *consecutive* transport failures the breaker
    opens: calls fail immediately for ``breaker_cooldown_s``, then one
    half-open probe is let through — success closes the breaker,
    failure re-opens it.
    """

    retries: int = field(default_factory=client_retries)
    backoff_s: float = field(default_factory=client_backoff)
    max_backoff_s: float = 5.0
    breaker_threshold: int = 8
    breaker_cooldown_s: float = 1.0

    def delay_s(self, attempt: int, token: str = "") -> float:
        """Backoff before retry *attempt* (0-based), with jitter."""
        base = min(self.backoff_s * (2 ** attempt), self.max_backoff_s)
        return base * (1.0 + backoff_jitter(token, attempt))


class CircuitBreaker:
    """Consecutive-failure breaker: closed -> open -> half-open."""

    def __init__(self, threshold: int, cooldown_s: float):
        self.threshold = max(1, threshold)
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a request go out right now?  (half-open admits one probe)"""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self.failures += 1
        self._probing = False
        if self.failures >= self.threshold:
            self.opened_at = time.monotonic()


@dataclass
class Response:
    """One daemon reply: HTTP status + parsed JSON body (+ headers)."""

    status: int
    body: dict
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def retry_after_s(self) -> Optional[int]:
        raw = self.headers.get("retry-after")
        return int(raw) if raw is not None else None

    @property
    def result(self) -> Optional[dict]:
        """The run-result payload, normalised across reply shapes.

        An inline cache hit (200) carries the result at the top level;
        a terminal job body (200 on ``/jobs/<id>``) nests it under
        ``"result"``.  Returns None when no result is present (202
        queued, 4xx, non-terminal job states).
        """
        nested = self.body.get("result")
        if isinstance(nested, dict) and "status" in nested:
            return nested
        if self.body.get("status") in ("ok", "failed"):
            return self.body
        return None

    @property
    def run_status(self) -> Optional[str]:
        """``"ok"``/``"failed"`` from the run result, or None."""
        result = self.result
        return result.get("status") if result else None

    @property
    def failure(self) -> Optional[dict]:
        """The structured ``RunFailure`` body of a failed run.

        Lets callers distinguish ``source="shutdown"`` (the daemon
        failed the queued job on its way down — resubmittable) from a
        real simulation failure, instead of pattern-matching on status
        codes.  None when the run did not fail.
        """
        result = self.result
        if result is not None and result.get("status") == "failed":
            return result.get("failure") or {}
        return None


class ServeClient:
    """Talks to one daemon; ``client_id`` scopes the server-side quota."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 client_id: Optional[str] = None, timeout: float = 60.0,
                 policy: Optional[RetryPolicy] = None):
        self.host = host
        self.port = port
        self.client_id = client_id
        self.timeout = timeout
        self.policy = policy if policy is not None else RetryPolicy()
        self.breaker = CircuitBreaker(self.policy.breaker_threshold,
                                      self.policy.breaker_cooldown_s)
        self.transport_retries = 0   # observability: retries performed

    # -- plumbing ------------------------------------------------------

    def _headers(self) -> Dict[str, str]:
        headers = {"Content-Type": "application/json",
                   "Connection": "close"}
        if self.client_id:
            headers["X-Client-Id"] = self.client_id
        return headers

    def _request_once(self, method: str, path: str,
                      payload: Optional[dict] = None) -> Response:
        netfaults.connect("client.connect")
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            body = json.dumps(payload).encode() if payload is not None \
                else None
            netfaults.send("client.send")
            conn.request(method, path, body=body, headers=self._headers())
            raw = conn.getresponse()
            data = netfaults.recv("client.recv", raw.read())
            headers = {k.lower(): v for k, v in raw.getheaders()}
            try:
                parsed = json.loads(data.decode()) if data else {}
            except ValueError as exc:
                raise GarbledResponseError(
                    f"{method} {path}: non-JSON body "
                    f"({data[:120]!r})") from exc
            return Response(status=raw.status, body=parsed,
                            headers=headers)
        finally:
            conn.close()

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> Response:
        """One request with transport-level retries.

        Connection failures (refused/reset/timeout — the daemon
        restarting underneath us) and garbled replies
        (:class:`GarbledResponseError` — corrupted in flight, safe to
        re-ask because requests are idempotent by content-addressing)
        are retried; any parseable HTTP response, including 4xx/5xx,
        is returned to the caller untouched.
        """
        attempt = 0
        while True:
            if not self.breaker.allow():
                raise ServeClientError(
                    f"{method} {path} against {self.host}:{self.port}: "
                    f"circuit open after "
                    f"{self.breaker.failures} consecutive transport "
                    f"failures (cooling down)")
            try:
                response = self._request_once(method, path, payload)
                self.breaker.record_success()
                return response
            except ServeClientError:
                raise                       # protocol error: no retry
            except (OSError, http.client.HTTPException) as exc:
                self.breaker.record_failure()
                if attempt >= self.policy.retries:
                    raise ServeClientError(
                        f"{method} {path} against "
                        f"{self.host}:{self.port} failed after "
                        f"{attempt + 1} attempt(s): {exc}") from exc
                time.sleep(self.policy.delay_s(attempt, token=path))
                self.transport_retries += 1
                attempt += 1

    # -- endpoints -----------------------------------------------------

    def healthz(self) -> Response:
        return self._request("GET", "/healthz")

    def metrics(self) -> Response:
        return self._request("GET", "/metrics")

    def submit(self, request: dict) -> Response:
        """Submit one run request object (see ``serve.protocol``)."""
        return self._request("POST", "/submit", request)

    def submit_batch(self, requests: List[dict]) -> Response:
        return self._request("POST", "/batch", {"requests": requests})

    def job(self, job_id: str, wait: float = 0.0) -> Response:
        path = f"/jobs/{job_id}"
        if wait > 0:
            path += f"?wait={wait:g}"
        return self._request("GET", path)

    def progress(self, job_id: str, detail: bool = False) -> Response:
        path = f"/jobs/{job_id}/progress"
        if detail:
            path += "?detail=1"
        return self._request("GET", path)

    def progress_stream(self, job_id: str, interval: float = 0.25,
                        detail: bool = False) -> Iterator[dict]:
        """Yield progress events from the chunked stream until the job
        reaches a terminal state (the last yielded event carries it)."""
        path = (f"/jobs/{job_id}/progress?stream=1"
                f"&interval={interval:g}")
        if detail:
            path += "&detail=1"
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request("GET", path, headers=self._headers())
            raw = conn.getresponse()
            if raw.status != 200:
                body = raw.read()
                raise ServeClientError(
                    f"progress stream for {job_id}: HTTP {raw.status} "
                    f"({body[:120]!r})")
            while True:
                line = raw.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line.decode())
        except (OSError, http.client.HTTPException) as exc:
            raise ServeClientError(
                f"progress stream for {job_id} failed: {exc}") from exc
        finally:
            conn.close()

    # -- conveniences --------------------------------------------------

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_wait: float = 10.0) -> Response:
        """Long-poll until the job is terminal (or *timeout* expires)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    f"job {job_id} still not terminal after {timeout}s")
            response = self.job(job_id,
                                wait=min(poll_wait, max(0.1, remaining)))
            if response.status != 200:
                return response
            if response.body.get("state") == "done":
                return response

    def submit_and_wait(self, request: dict,
                        timeout: float = 300.0) -> Response:
        """Submit; an inline cache hit returns immediately, a queued
        miss is waited on and the terminal job status returned.

        Survives the daemon's whole failure protocol within *timeout*:

        - **429 backpressure/quota, 503 draining** — sleeps out
          ``Retry-After`` (or a policy backoff) and resubmits.
        - **daemon restart** — a transport failure mid-wait, a 404
          ``unknown_job`` from a daemon that lost its in-memory queue,
          or a job the old daemon failed with ``kind="shutdown"`` on
          its way down, resubmits the same request: completed work
          re-serves as a cache hit, lost work re-queues.

        Anything else (400 bad request, a terminal job state) is
        returned as-is — a permanently-failed run comes back with the
        replica's structured failure body intact, so
        ``response.failure`` tells shutdown casualties apart from real
        simulation failures.  Raises :class:`ServeClientError` only
        when the deadline expires or the transport budget is
        exhausted.
        """
        deadline = time.monotonic() + timeout
        round_no = 0
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeClientError(
                    f"submit_and_wait: no terminal outcome within "
                    f"{timeout}s")
            response = self.submit(request)
            if response.status in (429, 503):
                pause = response.retry_after_s \
                    or self.policy.delay_s(min(round_no, 6), "429")
                time.sleep(min(pause, max(0.0, remaining)))
                round_no += 1
                continue
            if response.status != 202:
                return response
            job_id = response.body["job_id"]
            try:
                waited = self.wait(job_id, timeout=remaining)
            except ServeClientError:
                # Transport died mid-wait (daemon restarting): give it
                # one backoff, then start a fresh round — the cache
                # answers inline if the work finished before the crash.
                if deadline - time.monotonic() <= 0:
                    raise
                time.sleep(min(self.policy.delay_s(min(round_no, 6),
                                                   "restart"),
                               max(0.0, deadline - time.monotonic())))
                round_no += 1
                continue
            if waited.status == 404:
                # The daemon restarted and forgot the job id; resubmit.
                round_no += 1
                continue
            result = waited.body.get("result") or {}
            if (result.get("status") == "failed"
                    and (result.get("failure") or {}).get("kind")
                    == "shutdown"):
                # The daemon failed the queued job while shutting down
                # — not a simulation failure.  Resubmit: finished work
                # re-serves as a cache hit, lost work re-queues.
                round_no += 1
                continue
            return waited
