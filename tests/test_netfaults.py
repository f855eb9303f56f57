"""The transport fault plane: grammar, determinism, and the seams.

Mirrors ``test_iofaults.py`` for ``REPRO_NET_FAULTS``: the spec grammar
parses (and rejects garbage as a ConfigurationError), clause targeting
is deterministic per site, each kind produces its documented wire
behavior, and the disarmed shim is a no-op passthrough.  The
integration half boots a real daemon and proves the client's retry
machinery rides through every injected kind.
"""

import errno
import socket

import pytest

from repro.sim import runner
from repro.sim.config import ConfigurationError
from repro.serve import netfaults
from repro.serve.app import start_in_thread
from repro.serve.client import RetryPolicy, ServeClient, ServeClientError

N = 600


@pytest.fixture(autouse=True)
def fresh(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NET_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_RUN_TIMEOUT", raising=False)
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.01")
    netfaults.disarm()
    runner.clear_cache()
    yield
    netfaults.disarm()
    runner.clear_cache()


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
    netfaults.disarm()      # daemon teardown must not hit armed faults
    for handle in handles:
        handle.stop()


def req_body(**kwargs):
    body = {"workload": "lbm", "prefetcher": "spp", "variant": "psa",
            "n_accesses": N}
    body.update(kwargs)
    return body


class TestGrammar:
    def test_parse_kinds_and_targets(self):
        clauses = netfaults.parse(
            "refuse@0+2:site=client.connect;reset~3/7:of=32;"
            "delay:secs=0.25;garble:site=daemon.respond")
        assert [c.kind for c in clauses] == [
            "refuse", "reset", "delay", "garble"]
        assert clauses[0].indices == (0, 2)
        assert clauses[1].count == 3 and clauses[1].seed == 7
        assert clauses[1].window == 32
        assert clauses[2].secs == 0.25
        assert clauses[3].site == "daemon.respond"

    @pytest.mark.parametrize("spec", [
        "bogus", "refuse@x", "reset~3", "reset~/7", "drop@-1",
        "reset~-1/7", "refuse@1~2/3", "delay:secs=abc", "garble:of=0",
        "refuse:wat=1", "refuse:site=", "delay:secs=-1",
        "delay:secs=nan", "delay:secs=inf",
    ])
    def test_rejects_garbage_as_configuration_error(self, spec):
        with pytest.raises(ConfigurationError):
            netfaults.parse(spec)

    def test_kind_op_matrix(self):
        # A kind never fires at an op it does not model.
        clause = netfaults.parse("garble")[0]
        assert clause.fires("client.recv", 0)
        assert clause.fires("daemon.respond", 0)
        assert not clause.fires("client.connect", 0)
        assert not clause.fires("client.send", 0)
        clause = netfaults.parse("refuse")[0]
        assert clause.fires("client.connect", 0)
        assert clause.fires("daemon.accept", 0)
        assert not clause.fires("daemon.respond", 0)

    def test_site_prefix_matching(self):
        clause = netfaults.parse("reset:site=client")[0]
        assert clause.fires("client.send", 0)
        assert clause.fires("client.recv", 0)
        assert not clause.fires("daemon.respond", 0)

    def test_seeded_targets_are_deterministic(self):
        spec = "reset~4/11:site=client.send"
        first = [i for i in range(16)
                 if netfaults.parse(spec)[0].fires("client.send", i)]
        second = [i for i in range(16)
                  if netfaults.parse(spec)[0].fires("client.send", i)]
        assert first == second and len(first) == 4

    def test_env_arming_is_lazy(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_FAULTS",
                           "refuse@0:site=client.connect")
        netfaults.disarm()          # forget any cached plan
        with pytest.raises(netfaults.InjectedNetError):
            netfaults.connect("client.connect")
        netfaults.connect("client.connect")      # index 1: clean

    def test_env_garbage_raises_spec_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_NET_FAULTS", "entirely-bogus")
        netfaults.disarm()
        with pytest.raises(netfaults.NetFaultSpecError):
            netfaults.connect("client.connect")


class TestHooks:
    def test_refuse_and_reset_carry_real_errnos(self):
        netfaults.arm("refuse@0;reset@1")
        with pytest.raises(netfaults.InjectedNetError) as excinfo:
            netfaults.connect("client.connect")
        assert excinfo.value.errno == errno.ECONNREFUSED
        with pytest.raises(netfaults.InjectedNetError) as excinfo:
            netfaults.connect("client.connect")
        assert excinfo.value.errno == errno.ECONNRESET

    def test_drop_is_an_immediate_timeout(self):
        netfaults.arm("drop@0:site=client.recv")
        with pytest.raises(socket.timeout):
            netfaults.recv("client.recv", b"payload")

    def test_half_close_on_send_is_epipe(self):
        netfaults.arm("half-close@0:site=client.send")
        with pytest.raises(netfaults.InjectedNetError) as excinfo:
            netfaults.send("client.send")
        assert excinfo.value.errno == errno.EPIPE

    def test_garble_keeps_length_and_breaks_json(self):
        netfaults.arm("garble:site=client.recv")
        data = b'{"status": "ok", "value": 123456}'
        garbled = netfaults.recv("client.recv", data)
        assert len(garbled) == len(data) and garbled != data
        assert b"\x00" in garbled

    def test_respond_actions(self):
        netfaults.arm("drop@0;reset@1;half-close@2;dup-response@3")
        assert netfaults.respond("daemon.respond", b"x")[1] == "drop"
        assert netfaults.respond("daemon.respond", b"x")[1] == "reset"
        assert netfaults.respond("daemon.respond",
                                 b"x")[1] == "half-close"
        assert netfaults.respond("daemon.respond", b"x")[1] == "dup"
        assert netfaults.respond("daemon.respond", b"x")[1] == "ok"

    def test_accept_refuse_closes(self):
        netfaults.arm("refuse@0:site=daemon.accept")
        assert netfaults.accept("daemon.accept") == "close"
        assert netfaults.accept("daemon.accept") == "ok"

    def test_disarmed_hooks_are_passthrough(self):
        netfaults.disarm()
        netfaults.connect("client.connect")
        netfaults.send("client.send")
        assert netfaults.recv("client.recv", b"data") == b"data"
        assert netfaults.accept("daemon.accept") == "ok"
        assert netfaults.respond("daemon.respond",
                                 b"data") == (b"data", "ok")


class TestClientSeam:
    """The client rides through every injected kind via its retries."""

    def _client(self, port, retries=6):
        return ServeClient(port=port, timeout=10.0,
                           policy=RetryPolicy(retries=retries,
                                              backoff_s=0.01))

    def test_refused_dial_is_retried(self, daemon):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm("refuse@0:site=client.connect")
        reply = client.healthz()
        assert reply.ok and client.transport_retries >= 1

    def test_garbled_response_is_retried_not_fatal(self, daemon):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm("garble@0:site=client.recv")
        reply = client.healthz()
        assert reply.ok and reply.body["ok"] is True
        assert client.transport_retries >= 1

    def test_garbled_storm_exhausts_budget_cleanly(self, daemon):
        handle = daemon()
        client = self._client(handle.port, retries=2)
        netfaults.arm("garble:site=client.recv")
        with pytest.raises(ServeClientError):
            client.healthz()

    def test_dropped_send_is_retried(self, daemon):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm("reset@0:site=client.send")
        reply = client.healthz()
        assert reply.ok


class TestDaemonSeam:
    """Response-side faults: the client survives what the daemon does."""

    def _client(self, port, retries=6):
        return ServeClient(port=port, timeout=10.0,
                           policy=RetryPolicy(retries=retries,
                                              backoff_s=0.01))

    @pytest.mark.parametrize("spec", [
        "drop@0:site=daemon.respond",
        "reset@0:site=daemon.respond",
        "half-close@0:site=daemon.respond",
        "garble@0:site=daemon.respond",
    ])
    def test_wrecked_response_is_survivable(self, daemon, spec):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm(spec)
        reply = client.healthz()
        assert reply.ok and reply.body["ok"] is True

    def test_dup_response_does_not_poison_the_stream(self, daemon):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm("dup-response@0:site=daemon.respond")
        first = client.healthz()
        second = client.metrics()
        assert first.ok and second.ok
        assert "counters" in second.body

    def test_accept_refused_connection_is_retried(self, daemon):
        handle = daemon()
        client = self._client(handle.port)
        netfaults.arm("refuse@0:site=daemon.accept")
        reply = client.healthz()
        assert reply.ok

    def test_full_request_survives_fault_soup(self, daemon):
        handle = daemon()
        client = self._client(handle.port, retries=8)
        netfaults.arm("refuse@0:site=client.connect;"
                      "garble@0:site=client.recv;"
                      "reset@1:site=daemon.respond")
        reply = client.submit_and_wait(req_body(), timeout=120.0)
        assert reply.run_status == "ok"
        assert reply.result.get("metrics") is not None
