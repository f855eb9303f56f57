"""Tests for the fault-plan core (repro.sim.faultplan) shared by the
engine, storage and transport fault planes: grammar, the site
``fires`` rule and the per-plane arming object.
"""

import pytest

from repro.serve import netfaults
from repro.sim import faultplan, faults, iofaults

#: (plane module, a seeded-capable kind, a site where that kind applies)
SITE_PLANES = [
    pytest.param(iofaults, "eio", "cache.write", id="io"),
    pytest.param(netfaults, "reset", "client.send", id="net"),
]


@pytest.fixture(autouse=True)
def disarmed(monkeypatch):
    for var in (faults.ENV_VAR, iofaults.ENV_VAR, netfaults.ENV_VAR):
        monkeypatch.delenv(var, raising=False)
    iofaults.disarm()
    netfaults.disarm()
    yield
    iofaults.disarm()
    netfaults.disarm()


class TestGrammar:
    GRAMMAR = faultplan.Grammar(
        "REPRO_TEST_FAULTS", ("boom", "fizz"),
        {"secs": ("secs", faultplan.seconds),
         "n": ("count_param", faultplan.at_least(2))},
        faultplan.SpecError)

    def test_targets_and_typed_params(self):
        parsed = self.GRAMMAR.parse("boom@1+3:secs=0.5; fizz~2/9 ;fizz:n=4")
        assert parsed == [
            ("boom@1+3:secs=0.5", "boom", {"indices": (1, 3)},
             {"secs": 0.5}),
            ("fizz~2/9", "fizz", {"count": 2, "seed": 9}, {}),
            ("fizz:n=4", "fizz", {}, {"count_param": 4}),
        ]

    @pytest.mark.parametrize("spec, problem", [
        ("bang", "unknown kind 'bang'"),
        ("boom:secs=-0.5", "must be finite and >= 0"),
        ("boom:n=1", "must be >= 2"),
        ("boom:x=1", "expected secs= or n="),
        ("boom@1~2/3", "not both"),
        ("boom~2", "count/seed"),
    ])
    def test_errors_name_the_variable_and_clause(self, spec, problem):
        with pytest.raises(faultplan.SpecError) as excinfo:
            self.GRAMMAR.parse(spec)
        message = str(excinfo.value)
        assert message.startswith(f"REPRO_TEST_FAULTS clause {spec!r}")
        assert problem in message

    def test_target_required(self):
        strict = faultplan.Grammar("V", ("boom",), {}, faultplan.SpecError,
                                   target_required=True)
        with pytest.raises(faultplan.SpecError, match="kind@idx"):
            strict.parse("boom")
        assert strict.parse("boom@0")[0][2] == {"indices": (0,)}


class TestSiteFires:
    @pytest.mark.parametrize("plane, kind, site", SITE_PLANES)
    def test_seeded_count_zero_fires_nowhere(self, plane, kind, site):
        (clause,) = plane.parse(f"{kind}~0/7")
        assert not any(clause.fires(site, i) for i in range(200))
        plane.arm(f"{kind}~0/7")
        assert plane.PLANE.actions(site) == []

    def test_sites_are_sampled_independently(self):
        (clause,) = iofaults.parse("eio~4/3")
        write = {i for i in range(16) if clause.fires("cache.write", i)}
        read = {i for i in range(16) if clause.fires("snapshot.read", i)}
        assert len(write) == len(read) == 4 and write != read


class TestPlaneArming:
    @pytest.mark.parametrize("plane, kind, site", SITE_PLANES)
    def test_suspended_injects_nothing_then_restores(self, plane, kind,
                                                     site):
        plan = plane.arm(f"{kind}:site={site}")
        with plane.PLANE.suspended():
            assert plane.PLANE.plan is None
        assert plane.PLANE.plan is plan
        assert [c.kind for c in plane.PLANE.actions(site)] == [kind]

    def test_suspended_keeps_lazy_env_arming(self, monkeypatch):
        monkeypatch.setenv(iofaults.ENV_VAR, "eio@0:site=store")
        with iofaults.PLANE.suspended():
            iofaults.check("store.open")        # suspended: no fault
        with pytest.raises(iofaults.InjectedIOError):
            iofaults.check("store.open")        # env read after the block
