"""Tests for the deterministic fault-injection harness (repro.sim.faults).

The spec grammar, seeded schedules, and every checkpoint behaviour must
be deterministic: the same REPRO_FAULTS string against the same batch
must always hit the same runs the same way.
"""

import pytest

from repro.sim import faults
from repro.sim.faults import (
    FaultSpecError,
    InjectedCrash,
    InjectedError,
    parse,
    plan_from_env,
    resolve,
)
from repro.workloads.io import TraceFormatError


@pytest.fixture(autouse=True)
def disarmed(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.disarm()
    yield
    faults.disarm()


class TestSpecParsing:
    def test_explicit_indices(self):
        (clause,) = parse("crash@3+11")
        assert clause.action.kind == "crash"
        assert clause.indices == (3, 11)
        assert clause.resolve(20) == (3, 11)

    def test_multi_clause_with_params(self):
        hang, error = parse("hang@7:secs=2.5;error@0:first=1")
        assert hang.action.kind == "hang"
        assert hang.action.secs == 2.5
        assert error.action.kind == "error"
        assert error.action.first == 1

    def test_seeded_schedule_is_deterministic(self):
        (clause,) = parse("crash~3/42")
        first = clause.resolve(50)
        assert len(first) == 3
        assert clause.resolve(50) == first       # same seed, same runs
        (other,) = parse("crash~3/43")
        assert other.resolve(50) != first        # seed actually matters

    def test_seeded_count_clamped_to_batch(self):
        (clause,) = parse("error~100/7")
        assert len(clause.resolve(5)) == 5

    def test_out_of_range_explicit_indices_dropped(self):
        (clause,) = parse("crash@1+30")
        assert clause.resolve(10) == (1,)

    @pytest.mark.parametrize("spec", [
        "crash",              # no target
        "nuke@1",             # unknown kind
        "crash@x",            # non-integer index
        "hang@1:zzz=3",       # unknown parameter
        "error~/5",           # missing count
        "crash@-2",           # negative index
        "hang@1:secs",        # parameter without value
        "hang@0:secs=-1",     # negative hang
        "hang@0:secs=nan",    # NaN hang
        "hang@0:secs=inf",    # infinite hang
        "error@0:first=-1",   # negative first= would never fire
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(FaultSpecError):
            parse(spec)

    def test_resolve_merges_clauses_per_run(self):
        plan = resolve("error@2;corrupt@2", 5)
        kinds = [a.kind for a in plan.for_run(2)]
        assert sorted(kinds) == ["corrupt", "error"]
        assert [a.kind for a in plan.checkpoint_actions(2)] == ["error"]
        assert [a.kind for a in plan.post_store_actions(2)] == ["corrupt"]
        assert plan.for_run(0) == ()

    def test_plan_from_env(self, monkeypatch):
        assert plan_from_env(10) is None
        monkeypatch.setenv("REPRO_FAULTS", "  ")
        assert plan_from_env(10) is None
        monkeypatch.setenv("REPRO_FAULTS", "error@3")
        plan = plan_from_env(10)
        assert plan.for_run(3)[0].kind == "error"
        monkeypatch.setenv("REPRO_FAULTS", "bogus@1")
        with pytest.raises(FaultSpecError):
            plan_from_env(10)


class TestCheckpoint:
    def test_disarmed_is_noop(self):
        faults.checkpoint()   # must not raise

    def test_error_raises_injected_error(self):
        (clause,) = parse("error@0")
        faults.arm([clause.action], attempt=0)
        with pytest.raises(InjectedError):
            faults.checkpoint()

    def test_crash_raises_in_process(self):
        # Outside a supervised pool worker a crash must raise, not
        # os._exit the host interpreter.
        (clause,) = parse("crash@0")
        faults.arm([clause.action], attempt=0)
        with pytest.raises(InjectedCrash):
            faults.checkpoint()

    def test_truncate_raises_trace_format_error(self):
        (clause,) = parse("truncate@0")
        faults.arm([clause.action], attempt=0)
        with pytest.raises(TraceFormatError):
            faults.checkpoint()

    def test_first_window_limits_attempts(self):
        (clause,) = parse("error@0:first=1")
        faults.arm([clause.action], attempt=0)
        with pytest.raises(InjectedError):
            faults.checkpoint()
        faults.arm([clause.action], attempt=1)
        faults.checkpoint()   # attempt 1 is past the window: healed

    def test_disarm_clears(self):
        (clause,) = parse("error@0")
        faults.arm([clause.action], attempt=0)
        faults.disarm()
        faults.checkpoint()


class TestCorruptFile:
    def test_garbles_in_place(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text('{"version": 1, "metrics": {}}')
        assert faults.corrupt_file(path)
        data = path.read_bytes()
        assert b"#CORRUPTED#" in data
        with pytest.raises(ValueError):
            import json
            json.loads(data)

    def test_missing_file_returns_false(self, tmp_path):
        assert not faults.corrupt_file(tmp_path / "absent.json")
