"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
from pathlib import Path

import pytest

from benchlib import layers, metrics
from benchlib.openloop import (HIT, MISS, RESUBMIT, Arrival, Outcome, lags,
                               latencies, poisson_schedule)
from benchlib.spans import Span, SpanRecorder, self_times
from benchlib.stats import percentile, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


# -- the percentile rule ------------------------------------------------

def test_tail_is_highest_percentile_with_ten_samples_beyond():
    samples = list(range(1, 1001))
    assert tail_percentile(samples) == (99.0, 990)
    # 999 samples leave only 9 above the p99 rank, so p95 is reported.
    assert tail_percentile(samples[:999])[0] == 95.0
    assert tail_percentile(samples[:100]) == (90.0, 90)
    assert tail_percentile(samples[:20]) == (50.0, 10)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(list(range(19)))


def test_tail_respects_cap_and_ignores_order():
    samples = list(range(100000, 0, -1))
    assert tail_percentile(samples, cap=99.0) == (99.0, 99000)
    assert tail_percentile(samples)[0] == 99.9


def test_nearest_rank_percentile():
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2
    assert percentile([7], 99) == 7


# -- spans and self time ----------------------------------------------

def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None)


def test_self_time_subtracts_union_of_children():
    spans = [_span(0, 0, 100),
             _span(1, 10, 30, parent=0),
             _span(2, 20, 50, parent=0),      # overlaps span 1
             _span(3, 12, 15, parent=1),      # grandchild: only 1 loses it
             _span(4, 90, 120, parent=0)]     # clipped to the parent
    selfs = self_times(spans)
    assert selfs[0] == 100 - (50 - 10) - (100 - 90)
    assert selfs[1] == 20 - 3
    assert selfs[2] == 30
    assert selfs[3] == 3
    assert selfs[4] == 30


def test_recorder_nests_spans_and_tags_requests():
    ticks = iter(range(0, 1000, 10))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    with recorder.request("req-1"):
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
    with recorder.span("untagged"):
        pass
    by = {s.name: s for s in recorder.spans}
    assert by["inner"].parent == by["outer"].span_id
    assert by["outer"].parent is None
    assert by["inner"].request_id == by["outer"].request_id == "req-1"
    assert by["untagged"].request_id is None
    selfs = self_times(recorder.spans)
    assert selfs[by["outer"].span_id] == by["outer"].duration_ns - 10


class _Target:
    def work(self, x):
        return x + 1

    @staticmethod
    def helper(x):
        return x * 2


def test_wrap_times_calls_and_restore_undoes_it(tmp_path):
    recorder = SpanRecorder()
    original = _Target.__dict__["work"]
    recorder.wrap(_Target, "work", "target.work")
    recorder.wrap(_Target, "helper", "target.helper")
    assert _Target().work(1) == 2 and _Target.helper(3) == 6
    assert [s.name for s in recorder.spans] == ["target.work",
                                               "target.helper"]
    recorder.restore()
    assert _Target.__dict__["work"] is original
    assert isinstance(_Target.__dict__["helper"], staticmethod)
    out = tmp_path / "spans.json"
    recorder.write_json(out, extra={"seed": 3})
    data = json.loads(out.read_text())
    assert data["seed"] == 3
    assert {"name", "start_ns", "end_ns", "parent", "request_id",
            "self_ns"} <= set(data["spans"][0])


# -- open-loop accounting ---------------------------------------------

def _outcome(kind, due, sent, done=None):
    return Outcome(Arrival(due, kind, 0), due_at=due, sent_at=sent,
                   done_at=done, ok=done is not None)


def test_latency_is_timed_from_due_and_lag_from_send():
    stalled = [_outcome(HIT, 0.000, 0.000, 0.050),
               # due during the stall: sent late, and the wait counts
               _outcome(HIT, 0.010, 0.050, 0.051),
               _outcome(HIT, 0.060, 0.060, 0.061),
               _outcome(MISS, 0.070, 0.070, 0.170),
               _outcome(HIT, 0.080, 0.080)]              # failed
    assert latencies(stalled, HIT) == pytest.approx([0.050, 0.041, 0.001])
    assert latencies(stalled, MISS) == pytest.approx([0.100])
    assert lags(stalled) == pytest.approx([0.0, 0.040, 0.0, 0.0, 0.0])


def test_schedule_is_seeded_with_evenly_spaced_misses():
    a = poisson_schedule(7, 300.0, 5.0, 12, 50, 0.5, 0.02)
    assert a == poisson_schedule(7, 300.0, 5.0, 12, 50, 0.5, 0.02)
    assert a != poisson_schedule(8, 300.0, 5.0, 12, 50, 0.5, 0.02)
    primary = [x for x in a if x.kind != RESUBMIT]
    assert len(primary) == pytest.approx(1500, rel=0.1)
    assert [x.kind for x in primary].count(MISS) == len(primary) // 50
    assert all(x.kind == MISS for x in primary[49::50])
    assert all(0 <= x.index < 12 for x in primary if x.kind == HIT)
    assert [x.due_s for x in a] == sorted(x.due_s for x in a)
    firsts = {x.index: x.due_s for x in a if x.kind == MISS}
    for x in a:
        if x.kind == RESUBMIT:
            assert x.due_s == pytest.approx(firsts[x.index] + 0.02)


# -- layers -------------------------------------------------------------

def test_every_repro_module_maps_to_a_layer():
    src = ROOT / "src"
    modules = [layers.module_of(str(path), src)
               for path in sorted((src / "repro").rglob("*.py"))]
    assert len(modules) > 50
    unmapped = [m for m in modules if layers.layer_of(m) == layers.OTHER]
    assert unmapped == []


def test_layer_lookup_uses_longest_prefix():
    assert layers.layer_of("repro.sim.kernel") == "kernel"
    assert layers.layer_of("repro.sim.runner") == "engine"
    assert layers.layer_of("repro.prefetch.spp") == "prefetch"
    assert layers.layer_of("repro.core.psa") == "psa"
    assert layers.layer_of("repro") == "cli"
    assert layers.layer_of("repro.newpkg.thing") == layers.OTHER
    assert layers.layer_of("json.decoder") == layers.OTHER
    assert layers.module_of("/elsewhere/x.py", ROOT / "src") is None


def test_profiler_groups_self_time_by_layer():
    import cProfile

    from repro.memory.address import block_number

    profile = cProfile.Profile()
    profile.enable()
    for value in range(2000):
        block_number(value * 64)
    profile.disable()
    totals = layers.self_time_by_layer(profile, ROOT / "src")
    assert totals.get("memory", 0.0) > 0.0


# -- sweep order and host-speed scaling -------------------------------

def test_sweep_covers_every_trace_first_and_never_repeats_a_run():
    from benchlib import sim

    requests = sim.sweep_requests(sim.STREAM_2M, 3, 30)
    labels = [sim.label(r) for r in requests]
    assert len(set(labels)) == 30
    assert {r.workload.name for r in requests[:6]} \
        == {f"{name}.s3" for name in sim.STREAM_2M}
    # past the 24 trace x variant pairs, renamed copies take over
    assert all(r.workload.name.endswith(".s3.1") for r in requests[24:])
    assert labels == [sim.label(r) for r in
                      sim.sweep_requests(sim.STREAM_2M, 3, 30)]


def test_slowdown_is_mean_slice_over_the_reference():
    from benchlib import hostspeed

    host = hostspeed.HostSpeed()
    with pytest.raises(ValueError):
        host.slowdown()
    host.samples = [hostspeed.REFERENCE_SLICE_S,
                    3 * hostspeed.REFERENCE_SLICE_S]
    assert host.slowdown() == pytest.approx(2.0)
    host.sample()
    assert len(host.samples) == 3 and host.samples[-1] > 0


# -- BENCHMARK.json ----------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in
            spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    names = [w["name"] for w in spec["workloads"]]
    assert names == ["sim-2m-stream", "sim-4k-irregular"]
