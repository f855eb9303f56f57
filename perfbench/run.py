#!/usr/bin/env python3
"""The repository benchmark: one command, two simulation workloads.

Runs one named workload from a seed, checks that the program's outputs
are correct, and prints every end-to-end metric by name and unit; the
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 1`` the run makes an untraced pass, then a traced pass
over the first third of the same sweep, then runs the two companion
workloads (``campaign-tiny`` and ``serve-open``) untraced and traced,
for the layers the sweeps do not reach.  It prints the per-layer
metrics instead (including ``trace.overhead_pct``, the traced runs
against the same runs untraced) and writes the spans to
``.perfbench/spans/<workload>-seed<seed>[-<companion>].json``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-2m-stream --seed 1 \\
        --seconds 30 --trace 0

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from benchlib import env as benv  # noqa: E402
from benchlib.common import Context, Pass  # noqa: E402
from benchlib.metrics import (COMPANION_METRICS, E2E_UNITS,  # noqa: E402
                              LAYER_UNITS, UNGATED)
from benchlib.stats import median  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: A fresh interpreter's share of set-up: imports plus the catalog.
IMPORT_PROBE = ("import repro.sim.runner, repro.campaign, "
                "repro.serve.client, repro.verify.golden\n"
                "from repro.workloads.suites import catalog\n"
                "catalog(include_non_intensive=True)\n")

WORKLOAD_NAMES = ("sim-2m-stream", "sim-4k-irregular")

#: Seconds each pass of a companion workload runs in a traced run: two
#: campaign rounds, and enough open-loop arrivals for a hit p99.
COMPANION_SECONDS = {"campaign-tiny": 4.0, "serve-open": 8.0}


def make_workload(name: str):
    from benchlib import campaign, serve, sim

    factories = {
        "sim-2m-stream": lambda: sim.SimSweep(sim.STREAM_2M),
        "sim-4k-irregular": lambda: sim.SimSweep(sim.IRREGULAR_4K),
        "campaign-tiny": campaign.CampaignTiny,
        "serve-open": serve.ServeOpen,
    }
    return factories[name]()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_probe(ctx: Context) -> None:
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                   env=benv.child_env(ctx.src, ctx.workdir.root),
                   stdout=subprocess.DEVNULL, timeout=120)


def golden_check() -> Pass:
    """Replay the committed golden corpus once (untimed)."""
    from repro.verify import golden

    results = golden.run_corpus()
    bad = [r for r in results if not r.ok]
    return Pass(e2e={}, attempted=len(results), failed=len(bad),
                problems=[f"golden {r.trace}:{r.variant} digest "
                          f"{r.digest[:12]} != {(r.expected or '')[:12]}"
                          for r in bad])


def traced_pass(workload, ctx: Context, state, seconds: float):
    """One traced pass of *workload*: its outcome and its tracer."""
    from benchlib.tracing import Tracer

    tracer = Tracer(SRC)
    begin = time.perf_counter()
    outcome = workload.measure(ctx, state, seconds, tracer, 1)
    outcome.layer["bench.pass_s"] = time.perf_counter() - begin
    return outcome, tracer


def run_companion(ctx: Context, name: str):
    """Set up companion *name* once and run it untraced, then traced."""
    workload = make_workload(name)
    seconds = COMPANION_SECONDS[name]
    state = workload.setup(ctx, seconds)
    try:
        plain = workload.measure(ctx, state, seconds, None, 0)
        traced, tracer = traced_pass(workload, ctx, state, seconds)
    finally:
        workload.teardown(state)
    return plain, traced, tracer


def digest_mismatches(plain: Pass, traced: Pass) -> list:
    """Labels of work both passes did whose results differ."""
    untraced = dict(plain.digests)
    return [lbl for lbl, digest in traced.digests
            if untraced.get(lbl, digest) != digest]


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    benv.check_clean_env()
    os.environ["REPRO_JOBS"] = "1"
    sys.path.insert(0, str(SRC))
    workdir = benv.Workdir(OUT / "work")
    ctx = Context(root=ROOT, src=SRC, seed=args.seed, workdir=workdir)
    workload = make_workload(args.workload)
    facts = benv.host_facts()
    print("host " + " ".join(f"{k}={v}" for k, v in facts.items()),
          flush=True)
    state = None
    traced = tracer = None
    companions = {}
    try:
        workdir.use_cache("golden")
        benv.assert_cache_inside(workdir)
        checks = golden_check()

        setup_times = []
        for _ in range(SETUP_REPEATS):
            if state is not None:
                workload.teardown(state)
                state = None
            ctx.host.sample()
            begin = time.perf_counter()
            import_probe(ctx)
            state = workload.setup(ctx, args.seconds)
            setup_times.append(time.perf_counter() - begin)
        benv.assert_cache_inside(workdir)

        first = workload.measure(ctx, state, args.seconds, None, 0)
        if args.trace:
            traced, tracer = traced_pass(workload, ctx, state,
                                         args.seconds)
        workload.teardown(state)
        state = None
        if args.trace:
            companions = {name: run_companion(ctx, name)
                          for name in COMPANION_METRICS}
    finally:
        if state is not None:
            workload.teardown(state)
        workdir.close()

    # (untraced, traced) passes of the same work
    pairs = [(first, traced)] if traced is not None else []
    pairs += [(plain, again) for plain, again, _ in companions.values()]
    passes = [checks, first] + [p for pair in pairs for p in pair
                                if p is not first]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    for plain, again in pairs:
        # Work both passes did must have produced identical results.
        for lbl in digest_mismatches(plain, again):
            failed += 1
            problems.append(f"{lbl}: traced pass digest differs")

    slowdown = ctx.host.slowdown()
    e2e = dict(first.e2e)
    e2e["setup_s"] = median(setup_times) / slowdown
    e2e["peak_rss_mb"] = benv.self_peak_rss_mb() + first.child_rss_mb
    if args.trace:
        values = dict(first.layer)      # exact counts of the whole sweep
        values.update(traced.layer)
        values.update((name, first.e2e[name]) for name, _ in UNGATED)
        values["host.slowdown"] = slowdown
        # The traced pass ran the sweep's first runs; so did the
        # untraced one, in the same order.
        again_s = sum(traced.run_s)
        plain_s = sum(first.run_s[:len(traced.run_s)])
        values["trace.overhead_pct"] = (again_s / plain_s - 1.0) * 100.0
        for name, rows in COMPANION_METRICS.items():
            plain, again, _ = companions[name]
            for printed, _, source, key in rows:
                values[printed] = (plain.e2e if source == "e2e"
                                   else again.layer)[key]
        units = LAYER_UNITS
    else:
        values, units = e2e, E2E_UNITS
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")

    for note in [n for p in passes for n in p.notes]:
        print(f"note {note}")
    for lbl, digest in first.digests:
        print(f"digest {lbl} {digest[:16]}")
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"setup runs (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
    print(f"host slowdown {slowdown:.4f} over "
          f"{len(ctx.host.samples)} reference slices (timed figures "
          f"below are divided by it)")
    print(f"error_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for name in E2E_UNITS:
        print(f"{name:28s} {e2e[name]:14.6g} {E2E_UNITS[name]}")
    for name, unit in UNGATED:
        print(f"{name:28s} {e2e[name]:14.6g} {unit} (not gated)")
    if args.trace:
        for name in LAYER_UNITS:
            print(f"{name:28s} {values[name]:14.6g} {LAYER_UNITS[name]}")

    if tracer is not None:
        spans = OUT / "spans"
        extra = {"workload": args.workload, "seed": args.seed,
                 "host": facts}
        tracer.recorder.write_json(
            spans / f"{args.workload}-seed{args.seed}.json",
            extra={**extra, "per_layer": values})
        for name, (_, _, companion) in companions.items():
            companion.recorder.write_json(
                spans / f"{args.workload}-seed{args.seed}-{name}.json",
                extra={**extra, "companion": name})
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": values[name],
                                 "unit": units[name]} for name in units}}
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except benv.EnvironmentProblem as exc:
        print(f"environment: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
