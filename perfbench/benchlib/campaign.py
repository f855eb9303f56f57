"""The tiny-cell campaign companion.

A seeded grid of 120 cells at a few hundred accesses each.  Each round
runs it cold with ``run_missing`` into a fresh cache and store, then
again with fresh stores over the warm cache (which must simulate
nothing), then queries ``speedup_rows`` from every store.  At this size
the sqlite store, ``build_hierarchy`` and the fsync'd cache publish are
a large share of every cell, where in a 40k-access run they vanish.
A traced run of either simulation workload runs it, for those layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import time

from benchlib.common import Context, Pass
from benchlib.stats import median
from benchlib.tracing import engine_counts, simulated_counts

STREAM_POOL = ("lbm", "libquantum", "GemsFDTD", "bwaves", "milc",
               "fotonik3d_s", "leslie3d", "roms_s")
IRREGULAR_POOL = ("mcf", "omnetpp", "xalancbmk_s", "gobmk", "astar",
                  "sat_solver", "leela_s", "mcf_s")
VARIANTS = ("original", "psa", "psa-2mb", "psa-sd")
ACCESS_STEPS = (300, 350, 400, 450, 500)
#: Host seconds one round is budgeted at; the round count depends only
#: on ``--seconds``, so two commits run the same cells.
NOMINAL_ROUND_S = 2.0
#: Resumed passes per round, each into its own fresh store: one takes
#: well under 0.1s, too short to time alone on a host whose speed
#: drifts.
RESUMES = 3


def campaign_for(seed: int):
    """Three streaming and three irregular traces, each under every
    variant at five seeded trace lengths: 120 cells."""
    from repro.campaign import Campaign

    rng = random.Random(seed)
    workloads = rng.sample(STREAM_POOL, 3) + rng.sample(IRREGULAR_POOL, 3)
    jitter = rng.randrange(10)
    return Campaign(name=f"tiny-s{seed}", axes={
        "workload": workloads, "variant": list(VARIANTS),
        "n_accesses": [n + jitter for n in ACCESS_STEPS]})


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True)
                          .encode()).hexdigest()


class CampaignTiny:
    def setup(self, ctx: Context, seconds: float):
        from repro.campaign import CampaignStore

        ctx.workdir.use_cache("campaign-setup")
        campaign = campaign_for(ctx.seed)
        with CampaignStore() as store:
            store.register(campaign)
        return campaign

    def teardown(self, state) -> None:
        pass

    def measure(self, ctx: Context, campaign, seconds: float, tracer,
                pass_no: int) -> Pass:
        from repro.campaign import CampaignStore, run_missing
        from repro.sim import runner
        from repro.workloads import suites

        rounds = max(2, round(seconds / NOMINAL_ROUND_S))
        cells = campaign.cells()
        records = sum(c.request.n_accesses for c in cells)
        outcome = Pass(e2e={})
        cold_rates, resume_rates = [], []
        first_rows = first_metrics = None
        before = runner.engine_stats().to_dict()

        def request(rid):
            return (tracer.recorder.request(rid) if tracer is not None
                    else contextlib.nullcontext())

        if tracer is not None:
            tracer.install()
        try:
            for r in range(rounds):
                cache = ctx.workdir.use_cache(f"campaign-p{pass_no}r{r}")
                runner.clear_cache()
                suites._generate_memo.clear()
                cold_db = cache / "cold.sqlite"
                os.environ["REPRO_CAMPAIGN_DB"] = str(cold_db)
                with request(f"cold-{r}"):
                    begin = time.perf_counter()
                    cold = run_missing(campaign)
                    cold_s = time.perf_counter() - begin
                outcome.attempted += len(cells)
                outcome.failed += cold.failed
                if cold.ok != len(cells):
                    outcome.problems.append(
                        f"round {r}: {cold.ok}/{len(cells)} cold cells ok")
                with request(f"query-{r}"), CampaignStore(cold_db) as store:
                    rows = store.speedup_rows(campaign)
                    if first_metrics is None:
                        first_metrics = store.metrics_for(campaign)
                if first_rows is None:
                    first_rows = rows
                elif rows != first_rows:
                    outcome.fail(f"round {r}: speedup rows differ from "
                                 f"round 0")
                cold_rates.append(len(cells) / cold_s)

                for k in range(RESUMES):
                    runner.clear_cache()
                    simulated = runner.engine_stats().simulated
                    resume_db = cache / f"resume{k}.sqlite"
                    os.environ["REPRO_CAMPAIGN_DB"] = str(resume_db)
                    with request(f"resume-{r}.{k}"):
                        begin = time.perf_counter()
                        resumed = run_missing(campaign)
                        resume_s = time.perf_counter() - begin
                    resimulated = runner.engine_stats().simulated \
                        - simulated
                    with request(f"query-{r}.{k}"), \
                            CampaignStore(resume_db) as store:
                        resume_rows = store.speedup_rows(campaign)
                    outcome.attempted += len(cells)
                    outcome.failed += resumed.failed
                    if resumed.synced != len(cells) or resimulated:
                        outcome.fail(f"round {r}: resume synced "
                                     f"{resumed.synced}/{len(cells)} and "
                                     f"simulated {resimulated}")
                    if resume_rows != rows:
                        outcome.fail(f"round {r}: resumed speedup rows "
                                     f"differ")
                    resume_rates.append(len(cells) / resume_s)
        finally:
            if tracer is not None:
                tracer.restore()
        after = runner.engine_stats().to_dict()

        outcome.e2e = {
            "cells_per_s": median(cold_rates),
            "resume_cells_per_s": median(resume_rates),
        }
        outcome.digests = [(f"campaign/{campaign.campaign_id}/speedups",
                            rows_digest(first_rows))]
        outcome.notes.append(
            f"campaign: {rounds} rounds of {len(cells)} cells cold, then "
            f"resumed")
        if tracer is not None:
            outcome.layer.update(tracer.layer_metrics(rounds * records))
            outcome.layer.update(engine_counts(before, after))
        outcome.layer.update(simulated_counts(
            first_metrics[c.index] for c in cells))
        return outcome
