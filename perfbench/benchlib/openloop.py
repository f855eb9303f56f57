"""Open-loop load: a seeded arrival schedule and due-time accounting.

In an open loop each request is sent when it is due, whether or not
earlier ones have finished, and is timed from its due time.  A stall
then shows in every request that was due while it lasted, and the
generator's own lateness (sent - due) is reported separately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional

HIT = "hit"
MISS = "miss"
RESUBMIT = "resubmit"


@dataclass
class Arrival:
    """One scheduled request: offset from the loop start, in seconds."""

    due_s: float
    kind: str
    index: int          # hit-set index, or miss number for miss/resubmit


@dataclass
class Outcome:
    """What happened to one arrival, in ``perf_counter`` seconds."""

    arrival: Arrival
    due_at: float
    sent_at: float
    done_at: Optional[float] = None
    ok: bool = False

    @property
    def latency_s(self) -> float:
        """Due time to result; includes any wait the generator added."""
        return self.done_at - self.due_at

    @property
    def lag_s(self) -> float:
        """How late the generator sent this request."""
        return max(0.0, self.sent_at - self.due_at)


def poisson_schedule(seed: int, rate_per_s: float, duration_s: float,
                     hit_set: int, miss_every: int,
                     resubmit_fraction: float,
                     resubmit_after_s: float) -> List[Arrival]:
    """Seeded Poisson arrivals over *duration_s* at *rate_per_s*.

    Every *miss_every*-th arrival is a miss; the others hit a uniformly
    chosen hit-set entry.  Spacing the misses evenly in the arrival
    sequence keeps the miss count, and so the engine load, the same
    for every seed.  A *resubmit_fraction* share of the misses is sent
    again *resubmit_after_s* later, while the first copy is still in
    flight, so the daemon coalesces it.
    """
    rng = random.Random(seed)
    arrivals: List[Arrival] = []
    t = rng.expovariate(rate_per_s)
    primary = misses = 0
    while t < duration_s:
        primary += 1
        if primary % miss_every == 0:
            arrivals.append(Arrival(t, MISS, misses))
            if rng.random() < resubmit_fraction:
                arrivals.append(Arrival(t + resubmit_after_s, RESUBMIT,
                                        misses))
            misses += 1
        else:
            arrivals.append(Arrival(t, HIT, rng.randrange(hit_set)))
        t += rng.expovariate(rate_per_s)
    arrivals.sort(key=lambda a: a.due_s)
    return arrivals


def latencies(outcomes: Iterable[Outcome], kind: str) -> List[float]:
    return [o.latency_s for o in outcomes
            if o.arrival.kind == kind and o.ok]


def lags(outcomes: Iterable[Outcome]) -> List[float]:
    return [o.lag_s for o in outcomes]
