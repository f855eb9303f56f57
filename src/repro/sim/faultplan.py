"""The fault-plan core shared by the three deterministic fault planes.

``REPRO_FAULTS`` (``repro.sim.faults``, runs of a batch),
``REPRO_IO_FAULTS`` (``repro.sim.iofaults``, storage operations) and
``REPRO_NET_FAULTS`` (``repro.serve.netfaults``, transport operations)
speak one grammar; each plane supplies its kinds and parameters::

    spec    := clause (";" clause)*
    clause  := kind target? (":" key "=" value)*
    target  := "@" idx ("+" idx)*     explicit 0-based indices
             | "~" count "/" seed     seeded sample of `count` indices

    REPRO_FAULTS="crash@4;hang@9:secs=30"            # runs 4 and 9
    REPRO_FAULTS="kill@0:at=1500:first=1"            # die once, resume
    REPRO_IO_FAULTS="torn~2/7:site=cache"            # 2 seeded torn writes
    REPRO_NET_FAULTS="drop@2:site=daemon;delay:secs=0.005"

The engine plane requires a target and takes ``secs=``, ``first=`` and
``at=`` (see ``repro.sim.faults``).  The IO and net planes count
operations per dotted *site*, so a bare ``kind`` fires on every
operation; they take ``site=<prefix>`` (matched component-wise:
``cache`` matches ``cache.write``, never ``cachette.write``),
``secs=<float>`` (the ``slow``/``delay`` stall, default 0.01) and
``of=<int>`` (the seeded window, default 16 ops per site).  A seeded
site target fires at ``count`` of the first ``of`` ops of each site,
drawn from ``random.Random(seed ^ crc32(site))``: sites fail at
different offsets, identically across processes and replays, and
``~0/seed`` fires nowhere.

Rejected at parse time: a negative, NaN or infinite ``secs=``, a
negative index, count or ``first=``, and a non-positive ``of=``.  A
malformed spec raises the plane's subclass of :class:`SpecError`, a
``ConfigurationError`` (the CLI prints ``error: ...`` and exits 2),
never a simulation failure.
"""

from __future__ import annotations

import math
import os
import random
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.sim.config import ConfigurationError

#: Default window for seeded "~count/seed" site sampling (ops per site).
DEFAULT_WINDOW = 16


class SpecError(ConfigurationError):
    """A fault spec failed to parse (each plane subclasses this)."""


def seconds(value: str) -> float:
    """A finite, non-negative ``secs=`` value."""
    secs = float(value)
    if not 0.0 <= secs < math.inf:
        raise ValueError("must be finite and >= 0")
    return secs


def at_least(low: int) -> Callable[[str], int]:
    """A converter for integers >= *low*."""
    def convert(value: str) -> int:
        if int(value) < low:
            raise ValueError(f"must be >= {low}")
        return int(value)
    return convert


non_negative_int = at_least(0)


#: ``key -> (field name, converter)``; a converter raises ValueError.
Params = Mapping[str, Tuple[str, Callable[[str], object]]]

#: The parameters of the site-sequenced (IO and net) planes.
SITE_PARAMS: Params = {
    "site": ("site", str),
    "secs": ("secs", seconds),
    "of": ("window", at_least(1)),
}


@dataclass(frozen=True)
class Grammar:
    """One plane's instance of the spec grammar."""

    env_var: str
    kinds: Tuple[str, ...]
    params: Params
    error: type
    target_required: bool = False

    def fail(self, clause: str, problem: str) -> SpecError:
        return self.error(f"{self.env_var} clause {clause!r}: {problem}")

    def parse(self, spec: str) -> List[Tuple[str, str, Dict, Dict]]:
        """``(clause, kind, target, params)`` per non-blank clause."""
        return [self._parse_clause(part.strip()) for part in spec.split(";")
                if part.strip()]

    def _parse_clause(self, clause: str) -> Tuple[str, str, Dict, Dict]:
        head, *raw_params = clause.split(":")
        params: Dict[str, object] = {}
        for item in raw_params:
            key, sep, value = item.partition("=")
            if not sep or not value:
                raise self.fail(clause, f"malformed parameter {item!r}")
            if key not in self.params:
                *rest, last = (f"{name}=" for name in self.params)
                raise self.fail(
                    clause, f"unknown parameter {key!r} (expected "
                    f"{', '.join(rest)} or {last})")
            name, convert = self.params[key]
            try:
                params[name] = convert(value)
            except ValueError as exc:
                raise self.fail(
                    clause, f"bad value for {key!r}: {value!r} "
                    f"({exc})") from None

        target: Dict[str, object] = {}
        if "@" in head and "~" in head:
            raise self.fail(clause, "use @idx or ~count/seed, not both")
        if "@" in head:
            kind, _, spot = head.partition("@")
            try:
                target["indices"] = tuple(
                    non_negative_int(part) for part in spot.split("+"))
            except ValueError:
                raise self.fail(
                    clause, f"bad index in {spot!r} (integers >= 0)"
                ) from None
        elif "~" in head:
            kind, _, spot = head.partition("~")
            count, sep, seed = spot.partition("/")
            if not sep or not count or not seed:
                raise self.fail(clause, "seeded target must be count/seed")
            try:
                target["count"] = non_negative_int(count)
                target["seed"] = int(seed)
            except ValueError:
                raise self.fail(
                    clause, f"bad count/seed {spot!r} (count >= 0)"
                ) from None
        elif self.target_required:
            raise self.fail(
                clause, "expected kind@idx[+idx...] or kind~count/seed")
        else:
            kind = head
        if kind not in self.kinds:
            raise self.fail(clause, f"unknown kind {kind!r} (expected "
                            f"one of {', '.join(self.kinds)})")
        return clause, kind, target, params


@dataclass(frozen=True)
class Clause:
    """One parsed site-sequenced clause: kind, site filter, targets."""

    kind: str
    site: str = ""                              # dotted prefix filter
    indices: Optional[Tuple[int, ...]] = None   # explicit "@" targets
    count: int = 0                              # seeded "~" sample size
    seed: Optional[int] = None                  # None: not seeded
    window: int = DEFAULT_WINDOW
    secs: float = 0.01                          # slow/delay stall
    ops: Tuple[str, ...] = field(default=(), repr=False, compare=False)

    def matches_site(self, site: str) -> bool:
        if not self.site:
            return True
        return site == self.site or site.startswith(self.site + ".")

    def fires(self, site: str, index: int) -> bool:
        """Does this clause fire for op *index* of *site*?"""
        if site.rsplit(".", 1)[-1] not in self.ops:
            return False
        if not self.matches_site(site):
            return False
        if self.indices is not None:
            return index in self.indices
        if self.seed is None:
            return True                          # bare kind: every op
        if index >= self.window:
            return False
        rng = random.Random(self.seed ^ zlib.crc32(site.encode()))
        return index in rng.sample(range(self.window),
                                   min(self.count, self.window))


_UNSET = object()


class Plane:
    """A site-sequenced fault plane: its grammar, armed plan and
    per-site operation counters.

    Each site counts its operations per process and clause targets
    index into that sequence, so a replay of the same workload fires
    the same faults at the same operations.  ``plan`` is ``_UNSET``
    until the first :meth:`actions` call reads the environment once
    (so pool workers and daemon subprocesses inherit the arming), then
    None when disabled, else the clause list; tests use :meth:`arm`
    and :meth:`disarm`.  A disarmed hook is one ``PLANE.plan is None``
    test in front of the real operation.
    """

    __slots__ = ("grammar", "ops_for_kind", "plan", "counters")

    def __init__(self, env_var: str,
                 ops_for_kind: Mapping[str, Tuple[str, ...]],
                 error: type):
        self.grammar = Grammar(env_var, tuple(ops_for_kind),
                               SITE_PARAMS, error)
        self.ops_for_kind = ops_for_kind
        self.plan = _UNSET
        self.counters: Dict[str, int] = {}

    def parse(self, spec: str) -> List[Clause]:
        """Parse a spec string (raises the plane's spec error)."""
        return [Clause(kind, ops=self.ops_for_kind[kind], **target,
                       **params)
                for _, kind, target, params in self.grammar.parse(spec)]

    def plan_from_env(self) -> Optional[List[Clause]]:
        """The clauses armed via the plane's variable, None when unset."""
        spec = os.environ.get(self.grammar.env_var, "").strip()
        return self.parse(spec) if spec else None

    def arm(self, spec: str) -> List[Clause]:
        """Arm a fault plan for this process (tests; resets sequencing)."""
        self.plan = self.parse(spec)
        self.counters.clear()
        return self.plan

    def disarm(self) -> None:
        """Disable injection and forget the cached environment read."""
        self.plan = _UNSET
        self.counters.clear()

    def reset_counters(self) -> None:
        """Zero the per-site op counters (test isolation helper)."""
        self.counters.clear()

    @contextmanager
    def suspended(self) -> Iterator[None]:
        """Inject nothing inside the block; restore the arming after."""
        saved, self.plan = self.plan, None
        try:
            yield
        finally:
            self.plan = saved

    def actions(self, site: str) -> List[Clause]:
        """Advance *site*'s op counter; return the clauses firing on it."""
        if self.plan is _UNSET:
            self.plan = self.plan_from_env()
            self.counters.clear()
        if self.plan is None:
            return []
        index = self.counters.get(site, 0)
        self.counters[site] = index + 1
        return [clause for clause in self.plan
                if clause.fires(site, index)]
