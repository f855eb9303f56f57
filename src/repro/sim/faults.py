"""Deterministic fault injection for the batch engine.

The supervision layer (``repro.sim.supervisor``) is only trustworthy if
its failure paths are exercised; this module makes failures first-class,
reproducible inputs.  A fault *spec* — from the ``REPRO_FAULTS``
environment variable or passed programmatically — describes which runs
of a batch fail and how, in the grammar of ``repro.sim.faultplan``.
Every clause needs a run target (``@idx`` or ``~count/seed``); the
kinds are ``crash``, ``hang``, ``error``, ``truncate``, ``corrupt`` and
``kill``.

Parameters: ``secs=<float>`` (hang duration, default 30),
``first=<int>`` (fire only on the first N attempts; 0 = every attempt,
so ``first=1`` models a transient that a retry cures), and
``at=<int>`` (``kill`` only, and required there: the access index after
which the run dies — the snapshot/resume acceptance scenario).

Indices refer to positions in the batch's *scheduled* run list (after
dedupe and cache hits), which is what makes a schedule deterministic: a
rerun of a partially cached batch renumbers only the cache misses.

Kinds ``crash``/``hang``/``error``/``truncate`` fire at the
:func:`checkpoint` the simulator calls at the start of every run, inside
the real worker call stack.  ``crash`` terminates the worker process
with ``os._exit(137)`` when running in a supervised pool worker
(exercising ``BrokenProcessPool`` recovery) and raises
:class:`InjectedCrash` in-process otherwise, so serial fallback resolves
persistent crashers without killing the host.  ``corrupt`` is applied by
the parent *after* the run's cache entry is written (garbling the entry
on disk) to exercise the cache quarantine path.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.sim import faultplan
from repro.workloads.io import TraceFormatError

ENV_VAR = "REPRO_FAULTS"

KINDS = ("crash", "hang", "error", "truncate", "corrupt", "kill")


class FaultSpecError(faultplan.SpecError):
    """A ``REPRO_FAULTS`` spec failed to parse."""


class InjectedError(RuntimeError):
    """Base class for injected failures (treated as transient)."""


class InjectedCrash(InjectedError):
    """An injected worker crash, raised in-process (serial execution)."""


@dataclass(frozen=True)
class FaultAction:
    """What happens when a targeted run reaches a checkpoint."""

    kind: str
    secs: float = 30.0    # hang duration
    first: int = 0        # fire only on attempts < first (0 = always)
    at: int = -1          # kill: die after access index `at` completes

    def fires(self, attempt: int) -> bool:
        return self.first == 0 or attempt < self.first


@dataclass(frozen=True)
class FaultClause:
    """One parsed spec clause: an action plus its run targets."""

    action: FaultAction
    indices: Optional[Tuple[int, ...]] = None   # explicit "@" targets
    count: int = 0                              # seeded "~" sample size
    seed: int = 0

    def resolve(self, n_runs: int) -> Tuple[int, ...]:
        """Concrete run indices for a batch of *n_runs* scheduled runs."""
        if self.indices is not None:
            return tuple(i for i in self.indices if i < n_runs)
        count = min(self.count, n_runs)
        if count <= 0:
            return ()
        return tuple(sorted(
            random.Random(self.seed).sample(range(n_runs), count)))


#: The engine plane's grammar: every clause needs a run target, and
#: ``first=`` and ``at=`` are engine-only.
GRAMMAR = faultplan.Grammar(
    ENV_VAR, KINDS,
    {"secs": ("secs", faultplan.seconds),
     "first": ("first", faultplan.non_negative_int),
     "at": ("at", int)},
    FaultSpecError, target_required=True)


def parse(spec: str) -> List[FaultClause]:
    """Parse a fault spec string into clauses (raises FaultSpecError)."""
    clauses = []
    for clause, kind, target, params in GRAMMAR.parse(spec):
        action = FaultAction(kind=kind, **params)
        if kind == "kill" and action.at < 0:
            raise GRAMMAR.fail(clause, "kill requires at=<access index>")
        clauses.append(FaultClause(action=action, **target))
    return clauses


@dataclass(frozen=True)
class FaultPlan:
    """A resolved schedule: run index -> the actions targeting it."""

    actions: Dict[int, Tuple[FaultAction, ...]] = field(default_factory=dict)

    def for_run(self, index: int) -> Tuple[FaultAction, ...]:
        return self.actions.get(index, ())

    def checkpoint_actions(self, index: int) -> Tuple[FaultAction, ...]:
        """Actions injected inside the run (everything but ``corrupt``)."""
        return tuple(a for a in self.for_run(index) if a.kind != "corrupt")

    def post_store_actions(self, index: int) -> Tuple[FaultAction, ...]:
        """Actions applied after the run's cache entry is written."""
        return tuple(a for a in self.for_run(index) if a.kind == "corrupt")


def resolve(spec: str, n_runs: int) -> FaultPlan:
    """Resolve a spec against a batch of *n_runs* scheduled runs."""
    actions: Dict[int, List[FaultAction]] = {}
    for clause in parse(spec):
        for index in clause.resolve(n_runs):
            actions.setdefault(index, []).append(clause.action)
    return FaultPlan({i: tuple(a) for i, a in actions.items()})


def plan_from_env(n_runs: int) -> Optional[FaultPlan]:
    """The plan armed via ``REPRO_FAULTS``, or None when unset/empty."""
    spec = os.environ.get(ENV_VAR, "").strip()
    return resolve(spec, n_runs) if spec else None


# ----------------------------------------------------------------------
# Injection points
# ----------------------------------------------------------------------

#: True only in a supervised pool worker (set by the pool initializer,
#: NOT inherited through the environment) so ``crash`` hard-kills a real
#: worker but raises in-process during serial execution.
_IN_POOL_WORKER = False

#: The actions armed for the currently executing run attempt.
_ARMED: Tuple[FaultAction, ...] = ()
_ATTEMPT = 0


def mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def arm(actions: Iterable[FaultAction], attempt: int) -> None:
    """Arm *actions* for the run attempt about to execute."""
    global _ARMED, _ATTEMPT
    _ARMED = tuple(actions)
    _ATTEMPT = attempt


def disarm() -> None:
    global _ARMED, _ATTEMPT
    _ARMED = ()
    _ATTEMPT = 0


def checkpoint(site: str = "run") -> None:
    """Fire any armed in-run faults; a no-op when nothing is armed.

    Called by ``simulate_workload`` at the start of every run so injected
    faults surface inside the real execution stack.
    """
    if not _ARMED:
        return
    for action in _ARMED:
        if not action.fires(_ATTEMPT):
            continue
        if action.kind == "hang":
            time.sleep(action.secs)
        elif action.kind == "crash":
            if _IN_POOL_WORKER:
                os._exit(137)
            raise InjectedCrash(
                f"injected worker crash at {site} checkpoint")
        elif action.kind == "error":
            raise InjectedError(
                f"injected transient error at {site} checkpoint")
        elif action.kind == "truncate":
            raise TraceFormatError(
                "<injected>", "injected trace truncation", line=1)


def kill_armed() -> bool:
    """True when a ``kill`` action could fire for the current attempt
    (so the run loop knows to call :func:`access_checkpoint`)."""
    return any(a.kind == "kill" and a.fires(_ATTEMPT) for a in _ARMED)


def access_checkpoint(index: int) -> None:
    """Fire armed ``kill`` faults once access *index* has completed.

    Called by the simulation run loop after every access when a kill is
    armed.  In a pool worker the process dies with ``os._exit(137)``
    (a real SIGKILL-style death: no cleanup, no snapshot flush beyond
    what is already on disk); serially an :class:`InjectedCrash` is
    raised, which the supervisor treats as transient and retries.
    """
    for action in _ARMED:
        if action.kind != "kill" or not action.fires(_ATTEMPT):
            continue
        if index == action.at:
            if _IN_POOL_WORKER:
                os._exit(137)
            raise InjectedCrash(
                f"injected mid-run kill after access {index}")


def corrupt_file(path) -> bool:
    """Garble an on-disk cache entry in place (``corrupt`` faults).

    Rewrites the file as its first half plus a marker that is not valid
    JSON, modelling a torn write.  Returns False if the file is absent.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return False
    path.write_bytes(data[:len(data) // 2] + b"\x00#CORRUPTED#")
    return True
