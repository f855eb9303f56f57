"""In-memory span recorder for traced benchmark runs.

A span is one call into a layer: name, start, end, the span that was
open when it began (its parent, per thread) and the request id of the
operation it served.  Spans stay in memory and are written as JSON when
the run ends.  A span's *self time* is its duration minus the part of
its interval covered by its child spans.

Spans are recorded from outside the program: :meth:`SpanRecorder.wrap`
replaces a public function or method with a timing wrapper and
:meth:`SpanRecorder.restore` puts the original back.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    request_id: Optional[str]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects spans from any thread; each thread has its own stack."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self) -> Optional[str]:
        return getattr(self._local, "request_id", None)

    @contextlib.contextmanager
    def request(self, request_id: str):
        """Tag every span opened in this thread with *request_id*."""
        previous = self.request_id
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    @contextlib.contextmanager
    def span(self, name: str):
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       self.request_id))

    def patch(self, owner, attr: str, make: Callable) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until
        :meth:`restore`; static and class methods keep their kind."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        kind = type(original) if isinstance(
            original, (staticmethod, classmethod)) else None
        target = original.__func__ if kind else original
        replacement = functools.wraps(target)(make(target))
        setattr(owner, attr, kind(replacement) if kind else replacement)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called *name*."""
        def make(target):
            def timed(*args, **kwargs):
                with self.span(name):
                    return target(*args, **kwargs)
            return timed
        self.patch(owner, attr, make)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, last first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_json(self, path: Path, extra: Optional[dict] = None) -> None:
        selfs = self_times(self.spans)
        rows = [dict(asdict(s), self_ns=selfs[s.span_id])
                for s in sorted(self.spans, key=lambda s: s.start_ns)]
        payload = dict(extra or {}, spans=rows)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")


def _covered_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of half-open ``[start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """span_id -> duration minus the time its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    out = {}
    for span in spans:
        covered = [(max(s, span.start_ns), min(e, span.end_ns))
                   for s, e in children.get(span.span_id, ())]
        covered = [(s, e) for s, e in covered if e > s]
        out[span.span_id] = span.duration_ns - _covered_ns(covered)
    return out


def by_name(spans: Iterable[Span],
            request_prefix: Optional[str] = None
            ) -> Dict[str, List[Span]]:
    """Group spans by name, optionally only those whose request id
    starts with *request_prefix*."""
    groups: Dict[str, List[Span]] = {}
    for span in spans:
        if request_prefix is not None and not (
                span.request_id or "").startswith(request_prefix):
            continue
        groups.setdefault(span.name, []).append(span)
    return groups
