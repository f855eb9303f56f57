"""Crash-consistent mid-run snapshots for individual simulations.

A long simulation that dies (crash, SIGKILL, timeout) loses all progress;
the supervisor restarts it from access zero.  This module lets a run
checkpoint its *complete* simulation state — caches with replacement and
MSHR state, prefetcher tables, PPM/set-dueling counters, TLBs, page table,
allocator, and the core's pipeline state — every ``REPRO_SNAPSHOT_EVERY``
accesses, so a retried attempt resumes mid-trace and finishes **bitwise
identical** to an uninterrupted run.

Layout (under ``REPRO_SNAPSHOT_DIR`` or ``<cache dir>/snapshots``)::

    objects/<2-hex fan-out>/<sha256 of salted run key>.snap

One file per run key, overwritten in place as the run advances.  The file
is a one-line JSON header (version, code-version salt, run key repr, the
access index the snapshot was taken after, body length and sha256) followed
by a pickled state payload.  Guarantees, mirroring ``repro.sim.cache``:

- **Atomic writes**: published with ``iofaults.publish_bytes`` (temp file
  in the same directory, fsync, ``os.replace``) — a crash mid-store can
  never expose a torn snapshot, only the previous intact one.
- **Corruption tolerance**: a snapshot failing any header, length or
  checksum validation is quarantined to ``<snapshot dir>/quarantine/``
  (never an exception, never a silent delete) and treated as absent — the
  run restarts from scratch.
- **Versioned invalidation**: the key digest and header are salted with
  ``CACHE_VERSION``/``CODE_VERSION``; snapshots from older code are never
  resumed.

Snapshots are *transient*: ``discard`` removes a run's snapshot once it
completes, and ``prune`` (``repro snapshot prune``) sweeps leftovers from
runs that never finished.  The store is a ``repro.sim.cache.ObjectStore``
instance, so paths, publish, quarantine and scans are the run cache's.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

from repro.sim import iofaults
from repro.sim.cache import CACHE_VERSION, CODE_VERSION, cache_dir
from repro.sim.cache import Layer, ObjectStore
from repro.sim.config import env_int

MAGIC = b"repro-snapshot\n"

#: Snapshot format version: bump when the header or payload shape changes.
SNAPSHOT_VERSION = 1

#: Module-level counters, for tests and diagnostics (per process).
COUNTERS = {"stores": 0, "loads": 0, "misses": 0, "quarantined": 0,
            "discards": 0}


def snapshot_every() -> int:
    """Checkpoint interval in accesses; 0 (the default) disables."""
    return env_int("REPRO_SNAPSHOT_EVERY", 0, minimum=0)


def snapshot_enabled() -> bool:
    return snapshot_every() > 0


def snapshot_dir() -> Path:
    """Snapshot root: ``REPRO_SNAPSHOT_DIR`` or ``<cache dir>/snapshots``."""
    override = os.environ.get("REPRO_SNAPSHOT_DIR")
    if override:
        return Path(override)
    return cache_dir() / "snapshots"


def _salt() -> str:
    return f"{CACHE_VERSION}:{CODE_VERSION}:{SNAPSHOT_VERSION}"


#: The snapshot files (``_salt`` late-bound: a replacement takes effect).
STORE = ObjectStore("snapshot", snapshot_dir, ".snap", lambda: _salt(),
                    counters=COUNTERS)
key_digest = STORE.digest
snapshot_path = STORE.path
quarantine_dir = STORE.quarantine_dir


# ----------------------------------------------------------------------
# Store / load / discard
# ----------------------------------------------------------------------

def store(key: tuple, access_index: int, state: dict) -> bool:
    """Atomically persist the state reached *after* ``access_index``.

    The body is flushed and fsynced before the rename: a crash at any
    instant leaves either the previous snapshot or this one, never a mix.
    Returns False when the snapshot directory is unwritable (the run
    simply continues unprotected).
    """
    body = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
    header = {
        "version": SNAPSHOT_VERSION,
        "salt": _salt(),
        "key": repr(key),
        "access_index": access_index,
        "length": len(body),
        "sha256": hashlib.sha256(body).hexdigest(),
    }
    data = MAGIC + json.dumps(header).encode() + b"\n" + body
    if not STORE.publish(key, data):
        return False
    COUNTERS["stores"] += 1
    return True


#: Upper bound on a snapshot header line (magic + JSON + newline);
#: keeps header probes one small read even through the fault shim.
_HEADER_READ_LIMIT = 1 << 16


def read_header(path: Path) -> Optional[dict]:
    """Parse and sanity-check a snapshot's header line (not the body).

    Goes through ``iofaults.read_bytes`` (site ``snapshot.read``) so a
    torn or partially-read header under ``REPRO_IO_FAULTS`` degrades to
    ``None`` — the progress path reports "no progress yet" instead of
    crashing or trusting doubtful bytes.
    """
    try:
        raw = iofaults.read_bytes("snapshot.read", path,
                                  limit=_HEADER_READ_LIMIT)
    except OSError:
        return None
    if not raw.startswith(MAGIC):
        return None
    newline = raw.find(b"\n", len(MAGIC))
    if newline < 0:
        return None
    try:
        header = json.loads(raw[len(MAGIC):newline].decode())
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(header, dict):
        return None
    return header


def _header_status(header: Optional[dict]) -> str:
    """``ok`` | ``stale`` (old version or salt) | ``corrupt``."""
    if header is None:
        return "corrupt"
    if (header.get("version") != SNAPSHOT_VERSION
            or header.get("salt") != _salt()):
        return "stale"
    if (not isinstance(header.get("access_index"), int)
            or not isinstance(header.get("length"), int)):
        return "corrupt"
    return "ok"


def _validate(path: Path) -> Tuple[str, Optional[dict], bytes]:
    """Check one snapshot file: (status, header, body).

    Status is ``ok`` only when the header is current and the body has
    the recorded length and sha256; the body is never unpickled here.
    """
    header = read_header(path)
    status = _header_status(header)
    if status != "ok":
        return status, header, b""
    try:
        raw = iofaults.read_bytes("snapshot.read", path)
        body = raw[raw.index(b"\n", len(MAGIC)) + 1:]
    except (OSError, ValueError):
        return "corrupt", header, b""
    if (len(body) != header["length"]
            or hashlib.sha256(body).hexdigest() != header.get("sha256")):
        return "corrupt", header, b""
    return "ok", header, body


def classify(path: Path) -> str:
    """Classify one snapshot: ``ok`` | ``stale`` | ``corrupt``."""
    return _validate(path)[0]


#: The snapshot store as the doctor scans it: a torn snapshot is
#: evidence (quarantined), a stale one merely unresumable (unlinked).
LAYER = Layer("snapshot", STORE.entries, lambda path: (classify(path), ""),
              STORE.tmp_orphans, STORE, ("corrupt",))


def peek(key: tuple) -> Optional[dict]:
    """Header-only progress probe for one run key (no body unpickle).

    Returns the snapshot's header dict (``access_index``, ``length``,
    ...) when a current-version snapshot exists, else ``None``.  This is
    the serving layer's progress path: it costs one small read, never
    deserializes simulator state, and never quarantines — a torn file
    simply reads as "no progress yet".
    """
    header = read_header(snapshot_path(key))
    return header if _header_status(header) == "ok" else None


def load(key: tuple) -> Optional[Tuple[int, dict]]:
    """Fetch the latest valid snapshot; return (access_index, state).

    Any failure — missing magic, wrong version/salt, short body, checksum
    mismatch, unpicklable payload — quarantines the file and reports a
    miss, so a resume can never start from doubtful state.
    """
    path = snapshot_path(key)
    if not path.exists():
        COUNTERS["misses"] += 1
        return None
    status, header, body = _validate(path)
    state = None
    if status == "ok":
        try:
            state = pickle.loads(body)
        except (ValueError, TypeError, KeyError, EOFError,
                pickle.UnpicklingError, AttributeError, ImportError,
                IndexError, MemoryError):
            pass
    if not isinstance(state, dict):
        STORE.quarantine(path)
        COUNTERS["misses"] += 1
        return None
    COUNTERS["loads"] += 1
    return header["access_index"], state


def discard(key: tuple) -> bool:
    """Remove a run's snapshot (called when the run completes)."""
    try:
        snapshot_path(key).unlink()
    except OSError:
        return False
    COUNTERS["discards"] += 1
    return True


# ----------------------------------------------------------------------
# Maintenance (powers the `repro snapshot` CLI subcommand)
# ----------------------------------------------------------------------

@dataclass
class SnapshotEntry:
    """Metadata of one on-disk snapshot (for ``repro snapshot list``)."""

    path: Path
    size_bytes: int = 0
    access_index: int = -1
    key: str = "?"
    current: bool = False   # snapshot salt matches the running code version


@dataclass
class SnapshotStats:
    """Summary of the snapshot directory state."""

    directory: Path
    entries: int = 0
    total_bytes: int = 0

    def describe(self) -> str:
        size_kb = self.total_bytes / 1024
        every = snapshot_every()
        state = (f"enabled (every {every} accesses)" if every
                 else "disabled (REPRO_SNAPSHOT_EVERY unset)")
        return (f"snapshot dir : {self.directory}\n"
                f"state        : {state}\n"
                f"snapshots    : {self.entries}\n"
                f"size         : {size_kb:.1f} KiB\n"
                f"version      : {_salt()}")


def list_entries() -> "list[SnapshotEntry]":
    """Enumerate every snapshot, newest first (unreadable headers are
    listed with placeholder fields)."""
    def describe(path: Path, size: int) -> SnapshotEntry:
        header = read_header(path) or {}
        return SnapshotEntry(
            path=path, size_bytes=size,
            access_index=header.get("access_index", -1),
            key=str(header.get("key", "?")),
            current=header.get("salt") == _salt())
    return STORE.listing(describe)


def stats() -> SnapshotStats:
    return SnapshotStats(snapshot_dir(), *STORE.totals())


def prune(all_entries: bool = False) -> int:
    """Remove leftover snapshots; returns the number removed.

    By default only snapshots the running code cannot resume are
    removed: stale ones (old salt) are unlinked, and torn ones are
    quarantined like the doctor does, never silently deleted.
    ``all_entries=True`` also unlinks every intact snapshot — safe
    because snapshots only ever save re-computable work.
    """
    doomed = []
    quarantined = 0
    for path in STORE.entries():
        status = classify(path)
        if status == "corrupt":
            STORE.quarantine(path)
            quarantined += 1
        elif status == "stale" or all_entries:
            doomed.append(path)
    return quarantined + STORE.sweep(doomed)


def reset_counters() -> None:
    """Zero the per-process counters (test isolation helper)."""
    for name in COUNTERS:
        COUNTERS[name] = 0
