"""Persistent on-disk result cache, and the durable-file core under it.

The figure benchmarks regenerate overlapping (workload, prefetcher,
variant, config) runs across *pytest sessions*, not just within one; the
in-process memo in ``repro.sim.runner`` cannot help there.  This module
stores finished ``RunMetrics`` on disk, content-addressed by the complete
run fingerprint, so a warm re-run of any figure driver is served from disk
instead of re-simulating.

Layout (under ``REPRO_CACHE_DIR`` or ``~/.cache/repro``)::

    objects/<2-hex fan-out>/<sha256 of salted key>.json

Each entry is a standalone JSON document carrying the serialization
``version``, the code-version ``salt`` and the full ``key`` repr (for
auditability) plus the ``metrics`` payload.  Guarantees:

- **Atomic writes**: entries are published with
  ``iofaults.publish_bytes`` (temp file, fsync, ``os.replace``), so
  concurrent writers can never expose a torn entry.
- **Corruption tolerance**: any unreadable/undecodable/mis-shaped entry is
  treated as a miss and quarantined to ``<cache>/quarantine/`` (never an
  exception, never a silent delete) so torn writes remain auditable;
  ``verify`` scans the whole cache and ``verify(prune=True)`` quarantines
  corrupt and version-stale entries in bulk (``repro cache verify``).
- **Versioned invalidation**: the key is salted with ``CACHE_VERSION`` and
  ``CODE_VERSION``; bumping either orphans every old entry.

The durable-file core every layer shares lives here too: the mtime-age
helper (:func:`age_s`), the content-addressed :class:`ObjectStore` (the
run cache and the snapshot store are two instances), and the one
classify-and-repair loop (:func:`scan`) that ``repro cache verify`` and
every file layer of ``repro doctor`` run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple

from repro.prefetch.base import BoundaryStats
from repro.sim import iofaults
from repro.sim.metrics import RunMetrics

#: Serialization format version: bump when the on-disk payload shape or the
#: fields of ``RunMetrics``/``BoundaryStats`` change incompatibly.
CACHE_VERSION = 1

#: Code-version salt: bump whenever simulation *semantics* change so that
#: results produced by older code can never be returned for new runs.
CODE_VERSION = "2026-08-05.3"

#: A writer temp file older than this is an orphan from a crashed
#: publish, not a live one, and is safe to sweep.
TMP_ORPHAN_AGE_S = 60.0


def cache_enabled() -> bool:
    """Disk cache on/off switch (``REPRO_DISK_CACHE=0`` disables)."""
    return os.environ.get("REPRO_DISK_CACHE", "1").lower() not in (
        "0", "off", "no", "false")


def cache_dir() -> Path:
    """Cache root: ``REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


def _salt() -> str:
    return f"{CACHE_VERSION}:{CODE_VERSION}"


# ----------------------------------------------------------------------
# The durable-file core
# ----------------------------------------------------------------------

def age_s(path: Path) -> float:
    """Seconds since *path* was last written (never negative).

    Raises ``OSError`` when the file is gone.  Lease, member-record and
    temp-file staleness are all judged by this one clock.
    """
    return max(0.0, time.time() - path.stat().st_mtime)


def aged(paths: Iterable[Path], min_age_s: float) -> List[Path]:
    """The *paths* at least *min_age_s* old, in order (a younger writer
    temp file may belong to a live publish, so it is no leak)."""
    old = []
    for path in paths:
        try:
            if age_s(path) >= min_age_s:
                old.append(path)
        except OSError:
            continue
    return old


@dataclass(frozen=True, eq=False)
class ObjectStore:
    """A content-addressed directory of durable files.

    Layout under ``root()``: ``objects/<2-hex fan-out>/<rest of the
    digest><suffix>`` holds the entries and ``quarantine/`` holds bad
    ones moved aside.  A key is addressed by the sha256 of
    ``repr((salt(), key))``, so a salt bump orphans every old entry.
    """

    layer: str                  # REPRO_IO_FAULTS site prefix of publishes
    root: Callable[[], Path]
    suffix: str
    salt: Callable[[], str]
    counters: Optional[dict] = None     # its "quarantined" count is kept

    def objects(self) -> Path:
        return self.root() / "objects"

    def quarantine_dir(self) -> Path:
        """Where unreadable/stale entries are moved instead of deleted."""
        return self.root() / "quarantine"

    def digest(self, key: tuple) -> str:
        """Content address of one key, salted by the store's version."""
        return hashlib.sha256(repr((self.salt(), key)).encode()).hexdigest()

    def path(self, key: tuple) -> Path:
        digest = self.digest(key)
        return self.objects() / digest[:2] / f"{digest[2:]}{self.suffix}"

    def publish(self, key: tuple, data: bytes) -> bool:
        """Crash-consistently write *key*'s entry; False when the
        directory is unwritable (the caller carries on without it)."""
        try:
            iofaults.publish_bytes(self.layer, self.path(key), data)
        except OSError:
            return False
        return True

    def quarantine(self, path: Path) -> Optional[Path]:
        """Move a bad entry into the quarantine directory.

        Never overwrites earlier evidence (pid-and-serial suffixes are
        probed until a name is free).  Falls back to unlinking when the
        move itself fails (e.g. read-only quarantine dir), so a bad
        entry can never keep poisoning readers.  Returns the
        quarantined path, or None when the entry was unlinked.
        """
        held = self.quarantine_dir()
        try:
            held.mkdir(parents=True, exist_ok=True)
            dest = held / path.name
            serial = 0
            while dest.exists():
                serial += 1
                dest = held / (f"{path.stem}.{os.getpid()}.{serial}"
                               f"{path.suffix}")
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                return None
            dest = None
        if self.counters is not None:
            self.counters["quarantined"] += 1
        return dest

    def entries(self) -> List[Path]:
        return sorted(self.objects().glob(f"*/*{self.suffix}"))

    def tmp_orphans(self, min_age_s: float) -> List[Path]:
        """Temp files leaked by crashed publishes, in path order."""
        return aged(sorted(self.objects().glob("*/*.tmp")), min_age_s)

    def held(self) -> int:
        """Number of files held in the quarantine directory."""
        held = self.quarantine_dir()
        if not held.is_dir():
            return 0
        return sum(1 for path in held.iterdir() if path.is_file())

    def totals(self) -> Tuple[int, int]:
        """(entries, total bytes) of every readable entry."""
        entries = total_bytes = 0
        for path in self.entries():
            try:
                total_bytes += path.stat().st_size
                entries += 1
            except OSError:
                continue
        return entries, total_bytes

    def listing(self, describe: Callable[[Path, int], object]) -> list:
        """``describe(path, size)`` of every entry, newest first;
        entries it cannot read are skipped."""
        stamped = []
        for path in self.entries():
            try:
                stat_result = path.stat()
                stamped.append((stat_result.st_mtime,
                                describe(path, stat_result.st_size)))
            except (OSError, ValueError, TypeError, AttributeError):
                continue
        stamped.sort(key=lambda pair: pair[0], reverse=True)
        return [entry for _, entry in stamped]

    def sweep(self, paths: Iterable[Path]) -> int:
        """Unlink *paths*, then drop emptied fan-out directories;
        returns the number unlinked."""
        removed = 0
        for path in paths:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue
        for sub in self.objects().glob("*"):
            try:
                sub.rmdir()
            except OSError:
                continue
        return removed


@dataclass
class Finding:
    """One problem a durable-layer scan surfaced (and possibly repaired)."""

    layer: str          # cache | snapshot | store | lease | member
    kind: str           # corrupt | stale | tmp-orphan | divergence | ...
    path: str
    detail: str = ""
    repaired: bool = False
    action: str = ""    # what the repair did (or would do)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        state = f"repaired: {self.action}" if self.repaired else (
            f"repair: {self.action}" if self.action else "no repair")
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{self.layer}/{self.kind}] {self.path}{detail} — {state}"


@dataclass(frozen=True)
class Layer:
    """One durable file layer as :func:`scan` sees it.

    ``classify(path)`` returns ``(kind, detail)``, kind ``ok`` meaning
    nothing to do.  Findings of the kinds in ``quarantine`` move into
    ``store``'s quarantine (they are evidence); every other finding,
    and every writer temp file ``orphans(min_age_s)`` lists, is
    unlinked.
    """

    name: str
    records: Callable[[], List[Path]]
    classify: Callable[[Path], Tuple[str, str]]
    orphans: Callable[[float], List[Path]]
    store: Optional[ObjectStore] = None
    quarantine: Tuple[str, ...] = ()


def scan(layer: Layer, repair: bool,
         tmp_age_s: float = TMP_ORPHAN_AGE_S) -> Tuple[int, List[Finding]]:
    """Classify every record of *layer* and list its orphaned temp
    files; with *repair*, fix each finding.  Returns (records scanned,
    findings)."""
    records = layer.records()
    flagged = [(path, *layer.classify(path)) for path in records]
    flagged += [(path, "tmp-orphan", "leaked by a crashed writer")
                for path in layer.orphans(tmp_age_s)]
    findings = []
    for path, kind, detail in flagged:
        if kind == "ok":
            continue
        store = layer.store if kind in layer.quarantine else None
        finding = Finding(layer.name, kind, str(path), detail,
                          action="quarantine" if store else "unlink")
        findings.append(finding)
        if not repair:
            continue
        if store is not None:
            dest = store.quarantine(path)
            finding.repaired = True
            finding.action = (f"quarantined to {dest}" if dest
                              else "unlinked (quarantine failed)")
            continue
        try:
            path.unlink()
            finding.repaired = True
            finding.action = "unlinked"
        except OSError as exc:
            finding.detail = str(exc)
    return len(records), findings


#: The run cache's entries.
STORE = ObjectStore("cache", cache_dir, ".json", _salt)
key_digest = STORE.digest
entry_path = STORE.path
quarantine_dir = STORE.quarantine_dir


# ----------------------------------------------------------------------
# RunMetrics (de)serialization
# ----------------------------------------------------------------------

def metrics_to_dict(metrics: RunMetrics) -> dict:
    """Flatten a RunMetrics (including BoundaryStats) to JSON-safe types."""
    data = {f.name: getattr(metrics, f.name)
            for f in dataclasses.fields(metrics) if f.name != "boundary"}
    data["boundary"] = {slot: getattr(metrics.boundary, slot)
                        for slot in BoundaryStats.__slots__}
    return data


def metrics_from_dict(data: dict) -> RunMetrics:
    """Rebuild a RunMetrics; unknown keys are ignored, missing use defaults."""
    known = {f.name for f in dataclasses.fields(RunMetrics)}
    fields = {k: v for k, v in data.items()
              if k in known and k != "boundary"}
    metrics = RunMetrics(**fields)
    for slot, value in data.get("boundary", {}).items():
        if slot in BoundaryStats.__slots__:
            setattr(metrics.boundary, slot, value)
    return metrics


# ----------------------------------------------------------------------
# Load / store
# ----------------------------------------------------------------------

def store(key: tuple, metrics: RunMetrics) -> bool:
    """Atomically persist one finished run; returns False when disabled."""
    if not cache_enabled():
        return False
    payload = {
        "version": CACHE_VERSION,
        "salt": _salt(),
        "key": repr(key),
        "metrics": metrics_to_dict(metrics),
    }
    return STORE.publish(key, json.dumps(payload).encode())


def load_payload(key: tuple) -> Optional[dict]:
    """Fetch one run's *serialized* metrics dict exactly as stored.

    This is the serving layer's hot admission path: returning the raw
    on-disk dict (instead of a rebuilt ``RunMetrics``) makes a cache-hit
    response bitwise-identical to the JSON any other reader of the same
    entry would serialize, with no decode/re-encode in between.  Any
    corruption or version mismatch is a miss (corrupt entries are
    quarantined, exactly like :func:`load`).
    """
    if not cache_enabled():
        return None
    path = entry_path(key)
    try:
        payload = json.loads(iofaults.read_bytes("cache.read", path))
        if (payload.get("version") != CACHE_VERSION
                or payload.get("salt") != _salt()):
            return None
        metrics = payload["metrics"]
        if not isinstance(metrics, dict):
            raise TypeError("metrics payload is not a dict")
        return metrics
    except FileNotFoundError:
        return None
    except (OSError, ValueError, TypeError, KeyError):
        # Torn/garbled entry (e.g. crashed writer on a non-atomic
        # filesystem): quarantine it so the slot heals on the next
        # store while the bad bytes stay auditable.
        STORE.quarantine(path)
        return None


def load(key: tuple) -> Optional[RunMetrics]:
    """Fetch one run from disk; any corruption or mismatch is a miss."""
    payload = load_payload(key)
    if payload is None:
        return None
    try:
        return metrics_from_dict(payload)
    except (ValueError, TypeError, KeyError):
        STORE.quarantine(entry_path(key))
        return None


# ----------------------------------------------------------------------
# Maintenance (powers the `repro cache` CLI subcommand)
# ----------------------------------------------------------------------

@dataclass
class CacheStats:
    """Summary of the on-disk cache state."""

    directory: Path
    entries: int = 0
    total_bytes: int = 0

    def describe(self) -> str:
        size_kb = self.total_bytes / 1024
        state = "enabled" if cache_enabled() else "disabled (REPRO_DISK_CACHE)"
        return (f"cache dir : {self.directory}\n"
                f"state     : {state}\n"
                f"entries   : {self.entries}\n"
                f"size      : {size_kb:.1f} KiB\n"
                f"version   : {_salt()}")


@dataclass
class CacheEntry:
    """Metadata of one persisted run (for ``repro cache list``)."""

    path: Path
    size_bytes: int = 0
    workload: str = "?"
    prefetcher: str = "?"
    variant: str = "?"
    current: bool = False   # entry salt matches the running code version

    def to_dict(self) -> dict:
        """JSON-safe row for ``repro cache list --json`` consumers."""
        return {"path": str(self.path), "size_bytes": self.size_bytes,
                "workload": self.workload, "prefetcher": self.prefetcher,
                "variant": self.variant, "current": self.current}


def list_entries() -> "list[CacheEntry]":
    """Enumerate every readable cache entry, newest first.

    Corrupt entries are skipped (``load`` heals them lazily); entries
    written by older code versions are listed with ``current=False`` so
    stale bulk can be spotted before a ``clear``.
    """
    def describe(path: Path, size: int) -> CacheEntry:
        payload = json.loads(path.read_text())
        metrics = payload.get("metrics", {})
        return CacheEntry(
            path=path, size_bytes=size,
            workload=str(metrics.get("workload", "?")),
            prefetcher=str(metrics.get("prefetcher", "?")),
            variant=str(metrics.get("variant", "?")),
            current=payload.get("salt") == _salt())
    return STORE.listing(describe)


def stats() -> CacheStats:
    return CacheStats(cache_dir(), *STORE.totals())


def classify(path: Path) -> str:
    """Classify one entry: ``ok`` | ``stale`` (old version) | ``corrupt``."""
    try:
        payload = json.loads(path.read_text())
        if (payload.get("version") != CACHE_VERSION
                or payload.get("salt") != _salt()):
            return "stale"
        metrics_from_dict(payload["metrics"])
        return "ok"
    except (OSError, ValueError, TypeError, KeyError, AttributeError):
        return "corrupt"


#: The cache as ``verify`` and the doctor scan it: corrupt and stale
#: entries are quarantined.
LAYER = Layer("cache", STORE.entries, lambda path: (classify(path), ""),
              STORE.tmp_orphans, STORE, ("corrupt", "stale"))


@dataclass
class CacheVerifyReport:
    """Result of a full cache scan (``repro cache verify``)."""

    directory: Path
    scanned: int = 0
    ok: int = 0
    corrupt: int = 0
    stale: int = 0
    tmp_orphans: int = 0        # leaked writer temp files (crashed stores)
    tmp_removed: int = 0        # ... removed by --prune
    quarantine_entries: int = 0  # files sitting in <cache>/quarantine
    #: entries --prune moved out of objects/ (into the quarantine)
    quarantined: "list[Path]" = dataclasses.field(default_factory=list)

    @property
    def findings(self) -> int:
        """Problems a --prune pass would act on."""
        return self.corrupt + self.stale + self.tmp_orphans

    def describe(self) -> str:
        lines = [f"cache dir : {self.directory}",
                 f"scanned   : {self.scanned}",
                 f"ok        : {self.ok}",
                 f"corrupt   : {self.corrupt}",
                 f"stale     : {self.stale}",
                 f"tmp files : {self.tmp_orphans} orphaned"
                 + (f" ({self.tmp_removed} removed)"
                    if self.tmp_removed else ""),
                 f"quarantine: {self.quarantine_entries} entries"]
        if self.quarantined:
            lines.append(f"quarantined {len(self.quarantined)} entries "
                         f"to {quarantine_dir()}")
        elif self.corrupt or self.stale or self.tmp_orphans:
            lines.append("re-run with --prune to clean them up")
        return "\n".join(lines)


def verify(prune: bool = False,
           tmp_age_s: float = TMP_ORPHAN_AGE_S) -> CacheVerifyReport:
    """Scan every cache entry, classifying it as ok/stale/corrupt.

    Also reports orphaned writer temp files (leaked by crashed stores)
    and the size of the quarantine.  With ``prune=True``, corrupt and
    stale entries are moved to the quarantine directory (not deleted)
    so they stop serving lookups but remain available for inspection,
    and orphaned temp files — which never held publishable data — are
    unlinked outright.
    """
    report = CacheVerifyReport(directory=cache_dir(),
                               quarantine_entries=STORE.held())
    report.scanned, findings = scan(LAYER, prune, tmp_age_s)
    for finding in findings:
        if finding.kind == "tmp-orphan":
            report.tmp_orphans += 1
            report.tmp_removed += finding.repaired
            continue
        if finding.kind == "stale":
            report.stale += 1
        else:
            report.corrupt += 1
        if finding.repaired:
            report.quarantined.append(Path(finding.path))
    report.ok = report.scanned - report.corrupt - report.stale
    return report


def clear() -> int:
    """Delete every cache entry; returns the number removed."""
    return STORE.sweep(STORE.objects().glob("*/*"))
