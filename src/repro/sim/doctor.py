"""``repro doctor``: one scan-and-heal pass over the durable universe.

Every layer already *tolerates* damage locally — the cache quarantines
torn entries on read, snapshots refuse to resume from doubtful bytes,
the store never downgrades an ok row, stale leases get reclaimed — but
each of those heals lazily, on the next unlucky reader.  The doctor
makes healing eager and global: one command (or one daemon startup)
walks the whole durable state, reports every finding, and with
``repair=True`` fixes what has a safe fix:

====================  ==========================  ======================
layer                 finding                     repair
====================  ==========================  ======================
cache                 corrupt entry               quarantine
cache                 stale entry (old salt)      quarantine
cache                 orphaned writer ``*.tmp``   unlink
snapshot              corrupt/truncated file      quarantine
snapshot              stale file (old salt)       unlink (unresumable)
snapshot              orphaned writer ``*.tmp``   unlink
lease                 stale claim (> TTL)         unlink
lease                 takeover tombstone          unlink
member                unreadable cluster record   unlink (re-published
                                                  on next heartbeat)
member                stale cluster record        unlink
member                orphaned writer ``*.tmp``   unlink
store                 sqlite integrity failure    move DB aside (rebuilt
                                                  from cache by sync)
store                 rows missing vs. cache      ``sync_from_cache``
====================  ==========================  ======================

The four file layers are rows (``repro.sim.cache.Layer``) of one loop,
``repro.sim.cache.scan`` — the one ``repro cache verify`` runs — each
classified the way its own readers judge it: the snapshot validator of
``snapshot.load``, the cluster's member parser, and the workers' lease
age against ``REPRO_LEASE_TTL``.

Nothing is ever deleted that could hold evidence (corrupt bytes go to
quarantine; a broken database is renamed ``*.corrupt.<pid>``, not
dropped) and nothing is repaired that might belong to a live writer
(temp files younger than the orphan age, leases younger than the TTL).

The scan itself never injects faults: :func:`diagnose` runs with the
``REPRO_IO_FAULTS`` shim disarmed for the duration, so the doctor can
heal the damage an armed plan created without tripping over it.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

from repro.sim import cache as disk_cache
from repro.sim import iofaults
from repro.sim import snapshot as snapshot_store
from repro.sim.cache import Finding, Layer


@dataclass
class DoctorReport:
    """Structured outcome of one doctor pass (``repro doctor --json``)."""

    cache_dir: str = ""
    repair: bool = False
    scanned: dict = field(default_factory=dict)   # layer -> items seen
    findings: List[Finding] = field(default_factory=list)
    quarantine: dict = field(default_factory=dict)  # layer -> held files
    elapsed_s: float = 0.0

    @property
    def clean(self) -> bool:
        """No findings at all — the durable state needs nothing."""
        return not self.findings

    @property
    def healthy(self) -> bool:
        """Nothing left unrepaired (clean, or every finding was fixed)."""
        return all(f.repaired for f in self.findings)

    def count(self, layer: Optional[str] = None,
              kind: Optional[str] = None) -> int:
        return sum(1 for f in self.findings
                   if (layer is None or f.layer == layer)
                   and (kind is None or f.kind == kind))

    def to_dict(self) -> dict:
        return {
            "cache_dir": self.cache_dir,
            "repair": self.repair,
            "clean": self.clean,
            "healthy": self.healthy,
            "scanned": dict(self.scanned),
            "findings": [f.to_dict() for f in self.findings],
            "quarantine": dict(self.quarantine),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def summary(self) -> str:
        if self.clean:
            return (f"doctor: clean — "
                    f"{sum(self.scanned.values())} items scanned, "
                    f"0 findings")
        repaired = sum(1 for f in self.findings if f.repaired)
        state = ("healthy" if self.healthy
                 else f"{len(self.findings) - repaired} unrepaired")
        return (f"doctor: {len(self.findings)} findings "
                f"({repaired} repaired, {state}) across "
                f"{sum(self.scanned.values())} scanned items")

    def describe(self) -> str:
        lines = [f"cache dir : {self.cache_dir}",
                 f"mode      : {'repair' if self.repair else 'scan-only'}"]
        for layer in sorted(self.scanned):
            held = self.quarantine.get(layer)
            extra = f" | quarantine holds {held}" if held else ""
            lines.append(f"{layer:9s} : {self.scanned[layer]} scanned, "
                         f"{self.count(layer)} findings{extra}")
        for finding in self.findings:
            lines.append("  " + finding.describe())
        lines.append(self.summary())
        return "\n".join(lines)


def _scan_store(repair: bool) -> Tuple[int, List[Finding]]:
    """sqlite integrity + store-vs-cache divergence, per campaign;
    returns (items scanned, findings) like ``repro.sim.cache.scan``."""
    from repro.campaign.grid import Campaign, CampaignSpecError
    from repro.campaign.store import CampaignStore, store_path

    path = store_path()
    if not path.exists():
        return 0, []

    # Integrity first: a database sqlite itself cannot read is moved
    # aside (never deleted); the next healthy writer recreates the
    # schema and sync repopulates every row from the cache.
    try:
        conn = sqlite3.connect(str(path), timeout=30.0)
        try:
            row = conn.execute("PRAGMA quick_check").fetchone()
        finally:
            conn.close()
        intact = row is not None and row[0] == "ok"
        detail = "" if intact else f"quick_check: {row[0] if row else '?'}"
    except sqlite3.Error as exc:
        intact = False
        detail = f"unreadable: {exc}"
    if not intact:
        finding = Finding(
            layer="store", kind="corrupt", path=str(path), detail=detail,
            action="move aside; rebuilt from cache on next sync")
        if repair:
            aside = path.with_name(f"{path.name}.corrupt.{os.getpid()}")
            try:
                os.replace(path, aside)
                for suffix in ("-wal", "-shm"):
                    try:
                        os.unlink(str(path) + suffix)
                    except OSError:
                        pass
                finding.repaired = True
                finding.action = f"moved aside to {aside}"
            except OSError as exc:
                finding.detail = f"{detail}; move failed: {exc}"
        return 1, [finding]

    # Divergence: any registered campaign whose cache-resident results
    # are not reflected in the store (the store is an index over the
    # content-addressed cache; missing rows are pure repair targets).
    scanned, findings = 1, []
    try:
        with CampaignStore(path) as store:
            for meta in store.campaigns():
                scanned += 1
                spec_row = store._conn.execute(
                    "SELECT spec_json FROM campaigns "
                    "WHERE campaign_id = ?",
                    (meta["campaign_id"],)).fetchone()
                if spec_row is None:
                    continue
                try:
                    campaign = Campaign.from_dict(
                        json.loads(spec_row[0]))
                except (CampaignSpecError, ValueError, TypeError, KeyError):
                    findings.append(Finding(
                        layer="store", kind="bad-spec",
                        path=str(path),
                        detail=f"campaign {meta['campaign_id']}: "
                               f"unparseable spec_json",
                        action="no safe repair (rows kept)"))
                    continue
                # ``classify`` only reads: a scan without --repair must
                # not quarantine a torn entry the way ``load`` does.
                divergent = [
                    cell for cell in store.missing(campaign)
                    if disk_cache.cache_enabled() and disk_cache.classify(
                        disk_cache.entry_path(cell.key)) == "ok"]
                if not divergent:
                    continue
                finding = Finding(
                    layer="store", kind="divergence", path=str(path),
                    detail=(f"campaign {campaign.name}: "
                            f"{len(divergent)} cache-resident cells "
                            f"missing from the store"),
                    action="sync_from_cache")
                if repair:
                    ingested = store.sync_from_cache(campaign)
                    finding.repaired = True
                    finding.action = (f"sync_from_cache ingested "
                                      f"{ingested} rows")
                findings.append(finding)
    except (sqlite3.Error, OSError) as exc:
        findings.append(Finding(
            layer="store", kind="scan-error", path=str(path),
            detail=str(exc), action="no repair"))
    return scanned, findings


def _lease_layer(ttl_s: float) -> Layer:
    """Claim leases under ``<cache>/campaigns/*/leases``, plus the
    takeover tombstones a crashed reclaimer left behind."""
    from repro.campaign.worker import lease_age_s

    root = disk_cache.cache_dir() / "campaigns"

    def classify(path: Path) -> Tuple[str, str]:
        if ".stale." in path.name:
            return "tombstone", "leftover takeover marker"
        age = lease_age_s(path)
        if age is None or age <= ttl_s:     # None: released mid-scan
            return "ok", ""
        return "stale", f"age {age:.0f}s > ttl {ttl_s:.0f}s"

    return Layer("lease", lambda: (sorted(root.glob("*/leases/*.lease"))
                                   + sorted(root.glob("*/leases/*.stale.*"))),
                 classify, lambda min_age_s: [])


def _member_layer() -> Layer:
    """Cluster membership records in ``<cache>/cluster/members``.

    A record a replica stopped renewing (SIGKILL, wedge) or tore
    mid-publish is pure liveness metadata: unlinking is always safe
    because a live daemon re-publishes on its next heartbeat.
    """
    from repro.serve import cluster

    root = cluster.members_dir()
    ttl_s = cluster.member_ttl()

    def classify(path: Path) -> Tuple[str, str]:
        try:
            record = cluster._load_record(path, ttl_s)
        except OSError:
            return "ok", ""                 # vanished: clean shutdown
        except (ValueError, KeyError, TypeError) as exc:
            return "corrupt", f"unparseable member record: {exc}"
        if record.stale:
            return "stale", f"age {record.age_s:.0f}s > ttl {ttl_s:.0f}s"
        return "ok", ""

    return Layer("member", lambda: sorted(root.glob("*.json")), classify,
                 lambda min_age_s: disk_cache.aged(
                     sorted(root.glob("*.tmp")), min_age_s))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def diagnose(repair: bool = False,
             lease_ttl_s: Optional[float] = None,
             tmp_age_s: float = disk_cache.TMP_ORPHAN_AGE_S
             ) -> DoctorReport:
    """Scan (and with ``repair=True`` heal) the whole durable state.

    Covers the run cache, the snapshot store, claim leases, cluster
    membership records and the campaign sqlite store (integrity +
    divergence from the cache).  Leases older than *lease_ttl_s*
    (default: ``campaign.worker.lease_ttl()``, i.e. ``REPRO_LEASE_TTL``
    or 300 s — the horizon the workers themselves reclaim at) are stale.
    The IO fault shim is disarmed for the duration so an armed
    ``REPRO_IO_FAULTS`` plan cannot sabotage its own cleanup; the
    previous arming (including lazy re-arming from the environment) is
    restored afterwards.
    """
    from repro.campaign.worker import lease_ttl

    begin = time.perf_counter()
    report = DoctorReport(cache_dir=str(disk_cache.cache_dir()),
                          repair=repair)
    layers = (disk_cache.LAYER, snapshot_store.LAYER,
              _lease_layer(lease_ttl(lease_ttl_s)), _member_layer())
    with iofaults.PLANE.suspended():
        for layer in layers:
            report.scanned[layer.name], findings = disk_cache.scan(
                layer, repair, tmp_age_s)
            report.findings += findings
            if layer.store is not None:
                report.quarantine[layer.name] = layer.store.held()
        report.scanned["store"], findings = _scan_store(repair)
        report.findings += findings
    report.elapsed_s = time.perf_counter() - begin
    return report
