"""Pinned behaviour of the durable layers on one universe damaged in
every layer the doctor scans.

The run cache, the snapshot store, the campaign store, the claim leases
and the cluster member records all share one publish, quarantine and
scan core.  The values in ``PINNED`` were recorded from the earlier
implementation, which kept a copy of that code per layer, and are never
regenerated: the shared core must report the same findings, take the
same repairs, count the same scanned items and write the same bytes to
the same paths.

The three behaviour fixes that came with the shared core change nothing
in this universe, so no pinned value differs:

- the doctor's lease TTL now follows ``REPRO_LEASE_TTL``; it is unset
  here, so the TTL is 300 s either way (``test_doctor.py`` pins the
  difference under ``REPRO_LEASE_TTL=3600``);
- the doctor parses member records with the cluster's own parser; every
  record here parses under both (``test_cluster.py`` pins a record with
  no ``member_id`` and one with a non-int ``pid``);
- ``snapshot.prune`` quarantines torn snapshots instead of unlinking
  them; the doctor never calls it (``test_snapshot.py`` pins it).
"""

import hashlib
import json
import os
import time

import pytest

from repro.campaign.store import CampaignStore
from repro.serve import cluster
from repro.sim import cache, doctor, iofaults, runner
from repro.sim import snapshot as snapshot_store

from test_campaign_worker import tiny_campaign
from test_disk_cache import sample_metrics

#: The fixed keys whose paths and stored bytes are pinned.
CACHE_KEY = ("run", ("lbm", "spp", "psa", 4000))
SNAPSHOT_KEY = ("run", ("mcf", "spp", "psa-sd", 4000))
SNAPSHOT_STATE = {"core": {"fetch": 17}, "hierarchy": {"l2c": [1, 2, 3]}}

PINNED = {
    "verify_before": {
        "scanned": 5, "ok": 3, "corrupt": 1, "stale": 1,
        "tmp_orphans": 1, "tmp_removed": 0, "quarantine_entries": 0},
    "scan": {
        "scanned": {"cache": 5, "snapshot": 3, "store": 2, "lease": 3,
                    "member": 2},
        "findings": [
            ["cache", "corrupt", "quarantine", False],
            ["cache", "stale", "quarantine", False],
            ["cache", "tmp-orphan", "unlink", False],
            ["lease", "stale", "unlink", False],
            ["lease", "tombstone", "unlink", False],
            ["member", "stale", "unlink", False],
            ["member", "tmp-orphan", "unlink", False],
            ["snapshot", "corrupt", "quarantine", False],
            ["snapshot", "stale", "unlink", False],
            ["snapshot", "tmp-orphan", "unlink", False],
            ["store", "divergence", "sync_from_cache", False],
        ],
        "quarantine": {"cache": 0, "snapshot": 0},
    },
    "repair": {
        "scanned": {"cache": 5, "snapshot": 3, "store": 2, "lease": 3,
                    "member": 2},
        "findings": [
            ["cache", "corrupt",
             "quarantined to <root>/quarantine/8001e9a468d5d71dd105c0b6741"
             "06521056c9e4d057dfe13c6d4d4292e227b.json", True],
            ["cache", "stale",
             "quarantined to <root>/quarantine/c858ac50efabb4d85302950598"
             "576c3eb7b3e7a190333fc282b06549129b27.json", True],
            ["cache", "tmp-orphan", "unlinked", True],
            ["lease", "stale", "unlinked", True],
            ["lease", "tombstone", "unlinked", True],
            ["member", "stale", "unlinked", True],
            ["member", "tmp-orphan", "unlinked", True],
            ["snapshot", "corrupt",
             "quarantined to <root>/snapshots/quarantine/61579bdaf63abca21e"
             "23a3626f7849fa5d7a948084ac501e60c55ddd4dff0d.snap", True],
            ["snapshot", "stale", "unlinked", True],
            ["snapshot", "tmp-orphan", "unlinked", True],
            ["store", "divergence", "sync_from_cache ingested 2 rows", True],
        ],
        "quarantine": {"cache": 2, "snapshot": 1},
    },
    "verify_after": {
        "scanned": 3, "ok": 3, "corrupt": 0, "stale": 0,
        "tmp_orphans": 0, "tmp_removed": 0, "quarantine_entries": 2},
    "rescan_clean": True,
    "cache_path": "objects/70/505ae63a44712f86fd1afcc7a71507e875c50f20eb9ad"
                  "83ac31c657c1be9e1.json",
    "cache_sha256": "412f897824ecf46b26db64bf700a5f52ae9e68b3cef06f0ab0b00b7"
                    "0d84eb73c",
    "snapshot_path": "snapshots/objects/45/91ac7d19d3cdb4289b7ced00c3438b5b6"
                     "c291fe3bb051e5fe424b5e98dcd23.snap",
    "snapshot_sha256": "c093a067e0fb4011b16f275b5d67f7c46e4b3a5bd02e655d99b"
                       "ee772d3750007",
}


@pytest.fixture(autouse=True)
def universe_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    for var in ("REPRO_SNAPSHOT_DIR", "REPRO_CAMPAIGN_DB",
                "REPRO_IO_FAULTS", "REPRO_LEASE_TTL", "REPRO_MEMBER_TTL"):
        monkeypatch.delenv(var, raising=False)
    runner.clear_cache()
    iofaults.disarm()
    yield tmp_path
    iofaults.disarm()
    runner.clear_cache()


def _age(path, seconds=1000):
    old = time.time() - seconds
    os.utime(path, (old, old))


def damage_universe(root):
    """One universe with every damage kind the doctor knows."""
    # cache: one good entry, one corrupt, one stale, an aged temp file
    cache.store(("run", "good"), sample_metrics())
    cache.store(("run", "bad"), sample_metrics())
    cache.entry_path(("run", "bad")).write_text("{ torn!")
    cache.store(("run", "old"), sample_metrics())
    stale = cache.entry_path(("run", "old"))
    payload = json.loads(stale.read_text())
    payload["salt"] = "0:ancient"
    stale.write_text(json.dumps(payload))
    orphan = cache.entry_path(("run", "good")).parent / "leak.tmp"
    orphan.write_text("half a wri")
    _age(orphan)

    # snapshot: one good, one torn, one stale, an aged temp file
    snapshot_store.store(("snap", "good"), 5, {"c": 1})
    snapshot_store.store(("snap", "torn"), 5, {"c": 1})
    torn = snapshot_store.snapshot_path(("snap", "torn"))
    torn.write_bytes(torn.read_bytes()[:-20])
    snapshot_store.store(("snap", "stale"), 5, {"c": 1})
    stale = snapshot_store.snapshot_path(("snap", "stale"))
    raw = stale.read_bytes()
    newline = raw.index(b"\n", len(snapshot_store.MAGIC))
    header = json.loads(raw[len(snapshot_store.MAGIC):newline])
    header["salt"] = "0:ancient:0"
    stale.write_bytes(snapshot_store.MAGIC + json.dumps(header).encode()
                      + b"\n" + raw[newline + 1:])
    orphan = torn.parent / "leak.tmp"
    orphan.write_bytes(b"xx")
    _age(orphan)

    # store: two cells of a registered campaign are cache-resident but
    # have no row (divergence)
    campaign = tiny_campaign(n_accesses=1430)
    with CampaignStore() as store:
        cells = store.register(campaign)
    for cell in cells[:2]:
        cache.store(cell.key, sample_metrics())

    # lease: a stale lease, a fresh one and a takeover tombstone
    leases = root / "campaigns" / "deadbeef" / "leases"
    leases.mkdir(parents=True)
    (leases / "cell0.lease").write_text("{}")
    _age(leases / "cell0.lease")
    (leases / "cell1.lease").write_text("{}")
    (leases / "cell2.lease.stale.w1.123").write_text("{}")

    # member: a live record, a stale one and an aged temp file
    cluster.register("127.0.0.1", 9001)
    dead = cluster.register("127.0.0.1", 9002)
    _age(dead.path)
    orphan = cluster.members_dir() / "leak.tmp"
    orphan.write_bytes(b"half a heartbeat")
    _age(orphan)


def _verify_counts(report):
    return {name: getattr(report, name) for name in (
        "scanned", "ok", "corrupt", "stale", "tmp_orphans", "tmp_removed",
        "quarantine_entries")}


def _doctor_view(report, root):
    return {
        "scanned": dict(report.scanned),
        "findings": sorted(
            [f.layer, f.kind, f.action.replace(str(root), "<root>"),
             f.repaired] for f in report.findings),
        "quarantine": dict(report.quarantine),
    }


def observe(root):
    """Everything ``PINNED`` records, measured on a fresh universe."""
    damage_universe(root)
    observed = {"verify_before": _verify_counts(cache.verify()),
                "scan": _doctor_view(doctor.diagnose(), root),
                "repair": _doctor_view(doctor.diagnose(repair=True), root),
                "verify_after": _verify_counts(cache.verify()),
                "rescan_clean": doctor.diagnose().clean}
    cache.store(CACHE_KEY, sample_metrics())
    snapshot_store.store(SNAPSHOT_KEY, 4095, SNAPSHOT_STATE)
    for name, path in (("cache", cache.entry_path(CACHE_KEY)),
                       ("snapshot",
                        snapshot_store.snapshot_path(SNAPSHOT_KEY))):
        observed[f"{name}_path"] = path.relative_to(root).as_posix()
        observed[f"{name}_sha256"] = hashlib.sha256(
            path.read_bytes()).hexdigest()
    return observed


def test_damaged_universe_matches_the_pins(universe_root):
    observed = json.loads(json.dumps(observe(universe_root)))
    assert observed == PINNED


#: ``cache.verify(prune=True)`` on a fresh copy of the same universe.
PINNED_PRUNE = {
    "counts": {"scanned": 5, "ok": 3, "corrupt": 1, "stale": 1,
               "tmp_orphans": 1, "tmp_removed": 1, "quarantine_entries": 0},
    "quarantined": 2,
    "quarantine_dir": [
        "8001e9a468d5d71dd105c0b674106521056c9e4d057dfe13c6d4d4292e227b.json",
        "c858ac50efabb4d85302950598576c3eb7b3e7a190333fc282b06549129b27.json",
    ],
}


def test_verify_prune_matches_the_pins(universe_root):
    damage_universe(universe_root)
    report = cache.verify(prune=True)
    observed = {"counts": _verify_counts(report),
                "quarantined": len(report.quarantined),
                "quarantine_dir": sorted(
                    path.name for path in cache.quarantine_dir().iterdir())}
    assert observed == PINNED_PRUNE
