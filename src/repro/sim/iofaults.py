"""Deterministic IO fault injection for the storage layer.

``repro.sim.faults`` proves the *engine* degrades instead of dying; this
module gives the same adversarial treatment to the durable state every
layer depends on — the content-addressed run cache, the snapshot store,
the campaign sqlite store, and the worker claim leases.  It is two
things at once:

1. **The filesystem shim.**  Every write/fsync/rename/read on those
   paths goes through the hooks below (:func:`write`, :func:`fsync`,
   :func:`replace`, :func:`read_bytes`, :func:`fsync_dir`,
   :func:`check`, and the composed :func:`publish_bytes`).  When no
   fault plan is armed each hook is a single ``None`` check in front of
   the real ``os`` call — the disabled overhead is bench-asserted ≤ 2%
   (``benchmarks/bench_iofaults.py``).
2. **The fault plan.**  ``REPRO_IO_FAULTS``, in the grammar of
   ``repro.sim.faultplan``, describes which storage *operations* fail
   and how, with kinds ``enospc``, ``torn``, ``eio``, ``fsync-lost``,
   ``partial-read`` and ``slow`` (stall ``secs=``).
   ``site=`` takes a layer or op prefix (``cache``, ``cache.write``,
   ``snapshot``, ``store``, ``lease``, ...).

**Sites** are dotted ``<layer>.<op>`` names; the op suffix decides which
kinds can fire there:

    ========== =====================================================
    op          kinds that apply
    ========== =====================================================
    write       enospc, torn, eio, slow
    fsync       fsync-lost, eio, slow
    rename      enospc, eio, slow
    dirsync     eio, slow
    read        partial-read, eio, slow
    open        enospc, eio, slow        (sqlite connect)
    commit      enospc, eio, slow        (sqlite transaction)
    ========== =====================================================

Error kinds raise :class:`InjectedIOError` (an ``OSError`` with a real
``errno``) so every caller's existing ``except OSError`` degradation
path is exercised; ``torn`` and ``fsync-lost`` instead *succeed* while
silently losing bytes — the published file is garbled exactly like a
torn write or a power loss after a lost fsync, and must be caught by
the reader-side validation (quarantine), never served.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path
from typing import List, Optional

from repro.sim import faultplan

ENV_VAR = "REPRO_IO_FAULTS"

#: Which fault kinds can fire at which op suffix (see module docstring).
_OPS_FOR_KIND = {
    "enospc": ("write", "rename", "open", "commit"),
    "torn": ("write",),
    "eio": ("write", "fsync", "rename", "dirsync", "read", "open",
            "commit"),
    "fsync-lost": ("fsync",),
    "partial-read": ("read",),
    "slow": ("write", "fsync", "rename", "dirsync", "read", "open",
             "commit"),
}

KINDS = tuple(_OPS_FOR_KIND)


class IOFaultSpecError(faultplan.SpecError):
    """A ``REPRO_IO_FAULTS`` spec failed to parse."""


class InjectedIOError(OSError):
    """An injected storage failure (carries a real errno)."""


#: The storage plane's armed plan and per-site op counters.
PLANE = faultplan.Plane(ENV_VAR, _OPS_FOR_KIND, IOFaultSpecError)

parse = PLANE.parse
plan_from_env = PLANE.plan_from_env
arm = PLANE.arm
disarm = PLANE.disarm
reset_counters = PLANE.reset_counters


def _raise_for(site: str, fired: List[faultplan.Clause]) -> None:
    """Apply error/slow kinds; torn/fsync-lost are handled by callers."""
    for clause in fired:
        if clause.kind == "slow":
            time.sleep(clause.secs)
        elif clause.kind == "enospc":
            raise InjectedIOError(
                errno.ENOSPC, f"injected ENOSPC at {site}")
        elif clause.kind == "eio":
            raise InjectedIOError(errno.EIO, f"injected EIO at {site}")


# ----------------------------------------------------------------------
# The filesystem shim
# ----------------------------------------------------------------------

def check(site: str) -> None:
    """Generic fault point for ops with no data payload (open/commit)."""
    if PLANE.plan is None:
        return
    _raise_for(site, PLANE.actions(site))


def write(site: str, handle, data: bytes) -> None:
    """``handle.write(data)`` with enospc/eio/torn/slow injection.

    ``torn`` writes only the first half and then *succeeds* — the
    publish that follows exposes a torn file, exactly like a crashed
    writer on a non-atomic filesystem.
    """
    if PLANE.plan is None:
        handle.write(data)
        return
    fired = PLANE.actions(site)
    _raise_for(site, fired)
    if any(clause.kind == "torn" for clause in fired):
        handle.write(data[:len(data) // 2])
        return
    handle.write(data)


def fsync(site: str, handle) -> None:
    """``flush + os.fsync`` with fsync-lost/eio/slow injection.

    ``fsync-lost`` models a power loss after a silently-failed fsync:
    the call reports success but the tail of the file never reached the
    platter — implemented by truncating the still-unpublished temp file
    to half, so the subsequent rename publishes a torn entry.
    """
    if PLANE.plan is None:
        handle.flush()
        os.fsync(handle.fileno())
        return
    fired = PLANE.actions(site)
    _raise_for(site, fired)
    handle.flush()
    if any(clause.kind == "fsync-lost" for clause in fired):
        size = os.fstat(handle.fileno()).st_size
        os.ftruncate(handle.fileno(), size // 2)
        return
    os.fsync(handle.fileno())


def replace(site: str, src, dst) -> None:
    """``os.replace`` with enospc/eio/slow injection."""
    if PLANE.plan is None:
        os.replace(src, dst)
        return
    _raise_for(site, PLANE.actions(site))
    os.replace(src, dst)


def read_bytes(site: str, path, limit: Optional[int] = None) -> bytes:
    """``Path.read_bytes`` with partial-read/eio/slow injection.

    ``partial-read`` returns only the first half of the bytes — the
    caller's validation must treat it exactly like a torn entry.  With
    *limit*, at most that many leading bytes are read (header-only
    probes stay header-sized even through the shim).
    """
    if not isinstance(path, Path):
        path = Path(path)
    if PLANE.plan is None:
        return _read_limited(path, limit)
    fired = PLANE.actions(site)
    _raise_for(site, fired)
    data = _read_limited(path, limit)
    if any(clause.kind == "partial-read" for clause in fired):
        return data[:len(data) // 2]
    return data


def _read_limited(path: Path, limit: Optional[int]) -> bytes:
    if limit is None:
        return path.read_bytes()
    with path.open("rb") as handle:
        return handle.read(limit)


def fsync_dir(site: str, path) -> None:
    """fsync a directory so a just-renamed entry survives power loss.

    Failures of the *real* dir fsync are swallowed (some filesystems
    refuse O_RDONLY dir fsync); injected eio is raised like any other.
    """
    if PLANE.plan is not None:
        _raise_for(site, PLANE.actions(site))
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def publish_bytes(layer: str, path: Path, data: bytes) -> None:
    """The shared temp-fsync-rename-dirsync publish sequence.

    Creates a temp file next to *path* (and the directory), writes
    *data* to it, fsyncs it, atomically renames it over *path*, and
    fsyncs the parent directory — the crash-consistent pattern every
    durable writer uses, with a fault point at each step
    (``<layer>.write``, ``.fsync``, ``.rename``, ``.dirsync``).  Raises
    ``OSError`` on (injected or real) failure; the temp file never
    outlives a failed publish.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    os.close(fd)
    try:
        with open(tmp, "wb") as handle:
            write(f"{layer}.write", handle, data)
            fsync(f"{layer}.fsync", handle)
        replace(f"{layer}.rename", tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_dir(f"{layer}.dirsync", path.parent)
