"""Trace persistence: save and load traces as compact JSON-lines files.

Serialising generated traces lets experiments be re-run bit-identically
without regenerating (and lets externally produced traces — e.g. converted
ChampSim traces — be fed into the simulator).  Format:

- line 1: a JSON header ``{"name", "thp_fraction", "suite", "records"}``
- one JSON array per record: ``[ip, vaddr, kind, bubble, dep]``

Files ending in ``.gz`` are transparently gzip-compressed.  Files ending
in ``.npz`` use the *columnar* format instead: the five packed arrays of
``Trace.columns()`` plus a JSON header, written with
``numpy.savez_compressed`` — both smaller on disk and loaded without
per-record JSON parsing (requires numpy).

Malformed input (bad JSON, wrong record arity, truncated gzip streams,
header/record-count mismatches) raises :class:`TraceFormatError`, which
carries the offending path and 1-based line number instead of leaking a
raw ``JSONDecodeError``/``EOFError`` from the parsing internals.
"""

from __future__ import annotations

import gzip
import json
import zipfile
import zlib
from pathlib import Path
from typing import Optional, Union

try:
    import numpy as _np
except ImportError:                            # pragma: no cover
    _np = None

from repro.workloads.trace import Trace

PathLike = Union[str, Path]

FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace file failed to parse or validate.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers
    keep working.  ``path`` and (when known) ``line`` locate the defect.
    """

    def __init__(self, path: PathLike, message: str,
                 line: Optional[int] = None):
        self.path = str(path)
        self.line = line
        self.detail = message
        where = f"{path}, line {line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # Rebuild from the constructor arguments, so the error crosses
        # a process boundary (strict re-raise from a pool worker) intact.
        return type(self), (self.path, self.detail, self.line)


#: Exceptions a corrupt/truncated gzip stream can surface mid-read.
_STREAM_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error, OSError)


def _open(path: Path, mode: str):
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write *trace* to *path* (JSON-lines, gzipped, or ``.npz``)."""
    path = Path(path)
    header = {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "thp_fraction": trace.thp_fraction,
        "suite": trace.suite,
        "records": len(trace.records),
    }
    if path.suffix == ".npz":
        if _np is None:
            raise RuntimeError("numpy is required for .npz traces")
        ips, vaddrs, kinds, bubbles, deps = trace.columns()
        with open(path, "wb") as handle:
            _np.savez_compressed(handle, header=_np.array(
                json.dumps(header)), ips=ips, vaddrs=vaddrs, kinds=kinds,
                bubbles=bubbles, deps=deps)
        return
    with _open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for ip, vaddr, kind, bubble, dep in trace.records:
            handle.write(json.dumps(
                [ip, vaddr, kind, bubble, 1 if dep else 0],
                separators=(",", ":")) + "\n")


def _parse_header(path: Path, header_line: str) -> dict:
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(path, f"invalid header: {exc.msg}",
                               line=1) from exc
    if not isinstance(header, dict):
        raise TraceFormatError(path, "invalid header: expected a JSON "
                               f"object, got {type(header).__name__}",
                               line=1)
    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(path,
                               f"unsupported trace format {version!r}",
                               line=1)
    for field in ("name", "thp_fraction"):
        if field not in header:
            raise TraceFormatError(path,
                                   f"header missing {field!r}", line=1)
    return header


def _parse_record(path: Path, line: str, lineno: int):
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(path, f"malformed record: {exc.msg}",
                               line=lineno) from exc
    if not isinstance(record, (list, tuple)) or len(record) != 5:
        raise TraceFormatError(
            path, "malformed record: expected a 5-element array, got "
            f"{record!r}", line=lineno)
    ip, vaddr, kind, bubble, dep = record
    return ip, vaddr, kind, bubble, bool(dep)


def _load_npz(path: Path) -> Trace:
    if _np is None:
        raise RuntimeError("numpy is required for .npz traces")
    try:
        with _np.load(path, allow_pickle=False) as data:
            header = _parse_header(path, str(data["header"]))
            columns = [data[key] for key in
                       ("ips", "vaddrs", "kinds", "bubbles", "deps")]
    except FileNotFoundError:
        raise
    except (OSError, ValueError, KeyError, EOFError,
            zlib.error, zipfile.BadZipFile) as exc:
        raise TraceFormatError(
            path, f"truncated or corrupt npz archive: {exc}") from exc
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise TraceFormatError(
            path, f"column lengths disagree: {sorted(lengths)}")
    trace = Trace.from_arrays(
        header["name"], *columns, thp_fraction=header["thp_fraction"],
        suite=header.get("suite", "unknown"))
    expected = header.get("records")
    if expected is not None and expected != len(trace.records):
        raise TraceFormatError(
            path, f"header declares {expected} records, "
            f"file contains {len(trace.records)}")
    return trace


def load_trace(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`TraceFormatError` (a ``ValueError``) on any defect:
    missing/invalid header, unsupported version, malformed records,
    truncated gzip streams, or a record-count mismatch.
    """
    path = Path(path)
    if path.suffix == ".npz":
        return _load_npz(path)
    records = []
    lineno = 1
    try:
        with _open(path, "r") as handle:
            header_line = handle.readline()
            if not header_line:
                raise TraceFormatError(path, "empty trace file")
            header = _parse_header(path, header_line)
            for line in handle:
                lineno += 1
                if not line.strip():
                    continue
                records.append(_parse_record(path, line, lineno))
    except _STREAM_ERRORS as exc:
        if isinstance(exc, FileNotFoundError):
            raise
        raise TraceFormatError(
            path, f"truncated or corrupt stream after line {lineno}: "
            f"{exc}") from exc
    expected = header.get("records")
    if expected is not None and expected != len(records):
        raise TraceFormatError(
            path, f"header declares {expected} records, "
            f"file contains {len(records)}")
    return Trace(name=header["name"], records=records,
                 thp_fraction=header["thp_fraction"],
                 suite=header.get("suite", "unknown"))


#: Public alias; the robustness layer documents ``read_trace`` as the
#: canonical loader name.
read_trace = load_trace
