"""Wire protocol of the serving layer: JSON bodies -> validated requests.

The daemon accepts the same parameter surface the campaign grid does: a
flat JSON object with :data:`~repro.sim.runner.PARAM_FIELDS` fields
(``workload``, ``prefetcher``, ``variant``, ...) plus an optional
``config`` mapping of dotted :class:`~repro.sim.config.SystemConfig`
paths (``llc.size_bytes``, ``dram.transfer_rate_mts``) to scalar
overrides — so a campaign cell's ``params`` dict round-trips through
``/submit`` unchanged.

This module checks only the JSON shape.  Every value is checked by
:meth:`~repro.sim.runner.RunRequest.validate` at admission, before
anything reaches the engine: an impossible request raises
:class:`ProtocolError` (HTTP 400), never a permanent in-worker failure
that would burn an engine slot on a request that could not succeed.
"""

from __future__ import annotations

from typing import Dict

from repro.sim.config import config_with
from repro.sim.runner import PARAM_FIELDS, RequestError, RunRequest


class ProtocolError(ValueError):
    """A submission body is malformed; maps to HTTP 400."""


#: Fields a submission object may carry (all optional but ``workload``).
REQUEST_FIELDS = PARAM_FIELDS + ("config",)


def parse_run_request(data) -> RunRequest:
    """Shape-check one submission object into a resolved RunRequest.

    The body must be an object of known fields with a ``workload`` and
    an object of dotted-path ``config`` overrides; the values are
    checked by ``RunRequest.resolved()``, so the returned request's
    fingerprint is immediately usable as the job identity.
    """
    if not isinstance(data, dict):
        raise ProtocolError(f"submission must be a JSON object, got "
                            f"{type(data).__name__}")
    unknown = sorted(set(data) - set(REQUEST_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown field(s) {unknown} (expected a "
                            f"subset of {list(REQUEST_FIELDS)})")
    if "workload" not in data:
        raise ProtocolError("submission needs a 'workload' field")
    overrides = data.get("config", {})
    if not isinstance(overrides, dict):
        raise ProtocolError(
            "'config' must be an object of dotted-path overrides")
    params = {k: v for k, v in data.items() if k != "config"}
    try:
        return RunRequest(config=config_with(overrides),
                          **params).resolved()
    except RequestError as exc:
        raise ProtocolError(str(exc)) from exc


def request_digest(data) -> str:
    """The content address a daemon would assign this submission.

    Validates *data* exactly like admission does and hashes the
    resolved run key — the same digest that names the job id, the
    cache entry, and (for the cluster client) the rendezvous placement
    of the request, so client-side routing and server-side coalescing
    agree by construction.
    """
    from repro.sim import cache as disk_cache

    return disk_cache.key_digest(parse_run_request(data).key())


def parse_submission(body) -> Dict[str, list]:
    """Parse a ``/batch`` body: ``{"requests": [...]}`` of objects."""
    if not (isinstance(body, dict)
            and isinstance(body.get("requests"), list)):
        raise ProtocolError("batch submission must be {'requests': [...]}")
    if not body["requests"]:
        raise ProtocolError("'requests' must not be empty")
    return {"requests": body["requests"]}
