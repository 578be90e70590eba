"""Wire protocol: the server's request envelope and its response rows.

A request body is a job entry — the schema ``repro batch`` manifests use,
validated by :func:`repro.service.request.parse_job` (field table in
``docs/formats.md``) — plus three server-only envelope fields: ``tenant``,
``deadline`` and ``include_matching``.  Graphs are resolved by recipe
through the shared :class:`~repro.service.request.GraphCache`; results are
memoized by the server's :class:`~repro.service.cache.ResultCache` keyed on
:meth:`MatchingJob.cache_key`, which embeds the graph's ``content_hash()``,
so renamed copies of the same structure share warm entries.

All validation errors raise :class:`ProtocolError` (HTTP 400), with the
message a manifest line would get: a malformed request fails before any
graph is built or any quota consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.engine.job import MatchingJob
from repro.service.request import GraphCache, JobRequest, parse_job

__all__ = [
    "ENVELOPE_FIELDS", "GraphCache", "ProtocolError", "ServerRequest", "parse_request",
    "result_row",
]

#: The request fields only the server reads; everything else is the job.
ENVELOPE_FIELDS = ("tenant", "deadline", "include_matching")


class ProtocolError(ValueError):
    """A malformed or invalid request payload (HTTP 400)."""


@dataclass(frozen=True)
class ServerRequest:
    """One validated ``/v1/match`` request (or one job of a ``/v1/batch``)."""

    job: JobRequest
    tenant: str
    deadline: float | None
    include_matching: bool

    @property
    def plan(self):
        return self.job.plan

    @property
    def algorithm(self) -> str:
        return self.job.algorithm

    def describe(self) -> dict:
        return {
            "id": self.job.job_id,
            "tenant": self.tenant,
            "graph": self.job.recipe.label,
            "algorithm": self.algorithm,
        }


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def parse_request(
    payload: Any,
    *,
    default_profile: str = "small",
    default_seed: int = 20130421,
    default_deadline: float | None = None,
    default_tenant: str = "anonymous",
    request_id: str = "",
) -> ServerRequest:
    """Validate one job payload into a :class:`ServerRequest`.

    The envelope fields are popped and checked here; the rest is the job
    entry :func:`~repro.service.request.parse_job` validates.
    """
    envelope: dict = {}
    if isinstance(payload, dict):
        payload = dict(payload)
        envelope = {name: payload.pop(name) for name in ENVELOPE_FIELDS if name in payload}
    try:
        job = parse_job(
            payload, {"profile": default_profile, "seed": default_seed, "id": request_id}
        )
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc
    tenant = envelope.get("tenant", default_tenant)
    _require(isinstance(tenant, str) and tenant, "'tenant' must be a non-empty string")
    deadline = envelope.get("deadline", default_deadline)
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            and deadline > 0,
            "'deadline' must be a positive number of seconds",
        )
        deadline = float(deadline)
    include_matching = envelope.get("include_matching", False)
    _require(isinstance(include_matching, bool), "'include_matching' must be a boolean")
    return ServerRequest(job, tenant, deadline, include_matching)


def build_job(request: ServerRequest, graphs: GraphCache) -> MatchingJob:
    """Materialise the request's graph (cached) and wrap it into a job."""
    return request.job.to_job(graphs)


def result_row(
    request: ServerRequest,
    *,
    status: str,
    result=None,
    error=None,
    cached: bool = False,
    worker: str | None = None,
    seconds: float = 0.0,
    server_seconds: float = 0.0,
    injected: str | None = None,
    fault_injection: bool = False,
) -> dict:
    """One JSON response row — shared by ``/v1/match`` and ``/v1/batch``."""
    row = {
        "type": "result",
        **request.describe(),
        "status": status,
        "cardinality": result.cardinality if result is not None else None,
        "cached": cached,
        "worker": worker,
        "seconds": round(seconds, 6),
        "server_seconds": round(server_seconds, 6),
    }
    if result is not None and "total_weight" in result.counters:
        row["total_weight"] = result.counters["total_weight"]
    if request.include_matching and result is not None:
        matching = result.matching
        if hasattr(matching, "row_match"):
            row["row_match"] = [int(v) for v in matching.row_match]
        else:
            # Capacitated results carry an edge list, not a 1-regular map.
            row["pairs"] = [[int(u), int(v)] for u, v in matching.pairs()]
    if error is not None:
        row["error"] = str(error)
    if fault_injection:
        row["injected_fault"] = injected
    return row
