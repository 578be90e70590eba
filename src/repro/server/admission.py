"""Admission control: per-tenant in-flight quotas and a global queue-depth bound.

The server admits a request only while (a) its tenant holds fewer than
``max_inflight_per_tenant`` admitted-but-unfinished requests and (b) the
server-wide depth is below ``max_queue_depth``.  Anything else is *shed*
immediately — an :class:`AdmissionError` the server maps onto HTTP 429 —
so overload degrades into fast rejections instead of unbounded queueing.

Admission hands out an :class:`AdmissionTicket`; releasing it returns the
slots.  Release is idempotent and thread-safe: the server releases on the
job's done-callback, and a late ``cancel()`` on an already-finished job (or
any double release) must not free the slot twice.  The invariants the
controller maintains — per-tenant in-flight never exceeds its quota, global
depth never exceeds the bound, rejected requests consume nothing — are
pinned by seeded property tests in ``tests/test_server.py``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

__all__ = ["AdmissionController", "AdmissionError", "AdmissionTicket", "QuotaPolicy"]


class AdmissionError(RuntimeError):
    """The request was shed by admission control (HTTP 429 at the server edge).

    ``reason`` is machine-readable: ``"tenant-quota"`` (the tenant's
    in-flight limit), ``"queue-depth"`` (the server-wide bound) or
    ``"engine-saturated"`` (the engine's ``max_inflight`` backstop).
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


@dataclass(frozen=True)
class QuotaPolicy:
    """Admission limits for one server.

    ``max_inflight_per_tenant`` bounds each tenant's admitted-but-unfinished
    requests; ``max_queue_depth`` bounds the sum over all tenants (and is
    also installed as the engine's ``max_inflight`` backpressure bound).
    """

    max_inflight_per_tenant: int = 8
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.max_inflight_per_tenant <= 0:
            raise ValueError("max_inflight_per_tenant must be positive")
        if self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")


class AdmissionTicket:
    """One admitted request's hold on its quota slots (release is idempotent)."""

    __slots__ = ("tenant", "_controller", "_released")

    def __init__(self, controller: "AdmissionController", tenant: str) -> None:
        self.tenant = tenant
        self._controller = controller
        self._released = False

    def release(self) -> bool:
        """Return the slots; ``True`` only for the first release."""
        return self._controller._release(self)

    @property
    def released(self) -> bool:
        return self._released


class AdmissionController:
    """Thread-safe quota accounting shared by every request handler."""

    def __init__(self, policy: QuotaPolicy | None = None) -> None:
        self.policy = policy or QuotaPolicy()
        # Re-entrant: try_admit rejects through _reject while holding it.
        self._lock = threading.RLock()
        self._tenant_inflight: dict[str, int] = {}
        self.depth = 0
        self.peak_depth = 0
        self.admitted = 0
        self.rejected = 0
        self.rejected_by_reason: dict[str, int] = {}
        self._tenant_stats: dict[str, dict[str, int]] = {}

    def _stats(self, tenant: str) -> dict[str, int]:
        return self._tenant_stats.setdefault(tenant, {"admitted": 0, "rejected": 0})

    def try_admit(self, tenant: str) -> AdmissionTicket:
        """Admit one request for ``tenant`` or raise :class:`AdmissionError`.

        Rejection consumes nothing: no slot, no queue depth, no engine
        submission — only the reject counters move.
        """
        with self._lock:
            if self.depth >= self.policy.max_queue_depth:
                raise self._reject(
                    tenant, "queue-depth",
                    f"server at capacity: {self.depth} requests in flight "
                    f">= max_queue_depth={self.policy.max_queue_depth}",
                )
            inflight = self._tenant_inflight.get(tenant, 0)
            if inflight >= self.policy.max_inflight_per_tenant:
                raise self._reject(
                    tenant, "tenant-quota",
                    f"tenant {tenant!r} at quota: {inflight} requests in flight "
                    f">= max_inflight_per_tenant={self.policy.max_inflight_per_tenant}",
                )
            self._tenant_inflight[tenant] = inflight + 1
            self.depth += 1
            self.peak_depth = max(self.peak_depth, self.depth)
            self.admitted += 1
            self._stats(tenant)["admitted"] += 1
            return AdmissionTicket(self, tenant)

    def _reject(self, tenant: str, reason: str, message: str) -> AdmissionError:
        """Count one shed request for ``tenant`` and return the error to raise."""
        with self._lock:
            self.rejected += 1
            self._stats(tenant)["rejected"] += 1
            self.rejected_by_reason[reason] = self.rejected_by_reason.get(reason, 0) + 1
        return AdmissionError(reason, message)

    def _release(self, ticket: AdmissionTicket) -> bool:
        with self._lock:
            if ticket._released:
                return False
            ticket._released = True
            self._tenant_inflight[ticket.tenant] -= 1
            self.depth -= 1
            return True

    def tenant_inflight(self, tenant: str) -> int:
        with self._lock:
            return self._tenant_inflight.get(tenant, 0)

    def snapshot(self) -> dict:
        """The controller's state as a JSON-ready dict (for ``/metrics``)."""
        with self._lock:
            return {
                "depth": self.depth,
                "peak_depth": self.peak_depth,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "rejected_by_reason": dict(self.rejected_by_reason),
                "max_inflight_per_tenant": self.policy.max_inflight_per_tenant,
                "max_queue_depth": self.policy.max_queue_depth,
                "tenants": {
                    tenant: {
                        "inflight": self._tenant_inflight.get(tenant, 0),
                        **stats,
                    }
                    for tenant, stats in sorted(self._tenant_stats.items())
                },
            }
