"""Tenant configuration and accounting for the query server.

A *tenant* is one logical client of the server — a dashboard, a batch
pipeline, an ad-hoc analyst — identified by the ``tenant`` field of its
requests.  Each tenant carries

* an **admission quota** — at most ``max_concurrent`` of its queries
  execute at once, at most ``max_queued`` more may wait; beyond that
  its submissions are rejected with the typed
  :class:`~repro.errors.TenantQuotaExceededError` while other tenants'
  traffic is unaffected (per-tenant queues are drained round-robin, so
  a flooding tenant can saturate only its own concurrency share);
* **execution defaults** — an :class:`~repro.options.ExecutionOptions`
  bundle a worker process turns into a per-request
  :class:`~repro.engine.governor.ResourceGovernor` (timeout, memory
  budget, spill directory) and strategy/backend/logic defaults, all
  overridable per request within the usual layering rules.

:class:`TenantState` is the server-side ledger for one tenant: its
waiting queue, in-flight count and monotonic counters.  All of it is
touched only from the server's event loop, so it needs no locks — the
worker processes report completions in reply frames the loop reads.
The sessions that execute a tenant's queries live in the workers
(:mod:`repro.serve.worker`), one per tenant per worker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional

from ..errors import InvalidArgumentError
from ..options import ExecutionOptions

#: tenant name used when a request carries no ``tenant`` field
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantConfig:
    """Admission quota + execution defaults for one tenant.

    ``max_concurrent`` bounds how many of this tenant's queries execute
    simultaneously; ``max_queued`` bounds how many more may wait for a
    worker.  A submission arriving with ``max_concurrent + max_queued``
    requests already in the system for this tenant is rejected.
    """

    name: str
    max_concurrent: int = 4
    max_queued: int = 16
    options: ExecutionOptions = field(default_factory=ExecutionOptions)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise InvalidArgumentError(
                f"tenant name must be a non-empty string, got {self.name!r}"
            )
        for attr in ("max_concurrent", "max_queued"):
            value = getattr(self, attr)
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidArgumentError(
                    f"tenant {self.name!r}: {attr} must be an integer, "
                    f"got {value!r}"
                )
        if self.max_concurrent < 1:
            raise InvalidArgumentError(
                f"tenant {self.name!r}: max_concurrent must be >= 1"
            )
        if self.max_queued < 0:
            raise InvalidArgumentError(
                f"tenant {self.name!r}: max_queued must be >= 0"
            )
        if not isinstance(self.options, ExecutionOptions):
            raise InvalidArgumentError(
                f"tenant {self.name!r}: options must be ExecutionOptions, "
                f"got {type(self.options).__name__}"
            )

    @property
    def capacity(self) -> int:
        """Requests admitted for this tenant at once (running + queued)."""
        return self.max_concurrent + self.max_queued

    @staticmethod
    def from_dict(name: str, spec: Dict[str, Any]) -> "TenantConfig":
        """Build a config from the ``--tenants`` JSON file's entry.

        ``spec`` may carry ``max_concurrent``, ``max_queued`` and an
        ``options`` sub-object whose keys are
        :data:`~repro.options.OPTION_FIELDS` names.  Unknown keys are
        rejected so a typo'd quota file fails at startup, not silently.
        """
        if not isinstance(spec, dict):
            raise InvalidArgumentError(
                f"tenant {name!r}: expected an object, got {spec!r}"
            )
        unknown = set(spec) - {"max_concurrent", "max_queued", "options"}
        if unknown:
            raise InvalidArgumentError(
                f"tenant {name!r}: unknown key(s) {sorted(unknown)}"
            )
        opts = spec.get("options") or {}
        if not isinstance(opts, dict):
            raise InvalidArgumentError(
                f"tenant {name!r}: options must be an object"
            )
        return TenantConfig(
            name=name,
            max_concurrent=spec.get("max_concurrent", 4),
            max_queued=spec.get("max_queued", 16),
            options=ExecutionOptions().replace(**opts),
        )


class TenantState:
    """One tenant's server-side ledger (event-loop confined).

    ``queue`` holds admitted-but-waiting requests; ``running`` counts
    in-flight executions.  The counters are monotonic over the server's
    lifetime and surface verbatim in ``/stats``.
    """

    def __init__(self, config: TenantConfig) -> None:
        self.config = config
        self.queue: Deque[Any] = deque()
        self.running = 0
        # -- monotonic counters ---------------------------------------- #
        self.admitted = 0
        self.completed = 0
        self.failed = 0
        self.rejected_quota = 0
        self.rows_returned = 0
        self.spills = 0
        self.busy_ms = 0.0
        self.encode_ms = 0.0

    @property
    def in_system(self) -> int:
        """Requests currently admitted: waiting + executing."""
        return len(self.queue) + self.running

    def over_quota(self) -> bool:
        """Whether one more admission would exceed this tenant's quota."""
        return self.in_system >= self.config.capacity

    def snapshot(self) -> Dict[str, Any]:
        """The ``/stats`` view of this tenant (event-loop consistent)."""
        return {
            "max_concurrent": self.config.max_concurrent,
            "max_queued": self.config.max_queued,
            "queued": len(self.queue),
            "running": self.running,
            "admitted": self.admitted,
            "completed": self.completed,
            "failed": self.failed,
            "rejected_quota": self.rejected_quota,
            "rows_returned": self.rows_returned,
            "spills": self.spills,
            "busy_ms": round(self.busy_ms, 3),
            "encode_ms": round(self.encode_ms, 3),
        }


def resolve_tenant_config(
    name: str,
    configured: Dict[str, TenantConfig],
    default: Optional[TenantConfig],
) -> TenantConfig:
    """The config governing tenant *name*.

    Explicitly configured tenants use their own entry; anyone else gets
    the default template's quotas and options under their own name, so
    an open server still bounds every individual caller.
    """
    if name in configured:
        return configured[name]
    template = default if default is not None else TenantConfig(DEFAULT_TENANT)
    return TenantConfig(
        name=name,
        max_concurrent=template.max_concurrent,
        max_queued=template.max_queued,
        options=template.options,
    )
