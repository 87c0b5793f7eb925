"""``repro.serve`` — the multi-tenant asyncio query server.

Start from the CLI::

    python -m repro serve --tpch 0.01 --port 8080

and query it over HTTP/JSON::

    curl -s localhost:8080/query -d '{"sql": "select ...", "tenant": "bi"}'
    curl -s localhost:8080/stats

See :mod:`repro.serve.server` for the architecture (admission control,
per-tenant quotas, round-robin dispatch onto forked worker processes,
graceful drain), :mod:`repro.serve.worker` for what runs inside a
worker, and :mod:`repro.serve.tenants` for quota configuration.
"""

from .server import QueryServer, http_status_for, run_server
from .tenants import DEFAULT_TENANT, TenantConfig, TenantState

__all__ = [
    "QueryServer",
    "TenantConfig",
    "TenantState",
    "DEFAULT_TENANT",
    "http_status_for",
    "run_server",
]
