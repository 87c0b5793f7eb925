"""The ``nested-relational-vectorized`` strategy registration.

Algorithm 1's driver (:class:`repro.core.compute.NestedRelationalStrategy`)
is backend-agnostic; this module instantiates it over the columnar
:class:`~repro.engine.vector.backend.VectorBackend` and registers the
result under the ``vector`` backend tag, which is how
``execute(backend="vector")`` and the ``auto`` alias resolve to it.

The default physical nest is the sort-based one (paper §5.1) because
its factorization is fully vectorized; ``nest_impl="hash"`` selects the
dict-based variant (same semantics, per-row key building).

``threads`` is the worker count of the backend's morsel scheduler
(overridable per call via ``threads=`` / ``--threads``); the default
single worker runs every kernel as one inline morsel.
``nested-relational-parallel`` is an alias of the same strategy whose
thread default is the machine's (``REPRO_THREADS``, else
``os.cpu_count()``).
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional

from ...core.compute import DEFAULT_RULES, NestedRelationalStrategy
from ...core.optimizer import cost_vectorized
from ...strategies import register
from ..parallel import default_threads
from .backend import VectorBackend


@register(
    "nested-relational-vectorized",
    backend="vector",
    description="Algorithm 1 on the columnar batch engine (vectorized kernels)",
    cost=cost_vectorized,
)
class VectorizedNestedRelationalStrategy(NestedRelationalStrategy):
    """Algorithm 1 executed on fixed-layout column batches."""

    name = "nested-relational-vectorized"

    def __init__(
        self,
        threads: int = 1,
        min_partition_rows: Optional[int] = None,
        rules: Iterable[str] = DEFAULT_RULES,
        nest_impl: str = "sorted",
    ):
        super().__init__(
            rules, nest_impl, VectorBackend(threads, min_partition_rows)
        )

    @property
    def threads(self) -> int:
        return self.backend.threads

    def set_threads(self, threads: int) -> None:
        """The planner's ``threads=`` plumbing (idempotent)."""
        self.backend.set_threads(threads)

    def explain(self, query, db=None) -> str:
        return (
            "columnar batch engine: same Algorithm 1 tree, executed with "
            "vectorized kernels over column arrays + NULL bitmaps\n"
            + super().explain(query, db)
        )

    def sequential(self) -> Optional["VectorizedNestedRelationalStrategy"]:
        """This strategy on one worker — where the governor's
        ``degrade='sequential'`` ladder retries a failed multi-thread
        execution — or None when it already runs on one."""
        if self.threads <= 1:
            return None
        retry = copy.copy(self)
        retry.backend = VectorBackend(threads=1)
        return retry


register(
    "nested-relational-parallel",
    backend="vector",
    alias_of="nested-relational-vectorized",
    description="threads default to REPRO_THREADS / os.cpu_count()",
)(lambda: VectorizedNestedRelationalStrategy(threads=default_threads()))
