"""The ``nested-relational-vectorized`` strategy registration.

Algorithm 1's driver (:class:`repro.core.compute.NestedRelationalStrategy`)
is backend-agnostic; this module instantiates it over the columnar
:class:`~repro.engine.vector.backend.VectorBackend` and registers the
result under the ``vector`` backend tag, which is how
``execute(backend="vector")`` and the ``auto`` alias resolve to it.

Its physical nest is the sort-based one (paper §5.1), because that
factorization is fully vectorized.

``nested-relational-parallel`` is a registry preset of the same
strategy, kept so that existing callers of the name keep working: it
runs exactly what ``nested-relational-vectorized`` runs.
"""

from __future__ import annotations

from typing import Iterable

from ...core.compute import DEFAULT_RULES, NestedRelationalStrategy
from ...strategies import register
from .backend import VectorBackend


@register(
    "nested-relational-vectorized",
    backend="vector",
    description="Algorithm 1 on the columnar batch engine (vectorized kernels)",
)
class VectorizedNestedRelationalStrategy(NestedRelationalStrategy):
    """Algorithm 1 executed on fixed-layout column batches."""

    name = "nested-relational-vectorized"

    def __init__(self, rules: Iterable[str] = DEFAULT_RULES):
        super().__init__(rules, "sorted", VectorBackend())

    def explain(self, query, db=None) -> str:
        return (
            "columnar batch engine: same Algorithm 1 tree, executed with "
            "vectorized kernels over column arrays + NULL bitmaps\n"
            + super().explain(query, db)
        )


register(
    "nested-relational-parallel",
    backend="vector",
    alias_of="nested-relational-vectorized",
    description="the same strategy under its former name",
)(VectorizedNestedRelationalStrategy)
