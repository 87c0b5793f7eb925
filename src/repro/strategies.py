"""The strategy registry: one catalogue of every evaluation strategy.

Strategies self-register at import time with :func:`register`; the
planner, the CLI, the benchmark harness and the fuzzer all resolve
names through this module instead of keeping private name->class
tables.  Each entry records which execution *backend* the strategy runs
on (``"row"`` for the tuple-at-a-time row engine, ``"vector"`` for
the columnar batch engine);
:func:`repro.core.optimizer.resolve` — the one place a request becomes
an instance — routes ``execute(backend=...)`` requests by that tag.

Registering::

    from repro.strategies import register

    @register("my-strategy", description="...")
    class MyStrategy:
        def execute(self, query, db): ...

or, for parameterized variants::

    register("my-strategy-sorted", description="...")(
        lambda: MyStrategy(nest_impl="sorted")
    )

``"auto"`` is *not* an entry: it is the planner's routing policy
(:func:`repro.core.optimizer.choose`), accepted wherever a strategy
name is but never instantiated from the registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .errors import PlanError

#: the two execution substrates a strategy can run on
ROW_BACKEND = "row"
VECTOR_BACKEND = "vector"
BACKENDS = (ROW_BACKEND, VECTOR_BACKEND)

#: name of the planner's routing policy (not a registry entry)
AUTO = "auto"


@dataclass(frozen=True)
class StrategyInfo:
    """One registered strategy: name, factory, backend tag, cost hook.

    ``cost`` is the optional pricing hook consumed by the cost-based
    planner: a callable taking a :class:`~repro.core.stats.PlanStats`
    and returning the strategy's estimated cost in row-ops.  Strategies
    registered without one still participate in ``auto`` — they are
    priced at :func:`repro.core.optimizer.default_cost`, a deliberately
    pessimistic generic estimate.

    ``alias_of`` names the strategy an entry is a *preset* of: the same
    implementation under different constructor defaults.  An alias
    resolves by name everywhere a strategy does, but is not a planner
    candidate of its own — the strategy it names is the one priced.
    """

    name: str
    factory: Callable[[], object]
    backend: str = ROW_BACKEND
    description: str = ""
    cost: Optional[Callable[[object], float]] = None
    alias_of: Optional[str] = None

    def make(self) -> object:
        return self.factory()

    @property
    def costed(self) -> bool:
        """Whether this strategy registered its own ``cost`` hook."""
        return self.cost is not None


_REGISTRY: Dict[str, StrategyInfo] = {}
_loaded = False


def register(
    name: str,
    *,
    backend: str = ROW_BACKEND,
    description: str = "",
    cost: Optional[Callable[[object], float]] = None,
    alias_of: Optional[str] = None,
    replace: bool = False,
) -> Callable[[Callable[[], object]], Callable[[], object]]:
    """Register a strategy factory under *name*; usable as a decorator.

    The factory is any zero-argument callable returning an object with
    an ``execute(query, db)`` method (a class with a no-arg constructor
    qualifies).  *cost* optionally prices the strategy for the
    cost-based planner: ``cost(plan_stats) -> float`` over a
    :class:`~repro.core.stats.PlanStats`; without one the planner falls
    back to a documented pessimistic default
    (:func:`repro.core.optimizer.default_cost`) and ``--list-strategies``
    marks the entry accordingly.  *alias_of* registers a preset of an
    existing strategy (see :class:`StrategyInfo`).  Re-registering an
    existing name
    raises unless ``replace=True`` (tests use replacement to stub
    strategies).
    """
    if backend not in BACKENDS:
        raise PlanError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    if name == AUTO:
        raise PlanError("'auto' is the planner policy and cannot be registered")

    def _register(factory: Callable[[], object]) -> Callable[[], object]:
        if name in _REGISTRY and not replace:
            raise PlanError(f"strategy {name!r} is already registered")
        _REGISTRY[name] = StrategyInfo(
            name=name,
            factory=factory,
            backend=backend,
            description=description,
            cost=cost,
            alias_of=alias_of,
        )
        return factory

    return _register


def unregister(name: str) -> None:
    """Remove a registry entry (test hook)."""
    _REGISTRY.pop(name, None)


def ensure_loaded() -> None:
    """Import every module that self-registers strategies.

    Registration happens at module import; this makes 'the registry'
    deterministic regardless of which submodule a caller touched first.
    """
    global _loaded
    if _loaded:
        return
    _loaded = True
    from .core import compute as _compute  # noqa: F401
    from .baselines import (  # noqa: F401
        agg_rewrite as _agg,
        boolean_aggregate as _boolagg,
        count_rewrite as _count,
        native as _native,
        nested_iteration as _ni,
        unnesting as _unnest,
    )
    from .engine.vector import strategy as _vector  # noqa: F401


def names() -> List[str]:
    """Sorted names of every registered strategy (without ``"auto"``)."""
    ensure_loaded()
    return sorted(_REGISTRY)


def available_strategies() -> List[str]:
    """Names accepted by the *strategy* argument of the execution APIs."""
    return names() + [AUTO]


def entries() -> List[StrategyInfo]:
    """Every registry entry, sorted by name."""
    ensure_loaded()
    return [_REGISTRY[name] for name in names()]


def info(name: str) -> StrategyInfo:
    """The :class:`StrategyInfo` registered under *name*."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise PlanError(
            f"unknown strategy {name!r}; available: {names() + [AUTO]}"
        ) from None


def is_registered(name: str) -> bool:
    ensure_loaded()
    return name in _REGISTRY


def make(name: str) -> object:
    """Instantiate the strategy registered under *name*."""
    return info(name).make()


def describe() -> str:
    """One line per strategy: name, backend, cost participation and
    description (CLI listing).  ``costed`` entries registered their own
    ``cost`` hook; ``default`` entries are priced pessimistically by
    the planner's fallback; ``alias`` entries are presets of the
    strategy they name and are never priced themselves."""
    ensure_loaded()
    width = max(len(n) for n in names()) if _REGISTRY else 0
    lines = []
    for entry in entries():
        pricing = "costed " if entry.costed else "default"
        text = entry.description
        if entry.alias_of is not None:
            pricing = "alias  "
            text = f"{entry.alias_of}: {text}"
        lines.append(
            f"{entry.name.ljust(width)}  [{entry.backend}]  "
            f"[{pricing}]  {text}"
        )
    lines.append(
        f"{AUTO.ljust(width)}  [row]  [policy ]  "
        "cost-based choice over every applicable strategy"
    )
    return "\n".join(lines)
