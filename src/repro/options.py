"""Execution options: one frozen bundle for every execution knob.

:class:`ExecutionOptions` carries everything that shapes how a query
runs — strategy, backend, resource limits, logic mode — as a single
immutable value that can be stored, compared, passed around and
layered::

    import repro
    from repro.options import ExecutionOptions

    fast = ExecutionOptions(backend="vector", timeout_ms=500)
    session = repro.connect(db, options=fast)

    query = session.prepare(sql)
    query.execute()                                      # uses `fast`
    query.execute(options=fast.replace(timeout_ms=50))   # one-off variant
    query.execute(backend="row")                         # kwarg beats bundle

Layering is uniform everywhere the bundle is accepted
(:func:`repro.connect`, :class:`~repro.session.Session`,
:meth:`~repro.session.PreparedQuery.execute` / ``trace`` / ``verify`` /
``explain``): **session defaults ← ``options=`` bundle ← explicit
per-call keyword arguments**, where only non-``None`` fields override.
A field left ``None`` always means *inherit from the layer below*, so
partial bundles compose without clobbering unrelated settings.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Union

from .errors import InvalidArgumentError

#: the knobs an :class:`ExecutionOptions` carries, in layering order
OPTION_FIELDS = (
    "strategy",
    "backend",
    "threads",
    "timeout_ms",
    "memory_limit_mb",
    "spill_dir",
    "logic",
)


@dataclass(frozen=True)
class ExecutionOptions:
    """An immutable bundle of execution settings; ``None`` = inherit.

    * ``strategy`` — registry name, ``"auto"`` (the planner's rule) or a
      strategy instance;
    * ``backend`` — ``"row"`` / ``"vector"`` execution substrate;
    * ``threads`` — an integer >= 1, validated and otherwise unread:
      execution is single-threaded, whatever its value (the field stays
      so that callers passing it keep working);
    * ``timeout_ms`` / ``memory_limit_mb`` — resource-governance limits;
    * ``spill_dir`` — directory for spill partitions; together with a
      memory budget it turns budget breaches at the spillable operators
      (hash-join builds, nest grouping) into Grace-style disk spills
      instead of :class:`~repro.errors.ResourceExhaustedError`;
    * ``logic`` — ``"3vl"`` (SQL standard) or ``"2vl"`` (Libkin)
      predicate semantics.
    """

    strategy: Optional[Union[str, object]] = None
    backend: Optional[str] = None
    threads: Optional[int] = None
    timeout_ms: Optional[float] = None
    memory_limit_mb: Optional[float] = None
    spill_dir: Optional[str] = None
    logic: Optional[str] = None

    def merged(self, overrides: Optional["ExecutionOptions"]) -> "ExecutionOptions":
        """A new bundle where *overrides*' non-``None`` fields win."""
        if overrides is None:
            return self
        if not isinstance(overrides, ExecutionOptions):
            raise InvalidArgumentError(
                "options must be an ExecutionOptions, got "
                f"{type(overrides).__name__}"
            )
        updates = {
            name: value
            for name in OPTION_FIELDS
            if (value := getattr(overrides, name)) is not None
        }
        return dataclasses.replace(self, **updates) if updates else self

    def replace(self, **updates: object) -> "ExecutionOptions":
        """A new bundle with the given fields replaced (``None`` clears
        a field back to *inherit*)."""
        unknown = set(updates) - set(OPTION_FIELDS)
        if unknown:
            raise InvalidArgumentError(
                f"unknown execution option(s): {sorted(unknown)}; "
                f"expected a subset of {list(OPTION_FIELDS)}"
            )
        return dataclasses.replace(self, **updates)

    def describe(self) -> str:
        """The non-``None`` fields as ``name=value`` pairs (or
        ``"defaults"`` when every field inherits)."""
        parts = [
            f"{name}={getattr(self, name)!r}"
            for name in OPTION_FIELDS
            if getattr(self, name) is not None
        ]
        return ", ".join(parts) if parts else "defaults"


def validate_threads(value) -> Optional[int]:
    """A ``threads`` setting as an int >= 1 (a numeric string is
    accepted), or None; anything else raises
    :class:`~repro.errors.InvalidArgumentError`."""
    if value is None:
        return None
    if isinstance(value, str):
        try:
            value = int(value.strip())
        except ValueError:
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(
            f"threads must be an integer >= 1, got {value!r}"
        )
    if value < 1:
        raise InvalidArgumentError(f"threads must be >= 1, got {value}")
    return value


def layer_options(
    base: Optional[ExecutionOptions],
    options: Optional[ExecutionOptions],
    **kwargs: object,
) -> ExecutionOptions:
    """Apply the canonical layering: *base* ← *options* ← non-``None``
    *kwargs*.  The helper every ``options=``-accepting API goes
    through, so precedence cannot drift between entry points, and the
    one place a ``threads`` value is validated."""
    effective = base if base is not None else ExecutionOptions()
    effective = effective.merged(options)
    updates = {k: v for k, v in kwargs.items() if v is not None}
    if updates:
        effective = effective.replace(**updates)
    validate_threads(effective.threads)
    return effective
