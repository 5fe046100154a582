"""Import-time guard for ``__dict__``-based trusted constructors.

The derivation hot loop builds its frozen :class:`~repro.taskgraph.jobs.Job`
dataclasses through an explicit trusted constructor that bypasses the
frozen ``__setattr__`` guards and any ``__post_init__`` validation.  Such a
constructor registers itself here at module import: the check fails the
import **loudly** — never falls back to a slow path silently — if the
dataclass's fields drift from the constructor's explicit field list, or if
the ``__dict__`` construction path itself stops reproducing the public
constructor (e.g. a future ``slots=True``).  The simulator's timing loop
builds :class:`~repro.runtime.executor.JobRecord` through an inline
``__dict__`` literal instead, whose keys a test pins against the fields.
"""

from __future__ import annotations

import inspect
from dataclasses import fields
from typing import Any, Callable, Dict, Tuple


def check_trusted_constructor(
    cls: type,
    expected_fields: Tuple[str, ...],
    make: Callable[..., Any],
    sample_kwargs: Dict[str, Any],
) -> None:
    """Fail the import if *make* cannot stand in for ``cls(**kwargs)``.

    Two checks: the dataclass field names must equal *expected_fields*
    (so adding a field without updating the trusted constructor is caught
    immediately), and building *sample_kwargs* through *make* must equal
    the public constructor's result (so the ``__dict__`` fast path itself
    is exercised once, at import, where a failure is cheap to diagnose).
    """
    actual = tuple(f.name for f in fields(cls))
    if actual != expected_fields:
        raise AssertionError(
            f"{cls.__name__}'s dataclass fields changed ({actual} != "
            f"{expected_fields}) — update its trusted constructor "
            f"{make.__name__} and the expected field tuple to match, or the "
            "hot loops would build incomplete instances"
        )
    try:
        ok = make(**sample_kwargs) == cls(**sample_kwargs)
    except Exception:  # pragma: no cover - e.g. slots=True breaking __dict__
        ok = False
    if not ok:  # pragma: no cover - guard for future dataclass changes
        raise AssertionError(
            f"{cls.__name__}.{make.__name__} no longer reproduces the public "
            f"constructor — did {cls.__name__} gain slots=True or "
            "field-altering logic? Update the trusted constructor before "
            "shipping"
        )


def check_trusted_rebind(
    cls: type,
    expected_params: Tuple[str, ...],
    base_kwargs: Dict[str, Any],
    rebound_kwargs: Dict[str, Any],
    rebind: Callable[..., Any],
) -> None:
    """Fail the import if rebinding cannot stand in for fresh construction.

    The simulation hot loop reuses one mutable context object per process and
    *rebinds* only the per-instance fields instead of reallocating
    (:meth:`repro.core.process.JobContext._rebind`).  That is sound only
    while every ``__init__`` parameter that is **not** rebound stays
    run-constant per process.  Two import-time checks keep it honest:

    * the ``__init__`` parameter list must equal *expected_params* — adding
      a new per-instance parameter without teaching ``_rebind`` about it
      fails here loudly instead of silently leaking stale state;
    * constructing with *base_kwargs* and rebinding the keys of
      *rebound_kwargs* must reproduce, attribute for attribute, a fresh
      construction with the rebound values.
    """
    actual = tuple(inspect.signature(cls.__init__).parameters)[1:]  # drop self
    if actual != expected_params:
        raise AssertionError(
            f"{cls.__name__}.__init__ parameters changed ({actual} != "
            f"{expected_params}) — update {cls.__name__}._rebind and this "
            "guard, or the hot loops would reuse contexts with stale fields"
        )
    reused = cls(**base_kwargs)
    rebind(reused, **rebound_kwargs)
    fresh = cls(**{**base_kwargs, **rebound_kwargs})
    if vars(reused) != vars(fresh):  # pragma: no cover - future drift guard
        raise AssertionError(
            f"{cls.__name__}._rebind no longer reproduces fresh construction "
            f"({vars(reused)} != {vars(fresh)}) — update the rebind method "
            "before shipping"
        )


def check_trusted_fields(
    cls: type,
    expected_fields: Tuple[str, ...],
    trusted: Any,
    public: Any,
) -> None:
    """Fail the import if a plain class's trusted constructor drifts.

    The non-dataclass counterpart of :func:`check_trusted_constructor`
    (:meth:`repro.scheduling.schedule.StaticSchedule._from_ticks`): the
    attributes the public constructor sets must equal *expected_fields*,
    and *trusted* — the same data built through the trusted constructor —
    must hold the same values, attribute for attribute, as *public*.
    """
    actual = tuple(vars(public))
    if actual != expected_fields:
        raise AssertionError(
            f"{cls.__name__}'s fields changed ({actual} != "
            f"{expected_fields}) — update its trusted constructor and the "
            "expected field tuple to match"
        )
    if vars(trusted) != vars(public):  # pragma: no cover - future drift guard
        raise AssertionError(
            f"{cls.__name__}'s trusted constructor no longer reproduces the "
            f"public one ({vars(trusted)} != {vars(public)})"
        )
