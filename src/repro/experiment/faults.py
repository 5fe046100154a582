"""Deterministic fault injection for sweep robustness testing.

The fault-tolerance layer of :mod:`repro.experiment.sweep` /
:mod:`repro.experiment.pool` has three recovery paths — per-cell
error capture, worker-crash respawn and per-group deadline timeouts —
none of which a healthy sweep ever exercises.  A :class:`FaultPlan`
makes every path testable *deterministically*: it names sweep cells (by
matrix index) at which a fault fires, travels through the JSON wire
format into worker processes unchanged, and fires the same way on every
run, so the recovery matrix can be pinned by ordinary tests while
healthy rows stay bit-identical to a fault-free serial run.

Fault kinds
-----------

``raise_at``
    Raise :class:`InjectedFault` when the cell is about to execute —
    the stand-in for a kernel / runtime exception inside the cell.  The
    sweep captures it as a structured error row and carries on.
``kill_at``
    Hard-kill the worker process (``os._exit(1)``) holding the cell,
    ``times`` times — the stand-in for an OOM kill or segfault.  The
    parallel supervisor detects the dead worker, respawns the pool and
    requeues the group; a serial sweep has no worker to kill, so the
    fault degrades to an :class:`InjectedFault` error row.
``delay_at``
    Sleep ``seconds`` before the cell executes, ``times`` times — the
    stand-in for a wedged cell, used to trip per-group deadlines.
``interrupt_at``
    Raise :class:`KeyboardInterrupt` in the *parent* process when the
    cell is reached (serial) or when its group's reply is merged
    (parallel) — the stand-in for Ctrl-C, exercising the partial-result
    drain.

``kill_at`` / ``delay_at`` entries carry a remaining-fire count: when
the supervisor requeues a group after a crash or timeout it decrements
the counts for that group's cells (:meth:`FaultPlan.decrement`), so a
``times=1`` fault is transient — the retry succeeds — while a large
count exhausts the retry budget and produces error rows.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Iterable, List, Mapping, Optional, Tuple

from ..errors import FPPNError, ModelError
from .fields import Field, check_all, integer, real

__all__ = ["FaultPlan", "InjectedFault", "apply_cell_faults"]


class InjectedFault(FPPNError):
    """The deterministic failure raised by an active :class:`FaultPlan` entry."""


_index = integer(0)
_times = integer(1)
_seconds = real("> 0", lambda seconds: seconds > 0)


def _entries(
    value: Any, what: str, sizes: Tuple[int, ...] = ()
) -> Tuple[Any, ...]:
    """A list or tuple, or a mapping as ``(key, *value)`` rows."""
    if isinstance(value, Mapping):
        value = [
            (key, *(v if isinstance(v, (list, tuple)) else (v,)))
            for key, v in value.items()
        ]
    if not isinstance(value, (list, tuple)):
        raise ModelError(f"{what} must be a list, got {value!r}")
    for row in value if sizes else ():
        if not isinstance(row, (list, tuple)) or len(row) not in sizes:
            raise ModelError(
                f"{what} entries must be lists of "
                f"{' or '.join(map(str, sizes))} items, got {row!r}"
            )
    return tuple(value)


def _indices(value: Any, what: str) -> Tuple[int, ...]:
    if isinstance(value, int) and not isinstance(value, bool):
        value = (value,)
    return tuple(sorted(
        _index(index, f"{what} index") for index in _entries(value or (), what)
    ))


def _kills(value: Any, what: str) -> Tuple[Tuple[int, int], ...]:
    return tuple(sorted(
        (_index(index, f"{what} index"), _times(times, f"{what} times"))
        for index, times in _entries(value or (), what, (2,))
    ))


def _delays(value: Any, what: str) -> Tuple[Tuple[int, float, int], ...]:
    # [index, seconds(, times)] rows; a left-out count fires once.
    return tuple(sorted(
        (
            _index(index, f"{what} index"),
            _seconds(seconds, f"{what} seconds"),
            _times(times[0] if times else 1, f"{what} times"),
        )
        for index, seconds, *times in _entries(value or (), what, (2, 3))
    ))


def _rows_out(rows: Tuple[Tuple[Any, ...], ...]) -> List[List[Any]]:
    return [list(row) for row in rows]


#: The plan's fields: the rules of ``__post_init__`` and the codecs of
#: :func:`repro.io.json_io.fault_plan_to_dict`.
_FIELDS: Tuple[Field, ...] = (
    Field("raise_at", _indices, list),
    Field("kill_at", _kills, _rows_out),
    Field("delay_at", _delays, _rows_out),
    Field("interrupt_at", _indices, list),
)


@dataclass(frozen=True)
class FaultPlan:
    """Where (and how often) deterministic faults fire during a sweep.

    All fields key faults by the cell's matrix index
    (:attr:`~repro.experiment.sweep.SweepCell.index`).  Constructor
    arguments accept friendly shapes — ``raise_at=(2,)``,
    ``kill_at={5: 1}``, ``delay_at={3: (2.0, 1)}`` — and are normalised
    to sorted tuples so plans are comparable and JSON-round-trippable.
    """

    raise_at: Tuple[int, ...] = ()
    kill_at: Tuple[Tuple[int, int], ...] = ()
    delay_at: Tuple[Tuple[int, float, int], ...] = ()
    interrupt_at: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_all(_FIELDS, self)

    @property
    def is_empty(self) -> bool:
        return not (self.raise_at or self.kill_at or self.delay_at
                    or self.interrupt_at)

    # -- lookups --------------------------------------------------------
    def kill_times(self, index: int) -> int:
        for i, times in self.kill_at:
            if i == index:
                return times
        return 0

    def delay_seconds(self, index: int) -> Optional[float]:
        for i, seconds, times in self.delay_at:
            if i == index and times > 0:
                return seconds
        return None

    # -- plan algebra ---------------------------------------------------
    def restrict(self, indices: Iterable[int]) -> "FaultPlan":
        """The sub-plan touching only *indices* (one group's wire share)."""
        keep = set(indices)
        return FaultPlan(
            raise_at=tuple(i for i in self.raise_at if i in keep),
            kill_at=tuple(e for e in self.kill_at if e[0] in keep),
            delay_at=tuple(e for e in self.delay_at if e[0] in keep),
            interrupt_at=tuple(i for i in self.interrupt_at if i in keep),
        )

    def decrement(self, indices: Iterable[int]) -> "FaultPlan":
        """One firing consumed for *indices*' kill/delay entries.

        The parallel supervisor calls this when it requeues a group after
        a crash or timeout: the faults that (presumably) fired lose one
        remaining count, entries at zero drop out, and a transient fault
        lets the retry succeed.  ``raise_at`` / ``interrupt_at`` entries
        are not consumed — they never trigger a group redispatch.
        """
        hit = set(indices)
        kills = tuple(
            (i, times - 1) if i in hit else (i, times)
            for i, times in self.kill_at
        )
        delays = tuple(
            (i, seconds, times - 1) if i in hit else (i, seconds, times)
            for i, seconds, times in self.delay_at
        )
        return FaultPlan(
            raise_at=self.raise_at,
            kill_at=tuple(e for e in kills if e[1] > 0),
            delay_at=tuple(e for e in delays if e[2] > 0),
            interrupt_at=self.interrupt_at,
        )


def apply_cell_faults(
    plan: Optional[FaultPlan], index: int, *, in_worker: bool
) -> None:
    """Fire any fault *plan* holds for cell *index* (called pre-execution).

    *in_worker* selects the habitat-appropriate behaviour: kill faults
    ``os._exit`` a worker process but degrade to :class:`InjectedFault`
    error rows in a serial sweep (which has no worker to lose), and
    interrupt faults fire only in the parent (the parallel supervisor
    raises them itself when the group's reply is merged).
    """
    if plan is None:
        return
    if not in_worker and index in plan.interrupt_at:
        raise KeyboardInterrupt
    delay = plan.delay_seconds(index)
    if delay is not None:
        time.sleep(delay)
    if plan.kill_times(index) > 0:
        if in_worker:
            os._exit(1)
        raise InjectedFault(
            f"kill-worker fault at cell {index} ran in a serial sweep "
            "(no worker process to kill)"
        )
    if index in plan.raise_at:
        raise InjectedFault(f"injected kernel fault at cell {index}")
