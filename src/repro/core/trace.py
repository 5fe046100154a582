"""Execution traces: the action alphabet ``Act`` and trace objects.

Section II-A defines execution traces as sequences of zero-delay actions —
channel writes ``x!c``, channel reads ``x?c``, external-sample accesses
``x?[k]Ie`` / ``x![k]Oe``, variable assignments, and waits ``w(τ)``.  The
zero-delay semantics of an FPPN is precisely a rule for constructing one such
trace (Section II-B):

    Trace(PN) = w(t1) ∘ α1 ∘ w(t2) ∘ α2 ...

This module provides immutable action records, their compact tuple
encoding (:data:`COMPACT_CODES`) and the one :class:`Trace` container,
which stores the tuples and builds action objects only when read.
Traces serve three purposes in this library:

1. they are the *definition* of the reference behaviour (zero-delay run);
2. the determinism checker compares channel-projections of traces produced
   under different schedules (Prop. 2.1);
3. they make tests precise — assertions can pin the exact action order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Tuple

from .timebase import Time, time_str


@dataclass(frozen=True)
class Action:
    """Base class for zero-delay actions."""


@dataclass(frozen=True)
class Wait(Action):
    """``w(τ)`` — advance time to stamp ``τ``."""

    time: Time

    def __str__(self) -> str:
        return f"w({time_str(self.time)})"


@dataclass(frozen=True)
class ChannelWrite(Action):
    """``x!c`` — process *process* writes *value* to internal channel *channel*."""

    process: str
    channel: str
    value: Any

    def __str__(self) -> str:
        return f"{self.process}:{self.value!r}!{self.channel}"


@dataclass(frozen=True)
class ChannelRead(Action):
    """``x?c`` — process *process* reads *value* from internal channel *channel*."""

    process: str
    channel: str
    value: Any

    def __str__(self) -> str:
        return f"{self.process}:{self.value!r}?{self.channel}"


@dataclass(frozen=True)
class ExternalRead(Action):
    """``x?[k]Ie`` — read sample ``[k]`` from external input *channel*."""

    process: str
    channel: str
    sample_index: int
    value: Any

    def __str__(self) -> str:
        return f"{self.process}:{self.value!r}?[{self.sample_index}]{self.channel}"


@dataclass(frozen=True)
class ExternalWrite(Action):
    """``x![k]Oe`` — write sample ``[k]`` to external output *channel*."""

    process: str
    channel: str
    sample_index: int
    value: Any

    def __str__(self) -> str:
        return f"{self.process}:{self.channel}![{self.sample_index}]{self.value!r}"


@dataclass(frozen=True)
class Assign(Action):
    """Variable assignment inside a process (``x := expr``)."""

    process: str
    variable: str
    value: Any

    def __str__(self) -> str:
        return f"{self.process}:{self.variable}:={self.value!r}"


@dataclass(frozen=True)
class JobStart(Action):
    """Marker: job ``process[k]`` begins its execution run."""

    process: str
    k: int

    def __str__(self) -> str:
        return f"start {self.process}[{self.k}]"


@dataclass(frozen=True)
class JobEnd(Action):
    """Marker: job ``process[k]`` returned to its initial location."""

    process: str
    k: int

    def __str__(self) -> str:
        return f"end {self.process}[{self.k}]"


#: Compact encoding of every action: one single-character code per action
#: class, followed by the dataclass fields in declaration order.  A
#: :class:`Trace` stores exactly these tuples.  The field tuples are
#: cross-checked against the dataclasses at import time (below), so the
#: encoders in :mod:`repro.core.process`, the runtime executor and
#: :meth:`Trace.append` cannot silently drift from the action definitions.
COMPACT_CODES = {
    "R": (ChannelRead, ("process", "channel", "value")),
    "W": (ChannelWrite, ("process", "channel", "value")),
    "r": (ExternalRead, ("process", "channel", "sample_index", "value")),
    "w": (ExternalWrite, ("process", "channel", "sample_index", "value")),
    "A": (Assign, ("process", "variable", "value")),
    "S": (JobStart, ("process", "k")),
    "E": (JobEnd, ("process", "k")),
    "T": (Wait, ("time",)),
}

for _cls, _names in COMPACT_CODES.values():
    _actual = tuple(f.name for f in _cls.__dataclass_fields__.values())
    if _actual != _names:  # pragma: no cover - import-time drift guard
        raise AssertionError(
            f"{_cls.__name__}'s fields changed ({_actual} != {_names}) — "
            "update COMPACT_CODES and every compact encoder before shipping"
        )

_ENCODING = {cls: (code, names) for code, (cls, names) in COMPACT_CODES.items()}


class Trace:
    """An execution trace ``α ∈ Act*``, recorded as compact tuples.

    :attr:`raw` is the one record: a list of ``(code, *fields)`` tuples
    (:data:`COMPACT_CODES`).  Hot paths (``JobContext``, the zero-delay
    runner, the executor's data phase) append tuples to it directly;
    :meth:`append` encodes an :class:`Action`.  :attr:`actions` is a view
    built with each dataclass's public constructor, extended by the tail
    of :attr:`raw` it has not built yet, so it always holds every recorded
    action.  Length and equality are those of :attr:`raw`, and the
    projections read the tuples without building any action.
    """

    def __init__(self, actions: Iterable[Action] = ()) -> None:
        self.raw: List[tuple] = []
        self._actions: List[Action] = []
        self.extend(actions)

    def append(self, action: Action) -> None:
        code, names = _ENCODING[action.__class__]
        self.raw.append((code, *(getattr(action, n) for n in names)))

    def extend(self, actions: Iterable[Action]) -> None:
        for action in actions:
            self.append(action)

    @property
    def actions(self) -> List[Action]:
        acts = self._actions
        acts.extend(COMPACT_CODES[r[0]][0](*r[1:]) for r in self.raw[len(acts):])
        return acts

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, i):
        return self.actions[i]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return self.raw == other.raw
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({self.actions!r})"

    # -- projections -----------------------------------------------------
    def channel_writes(self, channel: Optional[str] = None) -> List[Tuple[str, Any]]:
        """Sequence of ``(channel, value)`` internal writes, optionally filtered.

        This is the observable the determinism proposition quantifies over
        ("the sequences of values written at all external and internal
        channels").
        """
        return [
            (r[2], r[3]) for r in self.raw
            if r[0] == "W" and (channel is None or r[2] == channel)
        ]

    def external_writes(self, channel: Optional[str] = None) -> List[Tuple[str, int, Any]]:
        """Sequence of ``(channel, k, value)`` external output samples."""
        return [
            (r[2], r[3], r[4]) for r in self.raw
            if r[0] == "w" and (channel is None or r[2] == channel)
        ]

    def job_order(self) -> List[Tuple[str, int]]:
        """The sequence of completed jobs ``(process, k)`` in start order."""
        return [(r[1], r[2]) for r in self.raw if r[0] == "S"]

    def waits(self) -> List[Time]:
        """The time stamps of all ``w(τ)`` actions, in order."""
        return [r[1] for r in self.raw if r[0] == "T"]

    def pretty(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (truncated at *limit* actions)."""
        items = self.actions if limit is None else self.actions[:limit]
        lines = [str(a) for a in items]
        if limit is not None and len(self) > limit:
            lines.append(f"... ({len(self) - limit} more actions)")
        return "\n".join(lines)
