"""Execution traces: the action alphabet ``Act`` and trace objects.

Section II-A defines execution traces as sequences of zero-delay actions —
channel writes ``x!c``, channel reads ``x?c``, external-sample accesses
``x?[k]Ie`` / ``x![k]Oe``, variable assignments, and waits ``w(τ)``.  The
zero-delay semantics of an FPPN is precisely a rule for constructing one such
trace (Section II-B):

    Trace(PN) = w(t1) ∘ α1 ∘ w(t2) ∘ α2 ...

This module provides immutable action records and the :class:`Trace`
container.  Traces serve three purposes in this library:

1. they are the *definition* of the reference behaviour (zero-delay run);
2. the determinism checker compares channel-projections of traces produced
   under different schedules (Prop. 2.1);
3. they make tests precise — assertions can pin the exact action order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Trace:
    """An execution trace ``α ∈ Act*`` with convenience projections."""

    actions: List[Action] = field(default_factory=list)

    def append(self, action: Action) -> None:
        self.actions.append(action)

    def record(self, compact: tuple) -> None:
        """Append the action encoded by *compact* (see :data:`COMPACT_CODES`)."""
        cls, _ = COMPACT_CODES[compact[0]]
        self.append(cls(*compact[1:]))

    def extend(self, actions: Iterable[Action]) -> None:
        self.actions.extend(actions)

    def __iter__(self) -> Iterator[Action]:
        return iter(self.actions)

    def __len__(self) -> int:
        return len(self.actions)

    def __getitem__(self, i):
        return self.actions[i]

    # -- projections -----------------------------------------------------
    def channel_writes(self, channel: Optional[str] = None) -> List[Tuple[str, Any]]:
        """Sequence of ``(channel, value)`` internal writes, optionally filtered.

        This is the observable the determinism proposition quantifies over
        ("the sequences of values written at all external and internal
        channels").
        """
        out = []
        for a in self.actions:
            if isinstance(a, ChannelWrite) and (channel is None or a.channel == channel):
                out.append((a.channel, a.value))
        return out

    def external_writes(self, channel: Optional[str] = None) -> List[Tuple[str, int, Any]]:
        """Sequence of ``(channel, k, value)`` external output samples."""
        out = []
        for a in self.actions:
            if isinstance(a, ExternalWrite) and (channel is None or a.channel == channel):
                out.append((a.channel, a.sample_index, a.value))
        return out

    def job_order(self) -> List[Tuple[str, int]]:
        """The sequence of completed jobs ``(process, k)`` in start order."""
        return [(a.process, a.k) for a in self.actions if isinstance(a, JobStart)]

    def waits(self) -> List[Time]:
        """The time stamps of all ``w(τ)`` actions, in order."""
        return [a.time for a in self.actions if isinstance(a, Wait)]

    def pretty(self, limit: Optional[int] = None) -> str:
        """Multi-line human-readable rendering (truncated at *limit* actions)."""
        items = self.actions if limit is None else self.actions[:limit]
        lines = [str(a) for a in items]
        if limit is not None and len(self.actions) > limit:
            lines.append(f"... ({len(self.actions) - limit} more actions)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Lazy traces: record compactly on the hot path, materialise on demand.
# ----------------------------------------------------------------------

#: Compact encoding of the hot-path actions: one single-character code per
#: action class, followed by the dataclass fields in declaration order.
#: The field tuples are cross-checked against the dataclasses at import
#: time (below), so the encoders in :mod:`repro.core.process` and the
#: runtime executor cannot silently drift from the action definitions.
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


class LazyTrace(Trace):
    """A trace recorded as compact tuples, materialised on first access.

    The simulator's data phase emits on the order of tens of actions per
    job instance; allocating one frozen dataclass per action dominates the
    phase even though most callers never read ``result.trace``.  A lazy
    trace lets producers append ``(code, *fields)`` tuples to :attr:`raw`
    (see :data:`COMPACT_CODES`) and builds the real :class:`Action`
    objects only when a consumer first touches :attr:`actions` — exact
    same sequence, paid for only when someone looks.

    Equality works across the eager/lazy divide: a materialised
    ``LazyTrace`` compares equal to a plain :class:`Trace` holding the
    same actions, which is what the differential test oracles assert.
    """

    def __init__(self, raw: Optional[list] = None) -> None:
        self.raw: List[tuple] = raw if raw is not None else []
        self._actions: Optional[List[Action]] = None

    @property
    def actions(self) -> List[Action]:  # type: ignore[override]
        acts = self._actions
        if acts is None:
            codes = COMPACT_CODES
            new = object.__new__
            oset = object.__setattr__
            acts = []
            append = acts.append
            for rec in self.raw:
                cls, names = codes[rec[0]]
                act = new(cls)
                oset(act, "__dict__", dict(zip(names, rec[1:])))
                append(act)
            self._actions = acts
        return acts

    def __len__(self) -> int:
        # Cheap even before materialisation (used by guards and tests).
        return len(self.raw) if self._actions is None else len(self._actions)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            return self.actions == other.actions
        return NotImplemented
