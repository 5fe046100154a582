"""First-class platform model: ordered processor classes with counts.

The paper assumes ``m`` identical processors; the open-system extension
studied by STOMP-style schedulers needs *heterogeneous* platforms where a
job's duration depends on the class of the processor it lands on.  This
module introduces the platform as data:

* a :class:`ProcessorClass` is a named speed factor (exact rational —
  a class of speed ``1/2`` runs every job twice as long);
* a :class:`Platform` is an **ordered** tuple of ``(class, count)``
  entries.  Flat processor ids ``0 .. M-1`` enumerate the entries in
  order, so schedules keep addressing processors by a single integer
  while :meth:`Platform.identity` recovers the ``(class name, local
  index)`` pair a slot is bound to.

``Platform.homogeneous(m)`` is the degenerate single-class speed-1
platform that replaces the old ``processors: int`` spelling.  No layer
branches on the platform's shape: each task graph keeps one duration
table per platform shape (:meth:`TaskGraph.platform_ticks`, one tick row
per class, keyed by :meth:`Platform.classes_key`), and ranking,
scheduling, schedules and the executor all charge durations from it.
The degenerate platform is the same code over a one-row table holding
the jobs' own WCETs, so ``Platform.homogeneous(m)`` is bit-identical to
``processors=m`` by construction — the invariant the differential suite
pins against the Fraction oracles.

Speeds stay exact: effective WCETs divide by the class speed in
:class:`~fractions.Fraction` arithmetic, never floats, so tick domains
remain LCM-exact and ``to_ticks`` keeps its raise-on-unrepresentable
contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .timebase import Time, TimeLike, as_positive_time

__all__ = ["ProcessorClass", "Platform", "PlatformLike", "as_platform"]


@dataclass(frozen=True)
class ProcessorClass:
    """A named processor class with an exact rational speed factor.

    ``speed`` scales WCETs: a job with base WCET ``C`` runs for
    ``C / speed`` on this class (speed 2 halves durations, speed 1/2
    doubles them).  Jobs carrying an explicit per-class WCET table are
    *not* additionally speed-scaled — the table entry is authoritative.
    """

    name: str
    speed: Time = Fraction(1)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"processor class name must be a non-empty string, "
                f"got {self.name!r}"
            )
        object.__setattr__(
            self, "speed",
            as_positive_time(self.speed, f"speed of class {self.name!r}"),
        )

    def describe(self) -> str:
        if self.speed == 1:
            return self.name
        return f"{self.name}(x{self.speed})"


#: A platform spec entry: ``(name, count)`` or ``(name, count, speed)``.
_EntrySpec = Union[Tuple[str, int], Tuple[str, int, TimeLike]]

PlatformLike = Union["Platform", int]


@dataclass(frozen=True)
class Platform:
    """An ordered multiset of processor classes.

    ``entries`` is a tuple of ``(ProcessorClass, count)`` pairs; flat
    processor ids ``0 .. processors-1`` walk the entries in order (all
    of class 0 first, then class 1, ...).  Class names must be unique
    and counts positive, so a platform is hashable, comparable and
    usable as a sweep-axis value.
    """

    entries: Tuple[Tuple[ProcessorClass, int], ...]

    def __post_init__(self) -> None:
        entries = tuple(
            (cls, int(count)) for cls, count in self.entries
        )
        if not entries:
            raise ValueError("a platform needs at least one class entry")
        seen = set()
        for cls, count in entries:
            if not isinstance(cls, ProcessorClass):
                raise TypeError(
                    f"platform entries take ProcessorClass, got {cls!r}"
                )
            if count < 1:
                raise ValueError(
                    f"class {cls.name!r} needs a positive count, got {count}"
                )
            if cls.name in seen:
                raise ValueError(f"duplicate processor class {cls.name!r}")
            seen.add(cls.name)
        object.__setattr__(self, "entries", entries)

    # -- constructors ---------------------------------------------------
    @classmethod
    def homogeneous(
        cls, processors: int, *, speed: TimeLike = 1, name: str = "cpu"
    ) -> "Platform":
        """The degenerate single-class platform (``m`` identical cores)."""
        return cls(((ProcessorClass(name, as_positive_time(speed)),
                     int(processors)),))

    @classmethod
    def of(cls, *specs: _EntrySpec) -> "Platform":
        """Build a platform from ``(name, count[, speed])`` tuples.

        >>> Platform.of(("big", 2, 1), ("little", 4, "1/2")).processors
        6
        """
        entries = []
        for spec in specs:
            if len(spec) == 2:
                name, count = spec
                entries.append((ProcessorClass(name), int(count)))
            elif len(spec) == 3:
                name, count, speed = spec
                entries.append(
                    (ProcessorClass(name, as_positive_time(speed)),
                     int(count))
                )
            else:
                raise ValueError(
                    f"platform spec entries are (name, count[, speed]), "
                    f"got {spec!r}"
                )
        return cls(tuple(entries))

    # -- shape ----------------------------------------------------------
    @property
    def processors(self) -> int:
        """Total processor count across all classes (the old ``m``)."""
        return sum(count for _, count in self.entries)

    @property
    def classes(self) -> Tuple[ProcessorClass, ...]:
        return tuple(cls for cls, _ in self.entries)

    @property
    def is_unit(self) -> bool:
        """True for the degenerate platform: one class at speed 1.

        Only wording reads it: scenario descriptions and experiment
        reports leave a unit platform out, and
        :func:`~repro.scheduling.optimizer.find_feasible_schedule` words its
        :class:`InfeasibleError` as ``N processors``.  No schedule, ranking
        or run depends on it.
        """
        return len(self.entries) == 1 and self.entries[0][0].speed == 1

    # -- flat-id addressing ---------------------------------------------
    def _locate(self, processor: int) -> Tuple[ProcessorClass, int]:
        """``(class, local index)`` of flat processor id *processor*."""
        remaining = processor
        for cls, count in self.entries:
            if remaining < count:
                return cls, remaining
            remaining -= count
        raise IndexError(
            f"processor {processor} out of range for {self.describe()}"
        )

    def class_of(self, processor: int) -> ProcessorClass:
        """The class owning flat processor id *processor*."""
        return self._locate(processor)[0]

    def identity(self, processor: int) -> Tuple[str, int]:
        """``(class name, local index)`` of flat processor id *processor*."""
        cls, local = self._locate(processor)
        return cls.name, local

    def class_per_processor(self) -> Tuple[ProcessorClass, ...]:
        """Per-flat-id class lookup table, length :attr:`processors`."""
        out = []
        for cls, count in self.entries:
            out.extend([cls] * count)
        return tuple(out)

    # -- keys / rendering -----------------------------------------------
    def classes_key(self) -> Tuple[Tuple[str, Time, int], ...]:
        """Hashable identity: ``(name, speed, count)`` per entry, in order."""
        return tuple(
            (cls.name, cls.speed, count) for cls, count in self.entries
        )

    def describe(self) -> str:
        return " + ".join(
            f"{count}x{cls.describe()}" for cls, count in self.entries
        )

    def __str__(self) -> str:
        return self.describe()


def as_platform(value: PlatformLike) -> Platform:
    """Coerce *value* (a :class:`Platform` or an ``int``) to a platform.

    The ``int`` spelling builds the degenerate homogeneous platform, so
    every API that historically took ``processors: int`` keeps working.
    """
    if isinstance(value, Platform):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a valid platform")
    if isinstance(value, int):
        if value < 1:
            raise ValueError(f"processor count must be >= 1, got {value}")
        return Platform.homogeneous(value)
    raise TypeError(
        f"cannot interpret {value!r} as a platform — pass a Platform or "
        "a processor count"
    )
