"""Event generators: multi-periodic and sporadic.

Section II-A: an event generator ``e`` is defined by the set of time-stamp
sequences it can produce online, a deadline ``de`` and partitioned subsets
``Ie``/``Oe`` of external channels.  Both default generator types are
parameterised by the **burst size** ``me`` and the **period** ``Te``:

* **multi-periodic** — bursts of ``me`` simultaneous events at times
  ``0, Te, 2Te, ...`` (optionally phased by an offset, which the paper's
  examples do not use but which falls out of the model for free);
* **sporadic** — at most ``me`` events in any half-closed interval of
  length ``Te``.

A *periodic* process in the paper's figures is simply a multi-periodic one
with ``me = 1``.  Sporadic generators additionally validate concrete arrival
traces (needed by the runtime simulator) against the ``(m, T)`` constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import EventError
from .timebase import (
    Time,
    TimeLike,
    as_nonnegative_time,
    as_positive_time,
    as_time,
    time_str,
)


class EventGenerator:
    """Base class of event generators.

    Subclasses must implement :meth:`invocations`, enumerating the
    *guaranteed* invocation times inside a horizon (for periodic generators)
    or raise :class:`EventError` if the notion is undefined (sporadic
    generators have no fixed invocation times — they get *server jobs*
    instead, Section III-A).
    """

    def __init__(self, period: TimeLike, deadline: TimeLike, burst: int = 1) -> None:
        self.period: Time = as_positive_time(period, "period")
        self.deadline: Time = as_positive_time(deadline, "deadline")
        if not isinstance(burst, int) or burst < 1:
            raise EventError(f"burst size must be a positive integer, got {burst!r}")
        self.burst: int = burst

    # -- classification -------------------------------------------------
    @property
    def is_sporadic(self) -> bool:
        raise NotImplementedError

    @property
    def is_periodic(self) -> bool:
        return not self.is_sporadic

    def invocations(self, horizon: TimeLike) -> List[Time]:
        """Invocation time stamps in ``[0, horizon)``, bursts expanded."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


class PeriodicGenerator(EventGenerator):
    """Multi-periodic generator: ``burst`` events at ``offset + k*period``.

    With ``burst == 1`` this is the plain periodic process of the figures
    (e.g. *FilterA, 100ms*); with ``burst == m`` it is the paper's
    ``m``-periodic generator used for server processes.
    """

    def __init__(
        self,
        period: TimeLike,
        deadline: Optional[TimeLike] = None,
        burst: int = 1,
        offset: TimeLike = 0,
    ) -> None:
        if deadline is None:
            deadline = period  # implicit deadline, the common case in the paper
        super().__init__(period, deadline, burst)
        self.offset: Time = as_nonnegative_time(offset, "offset")
        if self.offset >= self.period:
            raise EventError(
                f"offset {time_str(self.offset)} must be smaller than the "
                f"period {time_str(self.period)}"
            )

    @property
    def is_sporadic(self) -> bool:
        return False

    def invocations(self, horizon: TimeLike) -> List[Time]:
        h = as_positive_time(horizon, "horizon")
        out: List[Time] = []
        k = 0
        while True:
            t = self.offset + k * self.period
            if t >= h:
                break
            out.extend([t] * self.burst)
            k += 1
        return out

    def describe(self) -> str:
        core = f"{self.burst} per {time_str(self.period)}" if self.burst > 1 else time_str(
            self.period
        )
        return f"periodic({core}, d={time_str(self.deadline)})"

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"PeriodicGenerator({self.describe()})"


class SporadicGenerator(EventGenerator):
    """Sporadic generator: at most ``burst`` events per half-closed window.

    ``period`` here is the *minimal inter-burst window* ``Te``: any half-closed
    interval of length ``Te`` contains at most ``burst`` events.
    """

    @property
    def is_sporadic(self) -> bool:
        return True

    def invocations(self, horizon: TimeLike) -> List[Time]:
        raise EventError(
            "sporadic generators have no fixed invocation times; derive a "
            "task graph (server jobs) or supply an arrival trace instead"
        )

    def max_events_in(self, horizon: TimeLike) -> int:
        """Upper bound on the number of events in a window of given length.

        For a window of length ``L`` the sporadic constraint allows at most
        ``burst * ceil(L / period)`` events (pack a burst at the start of each
        ``period``-length slice).
        """
        h = as_positive_time(horizon, "horizon")
        slices = -((-h) // self.period)  # ceil division; Fraction // Fraction -> int
        return self.burst * int(slices)

    def validate_trace(self, times: Iterable[TimeLike]) -> List[Time]:
        """Validate and normalise a concrete arrival trace.

        Checks (a) the trace is sorted, (b) every half-closed window
        ``[t, t + T)`` starting at an arrival contains at most ``burst``
        arrivals.  Sliding a window so that it *starts* at each arrival is
        sufficient: any window containing ``> m`` arrivals can be shrunk on
        the left until its first element is an arrival.  On a sorted trace
        the window at ``i`` overflows exactly when ``trace[i + burst]``
        still falls inside it, so the check is one compare per arrival;
        arrivals are counted only to report the first violation.

        Returns the normalised (Fraction) sorted list.
        """
        trace = [as_nonnegative_time(t, "arrival time") for t in times]
        for a, b in zip(trace, trace[1:]):
            if b < a:
                raise EventError("sporadic arrival trace must be sorted")
        n, burst = len(trace), self.burst
        for i in range(n - burst):
            window_end = trace[i] + self.period
            if trace[i + burst] < window_end:
                j = i + burst + 1
                while j < n and trace[j] < window_end:
                    j += 1
                raise EventError(
                    f"sporadic constraint violated: {j - i} arrivals in "
                    f"[{time_str(trace[i])}, {time_str(window_end)}) but burst "
                    f"size is {self.burst}"
                )
        return trace

    def describe(self) -> str:
        return (
            f"sporadic({self.burst} per {time_str(self.period)}, "
            f"d={time_str(self.deadline)})"
        )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SporadicGenerator({self.describe()})"


@dataclass(frozen=True)
class Invocation:
    """A single event invocation: process *name* invoked at *time*.

    ``index`` is the 1-based invocation count k of the process, so the k-th
    invocation triggers the k-th job execution run and accesses external
    samples ``[k]``.
    """

    process: str
    time: Time
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise EventError("invocation index is 1-based")


def merge_invocations(
    per_process: Sequence[Tuple[str, Sequence[Time]]],
) -> List[Tuple[Time, List[Invocation]]]:
    """Merge per-process invocation times into the global sequence
    ``(t1, P1), (t2, P2), ...`` of the zero-delay semantics (Section II-B).

    *per_process* maps process name to its sorted invocation times (bursts
    appear as repeated time stamps).  Returns a list of ``(t, multiset)``
    pairs with strictly increasing ``t``; each multiset lists the
    :class:`Invocation` objects that fire at ``t`` (a process invoked with
    burst ``m`` contributes ``m`` consecutive invocation indices).
    """
    counters = {name: 0 for name, _ in per_process}
    events: List[Invocation] = []
    for name, times in per_process:
        prev: Optional[Time] = None
        for t in times:
            if prev is not None and t < prev:
                raise EventError(f"invocation times of {name!r} must be sorted")
            prev = t
            counters[name] += 1
            events.append(Invocation(name, as_time(t), counters[name]))
    events.sort(key=lambda ev: ev.time)
    grouped: List[Tuple[Time, List[Invocation]]] = []
    for ev in events:
        if grouped and grouped[-1][0] == ev.time:
            grouped[-1][1].append(ev)
        else:
            grouped.append((ev.time, [ev]))
    return grouped
