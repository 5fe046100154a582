"""Static schedules (Definition 3.2) and feasibility checking.

A static schedule assigns every job ``Ji`` a processor ``μi`` and a start
time ``si``; it is **feasible** iff it satisfies:

* arrival:          ``si >= Ai``
* deadline:         ``ei = si + Ci <= Di``
* precedence:       ``(Ji, Jj) ∈ E  =>  ei <= sj``
* mutual exclusion: ``μi = μj  =>  ei <= sj  ∨  ej <= si``

The schedule repeats with the frame period ``H`` (Section IV); the online
static-order policy consumes only its per-processor *job order*, never its
absolute start times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..core.platform import Platform, PlatformLike, as_platform
from ..core.ticks import TickDomain
from ..core.timebase import Time, time_str
from ..taskgraph.graph import TaskGraph


def as_scheduling_platform(processors: PlatformLike) -> Platform:
    """:func:`~repro.core.platform.as_platform` for the scheduling layer.

    Every scheduling entry point coerces through here, so a bad platform
    (``0``, ``True``, a string) raises :class:`SchedulingError` alike.
    """
    try:
        return as_platform(processors)
    except (TypeError, ValueError) as exc:
        raise SchedulingError(str(exc)) from None


@dataclass(frozen=True)
class ScheduledJob:
    """One schedule entry: job index, processor, start time."""

    job_index: int
    processor: int
    start: Time

    def __post_init__(self) -> None:
        if self.processor < 0:
            raise SchedulingError("processor ids are non-negative")
        if self.start < 0:
            raise SchedulingError("start times are non-negative")


@dataclass
class Violation:
    """A diagnosed feasibility violation (for reports and error messages)."""

    kind: str  # 'arrival' | 'deadline' | 'precedence' | 'mutex' | 'missing'
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.kind}: {self.detail}"


class StaticSchedule:
    """A complete static schedule for a task graph on a platform.

    ``processors`` accepts either the classic core count (the homogeneous
    platform) or a :class:`~repro.core.platform.Platform`;
    ``self.processors`` stays the flat total either way.  A job's duration
    is its class-resolved WCET on the processor it is placed on
    (:meth:`duration`), which every feasibility check and the tick view
    charge consistently.
    """

    def __init__(
        self,
        graph: TaskGraph,
        processors: PlatformLike,
        entries: Sequence[ScheduledJob],
    ) -> None:
        platform = as_scheduling_platform(processors)
        processors = platform.processors
        self.graph = graph
        self.platform: Platform = platform
        self.processors = processors
        self.entries: List[ScheduledJob] = sorted(
            entries, key=lambda e: (e.start, e.processor, e.job_index)
        )
        self._by_job: Dict[int, ScheduledJob] = {}
        #: lazy integer-tick view (domain, start ticks, job time arrays)
        self._ticks: Optional[
            Tuple[TickDomain, Dict[int, int], Sequence[int], Sequence[int], Sequence[int]]
        ] = None
        for e in self.entries:
            if e.processor >= processors:
                raise SchedulingError(
                    f"entry for job {graph.jobs[e.job_index].name} uses "
                    f"processor {e.processor} >= M={processors}"
                )
            if e.job_index in self._by_job:
                raise SchedulingError(
                    f"job {graph.jobs[e.job_index].name} scheduled twice"
                )
            self._by_job[e.job_index] = e

    # ------------------------------------------------------------------
    def entry(self, job_index: int) -> ScheduledJob:
        try:
            return self._by_job[job_index]
        except KeyError:
            name = self.graph.jobs[job_index].name
            raise SchedulingError(f"job {name} is not scheduled") from None

    def start(self, job_index: int) -> Time:
        return self.entry(job_index).start

    def duration(self, job_index: int) -> Time:
        """The job's class-resolved WCET on its assigned processor."""
        job = self.graph.jobs[job_index]
        return job.wcet_on(self.platform.class_of(self.entry(job_index).processor))

    def end(self, job_index: int) -> Time:
        return self.entry(job_index).start + self.duration(job_index)

    def mapping(self, job_index: int) -> int:
        return self.entry(job_index).processor

    def tick_view(
        self,
    ) -> Tuple[TickDomain, Dict[int, int], Sequence[int], Sequence[int], Sequence[int]]:
        """Integer-tick view ``(domain, start_ticks, arrival, wcet, deadline)``.

        The domain is the one of the graph's duration table on this
        platform (:meth:`TaskGraph.platform_ticks`), extended if hand-built
        entries carry start times outside it; all arrays are exact integer
        images of the rational values.  ``wcet`` holds each scheduled
        job's duration on its assigned processor (unscheduled jobs keep
        their base WCET).  Built lazily once (schedules are immutable
        after construction) and shared by the feasibility checks and the
        runtime executor's frame ordering.
        """
        cached = self._ticks
        if cached is None:
            table = self.graph.platform_ticks(self.platform)
            tt = table.ticks.rescaled_to(e.start for e in self.entries)
            factor = table.ticks.domain.rescale_factor(tt.domain)
            to_ticks = tt.domain.to_ticks
            start_t = {e.job_index: to_ticks(e.start) for e in self.entries}
            wcet_t = list(tt.wcet)
            for e in self.entries:
                i = e.job_index
                wcet_t[i] = table.per_proc[e.processor][i] * factor
            cached = self._ticks = (
                tt.domain, start_t, tt.arrival, wcet_t, tt.deadline
            )
        return cached

    def makespan(self) -> Time:
        """Completion time of the last job in the frame."""
        dom, start_t, _, wcet, _ = self.tick_view()
        return dom.from_ticks(
            max((t + wcet[i] for i, t in start_t.items()), default=0)
        )

    def processor_order(self, processor: int) -> List[int]:
        """Job indices mapped to *processor*, in start-time order.

        This is exactly the per-processor static order consumed by the
        online policy (Section IV).
        """
        return [e.job_index for e in self.entries if e.processor == processor]

    def orders(self) -> List[List[int]]:
        """Per-processor static orders for all processors."""
        return [self.processor_order(m) for m in range(self.processors)]

    # ------------------------------------------------------------------
    def violations(self) -> List[Violation]:
        """All feasibility violations of Definition 3.2 (empty == feasible).

        All comparisons run in the integer tick view; the diagnostic
        messages are rendered from the exact rational times, so they are
        identical to a pure-Fraction check.
        """
        out: List[Violation] = []
        jobs = self.graph.jobs
        _, start_t, arrival_t, wcet_t, deadline_t = self.tick_view()
        for i in range(len(jobs)):
            if i not in self._by_job:
                out.append(Violation("missing", f"job {jobs[i].name} unscheduled"))
        for i, e in self._by_job.items():
            job = jobs[i]
            s = start_t[i]
            if s < arrival_t[i]:
                out.append(
                    Violation(
                        "arrival",
                        f"{job.name} starts at {time_str(e.start)} before "
                        f"arrival {time_str(job.arrival)}",
                    )
                )
            if s + wcet_t[i] > deadline_t[i]:
                out.append(
                    Violation(
                        "deadline",
                        f"{job.name} ends at {time_str(self.end(i))} "
                        f"after deadline {time_str(job.deadline)}",
                    )
                )
        for i, j in self.graph.edges():
            if i in start_t and j in start_t:
                if start_t[i] + wcet_t[i] > start_t[j]:
                    out.append(
                        Violation(
                            "precedence",
                            f"{jobs[i].name} -> {jobs[j].name}: predecessor ends "
                            f"{time_str(self.end(i))} after successor start "
                            f"{time_str(self.start(j))}",
                        )
                    )
        for m in range(self.processors):
            order = self.processor_order(m)
            for a, b in zip(order, order[1:]):
                if start_t[a] + wcet_t[a] > start_t[b]:
                    out.append(
                        Violation(
                            "mutex",
                            f"jobs {jobs[a].name} and {jobs[b].name} overlap "
                            f"on processor {m}",
                        )
                    )
        return out

    def is_feasible(self) -> bool:
        return not self.violations()

    def require_feasible(self) -> "StaticSchedule":
        """Return self, raising with diagnostics when infeasible."""
        problems = self.violations()
        if problems:
            detail = "; ".join(str(v) for v in problems[:5])
            raise SchedulingError(
                f"schedule is infeasible ({len(problems)} violations): {detail}"
            )
        return self

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StaticSchedule(M={self.processors}, jobs={len(self.entries)}, "
            f"makespan={time_str(self.makespan())})"
        )
