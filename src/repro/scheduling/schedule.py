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

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import SchedulingError
from ..core.platform import Platform, PlatformLike, as_platform
from ..core.ticks import TickDomain
from ..core.timebase import Time, time_str
from ..core.trusted import check_trusted_fields
from ..taskgraph.graph import TaskGraph
from ..taskgraph.jobs import Job


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

    The schedule's only representation is two per-job arrays in integer
    ticks: start ticks and processors (``None`` for an unscheduled job).
    Queries, orders and the Definition 3.2 check read them directly; the
    :class:`ScheduledJob` entries are materialised on first use of
    :attr:`entries`.  The list scheduler hands its arrays
    over through the trusted :meth:`_from_ticks`; this public constructor
    converts hand-built entries into the same arrays once.
    """

    def __init__(
        self,
        graph: TaskGraph,
        processors: PlatformLike,
        entries: Iterable[ScheduledJob],
    ) -> None:
        platform = as_scheduling_platform(processors)
        entries = list(entries)
        n = len(graph)
        m = platform.processors
        domain = graph.platform_ticks(platform).ticks.domain.extended(
            e.start for e in entries
        )
        to_ticks = domain.to_ticks
        start_t: List[Optional[int]] = [None] * n
        proc_of: List[Optional[int]] = [None] * n
        for e in entries:
            i = e.job_index
            if not 0 <= i < n:
                raise SchedulingError(
                    f"entry for job index {i} is out of range for a task "
                    f"graph of {n} jobs"
                )
            if e.processor >= m:
                raise SchedulingError(
                    f"entry for job {graph.jobs[i].name} uses "
                    f"processor {e.processor} >= M={m}"
                )
            if proc_of[i] is not None:
                raise SchedulingError(
                    f"job {graph.jobs[i].name} scheduled twice"
                )
            start_t[i] = to_ticks(e.start)
            proc_of[i] = e.processor
        self._init(graph, platform, domain, start_t, proc_of)

    @classmethod
    def _from_ticks(
        cls,
        graph: TaskGraph,
        platform: Platform,
        start_t: List[int],
        proc_of: List[int],
    ) -> "StaticSchedule":
        """Trusted constructor for the list scheduler's hand-off.

        *start_t* and *proc_of* are complete per-job arrays in the domain
        of ``graph.platform_ticks(platform)``, taken over as they are (not
        copied, not validated).  The field list is cross-checked against
        the public constructor at import time (bottom of this module).
        """
        schedule = cls.__new__(cls)
        schedule._init(
            graph, platform, graph.platform_ticks(platform).ticks.domain,
            start_t, proc_of,
        )
        return schedule

    def _init(
        self,
        graph: TaskGraph,
        platform: Platform,
        domain: TickDomain,
        start_t: List[Optional[int]],
        proc_of: List[Optional[int]],
    ) -> None:
        self.graph = graph
        self.platform: Platform = platform
        self.processors = platform.processors
        #: tick domain of ``_start_t``: the graph's duration table's,
        #: extended when hand-built entries carry finer start times
        self._domain = domain
        self._start_t = start_t
        self._proc_of = proc_of
        # Lazily built views (schedules are immutable after construction).
        self._ticks: Optional[
            Tuple[TickDomain, List[Optional[int]], Sequence[int],
                  Sequence[int], Sequence[int]]
        ] = None
        self._start_order: Optional[List[int]] = None
        self._entries: Optional[List[ScheduledJob]] = None
        self._memo: Optional[Dict[Any, Any]] = None
        #: the Definition 3.2 problems, once checked (see :meth:`_problems`)
        self._checked: Optional[List[Tuple[str, int, int]]] = None

    # ------------------------------------------------------------------
    def _placed(self, job_index: int) -> int:
        """*job_index*, checked to name a scheduled job of the graph."""
        if not 0 <= job_index < len(self._start_t):
            raise SchedulingError(
                f"job index {job_index} is out of range for a task graph "
                f"of {len(self._start_t)} jobs"
            )
        if self._start_t[job_index] is None:
            name = self.graph.jobs[job_index].name
            raise SchedulingError(f"job {name} is not scheduled")
        return job_index

    @property
    def entries(self) -> List[ScheduledJob]:
        """Schedule entries in (start, processor, job index) order."""
        entries = self._entries
        if entries is None:
            start_t, proc_of = self._start_t, self._proc_of
            from_ticks = self._domain.from_ticks
            order = sorted(
                self.start_order(), key=lambda i: (start_t[i], proc_of[i])
            )
            entries = self._entries = [
                ScheduledJob(i, proc_of[i], from_ticks(start_t[i]))
                for i in order
            ]
        return entries

    def entry(self, job_index: int) -> ScheduledJob:
        i = self._placed(job_index)
        return ScheduledJob(i, self._proc_of[i], self.start(i))

    def start(self, job_index: int) -> Time:
        return self._domain.from_ticks(self._start_t[self._placed(job_index)])

    def duration(self, job_index: int) -> Time:
        """The job's class-resolved WCET on its assigned processor."""
        job = self.graph.jobs[job_index]
        return job.wcet_on(self.platform.class_of(self.mapping(job_index)))

    def end(self, job_index: int) -> Time:
        return self.start(job_index) + self.duration(job_index)

    def mapping(self, job_index: int) -> int:
        return self._proc_of[self._placed(job_index)]

    def mapping_table(self) -> List[Optional[int]]:
        """Every job's processor, indexed like the graph's jobs (``None``
        for an unscheduled job).  Callers must not mutate the list."""
        return self._proc_of

    def run_memo(self) -> Dict[Any, Any]:
        """This schedule's memo of derived run state.

        Runtime layers keep values here that are pure functions of the
        schedule — the executor's run plan — so every run of one
        schedule (sweep cells across jitter, overhead and frame axes)
        shares them.  The memo dies with the schedule; values must
        not refer back to it.
        """
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        return memo

    def tick_view(
        self,
    ) -> Tuple[TickDomain, List[Optional[int]], Sequence[int], Sequence[int],
               Sequence[int]]:
        """Integer-tick view ``(domain, start, arrival, wcet, deadline)``.

        Per-job arrays in the schedule's domain: the graph's duration
        table's on this platform (:meth:`TaskGraph.platform_ticks`),
        extended if hand-built entries carry start times outside it.
        ``start[i]`` is ``None`` for an unscheduled job.  ``wcet`` holds
        each scheduled job's duration on its assigned processor
        (unscheduled jobs keep their base WCET).  Built lazily once, for
        :meth:`makespan` and callers; the feasibility check reads the
        duration table directly.
        """
        cached = self._ticks
        if cached is None:
            table = self.graph.platform_ticks(self.platform)
            tt = table.ticks
            per_proc = table.per_proc
            wcet_t = [
                w if p is None else per_proc[p][i]
                for i, (p, w) in enumerate(zip(self._proc_of, tt.wcet))
            ]
            arrival_t, deadline_t = tt.arrival, tt.deadline
            factor = tt.domain.rescale_factor(self._domain)
            if factor != 1:
                wcet_t = [t * factor for t in wcet_t]
                arrival_t = [t * factor for t in arrival_t]
                deadline_t = [t * factor for t in deadline_t]
            cached = self._ticks = (
                self._domain, self._start_t, arrival_t, wcet_t, deadline_t
            )
        return cached

    def makespan(self) -> Time:
        """Completion time of the last job in the frame."""
        dom, start_t, _, wcet, _ = self.tick_view()
        return dom.from_ticks(max(
            (s + w for s, w in zip(start_t, wcet) if s is not None),
            default=0,
        ))

    def start_order(self) -> List[int]:
        """Scheduled job indices in (start time, index) order.

        For a feasible schedule this order is topological for the union
        of precedence edges and per-processor chains: the runtime's frame
        order (Section IV).  Callers must not mutate the list.
        """
        order = self._start_order
        if order is None:
            start_t = self._start_t
            placed = (
                range(len(start_t)) if None not in start_t
                else [i for i, s in enumerate(start_t) if s is not None]
            )
            order = self._start_order = sorted(
                placed, key=start_t.__getitem__
            )
        return order

    def processor_order(self, processor: int) -> List[int]:
        """Job indices mapped to *processor*, in start-time order.

        This is exactly the per-processor static order consumed by the
        online policy (Section IV).
        """
        proc_of = self._proc_of
        return [i for i in self.start_order() if proc_of[i] == processor]

    def orders(self) -> List[List[int]]:
        """Per-processor static orders for all processors."""
        return [self.processor_order(m) for m in range(self.processors)]

    # ------------------------------------------------------------------
    def _problems(self) -> List[Tuple[str, int, int]]:
        """Definition 3.2 violations as ``(kind, a, b)``, in report order.

        ``a`` is the job (the predecessor or the earlier job for
        ``precedence`` / ``mutex``), ``b`` the successor or later job
        (``-1`` otherwise).  Memoised on the schedule (its graph and
        arrays never change); the run plan reads the same list.
        """
        checked = self._checked
        if checked is None:
            checked = self._checked = self._check()
        return checked

    def _check(self) -> List[Tuple[str, int, int]]:
        """The Definition 3.2 pass on the schedule's own start ticks and
        processors: one walk of the start order (arrival, deadline, and
        overlap with the previous job on the processor), one of the edges."""
        start_t, proc_of = self._start_t, self._proc_of
        table = self.graph.platform_ticks(self.platform)
        tt, per_proc = table.ticks, table.per_proc
        arrival_t, deadline_t = tt.arrival, tt.deadline
        factor = tt.domain.rescale_factor(self._domain)
        if factor != 1:  # hand-built entries with finer start times
            arrival_t = [t * factor for t in arrival_t]
            deadline_t = [t * factor for t in deadline_t]
            per_proc = [[t * factor for t in row] for row in per_proc]
        end_t = [-1] * len(start_t)  # -1: unscheduled, never after a start
        last = [-1] * self.processors
        bad: List[int] = []
        mutex: List[Tuple[str, int, int]] = []
        for i in self.start_order():
            s, p = start_t[i], proc_of[i]
            end = end_t[i] = s + per_proc[p][i]
            if s < arrival_t[i] or end > deadline_t[i]:
                bad.append(i)
            a = last[p]
            if a >= 0 and end_t[a] > s:
                mutex.append(("mutex", a, i))
            last[p] = i
        out = [("missing", i, -1) for i, s in enumerate(start_t) if s is None]
        if out:  # no predecessor ends after an unscheduled job's start
            start_t = [float("inf") if s is None else s for s in start_t]
        if bad:
            bad.sort(key=lambda i: (start_t[i], proc_of[i]))
            for i in bad:
                if start_t[i] < arrival_t[i]:
                    out.append(("arrival", i, -1))
                if end_t[i] > deadline_t[i]:
                    out.append(("deadline", i, -1))
        for i, succs in enumerate(self.graph.successor_table()):
            end = end_t[i]
            for j in succs:
                if end > start_t[j]:
                    out.append(("precedence", i, j))
        if mutex:
            mutex.sort(key=lambda m: proc_of[m[1]])
            out += mutex
        return out

    def violation_count(self) -> int:
        """``len(self.violations())``, without rendering diagnostics."""
        return len(self._problems())

    def violations(self) -> List[Violation]:
        """All feasibility violations of Definition 3.2 (empty == feasible).

        All comparisons run in the integer tick view; the diagnostic
        messages are rendered from the exact rational times, so they are
        identical to a pure-Fraction check.
        """
        jobs = self.graph.jobs
        out: List[Violation] = []
        for kind, a, b in self._problems():
            job = jobs[a]
            if kind == "missing":
                detail = f"job {job.name} unscheduled"
            elif kind == "arrival":
                detail = (
                    f"{job.name} starts at {time_str(self.start(a))} before "
                    f"arrival {time_str(job.arrival)}"
                )
            elif kind == "deadline":
                detail = (
                    f"{job.name} ends at {time_str(self.end(a))} "
                    f"after deadline {time_str(job.deadline)}"
                )
            elif kind == "precedence":
                detail = (
                    f"{job.name} -> {jobs[b].name}: predecessor ends "
                    f"{time_str(self.end(a))} after successor start "
                    f"{time_str(self.start(b))}"
                )
            else:
                detail = (
                    f"jobs {job.name} and {jobs[b].name} overlap "
                    f"on processor {self._proc_of[a]}"
                )
            out.append(Violation(kind, detail))
        return out

    def is_feasible(self) -> bool:
        return not self._problems()

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
            f"StaticSchedule(M={self.processors}, "
            f"jobs={len(self.start_order())}, "
            f"makespan={time_str(self.makespan())})"
        )


_SCHEDULE_FIELDS = (
    "graph", "platform", "processors", "_domain", "_start_t", "_proc_of",
    "_ticks", "_start_order", "_entries", "_memo", "_checked",
)


def _sample_schedules() -> Tuple[StaticSchedule, StaticSchedule]:
    """One two-job schedule built through both constructors."""
    graph = TaskGraph(
        [Job("p", k, Time(2 * k - 2), Time(2 * k), Time(1)) for k in (1, 2)],
        [(0, 1)],
    )
    platform = as_scheduling_platform(2)
    trusted = StaticSchedule._from_ticks(graph, platform, [0, 2], [0, 1])
    public = StaticSchedule(graph, platform, [
        ScheduledJob(1, 1, Time(2)), ScheduledJob(0, 0, Time(0)),
    ])
    return trusted, public


check_trusted_fields(StaticSchedule, _SCHEDULE_FIELDS, *_sample_schedules())
