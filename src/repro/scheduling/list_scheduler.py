"""Compile-time list scheduling (Section III-B).

Non-preemptive scheduling of a task graph on ``M`` processors.
Given a schedule priority ``SP``, list scheduling *"consists of a simple
simulation of the fixed-priority policy using the updated definition of
ready jobs"*: a job is ready at time ``t`` iff

* it has arrived (``Ai <= t``),
* it has not completed, and
* all its predecessors have completed (``∀j ∈ Pred(i): ej <= t``).

At every decision instant the scheduler dispatches the highest-SP ready job
onto a free processor; when nothing can be dispatched, time advances to the
next arrival or completion.  The construction never inserts idle time except
when forced — the classic work-conserving list schedule.

The simulation itself runs in the **integer tick domain** (see
:mod:`repro.core.ticks`): arrivals and per-class durations are mapped once
per graph and platform shape to exact integer tick counts
(:meth:`TaskGraph.platform_ticks`), so the event loop's heap operations
compare and add machine integers instead of normalising rationals.  The
loop's start-tick and processor arrays are handed over as they are: the
:class:`~repro.scheduling.schedule.StaticSchedule` keeps them as its only
representation and checks feasibility on them.  Its
:class:`~repro.scheduling.schedule.ScheduledJob` entries are lazy, so
start times become exact :class:`~fractions.Fraction` values only when
entries are first read — bit-identical to a pure-Fraction
implementation.

The produced :class:`~repro.scheduling.schedule.StaticSchedule` may violate
deadlines; callers check :meth:`is_feasible` (a miss means the SP heuristic
was suboptimal — try another one via the portfolio optimizer).
"""

from __future__ import annotations

import heapq
from typing import List, Sequence, Set, Tuple

from ..errors import SchedulingError
from ..core.platform import Platform, PlatformLike
from ..core.ticks import PlatformTicks
from ..taskgraph.graph import TaskGraph
from .priorities import get_heuristic
from .schedule import StaticSchedule, as_scheduling_platform


def list_schedule(
    graph: TaskGraph,
    processors: PlatformLike,
    priority: "str | Sequence[int]" = "alap",
    wcet_aggregate: str = "mean",
) -> StaticSchedule:
    """Construct a static schedule by priority-driven list scheduling.

    Parameters
    ----------
    graph:
        The task graph (jobs in ``<J`` topological order).
    processors:
        Number ``M`` of identical processors, or a
        :class:`~repro.core.platform.Platform` — a job's duration is its
        class-resolved WCET on the processor it is dispatched to.
    priority:
        Either the name of a registered SP heuristic or an explicit rank
        list (``rank[i]`` = position of job *i*, 0 = highest priority).
    wcet_aggregate:
        How platform-aware heuristics collapse per-class WCETs into one
        ranking value (``min`` / ``max`` / ``mean``; all three agree on a
        single-class platform); ignored by explicit rank lists.

    Returns
    -------
    StaticSchedule
        A complete schedule respecting arrivals, precedences and mutual
        exclusion by construction.  Deadlines are *not* enforced during
        construction (check feasibility afterwards).
    """
    platform = as_scheduling_platform(processors)
    table = graph.platform_ticks(platform)
    start_t, _, proc_of = _schedule_ticks(graph, table, _resolve_priority(
        graph, priority, platform, wcet_aggregate
    ))
    return StaticSchedule._from_ticks(graph, platform, start_t, proc_of)


def _tick_pass(
    graph: TaskGraph, table: PlatformTicks, ranks: Sequence[int]
) -> Tuple[Tuple[int, int, int], List[int]]:
    """One list-scheduling pass under *ranks*, scored in ticks.

    Returns ``(misses, total lateness, makespan)`` and the late jobs in the
    schedule's canonical entry order (start, processor, index) — the one
    objective of the priority search and
    :func:`~repro.scheduling.optimizer.schedule_quality`.
    """
    start_t, end_t, proc_of = _schedule_ticks(graph, table, ranks)
    deadline = table.ticks.deadline
    misses = lateness = 0
    late: List[Tuple[int, int, int]] = []
    for i, (end, due) in enumerate(zip(end_t, deadline)):
        if end > due:
            misses += 1
            lateness += end - due
            late.append((start_t[i], proc_of[i], i))
    late.sort()
    return (misses, lateness, max(end_t, default=0)), [i for _, _, i in late]


def _schedule_ticks(
    graph: TaskGraph,
    table: PlatformTicks,
    ranks: Sequence[int],
) -> Tuple[List[int], List[int], List[int]]:
    """The list-scheduling event loop in pure integer ticks.

    Returns per-job ``(start_ticks, end_ticks, processor)`` arrays.  Shared by
    :func:`list_schedule` and the priority search (which evaluates thousands
    of rank permutations and must not pay Fraction arithmetic or
    re-materialise a :class:`StaticSchedule` per candidate).

    A dispatch charges ``table.per_proc[proc][i]``, job *i*'s duration on
    the class of the processor it lands on.  Dispatch order is
    highest-SP ready job onto the lowest free processor id.
    """
    n = len(graph)
    arrival = table.ticks.arrival
    dur_of_proc = table.per_proc
    succ_table = graph.successor_table()
    pred_table = graph.predecessor_table()

    remaining_preds = [len(p) for p in pred_table]
    start_t = [0] * n
    end_t = [0] * n
    proc_of = [0] * n

    # Jobs not yet arrived, as a heap keyed by arrival tick.
    arrivals = [(arrival[i], ranks[i], i) for i in range(n)]
    heapq.heapify(arrivals)
    # Ready set: arrived and precedence-free, keyed by SP rank.
    ready: List[Tuple[int, int]] = []
    # Running jobs: (end, processor, job)
    running: List[Tuple[int, int, int]] = []
    # Free processors (min-heap of ids for deterministic assignment).
    free = list(range(len(dur_of_proc)))
    heapq.heapify(free)
    # Arrived but blocked on predecessors (set: O(1) membership/removal).
    blocked: Set[int] = set()

    now = 0
    scheduled = 0
    while scheduled < n:
        # Admit arrivals at 'now'.
        while arrivals and arrivals[0][0] <= now:
            _, rank, i = heapq.heappop(arrivals)
            if remaining_preds[i] == 0:
                heapq.heappush(ready, (rank, i))
            else:
                blocked.add(i)
        # Dispatch while possible.
        while ready and free:
            rank, i = heapq.heappop(ready)
            proc = heapq.heappop(free)
            end = now + dur_of_proc[proc][i]
            start_t[i] = now
            end_t[i] = end
            proc_of[i] = proc
            heapq.heappush(running, (end, proc, i))
            scheduled += 1
        if scheduled >= n:
            break
        # Advance time to the next event: completion or arrival.
        if running:
            nxt = running[0][0]
            if arrivals and arrivals[0][0] < nxt:
                nxt = arrivals[0][0]
        elif arrivals:
            nxt = arrivals[0][0]
        else:
            stuck = [graph.jobs[i].name for i in sorted(blocked)][:5]
            raise SchedulingError(
                f"list scheduler deadlocked with blocked jobs {stuck!r} "
                "(task graph has an unsatisfiable precedence structure)"
            )
        if nxt > now:
            now = nxt
        # Retire completions at 'now' and unblock successors.
        while running and running[0][0] <= now:
            finish, proc, i = heapq.heappop(running)
            heapq.heappush(free, proc)
            for s in succ_table[i]:
                remaining_preds[s] -= 1
                if remaining_preds[s] == 0 and s in blocked:
                    blocked.discard(s)
                    if arrival[s] <= now:
                        heapq.heappush(ready, (ranks[s], s))
                    else:
                        heapq.heappush(arrivals, (arrival[s], ranks[s], s))

    return start_t, end_t, proc_of


def _resolve_priority(
    graph: TaskGraph,
    priority: "str | Sequence[int]",
    platform: Platform,
    wcet_aggregate: str = "mean",
) -> List[int]:
    if isinstance(priority, str):
        fn = get_heuristic(priority)
        if getattr(fn, "platform_aware", False):
            return fn(
                graph, platform=platform, wcet_aggregate=wcet_aggregate
            )
        return fn(graph)
    ranks = list(priority)
    if len(ranks) != len(graph):
        raise SchedulingError(
            f"priority rank list has {len(ranks)} entries for "
            f"{len(graph)} jobs"
        )
    if sorted(ranks) != list(range(len(graph))):
        raise SchedulingError("priority ranks must be a permutation of 0..n-1")
    return ranks
