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
compare and add machine integers instead of normalising rationals.
Arrivals are fixed per graph, so the loop walks one arrival-sorted job
order (:meth:`TaskGraph.arrival_order`) instead of popping a heap.  A named
heuristic ranks once per graph and ranking input (:meth:`TaskGraph.rank_memo`:
name, plus class names, speeds and WCET aggregate if platform-aware —
never class counts), so it must be deterministic in those; a graph's edges
are fixed at construction, so a memoised ranking never goes stale.  Its
ranks are checked to be a permutation where they enter the memo.

The loop's start-tick and processor arrays are handed over as they are: the
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

from heapq import heappop, heappush
from math import inf
from typing import List, Sequence, Tuple

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
    lateness = 0
    late: List[Tuple[int, int, int]] = []
    for i, (end, due) in enumerate(zip(end_t, deadline)):
        if end > due:
            lateness += end - due
            late.append((start_t[i], proc_of[i], i))
    late.sort()
    return (len(late), lateness, max(end_t, default=0)), [i for _, _, i in late]


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
    order = graph.arrival_order()
    dur_of_proc = table.per_proc
    succ_table = graph.successor_table()
    remaining_preds = [len(p) for p in graph.predecessor_table()]
    start_t = [0] * n
    end_t = [0] * n
    proc_of = [0] * n

    # Arrival walk: order[walk] arrives next, at nxt_arr (inf once all have).
    walk = 0
    nxt_arr = arrival[order[0]] if n else inf
    # Ready set: arrived and precedence-free, keyed by SP rank.
    ready: List[Tuple[int, int]] = []
    # Running jobs: (end, processor, job)
    running: List[Tuple[int, int, int]] = []
    # Free processors (a sorted list is a min-heap: lowest id first).
    free = list(range(len(dur_of_proc)))
    # Arrived but waiting on predecessors.
    waiting = [False] * n

    now = 0
    scheduled = 0
    while scheduled < n:
        # Admit arrivals at 'now'.
        while nxt_arr <= now:
            i = order[walk]
            walk += 1
            nxt_arr = arrival[order[walk]] if walk < n else inf
            if remaining_preds[i]:
                waiting[i] = True
            else:
                heappush(ready, (ranks[i], i))
        # Dispatch while possible.
        while ready and free:
            rank, i = heappop(ready)
            proc = heappop(free)
            end = now + dur_of_proc[proc][i]
            start_t[i] = now
            end_t[i] = end
            proc_of[i] = proc
            heappush(running, (end, proc, i))
            scheduled += 1
        if scheduled >= n:
            break
        # Advance time to the next event: completion or arrival.
        if running:
            nxt = running[0][0]
            if nxt_arr < nxt:
                nxt = nxt_arr
        elif walk < n:
            nxt = nxt_arr
        else:
            stuck = [graph.jobs[i].name for i in range(n) if waiting[i]][:5]
            raise SchedulingError(
                f"list scheduler deadlocked with blocked jobs {stuck!r} "
                "(task graph has an unsatisfiable precedence structure)"
            )
        if nxt > now:
            now = nxt
        # Retire completions at 'now'; waiting successors become ready.
        while running and running[0][0] <= now:
            finish, proc, i = heappop(running)
            heappush(free, proc)
            for s in succ_table[i]:
                remaining_preds[s] -= 1
                if remaining_preds[s] == 0 and waiting[s]:
                    waiting[s] = False
                    heappush(ready, (ranks[s], s))

    return start_t, end_t, proc_of


def _resolve_priority(
    graph: TaskGraph,
    priority: "str | Sequence[int]",
    platform: Platform,
    wcet_aggregate: str = "mean",
) -> List[int]:
    """*priority*'s rank list; a named one is memoised, so do not mutate it."""
    if not isinstance(priority, str):
        return _permutation(list(priority), len(graph), "priority rank list")
    fn = get_heuristic(priority)
    aware = getattr(fn, "platform_aware", False)
    shape = tuple((cls.name, cls.speed) for cls, _ in platform.entries)
    key = (priority, shape, wcet_aggregate) if aware else priority
    memo = graph.rank_memo()
    if key not in memo:
        ranks = fn(graph, platform=platform, wcet_aggregate=wcet_aggregate) if aware else fn(graph)
        memo[key] = _permutation(ranks, len(graph), f"heuristic {priority!r}")
    return memo[key]


def _permutation(ranks: List[int], n: int, what: str) -> List[int]:
    if len(ranks) != n:
        raise SchedulingError(f"{what} has {len(ranks)} entries for {n} jobs")
    if sorted(ranks) != list(range(n)):
        raise SchedulingError(f"{what} must be a permutation of 0..n-1")
    return ranks
