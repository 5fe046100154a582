"""ASAP start times and ALAP completion times (Section III-B).

For a task graph they are the recursive fixpoints::

    A'_i = max(A_i, max_{j in Pred(i)} A'_j + C_j)
    D'_i = min(D_i, min_{j in Succ(i)} D'_j - C_j)

``A'_i`` lower-bounds any feasible start ``s_i`` and ``D'_i`` upper-bounds
any feasible completion ``e_i``.  Because the job list is stored in
topological order, one forward and one backward pass suffice.

These times feed (a) the necessary schedulability condition of
Proposition 3.1, (b) the precedence-aware load metric
(:mod:`repro.taskgraph.load`), and (c) the ALAP/EDF schedule-priority
heuristic (:mod:`repro.scheduling.priorities`).

Both passes run in the graph's integer tick domain (the fixpoints are pure
max/add recurrences, so the tick results convert back to the exact rational
bounds); :func:`compute_bounds_ticks` exposes the raw integer arrays for
hot callers like the SP heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.ticks import JobTicks
from ..core.timebase import Time
from .graph import TaskGraph


@dataclass(frozen=True)
class TimingBounds:
    """ASAP starts and ALAP completions, indexed like ``graph.jobs``."""

    asap: List[Time]
    alap: List[Time]

    def window(self, i: int) -> Time:
        """Length of job *i*'s feasible execution window ``D'_i - A'_i``."""
        return self.alap[i] - self.asap[i]


def compute_bounds_ticks(
    graph: TaskGraph, tt: Optional[JobTicks] = None
) -> Tuple[List[int], List[int]]:
    """ASAP/ALAP fixpoints as integer tick arrays of *tt*.

    *tt* defaults to ``graph.tick_times()``; the platform-aware ranking
    passes a view whose WCETs aggregate the graph's duration table.
    """
    n = len(graph)
    if tt is None:
        tt = graph.tick_times()
    arrival, deadline, wcet = tt.arrival, tt.deadline, tt.wcet
    pred_table = graph.predecessor_table()
    succ_table = graph.successor_table()

    asap: List[int] = [0] * n
    for i in range(n):
        best = arrival[i]
        for p in pred_table[i]:
            cand = asap[p] + wcet[p]
            if cand > best:
                best = cand
        asap[i] = best

    alap: List[int] = [0] * n
    for i in range(n - 1, -1, -1):
        best = deadline[i]
        for s in succ_table[i]:
            cand = alap[s] - wcet[s]
            if cand < best:
                best = cand
        alap[i] = best

    return asap, alap


def compute_bounds(graph: TaskGraph) -> TimingBounds:
    """Compute ASAP/ALAP for every job of *graph* (exact rationals)."""
    asap_t, alap_t = compute_bounds_ticks(graph)
    from_ticks = graph.tick_times().domain.from_ticks
    return TimingBounds(
        [from_ticks(t) for t in asap_t],
        [from_ticks(t) for t in alap_t],
    )


def precedence_feasible(graph: TaskGraph, bounds: TimingBounds = None) -> bool:
    """First half of Proposition 3.1: ``A'_i + C_i <= D'_i`` for every job.

    A violated bound means some job cannot fit its window even on infinitely
    many processors — the graph is infeasible regardless of platform.
    """
    if bounds is None:
        asap_t, alap_t = compute_bounds_ticks(graph)
        wcet_t = graph.tick_times().wcet
        return all(
            asap_t[i] + wcet_t[i] <= alap_t[i] for i in range(len(graph))
        )
    return all(
        bounds.asap[i] + graph.jobs[i].wcet <= bounds.alap[i]
        for i in range(len(graph))
    )


def critical_path_length(graph: TaskGraph) -> Time:
    """Length of the longest WCET-weighted path (ignoring arrivals/deadlines).

    Useful as a makespan lower bound and in reports.
    """
    n = len(graph)
    tt = graph.tick_times()
    wcet = tt.wcet
    pred_table = graph.predecessor_table()
    finish: List[int] = [0] * n
    best = 0
    for i in range(n):
        start = 0
        for p in pred_table[i]:
            if finish[p] > start:
                start = finish[p]
        finish[i] = start + wcet[i]
        if finish[i] > best:
            best = finish[i]
    return tt.domain.from_ticks(best)
