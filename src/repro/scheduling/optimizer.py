"""Heuristic portfolio and processor-count search.

The paper notes that when a list schedule misses deadlines *"the selected
schedule priority may be sub-optimal — different heuristics exist for
optimizing [the] priority order SP"*.  This module operationalises that:

* :func:`find_feasible_schedule` — run a portfolio of SP heuristics and
  return the first feasible schedule (or raise with diagnostics from the
  best attempt);
* :func:`minimum_processors` — smallest ``M`` on which some portfolio
  heuristic is feasible, starting the search at the Proposition 3.1 lower
  bound ``ceil(Load(TG))``;
* :func:`schedule_quality` — summary metrics used by the heuristic ablation
  benchmark (E8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import InfeasibleError, SchedulingError
from ..core.platform import PlatformLike
from ..core.timebase import Time
from ..taskgraph.graph import TaskGraph
from ..taskgraph.load import task_graph_load
from .list_scheduler import _resolve_priority, _tick_pass, list_schedule
from .schedule import StaticSchedule, as_scheduling_platform

DEFAULT_PORTFOLIO: Tuple[str, ...] = ("alap", "blevel", "deadline", "arrival")


@dataclass
class Attempt:
    """Outcome of one heuristic attempt (for diagnostics and ablations)."""

    heuristic: str
    schedule: StaticSchedule
    violations: int

    @property
    def feasible(self) -> bool:
        return self.violations == 0


def try_portfolio(
    graph: TaskGraph,
    processors: PlatformLike,
    heuristics: Sequence[str] = DEFAULT_PORTFOLIO,
) -> List[Attempt]:
    """Run every heuristic and report all attempts (no early exit)."""
    platform = as_scheduling_platform(processors)
    attempts = []
    for name in heuristics:
        schedule = list_schedule(graph, platform, name)
        attempts.append(Attempt(name, schedule, schedule.violation_count()))
    return attempts


def find_feasible_schedule(
    graph: TaskGraph,
    processors: PlatformLike,
    heuristics: Sequence[str] = DEFAULT_PORTFOLIO,
) -> StaticSchedule:
    """First feasible schedule over the heuristic portfolio.

    ``processors`` is a core count or a
    :class:`~repro.core.platform.Platform`; heterogeneous platforms
    schedule with class-resolved durations throughout the portfolio.

    Feasibility is decided on each attempt's tick arrays; diagnostics are
    rendered only for the attempt an :class:`InfeasibleError` reports.

    Raises
    ------
    InfeasibleError
        When no portfolio heuristic produces a feasible schedule; the error
        carries the lowest-violation attempt's diagnostics.
    SchedulingError
        When *heuristics* is empty.
    """
    if not heuristics:
        raise SchedulingError("the heuristic portfolio is empty")
    platform = as_scheduling_platform(processors)
    best: Optional[Attempt] = None
    for name in heuristics:
        schedule = list_schedule(graph, platform, name)
        count = schedule.violation_count()
        if not count:
            return schedule
        if best is None or count < best.violations:
            best = Attempt(name, schedule, count)
    sample = "; ".join(str(v) for v in best.schedule.violations()[:3])
    # Spelling-independent: ``2`` and ``Platform.homogeneous(2)`` are one
    # platform, so they fail with one message.
    platform_str = (
        f"{platform.processors} processors" if platform.is_unit
        else platform.describe()
    )
    raise InfeasibleError(
        f"no feasible schedule on {platform_str} "
        f"(best: {best.heuristic!r} with {best.violations} violations)",
        diagnostics=sample,
    )


def minimum_processors(
    graph: TaskGraph,
    heuristics: Sequence[str] = DEFAULT_PORTFOLIO,
    max_processors: int = 64,
) -> Tuple[int, StaticSchedule]:
    """Smallest ``M`` with a feasible portfolio schedule.

    The search starts at the Proposition 3.1 bound ``ceil(Load(TG))`` —
    values below it cannot be feasible, so they are never tried.
    """
    if not heuristics:
        raise SchedulingError("the heuristic portfolio is empty")
    lower = task_graph_load(graph).min_processors
    for m in range(lower, max_processors + 1):
        try:
            return m, find_feasible_schedule(graph, m, heuristics)
        except InfeasibleError:
            continue
    raise InfeasibleError(
        f"no feasible schedule found up to {max_processors} processors "
        f"(load lower bound was {lower})"
    )


@dataclass(frozen=True)
class QualityReport:
    """Ablation metrics of one heuristic on one graph/platform."""

    heuristic: str
    feasible: bool
    makespan: Time
    deadline_violations: int
    total_lateness: Time


def schedule_quality(
    graph: TaskGraph, processors: PlatformLike, heuristic: str
) -> QualityReport:
    """Evaluate one heuristic: feasibility, makespan, lateness (bench E8).

    A list schedule respects arrivals, precedences and mutual exclusion
    by construction, so it is feasible exactly when it misses no deadline.
    """
    platform = as_scheduling_platform(processors)
    table = graph.platform_ticks(platform)
    (misses, lateness, makespan), _ = _tick_pass(
        graph, table, _resolve_priority(graph, heuristic, platform)
    )
    from_ticks = table.ticks.domain.from_ticks
    return QualityReport(
        heuristic=heuristic,
        feasible=misses == 0,
        makespan=from_ticks(makespan),
        deadline_violations=misses,
        total_lateness=from_ticks(lateness),
    )
