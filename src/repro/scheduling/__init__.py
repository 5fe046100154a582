"""Compile-time scheduling: list scheduler, SP heuristics, baselines."""

from .list_scheduler import list_schedule
from .optimizer import (
    Attempt,
    DEFAULT_PORTFOLIO,
    QualityReport,
    find_feasible_schedule,
    minimum_processors,
    schedule_quality,
    try_portfolio,
)
from .priorities import (
    WCET_AGGREGATES,
    alap_priority,
    arrival_priority,
    available_heuristics,
    blevel_priority,
    deadline_priority,
    get_heuristic,
    register_heuristic,
)
from .schedule import ScheduledJob, StaticSchedule, Violation
from .search import (
    SearchResult,
    find_feasible_schedule_with_search,
    search_priorities,
)
from .uniprocessor import (
    CompletedJob,
    UniprocessorFixedPriority,
    rate_monotonic_priorities,
)

__all__ = [
    "list_schedule",
    "WCET_AGGREGATES",
    "Attempt",
    "DEFAULT_PORTFOLIO",
    "QualityReport",
    "find_feasible_schedule",
    "minimum_processors",
    "schedule_quality",
    "try_portfolio",
    "alap_priority",
    "arrival_priority",
    "available_heuristics",
    "blevel_priority",
    "deadline_priority",
    "get_heuristic",
    "register_heuristic",
    "SearchResult",
    "find_feasible_schedule_with_search",
    "search_priorities",
    "ScheduledJob",
    "StaticSchedule",
    "Violation",
    "CompletedJob",
    "UniprocessorFixedPriority",
    "rate_monotonic_priorities",
]
