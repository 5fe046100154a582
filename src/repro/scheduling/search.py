"""Stochastic local search over schedule-priority orders.

Section III-B: "If the obtained static schedule satisfies the job deadlines
then it is feasible, otherwise the selected schedule priority may be
sub-optimal.  Different heuristics exist for optimizing priority order SP."

The portfolio in :mod:`repro.scheduling.optimizer` tries fixed heuristics;
this module goes one step further with a randomized hill climber over SP
permutations — the classic fallback when constructive heuristics fail on a
tight instance:

* the search state is a rank permutation (seeded from a heuristic);
* the neighbourhood is pairwise swaps, biased toward jobs involved in
  deadline violations;
* the objective is lexicographic ``(#violations, total lateness, makespan)``
  so the search makes progress even while infeasible;
* restarts re-seed from other heuristics and random shuffles.

Deterministic given the seed.

Every candidate is evaluated entirely in the graph's integer tick domain:
one list-scheduling pass over int arrays, no ``StaticSchedule``
materialisation and no rank-permutation re-validation per iteration (swaps
preserve the permutation invariant, so it is checked only where ranks enter
from outside).  The tick map is monotone, so accept/reject decisions — and
therefore the whole search trajectory — match a Fraction-domain
implementation exactly; only the final best schedule is materialised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.platform import PlatformLike
from ..core.timebase import Time
from ..errors import InfeasibleError
from ..taskgraph.graph import TaskGraph
from .list_scheduler import (
    _resolve_priority,
    _tick_pass,
    list_schedule,
)
from .priorities import available_heuristics
from .schedule import StaticSchedule, as_scheduling_platform

Objective = Tuple[int, Time, Time]

#: Internal all-integer objective: (#violations, lateness ticks, makespan ticks).
_TickObjective = Tuple[int, int, int]


@dataclass
class SearchResult:
    """Outcome of the priority search."""

    schedule: StaticSchedule
    ranks: List[int]
    objective: Objective
    iterations: int
    restarts: int

    @property
    def feasible(self) -> bool:
        return self.objective[0] == 0


def search_priorities(
    graph: TaskGraph,
    processors: PlatformLike,
    seed: int = 0,
    max_iterations: int = 2000,
    restarts: int = 4,
    seeds_from: Optional[Sequence[str]] = None,
    wcet_aggregate: str = "mean",
) -> SearchResult:
    """Hill-climb SP permutations; returns the best schedule found.

    Stops early as soon as a feasible schedule appears.  The result is the
    lexicographically best ``(violations, lateness, makespan)`` across all
    restarts.  Every candidate is evaluated with class-resolved durations
    from the graph's duration table on the platform, and the seeding
    heuristics rank with *wcet_aggregate*.
    """
    platform = as_scheduling_platform(processors)
    n = len(graph)
    rng = random.Random(seed)
    heuristic_names = list(seeds_from or available_heuristics())
    table = graph.platform_ticks(platform)

    best_ranks: Optional[List[int]] = None
    best_objective: Optional[_TickObjective] = None
    best_restarts = 0
    best_iterations = 0
    total_iters = 0

    for restart in range(max(1, restarts)):
        if restart < len(heuristic_names):
            ranks = list(_resolve_priority(
                graph, heuristic_names[restart], platform, wcet_aggregate
            ))
        else:
            ranks = list(range(n))
            rng.shuffle(ranks)
        objective, late = _tick_pass(graph, table, ranks)
        budget = max_iterations // max(1, restarts)

        for _ in range(budget):
            total_iters += 1
            if objective[0] == 0:
                break
            # Bias one endpoint of the swap toward a violating job.
            if late and rng.random() < 0.8:
                i = rng.choice(late)
            else:
                i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            ranks[i], ranks[j] = ranks[j], ranks[i]
            cand_objective, cand_late = _tick_pass(graph, table, ranks)
            if cand_objective <= objective:
                objective, late = cand_objective, cand_late
            else:
                ranks[i], ranks[j] = ranks[j], ranks[i]  # revert

        if best_objective is None or objective < best_objective:
            best_ranks = list(ranks)
            best_objective = objective
            best_restarts = restart + 1
            best_iterations = total_iters
        if best_objective[0] == 0:
            break

    assert best_ranks is not None and best_objective is not None
    # Materialise the winning schedule once (the tick core is deterministic,
    # so this reproduces the evaluated candidate exactly).
    schedule = list_schedule(graph, platform, best_ranks)
    from_ticks = table.ticks.domain.from_ticks
    return SearchResult(
        schedule=schedule,
        ranks=best_ranks,
        objective=(
            best_objective[0],
            from_ticks(best_objective[1]),
            from_ticks(best_objective[2]),
        ),
        iterations=best_iterations,
        restarts=best_restarts,
    )


def find_feasible_schedule_with_search(
    graph: TaskGraph,
    processors: PlatformLike,
    seed: int = 0,
    max_iterations: int = 2000,
) -> StaticSchedule:
    """Portfolio heuristics first, local search as the fallback.

    Raises :class:`InfeasibleError` when even the search fails.
    """
    result = search_priorities(
        graph, processors, seed=seed, max_iterations=max_iterations
    )
    if not result.feasible:
        raise InfeasibleError(
            f"priority search exhausted ({result.iterations} iterations, "
            f"{result.restarts} restarts) with {result.objective[0]} "
            "remaining deadline violations"
        )
    return result.schedule
