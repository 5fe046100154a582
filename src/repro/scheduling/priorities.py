"""Schedule-priority (SP) heuristics for list scheduling.

Section III-B: list scheduling assumes a heuristically computed *schedule
priority* ``SP`` — a total order on jobs where earlier jobs have higher
priority.  ``SP`` must not be confused with the functional priority ``FP``;
FP determines the precedence edges, SP only drives the list scheduler's
tie-breaking.

Implemented heuristics (the families the paper cites):

* ``alap`` — EDF adjusted for task graphs by using ALAP completion times
  ``D'_i`` instead of nominal deadlines (the paper's recommended variant).
* ``deadline`` — EDF on the nominal deadlines ``Di`` (the "modified
  deadline monotonic" flavour of [Forget et al.]).
* ``blevel`` — longest WCET-weighted path to any sink, descending
  (the classic b-level heuristic of [Kwok & Ahmad]).
* ``arrival`` — FIFO by arrival time (baseline; what a naive implementation
  would do).

Every heuristic returns a *rank list*: ``rank[i]`` is the position of job
``i`` in the SP total order (0 = highest priority).  All orders are made
total deterministically by final tie-breaks on the ``<J`` index.

Sort keys are built from the graph's integer tick view
(:meth:`TaskGraph.tick_times`): the tick map is strictly monotone, so the
resulting orders — and therefore the rank lists — are identical to sorting
the exact rational times, at a fraction of the comparison cost.

**Platforms.**  A job's duration depends on the processor class it
lands on, so the WCET-consuming heuristics (``alap``, ``blevel``) rank
on an *aggregate* of the job's row in the graph's duration table
(:meth:`TaskGraph.platform_ticks`) — ``min`` (optimistic), ``max``
(conservative) or ``mean`` (STOMP-style expected duration; the default),
all in integer ticks.  ``mean`` ranks on the per-job sum over the ``k``
classes against arrivals and deadlines scaled by ``k``: a uniform
scale, so orders and ties are those of the exact rational mean.  On a
homogeneous platform the table has one row — the jobs' own WCETs — and
every aggregate is that row.  Built-in heuristics are marked
``platform_aware`` and receive the platform and aggregate as keywords;
externally registered platform-blind heuristics keep ranking on the
base WCETs, which remains a valid total order.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..errors import SchedulingError
from ..core.platform import PlatformLike
from ..core.ticks import JobTicks, TickDomain
from ..taskgraph.asap_alap import compute_bounds_ticks
from ..taskgraph.graph import TaskGraph
from .schedule import as_scheduling_platform

Heuristic = Callable[[TaskGraph], List[int]]

#: Supported per-class WCET aggregates for platform-aware ranking.
WCET_AGGREGATES = ("min", "max", "mean")

_REGISTRY: Dict[str, Heuristic] = {}


def register_heuristic(
    name: str, *, platform_aware: bool = False
) -> Callable[[Heuristic], Heuristic]:
    """Decorator registering a named SP heuristic.

    ``platform_aware`` heuristics are also passed the ``platform`` being
    scheduled and the ``wcet_aggregate`` as keywords; plain heuristics
    are always called with the graph alone.

    Rank lists are memoised per graph, by name and (platform-aware) class
    names, speeds and aggregate: a heuristic must be a deterministic
    function of those and return a permutation of ``0..n-1``.
    """

    def deco(fn: Heuristic) -> Heuristic:
        if name in _REGISTRY:
            raise SchedulingError(f"heuristic {name!r} already registered")
        fn.platform_aware = platform_aware  # type: ignore[attr-defined]
        _REGISTRY[name] = fn
        return fn

    return deco


def _ranking_ticks(
    graph: TaskGraph, platform: PlatformLike, aggregate: str
) -> JobTicks:
    """The tick view ``alap`` and ``blevel`` rank on.

    Its WCETs aggregate each job's row of the platform's duration table.
    For ``mean`` over ``k`` classes they are the row sums in a domain
    ``k`` times finer, arrivals and deadlines scaled to match — exactly
    the rational mean, without dividing.
    """
    if aggregate not in WCET_AGGREGATES:
        raise SchedulingError(
            f"unknown WCET aggregate {aggregate!r}; "
            f"supported: {list(WCET_AGGREGATES)}"
        )
    table = graph.platform_ticks(as_scheduling_platform(platform))
    tt, rows, k = table.ticks, table.rows, len(table.rows)
    if k == 1 or aggregate != "mean":
        pick = min if aggregate == "min" else max
        wcet = rows[0] if k == 1 else [pick(col) for col in zip(*rows)]
        return JobTicks._from_arrays(tt.domain, tt.arrival, wcet, tt.deadline)
    return JobTicks._from_arrays(
        TickDomain(tt.domain.scale * k),
        [a * k for a in tt.arrival],
        [sum(col) for col in zip(*rows)],
        [d * k for d in tt.deadline],
    )


def available_heuristics() -> List[str]:
    """Names of all registered heuristics."""
    return sorted(_REGISTRY)


def get_heuristic(name: str) -> Heuristic:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SchedulingError(
            f"unknown heuristic {name!r}; available: {available_heuristics()}"
        ) from None


def _ranks_from_keys(keys: Sequence) -> List[int]:
    """Convert per-job sort keys into rank positions (0 = highest)."""
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    ranks = [0] * len(keys)
    for pos, i in enumerate(order):
        ranks[i] = pos
    return ranks


@register_heuristic("alap", platform_aware=True)
def alap_priority(
    graph: TaskGraph,
    platform: PlatformLike = 1,
    wcet_aggregate: str = "mean",
) -> List[int]:
    """EDF on ALAP completion times (ties: ASAP, then ``<J`` index)."""
    asap_t, alap_t = compute_bounds_ticks(
        graph, _ranking_ticks(graph, platform, wcet_aggregate)
    )
    keys = [(alap_t[i], asap_t[i], i) for i in range(len(graph))]
    return _ranks_from_keys(keys)


@register_heuristic("deadline")
def deadline_priority(graph: TaskGraph) -> List[int]:
    """EDF on the nominal job deadlines ``Di`` (ties: arrival, index)."""
    tt = graph.tick_times()
    keys = [
        (tt.deadline[i], tt.arrival[i], i) for i in range(len(graph))
    ]
    return _ranks_from_keys(keys)


@register_heuristic("blevel", platform_aware=True)
def blevel_priority(
    graph: TaskGraph,
    platform: PlatformLike = 1,
    wcet_aggregate: str = "mean",
) -> List[int]:
    """Descending b-level: longest WCET path from the job to any sink.

    Jobs on long critical paths are urgent even when their deadline is far;
    this is the classical list-scheduling heuristic for makespan.
    """
    n = len(graph)
    tt = _ranking_ticks(graph, platform, wcet_aggregate)
    wcet = tt.wcet
    succ_table = graph.successor_table()
    blevel: List[int] = [0] * n
    for i in range(n - 1, -1, -1):
        tail = 0
        for s in succ_table[i]:
            if blevel[s] > tail:
                tail = blevel[s]
        blevel[i] = wcet[i] + tail
    keys = [(-blevel[i], tt.deadline[i], i) for i in range(n)]
    return _ranks_from_keys(keys)


@register_heuristic("arrival")
def arrival_priority(graph: TaskGraph) -> List[int]:
    """FIFO by arrival time (baseline heuristic)."""
    tt = graph.tick_times()
    keys = [(tt.arrival[i], tt.deadline[i], i) for i in range(len(graph))]
    return _ranks_from_keys(keys)
