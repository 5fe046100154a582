"""Seeded differential: list schedules of graphs whose arrivals are unsorted.

The list scheduler admits arrivals by walking the graph's arrival order
(``TaskGraph.arrival_order``).  Every derived graph is already sorted by
arrival in ``<J`` order, so there the walk is index order.  These cases
hand-build DAGs (edges ``i < j``) with arrivals that are *not* monotone in
the index, and require the library's schedule to equal the Fraction
reference scheduler's (``fraction_reference.reference_list_schedule``, an
arrival heap) for every heuristic on homogeneous and big/little platforms.
"""

import random
from fractions import Fraction

import pytest

from repro.core.platform import Platform
from repro.scheduling import available_heuristics, list_schedule
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job

from fraction_reference import reference_list_schedule
from test_tick_equivalence import assert_same_schedule

PLATFORMS = (
    Platform.homogeneous(1),
    Platform.homogeneous(2),
    Platform.homogeneous(3),
    Platform.of(("big", 1), ("little", 1, Fraction(1, 2))),
    Platform.of(("big", 2, Fraction(3, 2)), ("little", 1)),
)
CASES = 40


def unsorted_graph(seed):
    """A random DAG whose arrivals are out of index order."""
    rng = random.Random(seed)
    n = rng.randint(6, 30)
    arrivals = [
        Fraction(rng.randint(0, 40), rng.choice((1, 2, 3))) for _ in range(n)
    ]
    if arrivals == sorted(arrivals):
        arrivals.reverse()
    jobs = [
        Job(
            f"p{i % 4}", i // 4 + 1, a,
            a + rng.randint(10, 80), Fraction(rng.randint(1, 12), rng.choice((1, 2))),
        )
        for i, a in enumerate(arrivals)
    ]
    density = rng.choice((0.0, 0.05, 0.15, 0.3))
    edges = [
        (i, j) for j in range(n) for i in range(j) if rng.random() < density
    ]
    return TaskGraph(jobs, edges, Fraction(200))


@pytest.mark.parametrize("seed", range(CASES))
def test_unsorted_arrivals_match_reference(seed):
    graph = unsorted_graph(seed)
    assert graph.arrival_order() != tuple(range(len(graph)))
    for platform in PLATFORMS:
        for heuristic in available_heuristics():
            assert_same_schedule(
                list_schedule(graph, platform, heuristic),
                reference_list_schedule(graph, platform, heuristic),
            )


@pytest.mark.parametrize("seed", range(0, CASES, 8))
def test_unsorted_arrivals_explicit_ranks_match_reference(seed):
    graph = unsorted_graph(seed)
    ranks = list(range(len(graph)))
    random.Random(seed).shuffle(ranks)
    for platform in PLATFORMS:
        assert_same_schedule(
            list_schedule(graph, platform, ranks),
            reference_list_schedule(graph, platform, ranks),
        )


def test_arrival_order_breaks_ties_by_index():
    jobs = [
        Job("a", 1, Fraction(5), Fraction(50), Fraction(1)),
        Job("b", 1, Fraction(0), Fraction(50), Fraction(1)),
        Job("c", 1, Fraction(5), Fraction(50), Fraction(1)),
        Job("d", 1, Fraction(1, 2), Fraction(50), Fraction(1)),
    ]
    assert TaskGraph(jobs).arrival_order() == (1, 3, 0, 2)
