"""Seeded random differential: random workloads × random platforms.

Each case draws, from one seed, a random network (``random_network``)
with WCETs (``random_wcets``), a platform of one to three classes at
speeds from {1, 1/2, 2, 3/2, 1/3} (sometimes with per-class WCET tables
on some processes), a heuristic and a WCET aggregate.  The library must
agree exactly with the Fraction oracles of ``fraction_reference.py`` on:

* the list schedule, its ``violations()`` and ``makespan()``;
* ``violations()`` / ``makespan()`` of the same schedule with entries
  moved, re-mapped or dropped (every violation kind);
* a short seeded priority search;
* the run under WCET and jittered execution times.

Tier-1 runs a bounded slice of ``CASES`` seeds.
"""

import random
from fractions import Fraction

import pytest

from repro.apps.workloads import random_network, random_wcets
from repro.core.invocations import random_stimulus
from repro.core.platform import Platform
from repro.runtime import jittered_execution, run_static_order
from repro.scheduling import (
    StaticSchedule,
    available_heuristics,
    list_schedule,
    search_priorities,
)
from repro.scheduling.schedule import ScheduledJob
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_jittered_execution,
    reference_list_schedule,
    reference_run_static_order,
    reference_search_priorities,
)
from test_hetero_oracles import assert_same_feasibility
from test_tick_equivalence import assert_same_result, assert_same_schedule

SPEEDS = (Fraction(1), Fraction(1, 2), Fraction(2), Fraction(3, 2), Fraction(1, 3))
CASES = 24


def random_case(seed):
    rng = random.Random(seed)
    net = random_network(
        seed=seed, n_periodic=rng.randint(2, 4), n_sporadic=rng.randint(0, 1)
    )
    wcets = random_wcets(
        net, seed=seed, utilization_target=rng.choice((0.3, 0.5, 0.8))
    )
    classes = [
        (f"c{c}", rng.randint(1, 2), rng.choice(SPEEDS))
        for c in range(rng.randint(1, 3))
    ]
    platform = Platform.of(*classes)
    if rng.random() < 0.4:
        for name in sorted(wcets):
            if rng.random() < 0.5:
                wcets[name] = {
                    cls: wcets[name] * rng.choice(SPEEDS)
                    for cls, _, _ in classes
                }
    graph = derive_task_graph(net, wcets)
    return {
        "net": net,
        "graph": graph,
        "platform": platform,
        "heuristic": rng.choice(sorted(available_heuristics())),
        "aggregate": rng.choice(("min", "max", "mean")),
        "stimulus": random_stimulus(net, graph.hyperperiod * 2, seed=seed),
        "rng": rng,
    }


def perturbed(schedule, rng):
    """The schedule with a few entries moved, re-mapped or dropped."""
    entries = list(schedule.entries)
    for _ in range(3):
        if not entries:
            break
        k = rng.randrange(len(entries))
        e = entries[k]
        move = rng.randrange(3)
        if move == 0:
            shift = e.start * Fraction(rng.randint(0, 3), 4)
            entries[k] = ScheduledJob(e.job_index, e.processor, e.start - shift)
        elif move == 1:
            proc = rng.randrange(schedule.processors)
            entries[k] = ScheduledJob(e.job_index, proc, e.start)
        else:
            del entries[k]
    return StaticSchedule(schedule.graph, schedule.platform, entries)


@pytest.mark.parametrize("seed", range(CASES))
def test_random_case_matches_oracles(seed):
    c = random_case(seed)
    net, graph, platform = c["net"], c["graph"], c["platform"]
    heuristic, aggregate = c["heuristic"], c["aggregate"]

    ours = list_schedule(graph, platform, heuristic, wcet_aggregate=aggregate)
    assert_same_schedule(
        ours, reference_list_schedule(graph, platform, heuristic, aggregate)
    )
    assert_same_feasibility(ours)
    assert_same_feasibility(perturbed(ours, c["rng"]))

    found = search_priorities(
        graph, platform, seed=seed, max_iterations=40,
        wcet_aggregate=aggregate,
    )
    schedule, ranks, objective, iterations, restarts = (
        reference_search_priorities(
            graph, platform, seed=seed, max_iterations=40,
            wcet_aggregate=aggregate,
        )
    )
    assert (found.ranks, found.objective) == (ranks, objective)
    assert (found.iterations, found.restarts) == (iterations, restarts)
    assert_same_schedule(found.schedule, schedule)

    stim = c["stimulus"]
    assert_same_result(
        run_static_order(net, ours, 2, stim),
        reference_run_static_order(net, ours, 2, stim),
    )
    assert_same_result(
        run_static_order(net, ours, 2, stim, jittered_execution(seed)),
        reference_run_static_order(
            net, ours, 2, stim, reference_jittered_execution(seed)
        ),
    )
