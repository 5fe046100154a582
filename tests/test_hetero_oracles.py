"""Heterogeneous scheduling and runtime against the Fraction oracles.

``fraction_reference.py`` resolves every duration as
``job.wcet_on(platform.class_of(processor))``, ranks ``alap`` / ``blevel``
on the exact rational ``min`` / ``max`` / ``mean`` of those durations over
the platform's classes, and scales sampled execution times by
``wcet_on(cls) / wcet``.  This suite pins the tick-domain library to those
oracles, exactly (numerator and denominator), on Fig. 1, FFT and FMS over
six platforms: the homogeneous one, two half-speed processors, big/little,
three classes at speeds 2, 1 and 1/3, one class at speed 3/2, and a
big/little platform whose jobs carry per-class WCET tables.

* ``list_schedule`` for every heuristic and every WCET aggregate, plus
  ``violations()`` / ``makespan()`` of the result and ``schedule_quality``;
* ``search_priorities`` with a fixed seed (ranks, objective, counters and
  the materialised schedule);
* ``run_static_order`` under WCET, jittered and per-process execution
  times (records, including ``processor_class``, and observables).
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from repro.apps import (
    build_fft_network,
    build_fig1_network,
    build_fms_network,
    fft_stimulus,
    fft_wcets,
    fig1_stimulus,
    fig1_wcets,
    fms_stimulus,
    fms_wcets,
)
from repro.core.platform import Platform
from repro.runtime import jittered_execution, run_static_order
from repro.scheduling import (
    available_heuristics,
    list_schedule,
    schedule_quality,
    search_priorities,
)
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_jittered_execution,
    reference_list_schedule,
    reference_makespan,
    reference_objective,
    reference_run_static_order,
    reference_search_priorities,
    reference_violations,
)
from test_tick_equivalence import assert_same_result, assert_same_schedule


PLATFORMS = {
    "homogeneous3": Platform.homogeneous(3),
    "half_speed": Platform.of(("slow", 2, Fraction(1, 2))),
    "big_little": Platform.of(("big", 1), ("little", 2, Fraction(1, 2))),
    "three_class": Platform.of(
        ("big", 1, 2), ("mid", 1), ("little", 1, Fraction(1, 3))
    ),
    "three_halves": Platform.of(("fast", 2, Fraction(3, 2))),
    "table": Platform.of(("big", 1, 2), ("little", 2)),
}

AGGREGATES = ("min", "max", "mean")


def _tabled(wcets):
    """Every other process pinned per class (``big`` / ``little``).

    The table entries are authoritative (not speed-scaled) and carry
    denominators the base WCETs lack, so the tick domain must widen.
    """
    out = dict(wcets)
    for name in sorted(out)[::2]:
        w = Fraction(out[name])
        out[name] = {"big": w * Fraction(3, 5), "little": w * Fraction(7, 4)}
    return out


APPS = {
    "fig1": (build_fig1_network, fig1_wcets, lambda net, g: fig1_stimulus(3)),
    "fft": (
        build_fft_network,
        fft_wcets,
        lambda net, g: fft_stimulus(
            [[k, k + 1j, -k, 0.5 * k] for k in range(3)]
        ),
    ),
    "fms": (
        build_fms_network,
        fms_wcets,
        lambda net, g: fms_stimulus(net, g.hyperperiod * 3),
    ),
}


@lru_cache(maxsize=None)
def case(app, platform_name):
    """``(network, graph, platform, stimulus)``; graphs shared per table."""
    net, graph = _graph(app, platform_name == "table")
    stimulus = APPS[app][2]
    return net, graph, PLATFORMS[platform_name], stimulus(net, graph)


@lru_cache(maxsize=None)
def _graph(app, tabled):
    build, wcets, _ = APPS[app]
    net = build()
    table = _tabled(wcets()) if tabled else wcets()
    return net, derive_task_graph(net, table)


def assert_same_feasibility(schedule):
    ours = [(v.kind, v.detail) for v in schedule.violations()]
    assert ours == reference_violations(schedule)
    makespan = schedule.makespan()
    ref = reference_makespan(schedule)
    assert (makespan.numerator, makespan.denominator) == (
        ref.numerator, ref.denominator)


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("heuristic", sorted(available_heuristics()))
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_list_schedule_matches_oracle(app, platform, heuristic, aggregate):
    _net, graph, plat, _stim = case(app, platform)
    ours = list_schedule(graph, plat, heuristic, wcet_aggregate=aggregate)
    ref = reference_list_schedule(graph, plat, heuristic, aggregate)
    assert_same_schedule(ours, ref)
    assert ours.platform == plat
    assert_same_feasibility(ours)
    if aggregate == "mean":  # schedule_quality ranks with the default
        (misses, lateness, makespan), _ = reference_objective(ref)
        q = schedule_quality(graph, plat, heuristic)
        assert (q.feasible, q.deadline_violations) == (misses == 0, misses)
        for a, b in ((q.total_lateness, lateness), (q.makespan, makespan)):
            assert (a.numerator, a.denominator) == (b.numerator, b.denominator)


#: Search budgets: the Fraction oracle list-schedules every candidate, so
#: FMS (812 jobs) gets a short climb.
SEARCH_BUDGET = {"fig1": 200, "fft": 200, "fms": 12}


@pytest.mark.parametrize("aggregate", AGGREGATES)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_search_matches_oracle(app, platform, aggregate):
    _net, graph, plat, _stim = case(app, platform)
    budget = SEARCH_BUDGET[app]
    ours = search_priorities(
        graph, plat, seed=7, max_iterations=budget, wcet_aggregate=aggregate
    )
    schedule, ranks, objective, iterations, restarts = (
        reference_search_priorities(
            graph, plat, seed=7, max_iterations=budget,
            wcet_aggregate=aggregate,
        )
    )
    assert ours.ranks == ranks
    assert ours.objective == objective
    for a, b in zip(ours.objective[1:], objective[1:]):
        assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
    assert (ours.iterations, ours.restarts) == (iterations, restarts)
    assert_same_schedule(ours.schedule, schedule)


def _models(graph):
    per_process = {j.process: j.wcet * Fraction(3, 4) for j in graph.jobs}
    return {
        "wcet": (None, None),
        "jitter": (jittered_execution(5), reference_jittered_execution(5)),
        "per_process": (per_process, per_process),
    }


@pytest.mark.parametrize("model", ("wcet", "jitter", "per_process"))
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_runtime_matches_oracle(app, platform, model):
    net, graph, plat, stim = case(app, platform)
    ours_model, ref_model = _models(graph)[model]
    schedule = list_schedule(graph, plat)
    ours = run_static_order(net, schedule, 2, stim, ours_model)
    ref = reference_run_static_order(net, schedule, 2, stim, ref_model)
    assert_same_result(ours, ref)
    assert {r.processor_class for r in ours.records} <= {
        cls.name for cls in plat.classes
    }
