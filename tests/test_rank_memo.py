"""The per-graph memo of SP heuristic rank lists.

A named heuristic ranks once per graph and ranking input: a
platform-aware one per (name, class names and speeds, aggregate), a
platform-blind one per name.  Class counts never enter the key, edge
mutations drop the memo, explicit rank lists bypass it, and a
heuristic's output is checked to be a permutation where it enters.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, build_fms_network, fms_wcets
from repro.core.platform import Platform
from repro.errors import SchedulingError
from repro.scheduling import (
    DEFAULT_PORTFOLIO,
    find_feasible_schedule,
    list_schedule,
    minimum_processors,
    search_priorities,
)
from repro.scheduling import priorities
from repro.taskgraph import derive_task_graph
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job

BIG_LITTLE = Platform.of(("big", 1), ("little", 1, Fraction(1, 2)))


@contextmanager
def registered(name, fn, platform_aware=False):
    """*fn* registered as heuristic *name* for the duration of the block."""
    priorities.register_heuristic(name, platform_aware=platform_aware)(fn)
    try:
        yield
    finally:
        del priorities._REGISTRY[name]


@contextmanager
def counting(*names):
    """Wrap the named heuristics so every ranking call is counted."""
    calls = {name: 0 for name in names}
    originals = {name: priorities._REGISTRY[name] for name in names}

    def spy(name, fn):
        def wrapped(graph, **kwargs):
            calls[name] += 1
            return fn(graph, **kwargs)

        wrapped.platform_aware = fn.platform_aware
        return wrapped

    for name, fn in originals.items():
        priorities._REGISTRY[name] = spy(name, fn)
    try:
        yield calls
    finally:
        priorities._REGISTRY.update(originals)


def fig1_graph():
    return derive_task_graph(build_fig1_network(), 25)


def test_one_ranking_per_key_across_processor_counts():
    graph = fig1_graph()
    with counting(*DEFAULT_PORTFOLIO) as calls:
        for m in (1, 2, 3):
            for name in DEFAULT_PORTFOLIO:
                list_schedule(graph, m, name)
        assert calls == dict.fromkeys(DEFAULT_PORTFOLIO, 1)
        # A new class shape or aggregate is a new key for the
        # platform-aware heuristics only.
        for name in DEFAULT_PORTFOLIO:
            list_schedule(graph, BIG_LITTLE, name)
            list_schedule(graph, Platform.of(("big", 2), ("little", 3, "1/2")), name)
            list_schedule(graph, 2, name, wcet_aggregate="max")
        assert calls == {"alap": 3, "blevel": 3, "deadline": 1, "arrival": 1}


def test_homogeneous_spellings_share_one_ranking():
    graph = fig1_graph()
    with counting("alap") as calls:
        list_schedule(graph, 2, "alap")
        list_schedule(graph, Platform.homogeneous(3), "alap")
        list_schedule(graph, Platform.of(("cpu", 4)), "alap")
    assert calls["alap"] == 1


def test_minimum_processors_ranks_once_per_heuristic():
    # A long job takes the only processor before an urgent one arrives:
    # the load bound says 1 processor, every heuristic fails there, and
    # the search goes on to 2.
    graph = TaskGraph([
        Job("long", 1, Fraction(0), Fraction(100), Fraction(10)),
        Job("urgent", 1, Fraction(1), Fraction(3), Fraction(2)),
    ], [], Fraction(100))
    with counting(*DEFAULT_PORTFOLIO) as calls:
        m, schedule = minimum_processors(graph)
    assert m == 2 and schedule.is_feasible()
    assert calls == dict.fromkeys(DEFAULT_PORTFOLIO, 1)


def test_ranks_match_a_fresh_graph_after_a_search():
    graph = derive_task_graph(build_fms_network(), fms_wcets())
    fresh = derive_task_graph(build_fms_network(), fms_wcets())
    for platform in (1, BIG_LITTLE):
        before = list_schedule(graph, platform, "alap")
        search_priorities(graph, platform, seed=3, max_iterations=60, restarts=4)
        after = list_schedule(graph, platform, "alap")
        expected = list_schedule(fresh, platform, "alap")
        assert after.entries == expected.entries == before.entries
    for name in DEFAULT_PORTFOLIO:
        assert list_schedule(graph, 2, name).entries == (
            list_schedule(fresh, 2, name).entries
        )


def test_explicit_rank_lists_bypass_the_memo():
    graph = fig1_graph()
    ranks = list(range(len(graph)))
    list_schedule(graph, 2, ranks)
    assert graph.rank_memo() == {}


def test_non_permutation_heuristic_is_refused_by_name():
    graph = fig1_graph()
    calls = []

    def zeros(g):
        calls.append(g)
        return [0] * len(g)

    with registered("all-zeros", zeros):
        for _ in range(2):
            with pytest.raises(SchedulingError, match="'all-zeros'.*permutation"):
                list_schedule(graph, 1, "all-zeros")
        with pytest.raises(SchedulingError, match="all-zeros"):
            find_feasible_schedule(graph, 1, ("all-zeros",))
    # Nothing was memoised: each attempt ranked and was refused again.
    assert len(calls) == 3
    assert graph.rank_memo() == {}


def test_short_heuristic_output_is_refused_by_name():
    graph = fig1_graph()
    with registered("too-short", lambda g: [0]):
        with pytest.raises(SchedulingError, match="'too-short' has 1 entries"):
            list_schedule(graph, 1, "too-short")


def test_platform_blind_registered_heuristic_ranks_once():
    graph = fig1_graph()
    calls = []

    def reverse(g):
        calls.append(g)
        return list(range(len(g)))[::-1]

    with registered("reverse-index", reverse):
        for platform in (1, 2, BIG_LITTLE):
            list_schedule(graph, platform, "reverse-index", wcet_aggregate="min")
    assert len(calls) == 1
