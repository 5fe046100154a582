"""Tests for the stochastic schedule-priority search."""

from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, random_network, random_wcets
from repro.errors import InfeasibleError, SchedulingError
from repro.scheduling import (
    StaticSchedule,
    find_feasible_schedule,
    find_feasible_schedule_with_search,
    list_schedule,
    schedule_quality,
    search_priorities,
)
from repro.taskgraph import derive_task_graph
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job


def J(name, k=1, a=0, d=1000, c=10):
    return Job(name, k, Fraction(a), Fraction(d), Fraction(c))


def tight_instance():
    """An instance where plain heuristics can fail: two processors, six
    jobs with interlocking deadlines that require a non-obvious order."""
    jobs = [
        J("a", d=30, c=10),
        J("b", d=30, c=10),
        J("c", d=30, c=10),
        J("d", d=60, c=30),
        J("e", d=45, c=15),
        J("f", d=60, c=15),
    ]
    return TaskGraph(jobs, [], Fraction(60))


class TestSearch:
    def test_feasible_on_easy_instance(self):
        g = derive_task_graph(build_fig1_network(), 25)
        result = search_priorities(g, 2, seed=1)
        assert result.feasible
        assert result.schedule.is_feasible()

    def test_objective_is_zero_when_feasible(self):
        g = derive_task_graph(build_fig1_network(), 25)
        result = search_priorities(g, 2, seed=1)
        assert result.objective[0] == 0

    def test_reports_iterations_and_restarts(self):
        g = derive_task_graph(build_fig1_network(), 25)
        result = search_priorities(g, 2, seed=1)
        assert result.restarts >= 1
        assert result.iterations >= 0

    def test_deterministic_given_seed(self):
        g = tight_instance()
        a = search_priorities(g, 2, seed=7)
        b = search_priorities(g, 2, seed=7)
        assert a.ranks == b.ranks
        assert a.objective == b.objective

    def test_infeasible_instance_reports_best_effort(self):
        # One processor, two 10-cost jobs due at 10: impossible.
        g = TaskGraph([J("a", d=10, c=10), J("b", d=10, c=10)], [], Fraction(10))
        result = search_priorities(g, 1, seed=0, max_iterations=50)
        assert not result.feasible
        assert result.objective[0] >= 1

    def test_search_improves_on_bad_seed_heuristic(self):
        """Seeding only from 'arrival' (which fails here) the swap search
        must still find the feasible order."""
        g = tight_instance()
        bad = list_schedule(g, 2, "arrival")
        # sanity: the pool contains at least one failing heuristic order
        result = search_priorities(
            g, 2, seed=3, restarts=1, seeds_from=["arrival"],
            max_iterations=1500,
        )
        assert result.feasible or bad.is_feasible()

    def test_wrapper_returns_schedule(self):
        g = derive_task_graph(build_fig1_network(), 25)
        s = find_feasible_schedule_with_search(g, 2, seed=2)
        assert s.is_feasible()

    def test_wrapper_raises_on_hopeless_instance(self):
        g = TaskGraph([J("a", d=10, c=10), J("b", d=10, c=10)], [], Fraction(10))
        with pytest.raises(InfeasibleError, match="search exhausted"):
            find_feasible_schedule_with_search(g, 1, max_iterations=40)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs_at_load_bound(self, seed):
        from repro.taskgraph import task_graph_load

        net = random_network(seed=seed, n_periodic=4, n_sporadic=1)
        wcets = random_wcets(net, seed=seed, utilization_target=0.6)
        g = derive_task_graph(net, wcets)
        m = task_graph_load(g).min_processors
        result = search_priorities(g, m, seed=seed, max_iterations=600)
        # search never does worse than the best heuristic alone
        from repro.scheduling import schedule_quality, available_heuristics

        best_heuristic = min(
            (schedule_quality(g, m, h).deadline_violations
             for h in available_heuristics()),
        )
        assert result.objective[0] <= best_heuristic


BAD_PLATFORMS = [0, -1, True, False, "2", 2.0, None]


class TestBadPlatform:
    """Every scheduling entry point raises SchedulingError alike."""

    @pytest.mark.parametrize("bad", BAD_PLATFORMS, ids=repr)
    def test_search_priorities(self, bad):
        g = derive_task_graph(build_fig1_network(), 25)
        with pytest.raises(SchedulingError):
            search_priorities(g, bad)

    @pytest.mark.parametrize("bad", BAD_PLATFORMS, ids=repr)
    @pytest.mark.parametrize(
        "entry",
        [list_schedule, find_feasible_schedule,
         lambda g, p: schedule_quality(g, p, "alap"),
         lambda g, p: StaticSchedule(g, p, [])],
        ids=["list_schedule", "find_feasible_schedule", "schedule_quality",
             "StaticSchedule"],
    )
    def test_other_entry_points(self, entry, bad):
        g = derive_task_graph(build_fig1_network(), 25)
        with pytest.raises(SchedulingError):
            entry(g, bad)
