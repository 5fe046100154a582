"""Tests for SP heuristics and the portfolio optimizer."""

from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, build_fft_network, fft_wcets
from repro.core.platform import Platform
from repro.errors import InfeasibleError, SchedulingError
from repro.scheduling import (
    DEFAULT_PORTFOLIO,
    available_heuristics,
    find_feasible_schedule,
    get_heuristic,
    list_schedule,
    minimum_processors,
    schedule_quality,
    try_portfolio,
)
from repro.scheduling.priorities import register_heuristic
from repro.taskgraph import derive_task_graph
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job


def J(name, k=1, a=0, d=1000, c=10):
    return Job(name, k, Fraction(a), Fraction(d), Fraction(c))


@pytest.fixture(scope="module")
def fig1_graph():
    return derive_task_graph(build_fig1_network(), 25)


class TestHeuristics:
    def test_registry_contains_defaults(self):
        names = available_heuristics()
        for expected in ("alap", "arrival", "blevel", "deadline"):
            assert expected in names

    def test_every_heuristic_returns_permutation(self, fig1_graph):
        n = len(fig1_graph)
        for name in available_heuristics():
            ranks = get_heuristic(name)(fig1_graph)
            assert sorted(ranks) == list(range(n)), name

    def test_unknown_heuristic(self):
        with pytest.raises(SchedulingError):
            get_heuristic("bogus")

    @pytest.mark.parametrize("processors", [2, Platform.of(("a", 1), ("b", 1, 2))])
    @pytest.mark.parametrize("name", ["alap", "blevel"])
    def test_unknown_wcet_aggregate_rejected_on_every_platform(
        self, fig1_graph, processors, name
    ):
        with pytest.raises(SchedulingError, match="WCET aggregate"):
            list_schedule(fig1_graph, processors, name, wcet_aggregate="median")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SchedulingError):
            register_heuristic("alap")(lambda g: [])

    def test_alap_ranks_by_alap_completion(self):
        g = TaskGraph([J("late", d=1000), J("urgent", d=30)], [], Fraction(1000))
        ranks = get_heuristic("alap")(g)
        assert ranks[1] < ranks[0]

    def test_blevel_prefers_long_path_head(self):
        # a heads a long chain; c is isolated.
        g = TaskGraph(
            [J("a", c=10), J("b", c=50), J("c", c=10)],
            [(0, 1)],
            Fraction(1000),
        )
        ranks = get_heuristic("blevel")(g)
        assert ranks[0] < ranks[2]

    def test_deadline_heuristic_uses_nominal_deadline(self):
        g = TaskGraph([J("a", d=500), J("b", d=100)], [], Fraction(1000))
        ranks = get_heuristic("deadline")(g)
        assert ranks[1] < ranks[0]

    def test_arrival_heuristic_fifo(self):
        g = TaskGraph([J("a", a=0), J("b", a=0, d=500)], [], Fraction(1000))
        ranks = get_heuristic("arrival")(g)
        assert ranks[1] < ranks[0]  # tie on arrival, b has earlier deadline


class TestPortfolio:
    def test_try_portfolio_reports_all(self, fig1_graph):
        attempts = try_portfolio(fig1_graph, 2)
        assert [a.heuristic for a in attempts] == list(DEFAULT_PORTFOLIO)
        assert any(a.feasible for a in attempts)

    def test_find_feasible_on_two(self, fig1_graph):
        s = find_feasible_schedule(fig1_graph, 2)
        assert s.is_feasible()

    def test_find_feasible_raises_on_one(self, fig1_graph):
        with pytest.raises(InfeasibleError) as exc:
            find_feasible_schedule(fig1_graph, 1)
        assert exc.value.diagnostics  # carries the best attempt's violations

    def test_empty_portfolio_is_refused(self, fig1_graph):
        with pytest.raises(SchedulingError, match="portfolio is empty") as exc:
            find_feasible_schedule(fig1_graph, 2, heuristics=())
        assert not isinstance(exc.value, InfeasibleError)
        # Also when the load bound (2) leaves no processor count to try.
        for top in (64, 1):
            with pytest.raises(SchedulingError, match="portfolio is empty") as exc:
                minimum_processors(fig1_graph, heuristics=[], max_processors=top)
            assert not isinstance(exc.value, InfeasibleError)

    def test_minimum_processors_fig1(self, fig1_graph):
        m, s = minimum_processors(fig1_graph)
        assert m == 2
        assert s.is_feasible()

    def test_minimum_processors_starts_at_load_bound(self, fig1_graph):
        # the search must not even try M=1 (load bound is 2); equivalently
        # the result equals the bound here.
        m, _ = minimum_processors(fig1_graph, max_processors=4)
        assert m == 2

    def test_minimum_processors_exhaustion(self):
        # deadline too tight for any processor count
        g = TaskGraph(
            [J("a", c=40), J("b", c=40, d=50)],
            [(0, 1)],
            Fraction(1000),
        )
        with pytest.raises(InfeasibleError):
            minimum_processors(g, max_processors=8)

    def test_fft_single_processor_feasible_without_overhead(self):
        """Load 0.93 < 1: the pure task set fits one processor."""
        g = derive_task_graph(build_fft_network(), fft_wcets())
        m, _ = minimum_processors(g)
        assert m == 1


class TestQuality:
    def test_quality_feasible_case(self, fig1_graph):
        q = schedule_quality(fig1_graph, 2, "alap")
        assert q.feasible
        assert q.deadline_violations == 0
        assert q.total_lateness == 0
        assert q.makespan <= 200

    def test_quality_overload_case(self, fig1_graph):
        q = schedule_quality(fig1_graph, 1, "alap")
        assert not q.feasible
        assert q.deadline_violations > 0
        assert q.total_lateness > 0
