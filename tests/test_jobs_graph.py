"""Unit tests for Job and TaskGraph structures (Definition 3.1)."""

from fractions import Fraction

import pytest

from repro.errors import ModelError
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job


def J(process, k=1, a=0, d=100, c=10, **kw):
    return Job(process, k, Fraction(a), Fraction(d), Fraction(c), **kw)


class TestJob:
    def test_name_notation(self):
        assert J("p", 3).name == "p[3]"

    def test_describe_matches_fig3_format(self):
        assert J("FilterA", 2, 100, 200, 25).describe() == "FilterA[2] (100,200,25)"

    def test_laxity(self):
        assert J("p", a=10, d=100, c=30).laxity == 60

    def test_k_one_based(self):
        with pytest.raises(ValueError):
            J("p", 0)

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            J("p", a=-1)

    def test_zero_wcet_rejected(self):
        with pytest.raises(ValueError):
            J("p", c=0)

    def test_deadline_after_arrival(self):
        with pytest.raises(ValueError):
            J("p", a=50, d=50)

    def test_server_needs_subset_and_slot(self):
        with pytest.raises(ValueError, match="subset_index and slot"):
            J("p", is_server=True)

    def test_server_ok(self):
        j = J("p", is_server=True, subset_index=1, slot=2)
        assert j.is_server and j.slot == 2


def chain_graph(n=4):
    jobs = [J(f"p{i}", a=0, d=1000) for i in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return TaskGraph(jobs, edges, Fraction(1000))


class TestTaskGraph:
    def test_len_iter(self):
        g = chain_graph(3)
        assert len(g) == 3
        assert [j.process for j in g] == ["p0", "p1", "p2"]

    def test_duplicate_job_names_rejected(self):
        with pytest.raises(ModelError, match="duplicate job"):
            TaskGraph([J("p"), J("p")])

    def test_index_and_lookup(self):
        g = chain_graph()
        assert g.index_of("p2[1]") == 2
        assert g.job("p2[1]").process == "p2"
        with pytest.raises(ModelError):
            g.index_of("ghost[1]")

    @pytest.mark.parametrize("edges, match, stored", [
        ([(0, 5)], r"^edge \(0, 5\) out of range for 4 jobs$", None),
        ([(1, 1)], r"^self-loop on job p1\[1\]$", None),
        ([(0, 1), (2, 1)],
         r"^edge \(2, 1\) violates the <J total order "
         r"\(p2\[1\] comes after p1\[1\]\)$", None),
        ([(1, 3), (0, 3), (1, 3)], None, [(0, 3), (1, 3)]),
        ([(2, 3), (0, 3), (0, 1), (0, 2)], None,
         [(0, 1), (0, 2), (0, 3), (2, 3)]),
        ([(0, 1.0)], r"^edge \(0, 1\.0\) must join two int job indices$",
         None),
        ([(0, 1), (False, True)],
         r"^edge \(False, True\) must join two int job indices$", None),
    ], ids=["out-of-range", "self-loop", "order", "duplicate", "unsorted",
            "float-endpoint", "bool-endpoints"])
    def test_constructor_edge_rules(self, edges, match, stored):
        jobs = [J(f"p{i}") for i in range(4)]
        if match is not None:
            with pytest.raises(ModelError, match=match):
                TaskGraph(jobs, edges)
            return
        g = TaskGraph(jobs, edges)
        assert g.edges() == stored
        assert g.edge_count == len(stored)
        for i in range(4):
            assert g.successors(i) == tuple(j for a, j in stored if a == i)
            assert g.predecessors(i) == tuple(a for a, j in stored if j == i)

    def test_pred_succ(self):
        g = chain_graph(3)
        assert g.successors(0) == (1,)
        assert g.predecessors(2) == (1,)
        assert g.predecessors(0) == ()

    def test_sources_sinks(self):
        g = chain_graph(3)
        assert g.sources() == (0,)
        assert g.sinks() == (2,)

    def test_edge_count_and_listing(self):
        g = chain_graph(3)
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_has_edge_named(self):
        g = chain_graph(2)
        assert g.has_edge_named("p0[1]", "p1[1]")

    def test_jobs_of_sorted_by_k(self):
        jobs = [J("a", 1), J("b", 1), J("a", 2)]
        g = TaskGraph(jobs)
        assert g.jobs_of("a") == (0, 2)
        assert g.jobs_of("no-such-process") == ()

    def test_total_wcet(self):
        assert chain_graph(4).total_wcet() == 40

    def test_reachable_from(self):
        g = chain_graph(4)
        assert g.reachable_from(0) == {1, 2, 3}
        assert g.reachable_from(3) == set()

    def test_is_transitively_reduced(self):
        assert chain_graph(3).is_transitively_reduced()
        jobs = [J(f"p{i}", a=0, d=1000) for i in range(3)]
        g = TaskGraph(jobs, [(0, 1), (1, 2), (0, 2)], Fraction(1000))
        assert not g.is_transitively_reduced()
