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

    def test_edges_respect_total_order(self):
        g = chain_graph(3)
        with pytest.raises(ModelError, match="total order"):
            g.add_edge(2, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ModelError, match="self-loop"):
            chain_graph().add_edge(1, 1)

    def test_out_of_range_edge(self):
        with pytest.raises(ModelError, match="out of range"):
            chain_graph(2).add_edge(0, 5)

    def test_pred_succ(self):
        g = chain_graph(3)
        assert g.successors(0) == (1,)
        assert g.predecessors(2) == (1,)
        assert g.predecessors(0) == ()

    def test_pred_succ_cache_invalidated_by_mutation(self):
        g = chain_graph(3)
        assert g.successors(0) == (1,)  # builds the cached view
        g.add_edge(0, 2)
        assert g.successors(0) == (1, 2)
        g.remove_edge(0, 2)
        assert g.successors(0) == (1,)
        assert g.sinks() == (2,)

    def test_edge_mutations_hand_out_new_tables(self):
        g = TaskGraph([J(f"p{i}") for i in range(4)], [(0, 3), (1, 3)])
        succ, pred = g.successor_table(), g.predecessor_table()
        assert g.successor_table() is succ and g.predecessor_table() is pred
        g.add_edge(0, 1)
        assert g.successor_table() is not succ
        assert g.predecessor_table() is not pred
        assert succ[0] == (3,) and pred[1] == ()  # old snapshots untouched
        assert g.successor_table()[0] == (1, 3)
        assert g.predecessor_table()[3] == (0, 1)
        succ = g.successor_table()
        g.remove_edge(0, 3)
        assert g.successor_table() is not succ
        assert g.successors(0) == (1,) and g.predecessors(3) == (1,)

    def test_repeated_and_missing_edges_are_no_ops(self):
        g = TaskGraph([J(f"p{i}") for i in range(3)], [(1, 2), (0, 2), (1, 2)])
        assert g.edge_count == 2
        assert g.predecessors(2) == (0, 1)
        table = g.predecessor_table()
        g.add_edge(0, 2)
        g.remove_edge(0, 1)
        assert g.predecessor_table() is table
        assert g.edges() == [(0, 2), (1, 2)]

    def test_sources_sinks(self):
        g = chain_graph(3)
        assert g.sources() == (0,)
        assert g.sinks() == (2,)

    def test_edge_count_and_listing(self):
        g = chain_graph(3)
        assert g.edge_count == 2
        assert g.edges() == [(0, 1), (1, 2)]

    def test_remove_edge(self):
        g = chain_graph(3)
        g.remove_edge(0, 1)
        assert not g.has_edge(0, 1)
        assert g.sources() == (0, 1)

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
        g = chain_graph(3)
        assert g.is_transitively_reduced()
        g.add_edge(0, 2)
        assert not g.is_transitively_reduced()

    def test_copy_is_independent(self):
        g = chain_graph(3)
        g2 = g.copy()
        g2.remove_edge(0, 1)
        assert g.has_edge(0, 1)
        assert g2.hyperperiod == g.hyperperiod
