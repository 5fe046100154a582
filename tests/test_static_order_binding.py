"""Tests for the arrival binding of the static-order policy (Section IV).

These pin down the subtlest part of the paper: which server-job slot handles
a real sporadic arrival, including arrivals exactly on window boundaries.
"""

from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, fig1_stimulus, fig1_wcets
from repro.core import Stimulus
from repro.errors import RuntimeModelError, SchedulingError
from repro.runtime import run_static_order
from repro.runtime.static_order import ArrivalBinding, served_horizon
from repro.scheduling import ScheduledJob, StaticSchedule, list_schedule
from repro.taskgraph import derive_task_graph


def binding(net, arrivals, n_frames=3, cmds=(1, 2, 3, 4, 5, 6)):
    stim = Stimulus(
        input_samples={"cmd": list(cmds)},
        sporadic_arrivals={"config": arrivals},
    )
    g = derive_task_graph(net, {"sensor": 10, "sink": 10, "config": 10})
    return ArrivalBinding(net, g.hyperperiod, n_frames, stim), g


class TestBindingHighPriority:
    """config -> sensor (p -> u): windows are right-closed (a, b]."""

    def test_mid_window_arrival(self, sporadic_network):
        b, g = binding(sporadic_network, [50])
        # H = 200; server period = T_u(sensor) = 100; arrival 50 in (0, 100]
        # -> frame 0, subset 2 (b=100).
        found = b.lookup("config", 0, 2, 1)
        assert found is not None and found.time == 50

    def test_boundary_arrival_included_right(self, sporadic_network):
        # arrival exactly at b=100 belongs to the window ending at 100.
        b, g = binding(sporadic_network, [100])
        found = b.lookup("config", 0, 2, 1)
        assert found is not None and found.time == 100

    def test_arrival_at_zero(self, sporadic_network):
        # (a,b] with b=0: arrival at exactly 0 is served by subset 1 frame 0.
        b, g = binding(sporadic_network, [0])
        found = b.lookup("config", 0, 1, 1)
        assert found is not None

    def test_frame_boundary_arrival(self, sporadic_network):
        # arrival exactly at 200 (= H) -> window ending 200 -> frame 1 subset 1.
        b, g = binding(sporadic_network, [200])
        assert b.lookup("config", 1, 1, 1) is not None
        assert b.lookup("config", 0, 1, 1) is None

    def test_two_arrivals_same_window_get_slots_in_order(self, sporadic_network):
        # 110 and 130 share window (100, 200] whose subset arrives at b=200,
        # i.e. frame 1 subset 1.
        b, g = binding(sporadic_network, [110, 130])
        s1 = b.lookup("config", 1, 1, 1)
        s2 = b.lookup("config", 1, 1, 2)
        assert s1.time == 110 and s2.time == 130
        assert s1.global_k == 1 and s2.global_k == 2

    def test_unused_slots_are_false(self, sporadic_network):
        b, g = binding(sporadic_network, [50])
        assert b.lookup("config", 0, 2, 2) is None
        assert b.lookup("config", 0, 1, 1) is None

    def test_global_k_counts_across_frames(self, sporadic_network):
        b, g = binding(sporadic_network, [50, 350, 390])
        # 350 and 390 both fall in (300, 400] -> frame 2, subset 1 (b=400).
        assert b.lookup("config", 0, 2, 1).global_k == 1
        assert b.lookup("config", 2, 1, 1).global_k == 2
        assert b.lookup("config", 2, 1, 2).global_k == 3


class TestBindingLowPriority:
    """sensor -> config (u -> p): windows are left-closed [a, b)."""

    def test_boundary_arrival_deferred(self, low_priority_sporadic_network):
        # arrival exactly at 100 belongs to [100, 200) -> subset 3 (b=200).
        b, g = binding(low_priority_sporadic_network, [100])
        assert b.lookup("config", 0, 2, 1) is None
        found = b.lookup("config", 1, 1, 1)
        # b=200 -> frame 1 subset 1
        assert found is not None and found.time == 100

    def test_arrival_at_zero_deferred_to_subset2(self, low_priority_sporadic_network):
        b, g = binding(low_priority_sporadic_network, [0])
        assert b.lookup("config", 0, 1, 1) is None
        assert b.lookup("config", 0, 2, 1) is not None

    def test_mid_window_same_as_high_priority(self, low_priority_sporadic_network):
        b, g = binding(low_priority_sporadic_network, [50])
        assert b.lookup("config", 0, 2, 1).time == 50


class TestDropsAndErrors:
    def test_arrival_beyond_frames_dropped(self, sporadic_network):
        b, g = binding(sporadic_network, [550], n_frames=3)
        # H=200, served horizon ends at window b <= 600; arrival 550 is in
        # (500, 600] -> frame 2 subset 6? server period 100, subsets 1..2 per
        # frame... b=600 -> frame 3 >= n_frames -> dropped.
        dropped = b.dropped()
        assert len(dropped) == 1 and dropped[0].time == 550

    def test_served_listing(self, sporadic_network):
        b, g = binding(sporadic_network, [50, 350])
        assert [x.time for x in b.served()] == [50, 350]

    def test_needs_positive_frames(self, sporadic_network):
        with pytest.raises(RuntimeModelError):
            binding(sporadic_network, [], n_frames=0)


class TestServedHorizon:
    def test_with_sporadics(self, sporadic_network):
        g = derive_task_graph(
            sporadic_network, {"sensor": 10, "sink": 10, "config": 10}
        )
        # H = 200, server period = 100 -> 3 frames serve up to 500.
        assert served_horizon(sporadic_network, g.hyperperiod, 3) == 500

    def test_without_sporadics(self, pair_network):
        assert served_horizon(pair_network, Fraction(100), 3) == 300


class TestScheduleOrders:
    def test_orders_follow_schedule(self, sporadic_network):
        g = derive_task_graph(
            sporadic_network, {"sensor": 10, "sink": 10, "config": 10}
        )
        s = list_schedule(g, 2)
        orders = s.orders()
        assert len(orders) == 2
        flat = [i for row in orders for i in row]
        assert sorted(flat) == list(range(len(g)))
        for m, row in enumerate(orders):
            assert all(s.mapping(i) == m for i in row)
            assert [s.start(i) for i in row] == sorted(s.start(i) for i in row)

    def test_per_process_count(self, sporadic_network):
        g = derive_task_graph(
            sporadic_network, {"sensor": 10, "sink": 10, "config": 10}
        )
        (order,) = list_schedule(g, 1).orders()
        counts = {}
        for i in order:
            counts[g.jobs[i].process] = counts.get(g.jobs[i].process, 0) + 1
        assert counts == {"sensor": 2, "sink": 1, "config": 4}


class TestRunPlanRejections:
    """A schedule the static-order policy cannot follow fails loudly at run()."""

    @staticmethod
    def fig1():
        net = build_fig1_network()
        graph = derive_task_graph(net, fig1_wcets())
        return net, graph, list_schedule(graph, 2)

    def test_schedule_missing_a_job(self):
        net, graph, schedule = self.fig1()
        gap = schedule.start_order()[-1]
        partial = StaticSchedule(
            graph, 2, [e for e in schedule.entries if e.job_index != gap]
        )
        with pytest.raises(SchedulingError, match="is not scheduled"):
            run_static_order(net, partial, 2, fig1_stimulus(2))

    def test_successor_started_before_its_predecessor(self):
        net, graph, schedule = self.fig1()
        p, i = graph.edges()[0]
        late = max(schedule.start(j) for j in range(len(graph))) + 1
        entries = [
            ScheduledJob(e.job_index, e.processor,
                         late if e.job_index == p else e.start)
            for e in schedule.entries
        ]
        with pytest.raises(RuntimeModelError, match="before its predecessor"):
            run_static_order(net, StaticSchedule(graph, 2, entries), 2,
                             fig1_stimulus(2))

    def test_two_reversed_edges_name_the_lowest_successor(self):
        net, graph, schedule = self.fig1()
        # CoefB[2] moves after its successor FilterB[1], and InputA[1]
        # after its successors FilterA[1] and FilterB[1]: the lowest
        # successor is named, not the lowest predecessor.
        late = {"CoefB[2]": Fraction(200), "InputA[1]": Fraction(300)}
        entries = [
            ScheduledJob(e.job_index, e.processor,
                         late.get(graph.jobs[e.job_index].name, e.start))
            for e in schedule.entries
        ]
        assert graph.index_of("FilterA[1]") < graph.index_of("FilterB[1]")
        assert graph.index_of("CoefB[2]") < graph.index_of("InputA[1]")
        with pytest.raises(
            RuntimeModelError,
            match=r"starts job FilterA\[1\] before its predecessor InputA\[1\]",
        ):
            run_static_order(net, StaticSchedule(graph, 2, entries), 2,
                             fig1_stimulus(2))
