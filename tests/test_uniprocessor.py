"""Tests for the uniprocessor fixed-priority baseline."""

from fractions import Fraction

import pytest

from repro.core import ChannelKind, Network, Stimulus, run_zero_delay
from repro.errors import RuntimeModelError, SchedulingError, SemanticsError
from repro.scheduling import UniprocessorFixedPriority, rate_monotonic_priorities


def nop(ctx):
    return None


class TestRateMonotonic:
    def test_shorter_period_higher_priority(self, pair_network):
        net = Network("rm")
        net.add_periodic("slow", period=200, kernel=nop)
        net.add_periodic("fast", period=50, kernel=nop)
        prios = rate_monotonic_priorities(net)
        assert prios["fast"] < prios["slow"]

    def test_tie_broken_by_name(self):
        net = Network("rm")
        net.add_periodic("b", period=100, kernel=nop)
        net.add_periodic("a", period=100, kernel=nop)
        prios = rate_monotonic_priorities(net)
        assert prios["a"] < prios["b"]

    def test_missing_priority_rejected(self, pair_network):
        with pytest.raises(SchedulingError, match="missing scheduling priority"):
            UniprocessorFixedPriority(pair_network, {"producer": 0})


class TestFunctionalRun:
    def test_equivalent_to_zero_delay_when_priorities_match_fp(self, pair_network):
        up = UniprocessorFixedPriority(pair_network, {"producer": 0, "consumer": 1})
        ref = run_zero_delay(pair_network, 500)
        assert up.functional_run(500).observable() == ref.observable()

    def test_priority_inversion_changes_data(self, pair_network):
        """With the consumer ABOVE the producer the FIFO is read before it is
        written each period — a different (but well-defined) behaviour."""
        inverted = UniprocessorFixedPriority(
            pair_network, {"producer": 1, "consumer": 0}
        )
        ref = run_zero_delay(pair_network, 300)
        assert inverted.functional_run(300).observable() != ref.observable()

    def test_simultaneous_jobs_follow_the_scheduling_priorities(
        self, pair_network
    ):
        """Where the priorities and the FP rank disagree, the functional
        run orders simultaneous jobs by the priorities."""
        inverted = UniprocessorFixedPriority(
            pair_network, {"producer": 1, "consumer": 0}
        )
        order = inverted.functional_run(300).trace.job_order()
        assert order == [
            ("consumer", 1), ("producer", 1),
            ("consumer", 2), ("producer", 2),
            ("consumer", 3), ("producer", 3),
        ]
        assert run_zero_delay(pair_network, 300).trace.job_order() == [
            ("producer", 1), ("consumer", 1),
            ("producer", 2), ("consumer", 2),
            ("producer", 3), ("consumer", 3),
        ]

    def test_raising_kernel_names_the_job(self):
        def boom(ctx):
            if ctx.k == 2:
                raise ValueError("boom")

        net = Network("raise")
        net.add_periodic("p", period=100, kernel=boom)
        up = UniprocessorFixedPriority(net)
        with pytest.raises(SemanticsError, match=r"job p\[2\] at t=100 raised"):
            up.functional_run(300)

    def test_sporadic_releases_from_stimulus(self, sporadic_network):
        up = UniprocessorFixedPriority(
            sporadic_network, sporadic_network.priority_rank()
        )
        stim = Stimulus(
            input_samples={"cmd": [9]},
            sporadic_arrivals={"config": [150]},
        )
        ref = run_zero_delay(sporadic_network, 400, stim)
        assert up.functional_run(400, stim).observable() == ref.observable()

    def test_release_sequence_sorted(self, sporadic_network):
        up = UniprocessorFixedPriority(
            sporadic_network, sporadic_network.priority_rank()
        )
        rel = up.release_sequence(400, Stimulus(sporadic_arrivals={"config": [30]}))
        times = [t for t, *_ in rel]
        assert times == sorted(times)


class TestPreemptiveSimulation:
    def _two_task_net(self):
        net = Network("two")
        net.add_periodic("hi", period=50, deadline=50, kernel=nop)
        net.add_periodic("lo", period=100, deadline=100, kernel=nop)
        return net

    def test_textbook_response_times(self):
        """hi: C=20 T=50; lo: C=40 T=100 under RM: lo starts at 20, is
        preempted by hi's second job at 50, and finishes at 80."""
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        done = up.simulate_preemptive(200, {"hi": 20, "lo": 40})
        lo1 = next(j for j in done if j.process == "lo" and j.k == 1)
        assert lo1.start == 20
        assert lo1.finish == 80
        assert lo1.preemptions == 1
        assert not lo1.missed

    def test_completion_exactly_at_release_not_preempted(self):
        """A job finishing exactly when a higher-priority job releases is
        not preempted (C_lo=30: lo runs 20..50, hi2 releases at 50)."""
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        done = up.simulate_preemptive(200, {"hi": 20, "lo": 30})
        lo1 = next(j for j in done if j.process == "lo" and j.k == 1)
        assert lo1.finish == 50
        assert lo1.preemptions == 0

    def test_high_priority_never_preempted(self):
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        done = up.simulate_preemptive(200, {"hi": 20, "lo": 30})
        assert all(j.preemptions == 0 for j in done if j.process == "hi")

    def test_overload_detected(self):
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        misses = up.deadline_misses(400, {"hi": 30, "lo": 50})
        assert misses  # utilization 30/50 + 50/100 = 1.1 > 1

    def test_no_misses_at_low_utilization(self):
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        assert up.deadline_misses(400, {"hi": 10, "lo": 20}) == []

    def test_missing_execution_time(self):
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        with pytest.raises(RuntimeModelError):
            up.simulate_preemptive(100, {"hi": 10})

    def test_response_time_accounting(self):
        net = self._two_task_net()
        up = UniprocessorFixedPriority(net)
        done = up.simulate_preemptive(100, {"hi": 20, "lo": 30})
        hi1 = next(j for j in done if j.process == "hi" and j.k == 1)
        assert hi1.response_time == 20
        assert hi1.release == 0 and hi1.deadline == 50

    def test_idle_gaps_skipped(self):
        net = Network("idle")
        net.add_periodic("p", period=100, kernel=nop)
        up = UniprocessorFixedPriority(net)
        done = up.simulate_preemptive(250, {"p": 10})
        assert [j.start for j in done] == [0, 100, 200]
