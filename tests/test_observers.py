"""The executor's observer protocol: live events, replay, fast modes.

Covers the PR's acceptance criteria for the runtime layer:

* observers receive the same streams live and via :func:`replay`;
* VCD, Gantt and metrics consumers produce identical output through events;
* ``records_only=True`` reproduces identical ``JobRecord`` timing on the
  FMS and FFT applications while skipping the data phase;
* ``collect_records=False`` reproduces identical observables with an empty
  record list (the determinism-sweep fast path).
"""

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
from repro.errors import RuntimeModelError
from repro.io import trace_to_vcd, runtime_result_to_vcd
from repro.runtime import (
    ExecutionObserver,
    GanttObserver,
    MetricsObserver,
    OverheadModel,
    RecordsObserver,
    TraceObserver,
    frame_makespans,
    gantt_from_observer,
    jittered_execution,
    miss_summary,
    processor_utilization,
    replay,
    response_times,
    run_static_order,
    runtime_gantt,
)
from repro.runtime.executor import JobRecord
from repro.scheduling import list_schedule
from repro.taskgraph import derive_task_graph


def fig1_run(observers=(), overheads=None, **kwargs):
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    schedule = list_schedule(graph, 2, "alap")
    return run_static_order(
        net, schedule, 3, fig1_stimulus(3),
        overheads=overheads, observers=observers, **kwargs,
    )


class TestEventStreams:
    def test_records_observer_matches_result(self):
        obs = RecordsObserver()
        result = fig1_run([obs], overheads=OverheadModel.create(
            first_frame_arrival=41, steady_frame_arrival=20))
        assert obs.records == result.records
        assert obs.overhead_intervals == result.overhead_intervals
        assert obs.meta is not None
        assert obs.meta.network == result.network_name
        assert obs.meta.processors == result.processors
        assert obs.meta.frames == result.frames
        assert obs.meta.hyperperiod == result.hyperperiod

    def test_replay_equals_live(self):
        live = RecordsObserver()
        result = fig1_run([live])
        replayed = RecordsObserver()
        replay(result, replayed)
        assert replayed.records == live.records
        assert replayed.overhead_intervals == live.overhead_intervals
        assert replayed.meta == live.meta

    def test_run_end_receives_result(self):
        seen = []

        class EndObserver(ExecutionObserver):
            def on_run_end(self, result):
                seen.append(result)

        result = fig1_run([EndObserver()])
        assert seen == [result]

    def test_event_order_is_frame_coherent(self):
        events = []

        class OrderObserver(ExecutionObserver):
            def on_overhead(self, frame, start, end):
                events.append(("ov", frame))

            def on_record(self, record):
                events.append(("rec", record.frame))

        fig1_run([OrderObserver()], overheads=OverheadModel.create(
            first_frame_arrival=10, steady_frame_arrival=10))
        # Live emission: each frame's overhead precedes its records.
        frames = [f for _kind, f in events]
        assert frames == sorted(frames)
        for frame in set(frames):
            of_frame = [kind for kind, f in events if f == frame]
            assert of_frame[0] == "ov"


class TestMetricsObserver:
    def test_matches_metrics_functions(self):
        obs = MetricsObserver()
        result = fig1_run([obs], execution_time=jittered_execution(3))
        assert obs.miss_summary() == miss_summary(result)
        assert obs.response_times() == response_times(result)
        assert obs.processor_utilization() == processor_utilization(result)
        assert obs.frame_makespans() == frame_makespans(result)
        assert obs.makespan == result.makespan()

    def test_counts(self):
        obs = MetricsObserver()
        result = fig1_run([obs])
        assert obs.total_jobs == len(result.records)
        assert obs.executed_jobs == len(result.executed())
        assert obs.false_jobs == len(result.false_jobs())

    def test_exact_utilization_underlies_the_float_view(self):
        from fractions import Fraction

        obs = MetricsObserver()
        fig1_run([obs])
        exact = obs.processor_utilization_exact()
        assert exact and all(isinstance(u, Fraction) for u in exact)
        assert obs.processor_utilization() == [float(u) for u in exact]
        # Busy time over the horizon, reconstructible from the records.
        assert all(0 <= u <= 1 for u in exact)
        untracked = MetricsObserver(track_utilization=False)
        fig1_run([untracked])
        with pytest.raises(RuntimeModelError):
            untracked.processor_utilization_exact()

    def test_disabled_aggregates_refuse_instead_of_reporting_zeros(self):
        # Streaming sweeps switch off the per-record aggregates their
        # table does not request; the accessors must then raise rather
        # than misreport empty data.
        obs = MetricsObserver(
            track_responses=False,
            track_utilization=False,
            track_frame_spans=False,
        )
        result = fig1_run([obs])
        assert obs.miss_summary() == miss_summary(result)  # always tracked
        assert obs.makespan == result.makespan()
        for accessor in (
            obs.response_times,
            obs.processor_utilization,
            obs.frame_makespans,
        ):
            with pytest.raises(RuntimeModelError):
                accessor()


class TestTraceAndGantt:
    def test_vcd_from_live_observer_equals_result_vcd(self):
        obs = TraceObserver()
        result = fig1_run([obs], overheads=OverheadModel.mppa_like())
        assert trace_to_vcd(obs) == runtime_result_to_vcd(result)

    def test_gantt_from_live_observer_equals_result_gantt(self):
        obs = GanttObserver()
        result = fig1_run([obs], overheads=OverheadModel.mppa_like())
        assert gantt_from_observer(obs) == runtime_gantt(result)
        assert runtime_gantt(obs) == runtime_gantt(result)

    def test_unused_observer_rejected(self):
        from repro.errors import RuntimeModelError

        with pytest.raises(Exception):
            trace_to_vcd(TraceObserver())
        with pytest.raises(ValueError):
            gantt_from_observer(GanttObserver())
        fresh = MetricsObserver()
        for query in (fresh.miss_summary, fresh.response_times,
                      fresh.processor_utilization, fresh.frame_makespans):
            with pytest.raises(RuntimeModelError):
                query()


def _records_only_case(app):
    if app == "fms":
        net = build_fms_network()
        graph = derive_task_graph(net, fms_wcets())
        schedule = list_schedule(graph, 1, "alap")
        stim = fms_stimulus(net, graph.hyperperiod * 3)
    else:
        net = build_fft_network()
        graph = derive_task_graph(net, fft_wcets())
        schedule = list_schedule(graph, 2, "alap")
        stim = fft_stimulus([[k, k + 1j, -k, 0.5 * k] for k in range(3)])
    return net, schedule, stim


class TestFastModes:
    @pytest.mark.parametrize("app", ["fms", "fft"])
    def test_records_only_identical_timing(self, app):
        """Acceptance: records-only mode reproduces identical JobRecord
        timing on FMS/FFT while skipping kernels and channel states."""
        net, schedule, stim = _records_only_case(app)
        full = run_static_order(net, schedule, 3, stim)
        timing = run_static_order(net, schedule, 3, stim, records_only=True)
        assert timing.records == full.records
        assert timing.overhead_intervals == full.overhead_intervals
        # the data phase really was skipped
        assert timing.channel_logs == {}
        assert timing.external_outputs == {}
        assert list(timing.trace) == []
        assert full.channel_logs  # sanity: the full run did produce data

    @pytest.mark.parametrize("app", ["fms", "fft"])
    def test_records_only_identical_under_jitter(self, app):
        net, schedule, stim = _records_only_case(app)
        full = run_static_order(
            net, schedule, 2, stim, execution_time=jittered_execution(11))
        timing = run_static_order(
            net, schedule, 2, stim, execution_time=jittered_execution(11),
            records_only=True)
        assert timing.records == full.records

    def test_collect_records_false_identical_observables(self):
        net, schedule, stim = _records_only_case("fms")
        full = run_static_order(net, schedule, 3, stim)
        lean = run_static_order(net, schedule, 3, stim, collect_records=False)
        assert lean.records == []
        assert lean.observable() == full.observable()
        assert list(lean.trace) == list(full.trace)

    def test_observers_fire_in_records_only_mode(self):
        obs = MetricsObserver()
        net, schedule, stim = _records_only_case("fft")
        full = run_static_order(net, schedule, 3, stim)
        run_static_order(net, schedule, 3, stim, records_only=True,
                         observers=[obs])
        assert obs.miss_summary() == miss_summary(full)

    def test_records_only_results_refuse_observable(self):
        """A records_only result has no data phase — comparing its (empty)
        observable would mask real divergences."""
        from repro.errors import RuntimeModelError

        net, schedule, stim = _records_only_case("fft")
        timing = run_static_order(net, schedule, 2, stim, records_only=True)
        with pytest.raises(RuntimeModelError):
            timing.observable()

    def test_non_record_observer_keeps_fast_path(self):
        """An observer that never overrides on_record must not force record
        construction when collect_records=False.

        The timing loop builds records inline through ``object.__new__``
        (aliased as ``executor._obj_new``), so the spy wraps that alias:
        any ``JobRecord`` allocation at all would be caught.
        """
        import repro.runtime.executor as executor_module

        overheads_seen = []

        class ProgressObserver(ExecutionObserver):
            def on_overhead(self, frame, start, end):
                overheads_seen.append(frame)

        allocated = []
        real_new = executor_module._obj_new

        def spy(cls):
            if cls is JobRecord:
                allocated.append(cls)
            return real_new(cls)

        net, schedule, stim = _records_only_case("fft")
        try:
            executor_module._obj_new = spy
            run_static_order(
                net, schedule, 2, stim,
                observers=[ProgressObserver()], collect_records=False,
                overheads=OverheadModel.create(
                    first_frame_arrival=5, steady_frame_arrival=5),
            )
        finally:
            executor_module._obj_new = real_new
        assert allocated == []      # no record was ever built
        assert overheads_seen       # but the observer still got its events

        # Positive control: the same spy does observe allocations when
        # records are collected, so the empty list above is meaningful.
        try:
            executor_module._obj_new = spy
            result = run_static_order(net, schedule, 2, stim)
        finally:
            executor_module._obj_new = real_new
        assert len(allocated) == len(result.records) > 0

    def test_uncollected_results_refuse_record_queries(self):
        """A collect_records=False result must not silently report zeros."""
        from repro.errors import RuntimeModelError

        net, schedule, stim = _records_only_case("fft")
        lean = run_static_order(net, schedule, 2, stim, collect_records=False)
        for query in (lean.misses, lean.executed, lean.false_jobs,
                      lean.makespan):
            with pytest.raises(RuntimeModelError):
                query()
        with pytest.raises(RuntimeModelError):
            miss_summary(lean)
        with pytest.raises(RuntimeModelError):
            replay(lean, MetricsObserver())
        from repro.runtime import jobs_of_process
        with pytest.raises(RuntimeModelError):
            jobs_of_process(lean, "FFT")

    def test_streaming_observers_without_record_retention(self):
        """collect_records=False still feeds observers every record —
        streaming aggregation with an empty result.records."""
        obs = MetricsObserver()
        net, schedule, stim = _records_only_case("fft")
        full = run_static_order(net, schedule, 3, stim)
        lean = run_static_order(net, schedule, 3, stim,
                                collect_records=False, observers=[obs])
        assert lean.records == []
        assert obs.miss_summary() == miss_summary(full)
        assert lean.observable() == full.observable()


class TestObserverRule:
    """What an observer consumes is read from its class's hooks, once."""

    def test_grandchild_inherits_its_parents_consumption(self):
        class Writes(ExecutionObserver):
            def __init__(self):
                self.writes = 0

            def on_channel_write(self, process, channel, value, time):
                self.writes += 1

        class Grandchild(Writes):
            pass

        class Quiet(Grandchild):
            on_channel_write = ExecutionObserver.on_channel_write

        class MetricsGrandchild(type("MetricsChild", (MetricsObserver,), {})):
            pass

        assert Grandchild.consumes_data and not Grandchild.consumes_records
        assert not Quiet.consumes_data
        assert MetricsGrandchild.tick_fed and MetricsGrandchild.consumes_data
        live = Grandchild()
        result = fig1_run([live], collect_trace=False)
        assert live.writes == sum(len(v) for v in result.channel_logs.values())
        assert live.writes > 0
        metrics = MetricsGrandchild()
        fig1_run([metrics], records_only=True, collect_records=False)
        assert metrics.miss_summary() == miss_summary(fig1_run())

    def test_metrics_subclass_overriding_on_record_is_fed_records(self):
        class Counting(MetricsObserver):
            def __init__(self):
                super().__init__()
                self.seen = 0

            def on_record(self, record):
                self.seen += 1
                super().on_record(record)

            def _absorb_ticks(self, totals, from_ticks):
                raise AssertionError("a record consumer was fed ticks")

        assert Counting.consumes_records and not Counting.tick_fed
        counting, stock = Counting(), MetricsObserver()
        lean = fig1_run([counting, stock], records_only=True,
                        collect_records=False)
        assert lean.records == []
        full = fig1_run()
        assert counting.seen == len(full.records)
        assert counting.miss_summary() == stock.miss_summary()
        assert counting.miss_summary() == miss_summary(full)

    def test_metrics_subclass_overriding_a_data_hook_is_fed_data_events(self):
        class Writes(MetricsObserver):
            def __init__(self):
                super().__init__()
                self.writes = 0
                self.timing_hand_overs = 0

            def on_channel_write(self, process, channel, value, time):
                self.writes += 1
                super().on_channel_write(process, channel, value, time)

            def _absorb_ticks(self, totals, from_ticks):
                self.timing_hand_overs += 1
                super()._absorb_ticks(totals, from_ticks)

            def _absorb_data_ticks(self, spans, writes, from_ticks):
                raise AssertionError("a data-event consumer was fed ticks")

        assert MetricsObserver.tick_fed and MetricsObserver.data_tick_fed
        assert Writes.tick_fed
        assert Writes.consumes_data and not Writes.data_tick_fed
        writes, stock = Writes(), MetricsObserver()
        result = fig1_run([writes, stock], collect_records=False)
        assert writes.timing_hand_overs == 1
        assert writes.writes == sum(len(v) for v in result.channel_logs.values())
        assert writes.writes > 0
        assert writes.kernel_span_stats() == stock.kernel_span_stats()
        assert writes.channel_write_counts() == stock.channel_write_counts()
        assert writes.miss_summary() == stock.miss_summary()

    def test_timing_metrics_observer_lets_replay_skip_the_trace_walk(self):
        from repro.runtime.metrics import _TimingMetricsObserver

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("replay walked the trace")

        assert _TimingMetricsObserver.tick_fed
        assert not _TimingMetricsObserver.consumes_data
        assert not _TimingMetricsObserver.data_tick_fed
        result = fig1_run()
        result.trace.raw = Unwalkable(result.trace.raw)
        timing = _TimingMetricsObserver()
        replay(result, timing)
        assert timing.total_jobs == len(result.records)
        with pytest.raises(AssertionError, match="walked the trace"):
            replay(result, MetricsObserver())

    def test_instance_attribute_hooks_do_not_subscribe(self):
        seen = []
        observer = ExecutionObserver()
        observer.on_record = seen.append
        result = fig1_run([observer], collect_records=False)
        assert result.records == [] and seen == []


class TestObserverReuse:
    def test_run_start_resets_state(self):
        """One observer instance reused across runs holds only the last
        run's streams — no cross-run mixing."""
        records_obs = RecordsObserver()
        metrics_obs = MetricsObserver()
        trace_obs = TraceObserver()
        gantt_obs = GanttObserver()
        observers = [records_obs, metrics_obs, trace_obs, gantt_obs]
        ov = OverheadModel.create(first_frame_arrival=10, steady_frame_arrival=5)
        fig1_run(observers, overheads=ov)
        result = fig1_run(observers, overheads=ov)

        assert records_obs.records == result.records
        assert records_obs.overhead_intervals == result.overhead_intervals
        assert metrics_obs.miss_summary() == miss_summary(result)
        assert metrics_obs.total_jobs == len(result.records)
        assert trace_to_vcd(trace_obs) == runtime_result_to_vcd(result)
        assert gantt_from_observer(gantt_obs) == runtime_gantt(result)


class TestJobRecordConstructor:
    def test_hot_loop_records_carry_exact_field_set(self):
        """The timing loop builds records through an inline ``__dict__``
        literal; if ``JobRecord`` gains a field, this catches a literal
        that was not updated, by checking a record built by a real run
        attribute for attribute."""
        from dataclasses import fields

        net, schedule, stim = _records_only_case("fft")
        result = run_static_order(net, schedule, 1, stim)
        expected = tuple(f.name for f in fields(JobRecord))
        for rec in result.records[:3]:
            assert tuple(vars(rec)) == expected
            rebuilt = JobRecord(**vars(rec))
            assert rebuilt == rec
