"""Data-phase observer events: live emission, replay round-trip, guards.

Covers the satellite contract of the data-phase PR:

* ``on_job_data_start``/``on_job_data_end`` (kernel spans) and
  ``on_channel_write`` fire live in data-phase execution order with exact
  rational timestamps, and :func:`repro.runtime.observers.replay`
  reconstructs the identical stream from a stored result;
* the guarded ``RuntimeResult`` accessors and error paths:
  ``collect_records=False`` + record access, ``records_only=True`` +
  channel-log access, suppressed traces + data-event replay;
* ``records_only=True`` continues to skip the whole data phase (no kernel
  dispatch, no data events);
* ``MetricsObserver`` kernel-span statistics and the per-channel VCD wires
  agree between live runs and replays;
* a live run feeds its observers through ``replay`` of its own result:
  over the tick-path suite's random workloads and every combination of
  ``collect_records``, ``collect_trace`` and ``records_only``, each live
  stream equals a replay of a default-flag run, and the returned result
  keeps exactly what the flags asked for.
"""

import pytest

from repro.apps import (
    build_fig1_network,
    fig1_stimulus,
    fig1_wcets,
)
from repro.errors import RuntimeModelError
from repro.io.vcd import runtime_result_to_vcd, trace_to_vcd
from repro.runtime import (
    ExecutionObserver,
    GanttObserver,
    MetricsObserver,
    TraceObserver,
    jittered_execution,
    kernel_span_stats,
    replay,
    run_static_order,
)
from repro.runtime.telemetry import SpanObserver
from repro.scheduling import list_schedule
from repro.taskgraph import derive_task_graph


class DataEventLog(ExecutionObserver):
    """Records every data-phase event verbatim."""

    def __init__(self):
        self.events = []

    def on_job_data_start(self, process, k, frame, start):
        self.events.append(("start", process, k, frame, start))

    def on_job_data_end(self, process, k, frame, end):
        self.events.append(("end", process, k, frame, end))

    def on_channel_write(self, process, channel, value, time):
        self.events.append(("write", process, channel, value, time))


def fig1_run(**kwargs):
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    schedule = list_schedule(graph, 2, "alap")
    return net, schedule, fig1_stimulus(3), kwargs


def run_with(observers=(), **kwargs):
    net, schedule, stim, _ = fig1_run()
    return run_static_order(net, schedule, 3, stim, observers=observers, **kwargs)


class TestLiveEmission:
    def test_events_follow_data_phase_order(self):
        log = DataEventLog()
        result = run_with([log])
        # Span events pair up, per process[k], writes in between.
        open_spans = set()
        job_sequence = []
        for ev in log.events:
            if ev[0] == "start":
                open_spans.add((ev[1], ev[2]))
                job_sequence.append((ev[1], ev[2]))
            elif ev[0] == "end":
                open_spans.remove((ev[1], ev[2]))
            else:  # a write always belongs to the one open span
                assert len(open_spans) == 1
        assert not open_spans
        # The job sequence is exactly the trace's job order.
        assert job_sequence == result.trace.job_order()

    def test_span_times_match_records(self):
        log = DataEventLog()
        result = run_with([log])
        record_of = {
            (r.process, r.global_k): r for r in result.records if not r.is_false
        }
        starts = {(p, k): t for e, p, k, _f, t in log.events if e == "start"}
        ends = {(p, k): t for e, p, k, _f, t in log.events if e == "end"}
        assert set(starts) == set(record_of)
        for key, rec in record_of.items():
            assert starts[key] == rec.start
            assert ends[key] == rec.end

    def test_write_events_match_channel_logs(self):
        log = DataEventLog()
        result = run_with([log])
        by_channel = {}
        for ev in log.events:
            if ev[0] == "write":
                by_channel.setdefault(ev[2], []).append(ev[3])
        assert by_channel == {
            c: values for c, values in result.channel_logs.items() if values
        }

    def test_records_only_emits_no_data_events(self):
        log = DataEventLog()
        result = run_with([log], records_only=True)
        assert log.events == []
        assert not result.data_collected

    def test_collect_trace_false_still_emits_live_events(self):
        log_full, log_bare = DataEventLog(), DataEventLog()
        run_with([log_full])
        run_with([log_bare], collect_trace=False)
        assert log_bare.events == log_full.events


class TestReplayRoundTrip:
    def test_replay_reconstructs_identical_event_stream(self):
        live = DataEventLog()
        result = run_with([live])
        post = DataEventLog()
        replay(result, post)
        assert post.events == live.events

    def test_metrics_and_trace_observers_round_trip(self):
        live_m, live_t = MetricsObserver(), TraceObserver()
        result = run_with([live_m, live_t])
        post_m, post_t = MetricsObserver(), TraceObserver()
        replay(result, post_m, post_t)
        assert post_m.kernel_span_stats() == live_m.kernel_span_stats()
        assert post_m.channel_write_counts() == live_m.channel_write_counts()
        assert post_t.channel_write_times == live_t.channel_write_times
        assert kernel_span_stats(result) == live_m.kernel_span_stats()

    def test_channel_write_counts_sorted_on_every_path(self):
        class EventFed(MetricsObserver):
            def on_channel_write(self, process, channel, value, time):
                super().on_channel_write(process, channel, value, time)

        log, ticks, events = DataEventLog(), MetricsObserver(), EventFed()
        result = run_with([log, ticks, events])
        replayed = MetricsObserver()
        replay(result, replayed)
        first_written = list(dict.fromkeys(
            ev[2] for ev in log.events if ev[0] == "write"
        ))
        # First-write, network and name order all differ on this network,
        # so the pinned order is not an accident of either build order.
        assert len({tuple(first_written), tuple(result.channel_logs),
                    tuple(sorted(first_written))}) == 3
        for m in (ticks, events, replayed):
            counts = m.channel_write_counts()
            assert list(counts) == sorted(first_written)
            assert counts == {
                c: len(v) for c, v in result.channel_logs.items() if v
            }

    def test_vcd_channel_wires_round_trip(self):
        live_t = TraceObserver()
        result = run_with([live_t])
        live_vcd = trace_to_vcd(live_t)
        assert "c_" in live_vcd  # per-channel wires present
        assert runtime_result_to_vcd(result) == live_vcd

    def test_replay_of_suppressed_trace_keeps_timing_refuses_data(self):
        from repro.runtime import (
            frame_makespans,
            miss_summary,
            processor_utilization,
            response_times,
        )

        result = run_with([], collect_trace=False)
        # Every record-derived metric keeps working post hoc...
        full = run_with([])
        assert miss_summary(result) == miss_summary(full)
        assert response_times(result) == response_times(full)
        assert processor_utilization(result) == processor_utilization(full)
        assert frame_makespans(result) == frame_makespans(full)
        # ...but data events cannot be reconstructed, so replay refuses
        # every data consumer up front rather than feed it nothing.
        log, m = DataEventLog(), MetricsObserver()
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            replay(result, log)
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            replay(result, m)
        assert log.events == [] and m.meta is None
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            kernel_span_stats(result)

    def test_replay_of_records_only_result_emits_no_data_events(self):
        result = run_with([], records_only=True)
        log = DataEventLog()
        replay(result, log)
        assert log.events == []


class CountingDataObserver(DataEventLog):
    """A custom data consumer that also counts run starts."""

    def __init__(self):
        super().__init__()
        self.run_starts = 0

    def on_run_start(self, meta):
        self.run_starts += 1


class TestSuppressedTraceReplay:
    """A ``collect_trace=False`` result whose data phase ran cannot
    re-emit data events: replay refuses every data consumer before any
    hook fires, and timing-only consumers still match the full run."""

    def test_trace_observer_is_refused_before_any_hook(self):
        result = run_with([], collect_trace=False)
        obs = TraceObserver()
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            replay(result, obs)
        assert obs.meta is None and obs.channel_write_times == {}

    def test_span_observer_is_refused_before_any_hook(self):
        from repro.runtime.telemetry import SpanObserver

        result = run_with([], collect_trace=False)
        obs = SpanObserver()
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            replay(result, obs)
        assert obs.spans == []

    def test_custom_data_observer_sees_no_run_start(self):
        result = run_with([], collect_trace=False)
        timing, data = MetricsObserver(), CountingDataObserver()
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            replay(result, timing, data)
        assert data.run_starts == 0 and data.events == []
        assert timing.meta is None

    def test_vcd_is_refused(self):
        result = run_with([], collect_trace=False)
        with pytest.raises(RuntimeModelError, match="collect_trace=False"):
            runtime_result_to_vcd(result)

    def test_timing_consumers_match_the_full_run(self):
        from repro.runtime import miss_summary, runtime_gantt

        result = run_with([], collect_trace=False)
        full = run_with([])
        assert runtime_gantt(result) == runtime_gantt(full)
        assert miss_summary(result) == miss_summary(full)


class TestGuardedAccessors:
    def test_collect_records_false_refuses_record_access(self):
        result = run_with([], collect_records=False)
        for accessor in ("misses", "executed", "false_jobs", "makespan"):
            with pytest.raises(RuntimeModelError, match="collect_records=False"):
                getattr(result, accessor)()
        with pytest.raises(RuntimeModelError):
            result.max_response_time()
        with pytest.raises(RuntimeModelError, match="collect_records=False"):
            replay(result, MetricsObserver())

    def test_records_only_refuses_channel_log_access(self):
        result = run_with([], records_only=True)
        with pytest.raises(RuntimeModelError, match="records_only=True"):
            result.observable()
        with pytest.raises(RuntimeModelError, match="records_only=True"):
            result.action_trace()

    def test_full_run_guards_pass(self):
        result = run_with([])
        assert result.observable()["channels"]
        assert result.action_trace() is result.trace
        assert result.executed()

    def test_kernel_span_stats_values(self):
        m = MetricsObserver()
        result = run_with([m])
        stats = m.kernel_span_stats()
        # Every executing process appears, with exact rational totals.
        executed = {r.process for r in result.records if not r.is_false}
        assert set(stats) == executed
        for name, s in stats.items():
            recs = [
                r for r in result.records
                if r.process == name and not r.is_false
            ]
            assert s.jobs == len(recs)
            assert s.total_busy == sum((r.end - r.start) for r in recs)
            assert s.max_span == max(r.end - r.start for r in recs)
            assert s.mean_span == s.total_busy / s.jobs


class HookLog(DataEventLog):
    """Records every hook verbatim, overheads and records included."""

    def on_run_start(self, meta):
        self.events.append(("run", meta))

    def on_overhead(self, frame, start, end):
        self.events.append(("overhead", frame, start, end))

    def on_record(self, record):
        self.events.append(("record", record))

    def on_run_end(self, result):
        self.events.append(("run_end",))


class TestOneEmitter:
    """Every live stream is a replay of the run's own result."""

    @staticmethod
    def observers(tick_path):
        return [HookLog(), TraceObserver(), SpanObserver(), GanttObserver(),
                tick_path.SpanEventFed()]

    @staticmethod
    def views(observers, tick_path):
        log, trace, spans, gantt, hybrid = observers
        return [
            log.events,
            (trace.meta, trace.processes, trace.processor_intervals,
             trace.process_intervals, trace.miss_times, trace.overheads,
             trace.channel_write_times),
            spans.spans,
            (gantt.meta, gantt.processor_bars, gantt.runtime_bars),
            (tick_path.aggregates(hybrid), tick_path.data_aggregates(hybrid)),
        ]

    @pytest.mark.parametrize("records_only", [False, True])
    @pytest.mark.parametrize("collect_trace", [True, False])
    @pytest.mark.parametrize("collect_records", [True, False])
    def test_live_streams_equal_a_replay(
        self, collect_records, collect_trace, records_only
    ):
        # Imported here: test_tick_path imports DataEventLog from this module.
        import test_tick_path as tick_path

        for seed in tick_path.SEEDS:
            net, graph, stim = tick_path.workload(seed)
            for platform in ("m2", "big_little"):
                schedule = list_schedule(
                    graph, tick_path.PLATFORMS[platform], "alap")

                def run(observers=(), **flags):
                    return run_static_order(
                        net, schedule, tick_path.FRAMES, stim,
                        jittered_execution(seed),
                        tick_path.OVERHEADS["fractional"],
                        observers=observers, records_only=records_only,
                        **flags,
                    )

                full = run()
                expected = self.observers(tick_path)
                replay(full, *expected)
                live = self.observers(tick_path)
                result = run(live, collect_records=collect_records,
                             collect_trace=collect_trace)
                assert self.views(live, tick_path) == self.views(
                    expected, tick_path)
                assert live[0].events[-1] == ("run_end",)
                assert result.records_collected is collect_records
                assert result.records == (full.records if collect_records else [])
                kept = collect_trace and not records_only
                assert result.trace_collected is kept
                assert result.trace.raw == (full.trace.raw if kept else [])
                assert result.data_collected is not records_only
                assert result.overhead_intervals == full.overhead_intervals
                assert result.channel_logs == full.channel_logs
