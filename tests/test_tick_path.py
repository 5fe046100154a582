"""Differential suite for the tick-native runtime path.

The executor feeds stock :class:`MetricsObserver` instances integer-tick
aggregates once per run (:class:`~repro.runtime.observers.TickMetrics`)
instead of one ``on_record`` per job instance, hands them the data phase's
kernel-span and channel-write totals once per run instead of one data
event per kernel span and channel write, and samples
:func:`jittered_execution` through its integer tick entry instead of as a
``(job, frame) -> Fraction`` callable.  All three must be invisible: the
tick totals equal what ``on_record`` and the data hooks aggregate (live
through an overriding subclass, and post hoc through :func:`replay`), and
tick-sampled runs equal runs driven by the Fraction reference sampler —
over seeded random workloads x jitter seeds x overheads x homogeneous and
big/little platforms.  Jittered 25-frame FMS runs on one to three
processors and big/little equal the full Fraction reference simulation,
record for record and in their tick totals.
"""

from fractions import Fraction

import pytest

from repro.apps import random_network, random_wcets
from repro.apps.fms import build_fms_network, fms_stimulus, fms_wcets
from repro.core.channels import ChannelKind
from repro.core.invocations import Stimulus, random_stimulus
from repro.core.network import Network
from repro.core.platform import Platform
from repro.errors import RuntimeModelError
from repro.runtime import (
    MetricsObserver,
    TraceObserver,
    jittered_execution,
    replay,
    run_static_order,
    wcet_execution,
)
from repro.runtime.overheads import OverheadModel
from repro.scheduling import find_feasible_schedule, list_schedule
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_jittered_execution,
    reference_memo_jittered_execution,
    reference_run_static_order,
)
from test_data_phase_events import DataEventLog

FRAMES = 3
SEEDS = (0, 7, 23, 41)
PLATFORMS = {
    "m1": Platform.homogeneous(1),
    "m2": Platform.homogeneous(2),
    "big_little": Platform.of(("big", 1), ("little", 1, Fraction(1, 2))),
}
OVERHEADS = {
    "none": OverheadModel.none(),
    "fractional": OverheadModel.create(
        first_frame_arrival="1/3", steady_frame_arrival="1/7", per_job="1/11"
    ),
}


def workload(seed, scale=1):
    net = random_network(seed=seed, n_periodic=4, n_sporadic=2)
    wcets = {
        name: w * scale
        for name, w in random_wcets(
            net, seed=seed, utilization_target=0.6
        ).items()
    }
    graph = derive_task_graph(net, wcets)
    stim = random_stimulus(net, graph.hyperperiod * FRAMES, seed=seed)
    return net, graph, stim


class RecordFed(MetricsObserver):
    """Overrides ``on_record``, which opts it out of the tick feed."""

    def on_record(self, record):
        super().on_record(record)


def exact(value):
    assert type(value) is Fraction
    return (value.numerator, value.denominator)


def aggregates(m):
    return {
        "total": m.total_jobs,
        "executed": m.executed_jobs,
        "false": m.false_jobs,
        "missed": m.missed_jobs,
        "worst_lateness": exact(m.worst_lateness),
        "makespan": exact(m.makespan),
        "responses": {p: exact(r) for p, r in m.response_times().items()},
        "utilization": [exact(u) for u in m.processor_utilization_exact()],
        "frame_spans": [exact(f) for f in m.frame_makespans()],
    }


def record_fields(result):
    return [
        (r.process, r.frame, r.k_frame, r.global_k, r.processor,
         exact(r.release), exact(r.start), exact(r.end), exact(r.deadline),
         r.is_false, r.is_server, r.processor_class)
        for r in result.records
    ]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("overheads", sorted(OVERHEADS))
@pytest.mark.parametrize("jitter", [None, 3])
def test_tick_metrics_match_on_record(seed, platform, overheads, jitter):
    net, graph, stim = workload(seed)
    schedule = list_schedule(graph, PLATFORMS[platform], "alap")

    def run(observers, collect_records):
        model = None if jitter is None else jittered_execution(jitter)
        return run_static_order(
            net, schedule, FRAMES, stim, model, OVERHEADS[overheads],
            observers=observers, records_only=True,
            collect_records=collect_records, collect_trace=False,
        )

    # The sweep's shape: a lone stock observer, nothing retained.
    ticks = MetricsObserver()
    assert ticks.tick_fed
    lean = run([ticks], collect_records=False)
    assert lean.records == []
    # The oracle, live: the same aggregation rule record by record.
    live = RecordFed()
    assert not live.tick_fed and live.consumes_records
    # A stock observer beside a record consumer is still fed in ticks.
    beside = MetricsObserver()
    full = run([live, beside], collect_records=True)
    # ... and post hoc, through replay().
    replayed = MetricsObserver()
    replay(full, replayed)

    expected = aggregates(live)
    assert expected["total"] == FRAMES * len(graph)
    assert aggregates(ticks) == expected
    assert aggregates(beside) == expected
    assert aggregates(replayed) == expected


def edge_network():
    """One periodic user ``P`` (period 10) fed by a sporadic ``S``."""
    net = Network("edge")
    net.add_periodic("P", period=10, kernel=lambda ctx: None)
    net.add_sporadic(
        "S", min_period=10, deadline=10, burst=1, kernel=lambda ctx: None
    )
    net.connect("S", "P", kind=ChannelKind.BLACKBOARD)
    net.add_priority("S", "P")
    return net


@pytest.mark.parametrize("execution_time", [
    {"P": 10, "S": 1},  # P ends exactly at its deadline: not a miss
    {"P": 4, "S": 1},   # a false S job is the last to resolve in a frame
    {"P": 11, "S": 2},  # misses
])
@pytest.mark.parametrize("arrivals", [(), ("3",)])
def test_tick_metrics_match_on_record_at_the_edges(execution_time, arrivals):
    net = edge_network()
    graph = derive_task_graph(net, {"P": 4, "S": 1})
    schedule = list_schedule(graph, 1, "alap")
    stim = Stimulus(sporadic_arrivals={"S": arrivals})
    ticks, live = MetricsObserver(), RecordFed()
    run_static_order(
        net, schedule, FRAMES, stim, execution_time,
        observers=[ticks, live], records_only=True, collect_records=False,
    )
    assert aggregates(ticks) == aggregates(live)


class SpanEventFed(MetricsObserver):
    """Overrides ``on_job_data_end``, which opts it out of the data tick
    feed (it is still tick-fed for timing)."""

    def on_job_data_end(self, process, k, frame, end):
        super().on_job_data_end(process, k, frame, end)


def data_aggregates(m):
    # Lists of items, so the accessors' key order is compared too.
    return {
        "spans": [
            (p, s.jobs, exact(s.total_busy), exact(s.max_span),
             exact(s.mean_span))
            for p, s in m.kernel_span_stats().items()
        ],
        "writes": list(m.channel_write_counts().items()),
    }


def data_paths(net, schedule, stim, model_of, overheads=None):
    """Data aggregates of the three paths: tick-fed live, event-fed live
    and replay of a trace-collected result."""
    ticks = MetricsObserver()
    # The sweep's shape: a lone stock observer, nothing retained.
    run_static_order(
        net, schedule, FRAMES, stim, model_of(), overheads,
        observers=[ticks], collect_records=False, collect_trace=False,
    )
    events = SpanEventFed()
    full = run_static_order(
        net, schedule, FRAMES, stim, model_of(), overheads, observers=[events]
    )
    replayed = MetricsObserver()
    replay(full, replayed)
    return [data_aggregates(m) for m in (ticks, events, replayed)], full


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("overheads", sorted(OVERHEADS))
@pytest.mark.parametrize("jitter", [None, 3])
def test_data_ticks_match_data_events(seed, platform, overheads, jitter):
    net, graph, stim = workload(seed)
    schedule = list_schedule(graph, PLATFORMS[platform], "alap")
    assert MetricsObserver.data_tick_fed and not SpanEventFed.data_tick_fed
    (ticks, events, replayed), full = data_paths(
        net, schedule, stim,
        lambda: None if jitter is None else jittered_execution(jitter),
        OVERHEADS[overheads],
    )
    executed = [r for r in full.records if not r.is_false]
    assert sum(jobs for _, jobs, *_ in events["spans"]) == len(executed)
    assert events["writes"] == sorted(
        (c, len(v)) for c, v in full.channel_logs.items() if v
    )
    assert ticks == events
    assert replayed == events


@pytest.mark.parametrize("arrivals", [(), ("3",)])
def test_data_ticks_match_data_events_at_the_edges(arrivals):
    # The S -> P channel is never written (no kernel writes), and with no
    # arrival S has no true instance in the run.
    net = edge_network()
    graph = derive_task_graph(net, {"P": 4, "S": 1})
    schedule = list_schedule(graph, 1, "alap")
    stim = Stimulus(sporadic_arrivals={"S": arrivals})
    (ticks, events, replayed), _ = data_paths(
        net, schedule, stim, lambda: None
    )
    assert events["writes"] == []
    assert [p for p, *_ in events["spans"]] == (["P", "S"] if arrivals else ["P"])
    assert ticks == events == replayed


def test_zero_length_kernel_spans():
    # A model that runs every kernel in no time: each process's maximum
    # span is zero, on every path.
    net, graph, stim = workload(7)
    schedule = list_schedule(graph, 2, "alap")
    (ticks, events, replayed), _ = data_paths(
        net, schedule, stim, lambda: (lambda job, frame: 0)
    )
    assert events["spans"]
    assert all(top == (0, 1) for _, _, _, top, _ in events["spans"])
    assert ticks == events == replayed


def test_reused_observer_holds_one_run():
    net, graph, stim = workload(23)
    schedule = list_schedule(graph, 2, "alap")
    edge = edge_network()
    edge_schedule = list_schedule(derive_task_graph(edge, {"P": 4, "S": 1}),
                                  1, "alap")
    reused, fresh = MetricsObserver(), MetricsObserver()
    run_static_order(net, schedule, FRAMES, stim, observers=[reused])
    run_static_order(edge, edge_schedule, FRAMES, Stimulus(),
                     observers=[reused, fresh])
    assert data_aggregates(reused) == data_aggregates(fresh)
    assert [p for p, *_ in data_aggregates(fresh)["spans"]] == ["P"]


def test_event_consumers_beside_a_tick_fed_observer_see_the_full_stream():
    net, graph, stim = workload(41)
    schedule = list_schedule(graph, PLATFORMS["big_little"], "alap")

    def run(metrics):
        trace, log = TraceObserver(), DataEventLog()
        run_static_order(
            net, schedule, FRAMES, stim, jittered_execution(3),
            OVERHEADS["fractional"], observers=[metrics, trace, log],
        )
        return trace, log

    ticks, events = MetricsObserver(), SpanEventFed()
    trace_a, log_a = run(ticks)
    trace_b, log_b = run(events)
    assert log_a.events and log_a.events == log_b.events
    assert trace_a.channel_write_times == trace_b.channel_write_times
    assert trace_a.process_intervals == trace_b.process_intervals
    assert data_aggregates(ticks) == data_aggregates(events)


@pytest.mark.parametrize("model", ["wcet", "jitter"])
@pytest.mark.parametrize("speed", [Fraction(3, 7), Fraction(2, 3)])
def test_fractional_class_speeds_stay_exact(model, speed):
    # Integer WCETs on a class of fractional speed: the class WCETs carry
    # denominators the graph's own tick domain lacks.
    net = edge_network()
    graph = derive_task_graph(net, {"P": 4, "S": 1})
    schedule = list_schedule(graph, Platform.of(("slow", 1, speed)), "alap")
    stim = Stimulus(sporadic_arrivals={"S": ("3", "27/2")})
    ours, reference = (
        (None, wcet_execution) if model == "wcet"
        else (jittered_execution(4), reference_memo_jittered_execution(4))
    )
    results = [
        run_static_order(
            net, schedule, FRAMES, stim, m, records_only=True
        )
        for m in (ours, reference)
    ]
    executed = [r for r in results[0].records if not r.is_false]
    assert any((r.end - r.start).denominator % speed.numerator == 0
               for r in executed)
    assert record_fields(results[0]) == record_fields(results[1])


def test_tick_fed_observer_honours_tracking_opt_outs():
    net, graph, stim = workload(7)
    schedule = list_schedule(graph, 2, "alap")
    lean = MetricsObserver(
        track_responses=False, track_utilization=False,
        track_frame_spans=False,
    )
    full = MetricsObserver()
    run_static_order(
        net, schedule, FRAMES, stim, jittered_execution(5),
        observers=[lean, full], records_only=True, collect_records=False,
    )
    assert lean.miss_summary() == full.miss_summary()
    assert lean.makespan == full.makespan
    for accessor in (lean.response_times, lean.processor_utilization_exact,
                     lean.frame_makespans):
        with pytest.raises(RuntimeModelError):
            accessor()


@pytest.mark.parametrize("seed", SEEDS)
def test_sampler_calls_match_fraction_references(seed):
    _, graph, _ = workload(seed)
    ours = jittered_execution(seed, 0.25)
    memo_ref = reference_memo_jittered_execution(seed, 0.25)
    fresh_ref = reference_jittered_execution(seed, 0.25)
    for frame in range(FRAMES):
        for job in graph.jobs:
            got = exact(ours(job, frame))
            assert got == exact(memo_ref(job, frame))
            assert got == exact(fresh_ref(job, frame))
            draw = ours.draws(frame, [(job.process, job.k)])[0]
            assert Fraction(*got) == job.wcet * draw / ours.resolution


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("overheads", sorted(OVERHEADS))
def test_tick_sampled_run_matches_fraction_sampled_run(
    seed, platform, overheads
):
    net, graph, stim = workload(seed)
    schedule = list_schedule(graph, PLATFORMS[platform], "alap")
    # The reference sampler is a plain callable: the executor samples it
    # as exact rationals and widens its tick domain over every duration.
    results = [
        run_static_order(
            net, schedule, FRAMES, stim, model, OVERHEADS[overheads],
            records_only=True,
        )
        for model in (
            jittered_execution(seed + 1),
            reference_memo_jittered_execution(seed + 1),
        )
    ]
    assert record_fields(results[0]) == record_fields(results[1])
    assert results[0].overhead_intervals == results[1].overhead_intervals


@pytest.mark.parametrize("platform", sorted(PLATFORMS))
def test_one_sampler_serves_two_wcet_tables(platform):
    # Draws depend on the instance, not on the WCET: a sampler that drew
    # for one WCET table must scale the same draws by the other table's
    # WCETs, exactly as the WCET-checked Fraction memo redraws them.
    net, graph_a, stim = workload(23)
    _, graph_b, _ = workload(23, scale=Fraction(3, 2))
    shared = jittered_execution(9)
    reference = reference_memo_jittered_execution(9)
    for graph in (graph_a, graph_b, graph_a):
        schedule = list_schedule(graph, PLATFORMS[platform], "alap")
        ours = run_static_order(
            net, schedule, FRAMES, stim, shared, records_only=True
        )
        ref = run_static_order(
            net, schedule, FRAMES, stim, reference, records_only=True
        )
        assert record_fields(ours) == record_fields(ref)
    for job_a, job_b in zip(graph_a.jobs, graph_b.jobs):
        assert exact(shared(job_b, 1)) == exact(reference(job_b, 1))
        assert exact(shared(job_a, 1)) == exact(reference(job_a, 1))
        assert shared(job_b, 1) == shared(job_a, 1) * Fraction(3, 2)


@pytest.fixture(scope="module")
def fms_25_frames():
    net = build_fms_network()
    graph = derive_task_graph(net, fms_wcets())
    return net, graph, fms_stimulus(net, graph.hyperperiod * 25)


@pytest.mark.parametrize("platform", ["m1", "m2", "m3", "big_little"])
def test_fms_jittered_runs_match_the_fraction_reference(
    fms_25_frames, platform
):
    # The FMS case study at the sweep's scale: 812 jobs per frame, nearly
    # half of them server slots no arrival fills, whose draws the
    # sampler's rows hold but the timing loop must never charge.
    net, graph, stim = fms_25_frames
    schedule = find_feasible_schedule(
        graph, PLATFORMS.get(platform) or int(platform[1:])
    )
    ticks = MetricsObserver()
    ours = run_static_order(
        net, schedule, 25, stim, jittered_execution(31), records_only=True,
        observers=[ticks],
    )
    reference = reference_run_static_order(
        net, schedule, 25, stim, reference_jittered_execution(31)
    )
    assert record_fields(ours) == record_fields(reference)
    fed = RecordFed()
    replay(reference, fed)
    assert aggregates(ticks) == aggregates(fed)
    assert 0.4 < ticks.false_jobs / ticks.total_jobs < 0.5
