"""Differential tests for the data-phase fast path (the PR's contract).

The optimised ``MultiprocessorExecutor._data_phase`` — one rebound
``JobContext`` per process, batched per-(process, frame) dispatch, lazily
materialised trace, GC suspension — must be **bit-identical** to the naive
reference (one fresh ``JobContext`` per instance, fresh binding dicts,
eager action trace) on every covered workload:

* identical channel write logs (the Prop. 2.1 observable),
* identical external output sample sequences,
* identical action traces (every read/write/assign, in order),

asserted two ways: end to end against ``reference_run_static_order`` (the
seed's full Fraction-domain simulation), and in isolation by replaying the
fast path's own execution order through ``reference_data_phase``.
Workloads: Fig. 1, FFT, FMS (periodic + sporadic servers), jittered WCETs,
and a dedicated bursty sporadic-server network.
"""

from fractions import Fraction

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
from repro.core import Network
from repro.core.channels import is_no_data
from repro.core.invocations import Stimulus
from repro.core.trace import Trace
from repro.runtime import (
    OverheadModel,
    jittered_execution,
    run_static_order,
)
from repro.scheduling import list_schedule
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_data_phase,
    reference_jittered_execution,
    reference_run_static_order,
)


# ----------------------------------------------------------------------
# Workloads.
# ----------------------------------------------------------------------

def fig1():
    net = build_fig1_network()
    return net, derive_task_graph(net, fig1_wcets()), 2, fig1_stimulus(3)


def fft():
    net = build_fft_network()
    vecs = [[k, 1j * k, -k, 0.5 * k] for k in range(4)]
    return net, derive_task_graph(net, fft_wcets()), 2, fft_stimulus(vecs)


def fms():
    net = build_fms_network()
    g = derive_task_graph(net, fms_wcets())
    return net, g, 1, fms_stimulus(net, g.hyperperiod * 3)


def sporadic_burst():
    """A dedicated sporadic-server workload: burst-2 config + stateful user."""
    net = Network("sporadic-burst")

    def producer(ctx):
        ctx.write("data", ctx.k)

    def user(ctx):
        total = ctx.get("total", 0)
        v = ctx.read("data")
        if not is_no_data(v):
            total += v
        cfg = ctx.read("cfg")
        if not is_no_data(cfg):
            total += 1000 * cfg
        ctx.assign("total", total)
        ctx.write_output(total, "out")

    def config(ctx):
        cmd = ctx.read_input("cmd")
        if not is_no_data(cmd):
            ctx.write("cfg", cmd)

    net.add_periodic("Producer", period=100, kernel=producer)
    net.add_periodic("User", period=100, kernel=user)
    net.add_sporadic("Config", min_period=100, deadline=300, burst=2,
                     kernel=config)
    net.connect("Producer", "User", "data")
    net.connect("Config", "User", "cfg")
    net.add_priority_chain("Producer", "User")
    net.add_priority("User", "Config")
    net.add_external_input("Config", "cmd")
    net.add_external_output("User", "out")
    net.validate()
    graph = derive_task_graph(net, {"Producer": 10, "User": 20, "Config": 5})
    stim = Stimulus(
        input_samples={"cmd": {1: 7, 2: 9, 3: 4}},
        sporadic_arrivals={"Config": [0, 30, 130]},
    )
    return net, graph, 2, stim


APPS = {
    "fig1": fig1,
    "fft": fft,
    "fms": fms,
    "sporadic_burst": sporadic_burst,
}


def assert_same_observables(ours, ref):
    """Bit-identical channel logs, external outputs and action traces."""
    channel_logs, external_outputs, trace = ref
    assert ours.channel_logs == channel_logs
    assert ours.external_outputs == external_outputs
    assert list(ours.trace) == list(trace)
    assert ours.trace == trace  # compact tuples == the oracle's trace


# ----------------------------------------------------------------------
# End to end: optimised run vs the seed's full Fraction simulation.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app", sorted(APPS))
def test_end_to_end_identical(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    ours = run_static_order(net, schedule, 3, stim)
    ref = reference_run_static_order(net, schedule, 3, stim)
    assert ours.records == ref.records
    assert ours.channel_logs == ref.channel_logs
    assert ours.external_outputs == ref.external_outputs
    assert list(ours.trace) == list(ref.trace)


@pytest.mark.parametrize("app", sorted(APPS))
def test_end_to_end_identical_jittered(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    ours = run_static_order(
        net, schedule, 2, stim, execution_time=jittered_execution(2015)
    )
    ref = reference_run_static_order(
        net, schedule, 2, stim,
        execution_time=reference_jittered_execution(2015),
    )
    assert ours.records == ref.records
    assert ours.channel_logs == ref.channel_logs
    assert ours.external_outputs == ref.external_outputs
    assert list(ours.trace) == list(ref.trace)


def test_end_to_end_identical_with_overheads():
    net, graph, m, stim = fig1()
    schedule = list_schedule(graph, m, "alap")
    ov = OverheadModel.create(first_frame_arrival=31, steady_frame_arrival=17,
                              per_job="1/4")
    ours = run_static_order(net, schedule, 3, stim, overheads=ov)
    ref = reference_run_static_order(net, schedule, 3, stim, overheads=ov)
    assert ours.records == ref.records
    assert ours.observable() == ref.observable()
    assert list(ours.trace) == list(ref.trace)


# ----------------------------------------------------------------------
# Isolated oracle: the fast path's own execution order replayed through
# the naive fresh-context data phase.
# ----------------------------------------------------------------------

def _execution_order(result):
    """``(process, global_k, release)`` tuples in data-phase order."""
    release_of = {
        (r.process, r.global_k): r.release
        for r in result.records
        if not r.is_false
    }
    return [
        (process, k, release_of[(process, k)])
        for process, k in result.trace.job_order()
    ]


@pytest.mark.parametrize("app", sorted(APPS))
def test_isolated_data_phase_identical(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    ours = run_static_order(net, schedule, 3, stim)
    ref = reference_data_phase(net, _execution_order(ours), stim)
    assert_same_observables(ours, ref)


def test_isolated_data_phase_identical_jittered():
    net, graph, m, stim = fms()
    schedule = list_schedule(graph, m, "alap")
    ours = run_static_order(
        net, schedule, 2, stim, execution_time=jittered_execution(7)
    )
    ref = reference_data_phase(net, _execution_order(ours), stim)
    assert_same_observables(ours, ref)


# ----------------------------------------------------------------------
# Trace suppression and the lazy trace.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("app", ["fig1", "sporadic_burst"])
def test_collect_trace_false_preserves_observables(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    full = run_static_order(net, schedule, 3, stim)
    bare = run_static_order(net, schedule, 3, stim, collect_trace=False)
    assert bare.channel_logs == full.channel_logs
    assert bare.external_outputs == full.external_outputs
    assert bare.records == full.records
    assert len(bare.trace) == 0
    assert not bare.trace_collected
    assert full.trace_collected


def test_lazy_trace_materialises_identically():
    net, graph, m, stim = fig1()
    schedule = list_schedule(graph, m, "alap")
    result = run_static_order(net, schedule, 2, stim)
    assert isinstance(result.trace, Trace)
    eager = Trace(list(result.trace))
    # Equality across the eager/lazy divide, both orientations.
    assert result.trace == eager
    assert eager == result.trace
    # Projections work identically.
    assert result.trace.channel_writes() == eager.channel_writes()
    assert result.trace.job_order() == eager.job_order()
    # Materialisation is cached, not rebuilt.
    assert result.trace.actions is result.trace.actions


def test_action_trace_guarded_accessor():
    net, graph, m, stim = fig1()
    schedule = list_schedule(graph, m, "alap")
    full = run_static_order(net, schedule, 2, stim)
    assert full.action_trace() is full.trace

    from repro.errors import RuntimeModelError

    bare = run_static_order(net, schedule, 2, stim, collect_trace=False)
    with pytest.raises(RuntimeModelError, match="collect_trace=False"):
        bare.action_trace()
    timing = run_static_order(net, schedule, 2, stim, records_only=True)
    with pytest.raises(RuntimeModelError, match="records_only=True"):
        timing.action_trace()


def test_fractional_period_data_phase():
    """Non-trivial tick scale: releases at 1/3, 1/2 stay exact Fractions."""
    net = Network("fractional")
    net.add_periodic("Fast", period="1/3", deadline="1/3",
                     kernel=lambda ctx: ctx.write("c", ctx.now))
    net.add_periodic("Slow", period="1/2", deadline="1/2",
                     kernel=lambda ctx: ctx.read("c"))
    net.connect("Fast", "Slow", "c")
    net.add_priority("Fast", "Slow")
    net.validate()
    graph = derive_task_graph(net, {"Fast": "1/30", "Slow": "1/20"})
    schedule = list_schedule(graph, 1, "alap")
    ours = run_static_order(net, schedule, 3)
    ref = reference_run_static_order(net, schedule, 3)
    assert ours.channel_logs == ref.channel_logs
    assert list(ours.trace) == list(ref.trace)
    # The written values are the invocation stamps: exact rationals.
    assert ours.channel_logs["c"][1] == Fraction(1, 3)
