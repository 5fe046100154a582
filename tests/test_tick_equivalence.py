"""Tick-domain vs Fraction-domain equivalence (the optimisation's contract).

The integer-tick ports of the list scheduler, priority search and runtime
executor must produce *exactly* — not approximately — the same public
values as the pure-Fraction reference implementations copied into
``fraction_reference.py``:

* identical ``StaticSchedule`` entries (job, processor, exact start),
* identical ``JobRecord`` timing fields on every instance,
* identical determinism observables (channel write logs, external outputs),

on the three example applications (Fig. 1, FFT, FMS), on networks with
fractional periods (1/2, 1/3 — non-trivial LCM of denominators), and under
jittered execution times.
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
from repro.runtime import (
    OverheadModel,
    jittered_execution,
    run_static_order,
)
from repro.runtime.static_order import _window_of_ticks
from repro.core.ticks import TickDomain
from repro.scheduling import available_heuristics, list_schedule
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_derive_task_graph,
    reference_jittered_execution,
    reference_list_schedule,
    reference_run_static_order,
    reference_simulate_invocations,
)


def fig1():
    net = build_fig1_network()
    return net, derive_task_graph(net, fig1_wcets()), 2, fig1_stimulus(3)


def fft():
    net = build_fft_network()
    vecs = [[k, k + 1j, -k, 0.5 * k] for k in range(3)]
    return net, derive_task_graph(net, fft_wcets()), 2, fft_stimulus(vecs)


def fms():
    net = build_fms_network()
    g = derive_task_graph(net, fms_wcets())
    return net, g, 1, fms_stimulus(net, g.hyperperiod * 3)


def fractional():
    """Periods 1/2 and 1/3: hyperperiod 1, tick scale lcm(2, 3) = 6."""
    net = Network("fractional")
    net.add_periodic("Fast", period="1/3", deadline="1/3",
                     kernel=lambda ctx: ctx.write("c", ctx.k))
    net.add_periodic("Slow", period="1/2", deadline="1/2",
                     kernel=lambda ctx: ctx.read("c"))
    net.connect("Fast", "Slow", "c")
    net.add_priority("Fast", "Slow")
    net.validate()
    graph = derive_task_graph(net, {"Fast": "1/30", "Slow": "1/20"})
    assert graph.hyperperiod == Fraction(1)
    return net, graph, 2, None


APPS = {"fig1": fig1, "fft": fft, "fms": fms, "fractional": fractional}


def assert_same_schedule(ours, ref):
    assert ours.processors == ref.processors
    assert len(ours.entries) == len(ref.entries)
    for a, b in zip(ours.entries, ref.entries):
        assert (a.job_index, a.processor) == (b.job_index, b.processor)
        # exact rational equality, not float closeness
        assert a.start == b.start
        assert (a.start.numerator, a.start.denominator) == (
            b.start.numerator, b.start.denominator)
    assert ours.makespan() == ref.makespan()
    assert ours.is_feasible() == ref.is_feasible()


def assert_same_result(ours, ref):
    assert len(ours.records) == len(ref.records)
    for a, b in zip(ours.records, ref.records):
        assert a == b  # dataclass equality: every field, exact Fractions
        for attr in ("release", "start", "end", "deadline"):
            fa, fb = getattr(a, attr), getattr(b, attr)
            assert (fa.numerator, fa.denominator) == (fb.numerator, fb.denominator)
    assert ours.observable() == ref.observable()
    assert ours.overhead_intervals == ref.overhead_intervals
    assert list(ours.trace) == list(ref.trace)


def assert_same_graph(ours, ref):
    """Derived graphs must match bit for bit: jobs, parameters, edges."""
    assert len(ours) == len(ref)
    assert ours.hyperperiod == ref.hyperperiod
    hp, rp = ours.hyperperiod, ref.hyperperiod
    assert (hp.numerator, hp.denominator) == (rp.numerator, rp.denominator)
    for a, b in zip(ours.jobs, ref.jobs):
        assert a == b  # dataclass equality: every field
        for attr in ("arrival", "deadline", "wcet"):
            fa, fb = getattr(a, attr), getattr(b, attr)
            assert (fa.numerator, fa.denominator) == (fb.numerator, fb.denominator)
        assert (a.is_server, a.subset_index, a.slot) == (
            b.is_server, b.subset_index, b.slot)
    assert ours.edges() == ref.edges()


DERIVATION_CASES = {
    "fig1": lambda: (build_fig1_network(), fig1_wcets(), None),
    "fig1_40s": lambda: (build_fig1_network(), fig1_wcets(), 40_000),
    "fft": lambda: (build_fft_network(), fft_wcets(), None),
    "fms": lambda: (build_fms_network(), fms_wcets(), None),
}


@pytest.mark.parametrize("case", sorted(DERIVATION_CASES))
def test_derivation_identical(case):
    net, wcets, horizon = DERIVATION_CASES[case]()
    assert_same_graph(
        derive_task_graph(net, wcets, horizon=horizon),
        reference_derive_task_graph(net, wcets, horizon=horizon),
    )


def test_derivation_identical_fms_40s():
    """The Section V-B pain point: the 40 s-hyperperiod FMS graph."""
    net = build_fms_network(reduced_hyperperiod=False)
    wcets = fms_wcets()
    ours = derive_task_graph(net, wcets)
    ref = reference_derive_task_graph(net, wcets)
    assert len(ours) == 2798
    assert_same_graph(ours, ref)


def test_derivation_identical_fractional_periods():
    net, graph, _, _ = fractional()
    assert_same_graph(
        graph, reference_derive_task_graph(net, {"Fast": "1/30", "Slow": "1/20"})
    )


def test_derivation_identical_unreduced():
    """The reduce_edges=False escape hatch matches the reference pre-step-5."""
    net, wcets, _ = DERIVATION_CASES["fig1"]()
    ours = derive_task_graph(net, wcets, reduce_edges=False)
    ref = reference_derive_task_graph(net, wcets, reduce_edges=False)
    assert_same_graph(ours, ref)


def test_derivation_identical_per_job_wcet_callable():
    """Callable WCETs are sampled per job, in the same <J order."""
    calls_ours, calls_ref = [], []

    def make_wcet(log):
        def wcet(process, k):
            log.append((process, k))
            return Fraction(20 + (k % 3), 1 + (k % 2))
        return wcet

    net = build_fig1_network()
    ours = derive_task_graph(
        net, {name: make_wcet(calls_ours) for name in fig1_wcets()}
    )
    ref = reference_derive_task_graph(
        net, {name: make_wcet(calls_ref) for name in fig1_wcets()}
    )
    assert_same_graph(ours, ref)
    assert calls_ours == calls_ref


@pytest.mark.parametrize("app", ["fig1", "fft", "fms"])
def test_invocation_order_identical(app):
    """The public simulate_invocations equals the Fraction simulation."""
    from repro.taskgraph import simulate_invocations, transform

    builders = {
        "fig1": build_fig1_network, "fft": build_fft_network,
        "fms": build_fms_network,
    }
    pn = transform(builders[app]())
    from repro.core.timebase import hyperperiod
    H = hyperperiod([p for p, _ in pn.effective.values()])
    ours = simulate_invocations(pn, H)
    ref = reference_simulate_invocations(pn, H)
    assert len(ours) == len(ref)
    for a, b in zip(ours, ref):
        assert (a.time, a.rank, a.process, a.k) == (b.time, b.rank, b.process, b.k)
        assert (a.time.numerator, a.time.denominator) == (
            b.time.numerator, b.time.denominator)


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("heuristic", ["alap", "blevel", "deadline", "arrival"])
def test_schedules_identical(app, heuristic):
    _, graph, m, _ = APPS[app]()
    assert_same_schedule(
        list_schedule(graph, m, heuristic),
        reference_list_schedule(graph, m, heuristic),
    )
    assert heuristic in available_heuristics()


@pytest.mark.parametrize("app", sorted(APPS))
def test_wcet_simulation_identical(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    frames = 3
    ours = run_static_order(net, schedule, frames, stim)
    ref = reference_run_static_order(net, schedule, frames, stim)
    assert_same_result(ours, ref)


@pytest.mark.parametrize("app", sorted(APPS))
def test_jittered_simulation_identical(app):
    net, graph, m, stim = APPS[app]()
    schedule = list_schedule(graph, m, "alap")
    ours = run_static_order(
        net, schedule, 2, stim, execution_time=jittered_execution(42)
    )
    ref = reference_run_static_order(
        net, schedule, 2, stim, execution_time=reference_jittered_execution(42)
    )
    assert_same_result(ours, ref)


def test_overhead_simulation_identical():
    net, graph, m, stim = fig1()
    schedule = list_schedule(graph, m, "alap")
    ov = OverheadModel.create(first_frame_arrival=41, steady_frame_arrival=20,
                              per_job="1/2")
    ours = run_static_order(net, schedule, 3, stim, overheads=ov)
    ref = reference_run_static_order(net, schedule, 3, stim, overheads=ov)
    assert_same_result(ours, ref)


def test_jitter_sampler_matches_seed_construction():
    """The sampler equals a fresh digest and mix per sample."""
    _, graph, _, _ = fms()
    ours = jittered_execution(7)
    ref = reference_jittered_execution(7)
    for job in graph.jobs[:100]:
        for frame in (0, 1, 5):
            a, b = ours(job, frame), ref(job, frame)
            assert (a.numerator, a.denominator) == (b.numerator, b.denominator)
    # a second pass returns identical values
    for job in graph.jobs[:20]:
        assert ours(job, 0) == ref(job, 0)


def reference_window_of(period, hyperperiod, closed_right, t):
    """Seed's Fraction-domain server-window formula."""
    q = t / period
    if closed_right:
        b_index = q.numerator // q.denominator
        if b_index * period < t:
            b_index += 1
    else:
        b_index = q.numerator // q.denominator + 1
    b = b_index * period
    frame_ratio = b / hyperperiod
    frame = frame_ratio.numerator // frame_ratio.denominator
    offset = b - frame * hyperperiod
    subset_ratio = offset / period
    subset = subset_ratio.numerator // subset_ratio.denominator + 1
    return frame, subset


@pytest.mark.parametrize("closed_right", [True, False])
def test_window_binding_matches_fraction_formula(closed_right):
    period = Fraction(7, 3)
    hyperperiod = Fraction(14)  # 6 windows per frame
    dom = TickDomain.for_values([period, hyperperiod, Fraction(1, 5)])
    T_t, H_t = dom.to_ticks(period), dom.to_ticks(hyperperiod)
    for num in range(0, 500):
        t = Fraction(num, 5)
        expected = reference_window_of(period, hyperperiod, closed_right, t)
        got = _window_of_ticks(dom.to_ticks(t), T_t, H_t, closed_right)
        assert got == expected, f"t={t}"
