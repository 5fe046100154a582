"""Tick-native static schedules against hand-built ones and the oracle.

The list scheduler hands its start-tick and processor arrays to
``StaticSchedule._from_ticks``; those arrays are the schedule's only
representation, and its ``ScheduledJob`` entries are built lazily.  Such a
schedule must be indistinguishable from the same entries passed through
the public constructor and from the pure-Fraction list scheduler and
feasibility check in ``fraction_reference.py``: entries, per-processor
orders, the tick view, violations, makespan and schedule JSON bytes.
Covered on Fig. 1, FFT, FMS and the 40 s FMS hyperperiod, on 1/2/3
processors, big/little and a per-class WCET table, for every heuristic of
the default portfolio — feasible and infeasible schedules alike.
"""

import gc
import json
import random
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest

from repro.apps import (
    build_fft_network,
    build_fig1_network,
    build_fms_network,
    fft_wcets,
    fig1_stimulus,
    fig1_wcets,
    fms_wcets,
)
from repro.core.platform import Platform
from repro.errors import InfeasibleError, SchedulingError
from repro.experiment import Scenario, ScenarioMatrix, run_sweep
from repro.io import schedule_to_dict
from repro.runtime import run_static_order
from repro.runtime.static_order import RunPlan
from repro.scheduling import (
    DEFAULT_PORTFOLIO,
    find_feasible_schedule,
    list_schedule,
    try_portfolio,
)
from repro.scheduling.schedule import ScheduledJob, StaticSchedule
from repro.taskgraph import derive_task_graph
from repro.taskgraph.graph import TaskGraph
from repro.taskgraph.jobs import Job

from fraction_reference import (
    reference_list_schedule,
    reference_makespan,
    reference_violations,
)


def _tabled(wcets):
    """Every other process pinned per class, with new denominators."""
    out = dict(wcets)
    for name in sorted(out)[::2]:
        w = Fraction(out[name])
        out[name] = {"big": w * Fraction(3, 5), "little": w * Fraction(7, 4)}
    return out


APPS = {
    "fig1": (build_fig1_network, fig1_wcets),
    "fft": (build_fft_network, fft_wcets),
    "fms": (build_fms_network, fms_wcets),
    "fms-40s": (
        lambda: build_fms_network(reduced_hyperperiod=False), fms_wcets
    ),
}

PLATFORMS = {
    "m1": 1,
    "m2": 2,
    "m3": 3,
    "big_little": Platform.of(("big", 1), ("little", 1, Fraction(1, 2))),
    "table": Platform.of(("big", 1), ("little", 2)),
}


@lru_cache(maxsize=None)
def _graph(app, tabled):
    build, wcets = APPS[app]
    net = build()
    return net, derive_task_graph(net, _tabled(wcets()) if tabled else wcets())


def case(app, platform):
    net, graph = _graph(app, platform == "table")
    return net, graph, PLATFORMS[platform]


def _exact(t):
    return (t.numerator, t.denominator)


def _json(schedule):
    return json.dumps(schedule_to_dict(schedule), sort_keys=True)


def assert_same(ours, other):
    """Two schedules agree on every public view, exactly."""
    assert ours.processors == other.processors
    assert ours.platform == other.platform
    assert ours.entries == other.entries
    assert [_exact(e.start) for e in ours.entries] == [
        _exact(e.start) for e in other.entries
    ]
    assert ours.orders() == other.orders()
    assert ours.tick_view() == other.tick_view()
    assert [(v.kind, v.detail) for v in ours.violations()] == [
        (v.kind, v.detail) for v in other.violations()
    ]
    assert ours.violation_count() == other.violation_count()
    assert _exact(ours.makespan()) == _exact(other.makespan())
    assert _json(ours) == _json(other)


@pytest.mark.parametrize("heuristic", DEFAULT_PORTFOLIO)
@pytest.mark.parametrize("platform", sorted(PLATFORMS))
@pytest.mark.parametrize("app", sorted(APPS))
def test_tick_schedule_matches_hand_built_and_oracle(app, platform, heuristic):
    _net, graph, plat = case(app, platform)
    ours = list_schedule(graph, plat, heuristic)
    ref = reference_list_schedule(graph, plat, heuristic)
    assert_same(ours, StaticSchedule(graph, plat, ours.entries))
    assert_same(ours, ref)
    assert [(v.kind, v.detail) for v in ours.violations()] == (
        reference_violations(ref)
    )
    assert ours.violation_count() == len(reference_violations(ref))
    assert _exact(ours.makespan()) == _exact(reference_makespan(ref))


def test_the_cases_include_infeasible_schedules():
    """Both paths of the feasibility check are exercised above."""
    _net, graph, plat = case("fig1", "m1")
    assert list_schedule(graph, plat, "alap").violation_count() > 0
    _net, graph, plat = case("fig1", "m2")
    assert list_schedule(graph, plat, "alap").violation_count() == 0


# ---------------------------------------------------------------------------
# corrupted starts: both constructors diagnose them identically
# ---------------------------------------------------------------------------
def _corrupt(kind):
    """A feasible fig1 schedule and one moved start that breaks *kind*."""
    _net, graph, plat = case("fig1", "m2")
    schedule = list_schedule(graph, plat, "alap")
    assert schedule.violation_count() == 0
    start_t = list(schedule.tick_view()[1])
    proc_of = list(schedule.mapping_table())
    if kind == "precedence":
        i, j = next(
            (i, j) for i, succs in enumerate(graph.successor_table())
            for j in succs if proc_of[i] != proc_of[j]
        )
        start_t[j] = start_t[i]
    else:
        a, b = next(row for row in schedule.orders() if len(row) > 1)[:2]
        start_t[b] = start_t[a]
    return graph, schedule.platform, start_t, proc_of


@pytest.mark.parametrize("kind", ["precedence", "mutex"])
def test_corrupted_start_reported_identically(kind):
    graph, plat, start_t, proc_of = _corrupt(kind)
    trusted = StaticSchedule._from_ticks(graph, plat, start_t, proc_of)
    from_ticks = trusted.tick_view()[0].from_ticks
    public = StaticSchedule(graph, plat, [
        ScheduledJob(i, p, from_ticks(s))
        for i, (s, p) in enumerate(zip(start_t, proc_of))
    ])
    assert_same(trusted, public)
    found = [(v.kind, v.detail) for v in trusted.violations()]
    assert kind in [k for k, _ in found]
    assert found == reference_violations(public)


# ---------------------------------------------------------------------------
# the Definition 3.2 check: a seeded differential, its memo and its reuse
# ---------------------------------------------------------------------------
KINDS = {"missing", "arrival", "deadline", "precedence", "mutex"}


def _corrupted(app, platform, seed):
    """The ``alap`` list schedule corrupted at many jobs at once: swapped
    processors, moved starts (some off the tick grid), one dropped entry
    and an overlap on every processor, each moving a job no other
    corruption moves, so that none undoes another."""
    _net, graph, plat = case(app, platform)
    schedule = list_schedule(graph, plat, "alap")
    rng = random.Random(seed)
    n, jobs = len(graph), graph.jobs
    start = [schedule.start(i) for i in range(n)]
    proc = list(schedule.mapping_table())
    for _ in range(2 if schedule.processors > 1 else 0):
        a, b = rng.sample(range(n), 2)
        proc[a], proc[b] = proc[b], proc[a]
    late = [i for i in range(n) if jobs[i].arrival > 0]
    moved = set(rng.sample(late, min(2, len(late))))
    for i in moved:  # before arrival
        start[i] = jobs[i].arrival * Fraction(rng.randint(0, 6), 7)
    each = 1 if n < 20 else 2
    edges = rng.sample([e for e in graph.edges() if moved.isdisjoint(e)], each)
    for i, j in edges:  # a successor starts with its predecessor
        start[j] = start[i]
    moved.update(*edges)
    free = [i for i in range(n) if i not in moved]
    missed = rng.sample(free, each)
    for i in missed:  # past the deadline, at one start: a tie to order
        start[i] = max(jobs[m].deadline for m in missed)
        free.remove(i)
    drop = rng.choice(free)
    free.remove(drop)
    for p in range(schedule.processors):  # an overlap on every processor
        mine = [i for i in range(n) if proc[i] == p and i != drop]
        movable = [i for i in mine if i in free]
        if movable and len(mine) > 1:
            b = rng.choice(movable)
            start[b] = start[rng.choice([i for i in mine if i != b])]
    return StaticSchedule(graph, plat, [
        ScheduledJob(i, proc[i], start[i]) for i in range(n) if i != drop
    ])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("platform", ["m1", "m2", "m3", "big_little"])
@pytest.mark.parametrize("app", ["fig1", "fft", "fms"])
def test_corrupted_schedules_match_the_oracle(app, platform, seed):
    schedule = _corrupted(app, platform, seed)
    found = [(v.kind, v.detail) for v in schedule.violations()]
    assert found == reference_violations(schedule)
    assert schedule.violation_count() == len(found)
    # FFT jobs all arrive at 0: no start precedes an arrival there.
    has_late = any(job.arrival > 0 for job in schedule.graph.jobs)
    assert {kind for kind, _ in found} == KINDS - (
        set() if has_late else {"arrival"}
    )
    overlapping = {d.rsplit(" ", 1)[1] for k, d in found if k == "mutex"}
    assert len(overlapping) >= min(schedule.processors, 2)


def test_one_check_per_schedule(monkeypatch):
    calls = []
    check = StaticSchedule._check

    def spy(self, *args):
        calls.append(self)
        return check(self, *args)

    monkeypatch.setattr(StaticSchedule, "_check", spy)
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    schedule = list_schedule(graph, 2)
    assert schedule.violation_count() == 0
    assert schedule.violations() == []
    assert schedule.require_feasible() is schedule
    assert schedule.is_feasible()
    RunPlan.of(schedule)
    run_static_order(net, schedule, 2, fig1_stimulus(2), records_only=True)
    assert calls == [schedule]


# ---------------------------------------------------------------------------
# laziness: the sweep path never materialises a ScheduledJob
# ---------------------------------------------------------------------------
def test_schedule_and_records_only_run_build_no_entries(monkeypatch):
    built = []
    post_init = ScheduledJob.__post_init__

    def counting(self):
        built.append(self.job_index)
        post_init(self)

    monkeypatch.setattr(ScheduledJob, "__post_init__", counting)
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    schedule = find_feasible_schedule(graph, 2)
    result = run_static_order(net, schedule, 3, fig1_stimulus(3),
                              records_only=True)
    assert result.records
    assert built == []
    try_portfolio(graph, Platform.homogeneous(2))
    assert built == []
    # Entries are still there on demand, built once.
    assert len(schedule.entries) == len(graph)
    assert len(built) == len(graph)
    schedule.entries
    assert len(built) == len(graph)


def test_warm_runs_share_the_schedules_run_constants(monkeypatch):
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    schedule = find_feasible_schedule(graph, 2)
    first = run_static_order(net, schedule, 2, fig1_stimulus(2))
    constants = dict(schedule.run_memo())
    assert constants
    plan = RunPlan.of(schedule)
    fields = {name: getattr(plan, name) for name in RunPlan.__slots__}
    built = []
    build = RunPlan.__init__

    def spy(self, *args):
        built.append(args)
        build(self, *args)

    monkeypatch.setattr(RunPlan, "__init__", spy)
    second = run_static_order(net, schedule, 2, fig1_stimulus(2))
    assert first.records == second.records
    # The second run builds none of the plan's lists: it reads the memo.
    assert built == []
    assert all(schedule.run_memo()[k] is v for k, v in constants.items())
    assert all(getattr(RunPlan.of(schedule), n) is v for n, v in fields.items())
    # The frame order visits each processor's jobs in its static order.
    assert [
        [i for i in plan.order if plan.proc_of[i] == m]
        for m in range(schedule.processors)
    ] == schedule.orders()


def test_schedules_of_one_graph_share_the_job_columns():
    graph = derive_task_graph(build_fig1_network(), fig1_wcets())
    one, two = (RunPlan.of(list_schedule(graph, m)) for m in (1, 2))
    for name in ("process", "k", "keys", "is_server", "counts", "processes",
                 "layout"):
        assert getattr(one, name) is getattr(two, name)
    assert one.proc_of != two.proc_of


def test_a_run_schedule_is_freed_without_the_cycle_collector():
    """The run memo holds no reference back to its schedule."""
    net = build_fig1_network()
    graph = derive_task_graph(net, fig1_wcets())
    gc.disable()
    try:
        schedule = find_feasible_schedule(graph, 2)
        run_static_order(net, schedule, 2, fig1_stimulus(2), records_only=True)
        assert schedule.run_memo()
        ref = weakref.ref(schedule)
        del schedule
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# job indices out of range
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("index", [-1, "len"])
def test_out_of_range_job_index_rejected(index):
    _net, graph, _plat = case("fig1", "m2")
    i = len(graph) if index == "len" else index
    with pytest.raises(SchedulingError, match="out of range"):
        StaticSchedule(graph, 2, [ScheduledJob(i, 0, Fraction(0))])


# ---------------------------------------------------------------------------
# InfeasibleError wording does not depend on the platform's spelling
# ---------------------------------------------------------------------------
def _never_feasible():
    """A chain whose second job cannot meet its deadline on any platform."""
    return TaskGraph([
        Job("a", 1, Fraction(0), Fraction(1000), Fraction(40)),
        Job("b", 1, Fraction(0), Fraction(50), Fraction(40)),
    ], [(0, 1)], Fraction(1000))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_infeasible_error_same_for_both_spellings(m):
    graph = _never_feasible()
    errors = []
    for target in (m, Platform.homogeneous(m)):
        with pytest.raises(InfeasibleError) as exc:
            find_feasible_schedule(graph, target)
        errors.append((str(exc.value), exc.value.diagnostics))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith(f"no feasible schedule on {m} processors")
    assert "deadline" in errors[0][1]


def test_heterogeneous_platform_error_names_the_platform():
    plat = Platform.of(("big", 1), ("little", 1, Fraction(1, 4)))
    with pytest.raises(InfeasibleError, match=r"on 1xbig \+ 1xlittle"):
        find_feasible_schedule(_never_feasible(), plat)


def test_failed_sweep_row_same_for_both_spellings():
    base = Scenario(workload="fig1", wcet=25, heuristics=("alap",))
    messages = []
    for axis in ({"processors": [1]},
                 {"platform": [Platform.homogeneous(1)]}):
        result = run_sweep(ScenarioMatrix(base, axis), ("makespan",))
        (row,) = result.failed_rows
        messages.append((row.error.stage, row.error.error_type,
                         row.error.message))
    assert messages[0] == messages[1]
    assert messages[0][2].startswith("no feasible schedule on 1 processors")
