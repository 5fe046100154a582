"""Heterogeneous-platform equivalence (the platform model's contract).

The platform model threads (task, processor-class) WCET tables through
derivation, scheduling and the runtime: every layer charges durations
from the graph's one duration table per platform shape
(``TaskGraph.platform_ticks``), with no separate homogeneous code path.
Its load-bearing invariant is *degeneracy*: a single-class speed-1
platform — a one-row table — must be **bit-identical** (exact Fractions,
not approximately equal) to the ``processors: int`` spelling, end to end:

* identical ``StaticSchedule`` entries on Fig. 1 / FFT / FMS for every
  heuristic, against the pure-Fraction oracles in
  ``fraction_reference.py``;
* identical ``JobRecord`` timing and determinism observables, including
  under jittered execution times;
* identical rows after a JSON wire round-trip and from a ``workers=N``
  sweep with a platform axis.

Non-degenerate platforms are pinned to the platform-aware oracles in
``test_hetero_oracles.py`` and ``test_hetero_differential.py``.  On top
of degeneracy, speed scaling is a *property*: a class of speed
``1/2`` executes every job for exactly twice as long — an exact rational
relation checked per record, never a float tolerance.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from repro import ScenarioMatrix, run_sweep
from repro.apps import (
    build_fft_network,
    build_fig1_network,
    build_fms_network,
    fft_stimulus,
    fft_wcets,
    fig1_scenario,
    fig1_stimulus,
    fig1_wcets,
    fms_stimulus,
    fms_wcets,
)
from repro.core.platform import Platform, ProcessorClass, as_platform
from repro.errors import ModelError, SchedulingError
from repro.io import schedule_from_dict, schedule_to_dict
from repro.runtime import jittered_execution, run_static_order
from repro.scheduling import (
    alap_priority,
    available_heuristics,
    blevel_priority,
    find_feasible_schedule,
    list_schedule,
    schedule_quality,
    search_priorities,
)
from repro.taskgraph import derive_task_graph

from fraction_reference import (
    reference_jittered_execution,
    reference_list_schedule,
    reference_run_static_order,
)

from test_tick_equivalence import (
    APPS,
    assert_same_result,
    assert_same_schedule,
)


UNIT2 = Platform.homogeneous(2)
HALF_SPEED = Platform.of(("slow", 2, Fraction(1, 2)))
BIG_LITTLE = Platform.of(("big", 1), ("little", 1, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# degenerate platform == homogeneous integer, bit for bit
# ---------------------------------------------------------------------------
class TestDegenerateScheduling:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("heuristic", sorted(available_heuristics()))
    def test_unit_platform_schedule_matches_reference(self, app, heuristic):
        _net, graph, m, _stim = APPS[app]()
        assert_same_schedule(
            list_schedule(graph, Platform.homogeneous(m), priority=heuristic),
            reference_list_schedule(graph, m, priority=heuristic),
        )

    @pytest.mark.parametrize("app", sorted(APPS))
    def test_unit_platform_runtime_matches_reference(self, app):
        net, graph, m, stim = APPS[app]()
        schedule = list_schedule(graph, Platform.homogeneous(m))
        assert_same_result(
            run_static_order(net, schedule, 2, stim),
            reference_run_static_order(
                net, reference_list_schedule(graph, m), 2, stim
            ),
        )

    def test_unit_platform_jittered_runtime_matches_reference(self):
        net = build_fig1_network()
        graph = derive_task_graph(net, fig1_wcets())
        schedule = list_schedule(graph, UNIT2)
        assert_same_result(
            run_static_order(
                net, schedule, 3, fig1_stimulus(4), jittered_execution(11)
            ),
            reference_run_static_order(
                net,
                reference_list_schedule(graph, 2),
                3,
                fig1_stimulus(4),
                reference_jittered_execution(11),
            ),
        )

    def test_unit_platform_survives_json_wire(self):
        net = build_fig1_network()
        graph = derive_task_graph(net, fig1_wcets())
        schedule = list_schedule(graph, UNIT2)
        wired = schedule_from_dict(schedule_to_dict(schedule))
        assert wired.platform == UNIT2
        assert_same_result(
            run_static_order(net, wired, 2, fig1_stimulus(3)),
            reference_run_static_order(
                net, reference_list_schedule(graph, 2), 2, fig1_stimulus(3)
            ),
        )


# ---------------------------------------------------------------------------
# speed scaling: exact rational durations, no tolerance
# ---------------------------------------------------------------------------
def _durations(result):
    return {
        (r.process, r.frame, r.k_frame): r.end - r.start
        for r in result.records
        if not r.is_false
    }


class TestSpeedScaling:
    def test_half_speed_class_exactly_doubles_durations(self):
        net = build_fig1_network()
        graph = derive_task_graph(net, fig1_wcets())
        fast = _durations(
            run_static_order(net, list_schedule(graph, UNIT2), 2, fig1_stimulus(3))
        )
        slow = _durations(
            run_static_order(
                net, list_schedule(graph, HALF_SPEED), 2, fig1_stimulus(3)
            )
        )
        assert set(slow) == set(fast)
        for key, d in fast.items():
            assert slow[key] == 2 * d
            assert (slow[key].numerator, slow[key].denominator) == (
                (2 * d).numerator, (2 * d).denominator)

    def test_half_speed_scaling_holds_under_jitter(self):
        net = build_fig1_network()
        graph = derive_task_graph(net, fig1_wcets())
        fast = _durations(
            run_static_order(
                net, list_schedule(graph, UNIT2), 2, fig1_stimulus(3),
                jittered_execution(5),
            )
        )
        slow = _durations(
            run_static_order(
                net, list_schedule(graph, HALF_SPEED), 2, fig1_stimulus(3),
                jittered_execution(5),
            )
        )
        # The sampler draws the same fraction-of-WCET per (job, frame);
        # the slow class stretches every sample by exactly 2.
        for key, d in fast.items():
            assert slow[key] == 2 * d

    def test_explicit_table_overrides_speed_scaling(self):
        wcets = dict(fig1_wcets())
        # FilterA pinned per class: the table entry is authoritative, so
        # the little-class value is NOT wcet/speed but the given Fraction.
        wcets["FilterA"] = {
            "big": Fraction(3, 10), "little": Fraction(1, 2)
        }
        graph = derive_task_graph(build_fig1_network(), wcets)
        job = next(j for j in graph.jobs if j.process == "FilterA")
        big, little = BIG_LITTLE.classes
        assert job.wcet_on(big) == Fraction(3, 10)
        assert job.wcet_on(little) == Fraction(1, 2)
        # Unpinned jobs fall back to wcet / speed.
        other = next(j for j in graph.jobs if j.process == "InputA")
        assert other.wcet_on(little) == other.wcet * 2


# ---------------------------------------------------------------------------
# platform model semantics
# ---------------------------------------------------------------------------
class TestPlatformModel:
    def test_homogeneous_is_unit_and_degenerate(self):
        p = Platform.homogeneous(3)
        assert p.is_unit and p.processors == 3
        assert p == as_platform(3)

    def test_heterogeneous_identity_and_class_of(self):
        assert BIG_LITTLE.processors == 2
        assert [cls.name for cls in BIG_LITTLE.class_per_processor()] == [
            "big", "little"
        ]
        assert BIG_LITTLE.class_of(1).speed == Fraction(1, 2)
        assert not BIG_LITTLE.is_unit

    def test_bad_platforms_rejected(self):
        # Core platform validation follows the timebase idiom
        # (ValueError); the scheduling layer wraps it in SchedulingError
        # and the scenario layer in ModelError.
        with pytest.raises(ValueError):
            Platform.of(("big", 0))
        with pytest.raises(ValueError):
            Platform.of(("big", 1, 0))
        with pytest.raises(ValueError):
            Platform.of(("big", 1), ("big", 2))
        with pytest.raises(SchedulingError):
            graph = derive_task_graph(build_fig1_network(), fig1_wcets())
            list_schedule(graph, 0)
        with pytest.raises(ModelError):
            replace(fig1_scenario(), processors=0)

    def test_unknown_class_in_wcet_table_rejected(self):
        wcets = dict(fig1_wcets())
        wcets["FilterA"] = {"gpu": Fraction(1, 10)}
        graph = derive_task_graph(build_fig1_network(), wcets)
        job = next(j for j in graph.jobs if j.process == "FilterA")
        cls = ProcessorClass("big")
        with pytest.raises(KeyError):
            job.wcet_on(cls)

    @pytest.mark.parametrize("platform", [
        2, Platform.of(("gpu", 2)), Platform.of(("big", 1), ("mid", 1)),
    ])
    def test_table_missing_a_platform_class_is_a_scheduling_error(
        self, platform
    ):
        wcets = dict(fig1_wcets())
        wcets["FilterA"] = {"big": Fraction(1, 10), "little": Fraction(1, 5)}
        graph = derive_task_graph(build_fig1_network(), wcets)
        calls = (
            lambda: list_schedule(graph, platform),
            lambda: find_feasible_schedule(graph, platform),
            lambda: search_priorities(graph, platform, max_iterations=4),
            lambda: schedule_quality(graph, platform, "alap"),
            lambda: alap_priority(graph, platform=platform),
        )
        for call in calls:
            with pytest.raises(SchedulingError, match="FilterA.*no WCET"):
                call()

    def test_default_platform_ranking_of_tabled_graph_is_a_scheduling_error(
        self,
    ):
        wcets = dict(fig1_wcets())
        wcets["FilterA"] = {"big": Fraction(1, 10), "little": Fraction(1, 5)}
        graph = derive_task_graph(build_fig1_network(), wcets)
        for rank in (alap_priority, blevel_priority):
            with pytest.raises(SchedulingError, match="'cpu'"):
                rank(graph)


# ---------------------------------------------------------------------------
# sweeps: platform axis, serial == workers=2, exact metrics on the wire
# ---------------------------------------------------------------------------
SWEEP_METRICS = ("makespan", "worst_lateness", "executed_jobs")


def platform_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=2),
        {
            "platform": [UNIT2, BIG_LITTLE],
            "jitter_seed": [0, 3],
        },
    )


class TestPlatformSweeps:
    def test_platform_axis_serial_matches_parallel(self):
        serial = run_sweep(platform_matrix(), metrics=SWEEP_METRICS)
        pooled = run_sweep(platform_matrix(), metrics=SWEEP_METRICS, workers=2)
        assert not serial.failed_rows and not pooled.failed_rows
        assert pooled.rows == serial.rows
        for row in serial.rows:
            assert isinstance(row.metrics["makespan"], Fraction)

    def test_platform_axis_shares_one_derivation(self):
        result = run_sweep(platform_matrix(), metrics=SWEEP_METRICS)
        # WCET tables are keyed by class *name*, so the derivation is
        # platform-independent: both platform cells reuse one graph while
        # each platform gets its own schedule.
        assert result.stats.derivations_computed == 1
        assert result.stats.schedules_computed == 2

    def test_unit_platform_cell_matches_processors_cell(self):
        base = fig1_scenario(n_frames=2)
        via_platform = run_sweep(
            ScenarioMatrix(base, {"platform": [UNIT2]}), metrics=SWEEP_METRICS
        )
        via_processors = run_sweep(
            ScenarioMatrix(base, {"processors": [2]}), metrics=SWEEP_METRICS
        )
        assert (
            via_platform.rows[0].metrics == via_processors.rows[0].metrics
        )

    def test_scenario_platform_sets_processor_count(self):
        s = replace(fig1_scenario(), platform=BIG_LITTLE)
        assert s.processors == 2
        assert s.scheduling_target() == BIG_LITTLE
        assert "1xbig + 1xlittle" in s.describe()
