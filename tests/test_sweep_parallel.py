"""Multiprocess sweep backend (ISSUE 5): bit-identical parallel rows,
per-group stage-reuse stats, wire-format round-trips and the documented
serial fallbacks."""

import json
from fractions import Fraction

import pytest

from repro import ScenarioMatrix, run_sweep
from repro.apps import fft_scenario, fig1_scenario, fms_scenario
from repro.errors import ModelError, RuntimeModelError
from repro.experiment import PipelineCache, SweepStats
from repro.experiment.sweep import _dispatch_plan, _group_cells
from repro.io import sweep_result_from_dict, sweep_result_to_dict
from repro.runtime import ExecutionObserver, OverheadModel

#: The headline acceptance matrix: jitter x overheads x processors over the
#: FMS case study.  Two processor counts -> two schedule-key groups, so a
#: workers=2 sweep genuinely fans out, while jitter/overhead cells within a
#: group exercise the per-worker stage reuse.
FMS_METRICS = (
    "executed_jobs",
    "missed_jobs",
    "worst_lateness",
    "makespan",
    "peak_utilization",
    "channel_writes",
)


def fms_matrix():
    return ScenarioMatrix(
        fms_scenario(n_frames=1),
        {
            "jitter_seed": [0, 7],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
            "processors": [1, 2],
        },
    )


def schedule_key_groups(matrix):
    """The matrix's cells grouped by schedule key, in first-seen order."""
    return list(_group_cells(matrix.cells()).values())


def fans_out(matrix):
    """Would ``run_sweep(matrix, workers=2)`` dispatch (decided without
    spawning anything)?"""
    return not isinstance(_dispatch_plan(list(matrix.cells())), str)


def fallback_reason(matrix, **options):
    """The serial-fallback reason a ``workers=2`` sweep records."""
    result = run_sweep(matrix, ("executed_jobs",), workers=2, **options)
    assert result.stats.workers == 1
    return result.stats.parallel_fallback


@pytest.fixture(scope="module")
def fms_serial_and_parallel():
    matrix = fms_matrix()
    serial = run_sweep(matrix, metrics=FMS_METRICS)
    parallel = run_sweep(fms_matrix(), metrics=FMS_METRICS, workers=2)
    return serial, parallel


# ---------------------------------------------------------------------------
# the headline invariant: parallel == serial, bit for bit
# ---------------------------------------------------------------------------
class TestParallelEquivalence:
    def test_rows_bit_identical_to_serial(self, fms_serial_and_parallel):
        serial, parallel = fms_serial_and_parallel
        assert parallel.rows == serial.rows
        assert parallel.axes == serial.axes
        assert parallel.metrics == serial.metrics
        # Exactness over the wire: rational metrics come back as the very
        # same Fractions, not floats that survived a decimal detour.
        for row_s, row_p in zip(serial.rows, parallel.rows):
            for name in ("worst_lateness", "makespan", "peak_utilization"):
                assert isinstance(row_p.metrics[name], Fraction)
                assert row_p.metrics[name] == row_s.metrics[name]

    def test_stats_one_derivation_and_schedule_per_group(
        self, fms_serial_and_parallel
    ):
        serial, parallel = fms_serial_and_parallel
        matrix = fms_matrix()
        n_groups = len(schedule_key_groups(matrix))
        assert n_groups == 2  # one per processor count
        assert parallel.stats.cells == len(matrix)
        assert parallel.stats.runs == len(matrix)
        assert parallel.stats.workers == 2
        assert parallel.stats.parallel_fallback is None
        # Per-worker caches: each group pays exactly one derivation and
        # one scheduling pass, merged by summation.
        assert parallel.stats.derivations_computed == n_groups
        assert parallel.stats.schedules_computed == n_groups
        assert parallel.stats.networks_built == n_groups
        # The serial twin shares the derivation across both groups.
        assert serial.stats.derivations_computed == 1
        assert serial.stats.schedules_computed == n_groups
        assert serial.stats.workers == 1

    def test_parallel_result_json_round_trip(self, fms_serial_and_parallel):
        _, parallel = fms_serial_and_parallel
        data = json.loads(json.dumps(sweep_result_to_dict(parallel)))
        restored = sweep_result_from_dict(data)
        assert restored.rows == parallel.rows
        assert restored.axes == parallel.axes
        assert restored.metrics == parallel.metrics
        assert restored.stats == parallel.stats
        assert restored.stats.workers == 2

    def test_complex_stimulus_crosses_the_wire(self):
        # The FFT workload's stimulus carries tuples of complex samples;
        # dispatching it proves the tagged encoding end-to-end (scenario
        # out, rows back) on data the JSON baseline would mangle.
        matrix = ScenarioMatrix(
            fft_scenario(n_frames=2), {"processors": [1, 2]}
        )
        metrics = ("executed_jobs", "makespan", "channel_writes")
        serial = run_sweep(matrix, metrics=metrics)
        parallel = run_sweep(matrix, metrics=metrics, workers=2)
        assert parallel.rows == serial.rows
        assert parallel.stats.workers == 2


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------
class TestGrouping:
    def test_groups_partition_cells_by_schedule_key(self):
        matrix = fms_matrix()
        groups = schedule_key_groups(matrix)
        assert sorted(c.index for g in groups for c in g) == \
            list(range(len(matrix)))
        for group in groups:
            keys = {c.scenario.schedule_key() for c in group}
            assert len(keys) == 1
        # First-seen order: processors is the fastest-varying axis, so the
        # first two cells already hit both groups.
        assert [g[0].index for g in groups] == [0, 1]

    def test_runtime_only_matrix_is_one_group(self):
        matrix = ScenarioMatrix(
            fig1_scenario(n_frames=1),
            {"jitter_seed": [0, 1], "n_frames": [1, 2]},
        )
        assert len(schedule_key_groups(matrix)) == 1


# ---------------------------------------------------------------------------
# fallback rules (all decided without spawning anything)
# ---------------------------------------------------------------------------
class TestSerialFallback:
    def multi_group_matrix(self, **kwargs):
        return ScenarioMatrix(
            fig1_scenario(n_frames=1, **kwargs),
            {"processors": [2, 3], "jitter_seed": [0, 1]},
        )

    def test_observer_factory_falls_back(self):
        seen = []
        result = run_sweep(
            self.multi_group_matrix(),
            metrics=("executed_jobs",),
            observer_factory=lambda cell: [ExecutionObserver()] + seen,
            workers=2,
        )
        assert result.stats.workers == 1
        assert "observer_factory" in result.stats.parallel_fallback

    def test_shared_cache_falls_back(self):
        result = run_sweep(
            self.multi_group_matrix(),
            metrics=("executed_jobs",),
            cache=PipelineCache(),
            workers=2,
        )
        assert result.stats.workers == 1
        assert "PipelineCache" in result.stats.parallel_fallback

    def test_callable_workload_falls_back(self):
        base = fig1_scenario(n_frames=1)
        factory = base.build_network
        matrix = ScenarioMatrix(
            base.replace(workload=lambda: factory()),
            {"processors": [2, 3]},
        )
        result = run_sweep(matrix, metrics=("executed_jobs",), workers=2)
        assert result.stats.workers == 1
        assert "not dispatchable" in result.stats.parallel_fallback

    def test_parent_only_workload_registration_falls_back(self):
        # A spawned worker re-imports repro from scratch: names registered
        # only in this process would crash (or silently diverge) there, so
        # they must demote the sweep instead of dispatching.
        from repro.experiment import register_workload
        from repro.experiment.scenario import _WORKLOADS

        base = fig1_scenario(n_frames=1)
        register_workload("parent-only-fig1", base.build_network)
        try:
            matrix = ScenarioMatrix(
                base.replace(workload="parent-only-fig1"),
                {"processors": [2, 3]},
            )
            result = run_sweep(matrix, metrics=("executed_jobs",), workers=2)
            assert result.stats.workers == 1
            assert "registered only in this process" in \
                result.stats.parallel_fallback
            # The serial fallback still executes the cells correctly.
            assert all(
                row.metrics["executed_jobs"] > 0 for row in result.rows
            )
        finally:
            _WORKLOADS.pop("parent-only-fig1", None)

    def test_overridden_builtin_workload_falls_back(self):
        # Re-registering a built-in name swaps its factory in this process
        # only; a worker would resolve the *built-in* network instead.
        from repro.apps import BUILTIN_WORKLOADS
        from repro.experiment import register_workload

        try:
            register_workload("fig1", fig1_scenario(n_frames=1).build_network)
            reason = fallback_reason(
                ScenarioMatrix(
                    fig1_scenario(n_frames=1), {"processors": [2, 3]}
                )
            )
            assert reason is not None
            assert "registered only in this process" in reason
        finally:
            register_workload("fig1", BUILTIN_WORKLOADS["fig1"])
        assert fans_out(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"processors": [2, 3]})
        )

    def test_workload_axis_over_builtin_names_is_dispatchable(self):
        # The cells are the dispatch authority: a code-bearing base whose
        # workload is substituted away by an axis must not block the fan
        # out (and the per-cell scan, not the base, decides).
        base = fig1_scenario(n_frames=1)
        matrix = ScenarioMatrix(
            base.replace(workload=base.build_network),
            {"workload": ["fig1"], "processors": [2, 3]},
        )
        assert fans_out(matrix)

    def test_callable_wcet_axis_falls_back(self):
        base = fig1_scenario(n_frames=1)
        wcet_model = {"InputA": lambda job, k: Fraction(1)}
        reason = fallback_reason(
            ScenarioMatrix(base, {"wcet": [base.wcet, wcet_model]})
        )
        assert reason is not None and "wcet" in reason

    def test_single_group_falls_back(self):
        matrix = ScenarioMatrix(
            fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]}
        )
        result = run_sweep(matrix, metrics=("executed_jobs",), workers=2)
        assert result.stats.workers == 1
        assert "single schedule-key group" in result.stats.parallel_fallback

    def test_dispatchable_sweep_has_no_reason(self):
        assert fans_out(self.multi_group_matrix())

    def test_serial_sweep_records_no_fallback(self):
        result = run_sweep(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]}),
            metrics=("executed_jobs",),
        )
        assert result.stats.workers == 1
        assert result.stats.parallel_fallback is None

    def test_workers_validation(self):
        matrix = self.multi_group_matrix()
        with pytest.raises(ModelError):
            run_sweep(matrix, metrics=("executed_jobs",), workers=0)

    def test_records_only_conflict_raises_before_dispatch(self):
        matrix = ScenarioMatrix(
            fig1_scenario(n_frames=1, records_only=True),
            {"processors": [2, 3]},
        )
        with pytest.raises(RuntimeModelError):
            run_sweep(
                matrix, metrics=("executed_jobs", "channel_writes"), workers=2
            )


# ---------------------------------------------------------------------------
# every documented fallback reason, pinned verbatim
# ---------------------------------------------------------------------------
class TestFallbackReasonStrings:
    """``SweepStats.parallel_fallback`` is user-facing diagnostics: the
    exact strings are part of the contract, pinned per documented rule."""

    CASES = [
        (
            "observer_factory",
            "observer_factory attaches live in-process observers, which "
            "cannot be shipped to worker processes",
        ),
        (
            "shared_cache",
            "a caller-shared PipelineCache cannot be shared with worker "
            "processes — drop it to fan out",
        ),
        (
            "dispatch_blocker",
            "scenario is not dispatchable: workload is a bare factory "
            "callable — only the built-in app workloads resolve by name in "
            "a worker process",
        ),
        (
            "single_group",
            "matrix has a single schedule-key group — nothing to fan out "
            "(parallelism is per distinct schedule key)",
        ),
    ]

    @pytest.mark.parametrize("rule,expected", CASES, ids=[c[0] for c in CASES])
    def test_reason_string_is_exact(self, rule, expected):
        base = fig1_scenario(n_frames=1)
        multi = ScenarioMatrix(base, {"processors": [2, 3]})
        kwargs = {}
        matrix = multi
        if rule == "observer_factory":
            kwargs["observer_factory"] = lambda cell: []
        elif rule == "shared_cache":
            kwargs["cache"] = PipelineCache()
        elif rule == "dispatch_blocker":
            matrix = ScenarioMatrix(
                base.replace(workload=base.build_network),
                {"processors": [2, 3]},
            )
        elif rule == "single_group":
            matrix = ScenarioMatrix(base, {"jitter_seed": [0, 1]})
        assert fallback_reason(matrix, **kwargs) == expected

    def test_dispatchable_matrix_has_no_reason(self):
        assert fans_out(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"processors": [2, 3]})
        )


# ---------------------------------------------------------------------------
# stats wire format
# ---------------------------------------------------------------------------
class TestStatsFormat:
    def test_pre_parallel_payloads_default_new_fields(self):
        # Sweep JSON written before the parallel backend carries no
        # workers/parallel_fallback keys; reading it must not change.
        result = run_sweep(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]}),
            metrics=("executed_jobs",),
        )
        data = sweep_result_to_dict(result)
        del data["stats"]["workers"]
        del data["stats"]["parallel_fallback"]
        restored = sweep_result_from_dict(json.loads(json.dumps(data)))
        assert restored.stats.workers == 1
        assert restored.stats.parallel_fallback is None
        assert restored.stats == result.stats

    def test_fallback_reason_survives_round_trip(self):
        result = run_sweep(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]}),
            metrics=("executed_jobs",),
            workers=2,
        )
        assert result.stats.parallel_fallback is not None
        restored = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(result)))
        )
        assert restored.stats.parallel_fallback == \
            result.stats.parallel_fallback
        assert isinstance(restored.stats, SweepStats)
