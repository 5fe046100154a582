"""ScenarioMatrix / run_sweep: stage-aware reuse counting, sweep determinism,
streaming execution modes and sweep-result JSON round-trips."""

import json
from fractions import Fraction

import pytest

from repro import ScenarioMatrix, run_sweep
from repro.apps import fig1_scenario, fms_scenario
from repro.errors import ModelError, RuntimeModelError
from repro.experiment import (
    DATA_METRICS,
    DEFAULT_METRICS,
    Experiment,
    PipelineCache,
    TIMING_METRICS,
)
from repro.io import sweep_result_from_dict, sweep_result_to_dict
from repro.runtime import ExecutionObserver, MetricsObserver, OverheadModel


def fig1_matrix(axes, **kwargs):
    return ScenarioMatrix(fig1_scenario(n_frames=2, **kwargs), axes)


# ---------------------------------------------------------------------------
# matrix mechanics
# ---------------------------------------------------------------------------
class TestScenarioMatrix:
    def test_cells_enumerate_cartesian_product_in_order(self):
        matrix = fig1_matrix({"jitter_seed": [0, 1], "n_frames": [1, 2]})
        assert len(matrix) == 4
        cells = list(matrix.cells())
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [dict(c.coords) for c in cells] == [
            {"jitter_seed": 0, "n_frames": 1},
            {"jitter_seed": 0, "n_frames": 2},
            {"jitter_seed": 1, "n_frames": 1},
            {"jitter_seed": 1, "n_frames": 2},
        ]
        assert cells[2].scenario.jitter_seed == 1
        assert cells[2].scenario.n_frames == 1

    def test_empty_axes_yield_the_base_scenario(self):
        matrix = fig1_matrix({})
        assert len(matrix) == 1
        (cell,) = matrix.cells()
        assert cell.scenario == matrix.base

    def test_scenarios_listing(self):
        matrix = fig1_matrix({"processors": [2, 3]})
        assert [s.processors for s in matrix.scenarios()] == [2, 3]

    def test_validation(self):
        with pytest.raises(ModelError):
            ScenarioMatrix("base", {})
        with pytest.raises(ModelError):
            fig1_matrix({"not_a_field": [1]})
        with pytest.raises(ModelError):
            fig1_matrix({"jitter_seed": []})


# ---------------------------------------------------------------------------
# stage-aware reuse (acceptance criterion: the counting test)
# ---------------------------------------------------------------------------
class TestStageReuse:
    def test_runtime_only_axes_share_one_derivation_and_schedule(self):
        matrix = fig1_matrix({
            "jitter_seed": [0, 1, 2],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
            "n_frames": [1, 2],
        })
        result = run_sweep(matrix)
        assert result.stats.cells == 12
        assert result.stats.runs == 12
        assert result.stats.networks_built == 1
        assert result.stats.derivations_computed == 1
        assert result.stats.schedules_computed == 1

    def test_one_schedule_per_processor_count(self):
        result = run_sweep(
            fig1_matrix({"processors": [2, 3], "jitter_seed": [0, 1]})
        )
        assert result.stats.derivations_computed == 1
        assert result.stats.schedules_computed == 2

    def test_one_derivation_per_workload_and_wcet(self):
        matrix = fig1_matrix({
            "wcet": [25, Fraction(15)],
            "jitter_seed": [0, 1],
        })
        result = run_sweep(matrix)
        assert result.stats.derivations_computed == 2
        assert result.stats.schedules_computed == 2
        assert result.stats.networks_built == 1

    def test_shared_cache_chains_sweeps(self):
        cache = PipelineCache()
        matrix = fig1_matrix({"jitter_seed": [0, 1]})
        first = run_sweep(matrix, cache=cache)
        second = run_sweep(matrix, cache=cache)
        # Stats are per-sweep deltas: the first sweep paid the stages, the
        # second found everything already cached; the cache keeps totals.
        assert first.stats.derivations_computed == 1
        assert second.stats.derivations_computed == 0
        assert second.stats.schedules_computed == 0
        assert second.stats.runs == 2
        assert cache.derivations_computed == 1
        assert cache.schedules_computed == 1


# ---------------------------------------------------------------------------
# determinism (acceptance criterion)
# ---------------------------------------------------------------------------
class TestSweepDeterminism:
    def test_same_matrix_and_seeds_give_identical_rows(self):
        axes = {
            "jitter_seed": [0, 7],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
        }
        first = run_sweep(fig1_matrix(axes))
        second = run_sweep(fig1_matrix(axes))
        assert first.rows == second.rows
        assert first.axes == second.axes
        assert first.stats == second.stats

    def test_rows_match_direct_execution(self):
        matrix = fig1_matrix({"jitter_seed": [0, 7]})
        result = run_sweep(matrix)
        for cell, row in zip(matrix.cells(), result.rows):
            m = MetricsObserver()
            Experiment(cell.scenario).run(observers=[m])
            assert row.metrics["missed_jobs"] == m.missed_jobs
            assert row.metrics["makespan"] == m.makespan
            assert row.metrics["executed_jobs"] == m.executed_jobs


# ---------------------------------------------------------------------------
# lean execution
# ---------------------------------------------------------------------------
class _ResultGrabber(ExecutionObserver):
    def __init__(self, sink):
        self.sink = sink

    def on_run_end(self, result):
        self.sink.append(result)


class TestLeanExecution:
    def test_lean_runs_retain_nothing(self):
        results = []
        run_sweep(
            fig1_matrix({"jitter_seed": [0]}),
            observer_factory=lambda cell: [_ResultGrabber(results)],
        )
        (result,) = results
        assert not result.records_collected
        assert not result.trace_collected
        assert result.data_collected  # data metrics were requested

    def test_timing_only_metrics_skip_the_data_phase(self):
        results = []
        matrix = fig1_matrix({"jitter_seed": [0, 1]})
        sweep = run_sweep(
            matrix,
            metrics=TIMING_METRICS,
            observer_factory=lambda cell: [_ResultGrabber(results)],
        )
        assert results and not any(r.data_collected for r in results)
        # The timing-only rows equal the metrics of a full run of each
        # cell: records collected and the data phase run, then replayed
        # into Experiment.metrics() record by record (on_record), not
        # through the tick-fed aggregates the sweep cells use.
        for row, scenario in zip(sweep.rows, matrix.scenarios()):
            experiment = Experiment(scenario)
            full = experiment.run()
            assert full.records_collected and full.data_collected
            m = experiment.metrics()
            assert row.metrics == {
                "total_jobs": m.total_jobs,
                "executed_jobs": m.executed_jobs,
                "false_jobs": m.false_jobs,
                "missed_jobs": m.missed_jobs,
                "worst_lateness": m.worst_lateness,
                "makespan": m.makespan,
                "frame_makespan_max": max(m.frame_makespans()),
                "peak_utilization": max(m.processor_utilization_exact()),
            }

    def test_data_consuming_extra_observers_keep_the_data_phase(self):
        # Timing-only metrics alone would allow records_only, but an
        # observer_factory observer that consumes data events must still
        # see them — the runner probes the extra observers per cell.
        class WriteCounter(ExecutionObserver):
            writes = 0

            def on_channel_write(self, process, channel, value, time):
                WriteCounter.writes += 1

        run_sweep(
            fig1_matrix({"jitter_seed": [0]}),
            metrics=("executed_jobs", "makespan"),
            observer_factory=lambda cell: [WriteCounter()],
        )
        assert WriteCounter.writes > 0

    def test_timing_and_data_metric_sets_are_disjoint_and_complete(self):
        assert set(TIMING_METRICS).isdisjoint(DATA_METRICS)
        assert set(DEFAULT_METRICS) == set(TIMING_METRICS) | set(DATA_METRICS)

    def test_records_only_scenario_with_data_metrics_refused(self):
        matrix = fig1_matrix({"jitter_seed": [0]}, records_only=True)
        with pytest.raises(RuntimeModelError):
            run_sweep(matrix, metrics=("executed_jobs", "channel_writes"))
        # Timing-only metrics remain fine for records_only scenarios.
        result = run_sweep(matrix, metrics=("executed_jobs",))
        assert result.rows[0].metrics["executed_jobs"] == 16

    def test_keep_results_retains_full_runs(self):
        result = run_sweep(
            fig1_matrix({"jitter_seed": [0]}), keep_results=True
        )
        (row,) = result.rows
        assert row.result is not None
        assert row.result.records_collected
        assert row.result.observable()["outputs"]

    def test_keep_results_forces_records_on_lean_base_scenarios(self):
        # Regression: a base scenario that itself runs lean
        # (collect_records=False) used to be retained verbatim, handing
        # back rows whose result had no records and could not be
        # replayed or post-processed.
        result = run_sweep(
            fig1_matrix({"jitter_seed": [0]}, collect_records=False),
            keep_results=True,
        )
        (row,) = result.rows
        assert row.result.records_collected
        assert row.result.records
        assert row.result.makespan() == row.metrics["makespan"]

    def test_peak_utilization_is_an_exact_rational(self):
        # The module docstring promises bit-identical rows with exact
        # rational metrics; peak_utilization is computed as a Fraction
        # (busy time / horizon, both exact), not a float.
        result = run_sweep(
            fig1_matrix({"jitter_seed": [0]}),
            metrics=("peak_utilization",),
        )
        (row,) = result.rows
        value = row.metrics["peak_utilization"]
        assert isinstance(value, Fraction)
        m = MetricsObserver()
        Experiment(fig1_matrix({"jitter_seed": [0]}).base.replace(
            jitter_seed=0
        )).run(observers=[m])
        assert value == max(m.processor_utilization_exact())
        assert float(value) == max(m.processor_utilization())

    def test_metric_validation(self):
        from repro.experiment.sweep import _EXTRACTORS

        assert tuple(_EXTRACTORS) == DEFAULT_METRICS
        matrix = fig1_matrix({"jitter_seed": [0]})
        with pytest.raises(
            ModelError, match="^run_sweep needs at least one metric$"
        ):
            run_sweep(matrix, metrics=())
        # The shared check names the entry point that was called; the
        # pool spawns its workers lazily, so this starts no process.
        from repro.experiment.pool import SweepPool

        with SweepPool(workers=1) as pool:
            with pytest.raises(
                ModelError, match="^SweepPool.submit needs at least one metric$"
            ):
                pool.submit(matrix, metrics=())
            assert not pool.started
        with pytest.raises(
            ModelError, match="unknown sweep metric 'no_such_metric' — known: "
            + ", ".join(DEFAULT_METRICS)
        ):
            run_sweep(matrix, metrics=("no_such_metric",))
        with pytest.raises(
            ModelError, match="on_error must be 'capture' or 'raise', got 'skip'"
        ):
            run_sweep(matrix, on_error="skip")


# ---------------------------------------------------------------------------
# result table + JSON round-trip
# ---------------------------------------------------------------------------
class TestSweepResult:
    def test_table_and_columns(self):
        result = run_sweep(fig1_matrix({"jitter_seed": [0, 7]}))
        text = result.table()
        assert "jitter_seed" in text.splitlines()[0]
        assert "makespan" in text.splitlines()[0]
        assert len(text.splitlines()) == 2 + len(result.rows)
        assert result.column("jitter_seed") == [0, 7]
        assert result.column("makespan") == \
            [row.metrics["makespan"] for row in result.rows]
        with pytest.raises(ModelError):
            result.column("nope")

    def test_json_round_trip(self):
        result = run_sweep(fig1_matrix({
            "jitter_seed": [0, 7],
            "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
        }))
        data = json.loads(json.dumps(sweep_result_to_dict(result)))
        restored = sweep_result_from_dict(data)
        assert restored.rows == result.rows
        assert restored.axes == result.axes
        assert restored.metrics == result.metrics
        assert restored.stats == result.stats

    def test_fms_smoke_sweep(self):
        # The FMS case study through the sweep path: runtime-only axes over
        # the 812-job graph — one derivation, one schedule, exact metrics.
        matrix = ScenarioMatrix(
            fms_scenario(n_frames=1),
            {"jitter_seed": [0, 7]},
        )
        result = run_sweep(matrix, metrics=("executed_jobs", "missed_jobs"))
        assert result.stats.derivations_computed == 1
        assert result.stats.schedules_computed == 1
        # Cross-check one cell against a direct facade run.
        m = MetricsObserver()
        Experiment(matrix.base.replace(jitter_seed=0)).run(observers=[m])
        assert [row.metrics["executed_jobs"] for row in result.rows] == \
            [m.executed_jobs, m.executed_jobs]
        assert result.rows[0].metrics["missed_jobs"] == m.missed_jobs
