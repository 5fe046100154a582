"""Fault-tolerant sweeps (ISSUE 6): per-cell error capture with identical
serial/parallel semantics, worker supervision (crash respawn, deadlines,
bounded retry), interrupt draining, and the deterministic FaultPlan
machinery itself."""

import json
import multiprocessing

import pytest

from repro import FaultPlan, ScenarioMatrix, SweepCellError, run_sweep
from repro.apps import fig1_scenario
from repro.errors import ModelError, SweepError
from repro.experiment.faults import InjectedFault, apply_cell_faults
from repro.io import sweep_result_from_dict, sweep_result_to_dict
from repro.io.json_io import fault_plan_from_dict, fault_plan_to_dict

#: The standard fault matrix: two schedule-key groups (processors 2 / 3),
#: two runtime cells each.  Cell indices: 0,1 -> p=2; 2,3 -> p=3.
METRICS = ("executed_jobs", "makespan")


def fig1_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"processors": [2, 3], "jitter_seed": [0, 1]},
    )


@pytest.fixture(scope="module")
def clean():
    """The fault-free serial oracle every recovery path is compared to."""
    return run_sweep(fig1_matrix(), metrics=METRICS)


# ---------------------------------------------------------------------------
# FaultPlan: normalisation, algebra, wire format
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_normalises_friendly_shapes(self):
        plan = FaultPlan(
            raise_at=2, kill_at={5: 1}, delay_at={3: 2.0}, interrupt_at=[7]
        )
        assert plan.raise_at == (2,)
        assert plan.kill_at == ((5, 1),)
        assert plan.delay_at == ((3, 2.0, 1),)
        assert plan.interrupt_at == (7,)
        assert not plan.is_empty
        assert FaultPlan().is_empty

    def test_validation(self):
        with pytest.raises(ModelError):
            FaultPlan(raise_at=(-1,))
        with pytest.raises(ModelError):
            FaultPlan(kill_at={2: 0})
        with pytest.raises(ModelError):
            FaultPlan(delay_at={2: 0.0})

    def test_restrict_keeps_only_named_cells(self):
        plan = FaultPlan(raise_at=(0, 2), kill_at={1: 2, 3: 1})
        sub = plan.restrict([0, 1])
        assert sub.raise_at == (0,)
        assert sub.kill_at == ((1, 2),)

    def test_decrement_consumes_one_firing(self):
        plan = FaultPlan(kill_at={2: 2}, delay_at={3: (1.0, 1)})
        once = plan.decrement([2, 3])
        assert once.kill_at == ((2, 1),)
        assert once.delay_at == ()  # times=1 entry dropped at zero
        # Cells not requeued keep their counts.
        assert plan.decrement([9]) == plan

    def test_json_round_trip(self):
        plan = FaultPlan(
            raise_at=(1,), kill_at={2: 3}, delay_at={0: (0.5, 2)},
            interrupt_at=(3,),
        )
        assert fault_plan_from_dict(
            json.loads(json.dumps(fault_plan_to_dict(plan)))
        ) == plan

    def test_apply_raise_and_interrupt(self):
        plan = FaultPlan(raise_at=(1,), interrupt_at=(2,))
        apply_cell_faults(plan, 0, in_worker=False)  # no fault: no-op
        apply_cell_faults(None, 1, in_worker=False)
        with pytest.raises(InjectedFault):
            apply_cell_faults(plan, 1, in_worker=False)
        with pytest.raises(KeyboardInterrupt):
            apply_cell_faults(plan, 2, in_worker=False)
        # Interrupts are parent-side only: a worker never raises them.
        apply_cell_faults(plan, 2, in_worker=True)

    def test_serial_kill_degrades_to_error(self):
        with pytest.raises(InjectedFault, match="serial sweep"):
            apply_cell_faults(FaultPlan(kill_at={0: 1}), 0, in_worker=False)


# ---------------------------------------------------------------------------
# serial capture semantics
# ---------------------------------------------------------------------------
class TestSerialCapture:
    def test_injected_fault_yields_partial_table(self, clean):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, faults=FaultPlan(raise_at=(2,))
        )
        # Healthy rows are bit-identical to the fault-free run's rows.
        assert result.rows == [clean.rows[0], clean.rows[1], clean.rows[3]]
        assert result.stats.failed_cells == 1
        assert result.stats.runs == 3
        [failed] = result.failed_rows
        assert failed.cell == {"processors": 3, "jitter_seed": 0}
        assert failed.metrics == {}
        assert failed.error == SweepCellError(
            error_type="InjectedFault",
            message="injected kernel fault at cell 2",
            stage="run",
            retries=0,
        )

    def test_real_failure_gets_stage_attribution(self):
        # fig1 is infeasible on one processor: a *real* scheduling-stage
        # failure, captured with its stage, while other cells survive.
        result = run_sweep(
            ScenarioMatrix(
                fig1_scenario(n_frames=1), {"processors": [1, 2]}
            ),
            metrics=METRICS,
        )
        assert len(result.rows) == 1
        [failed] = result.failed_rows
        assert failed.error.error_type == "InfeasibleError"
        assert failed.error.stage == "scheduling"

    def test_network_stage_attribution(self):
        bad = fig1_scenario(n_frames=1).replace(workload="no-such-workload")
        result = run_sweep(
            ScenarioMatrix(bad, {"jitter_seed": [0]}), metrics=METRICS
        )
        [failed] = result.failed_rows
        assert failed.error.error_type == "ModelError"
        assert failed.error.stage == "network"

    def test_on_error_raise_restores_abort(self):
        with pytest.raises(InjectedFault):
            run_sweep(
                fig1_matrix(), metrics=METRICS,
                faults=FaultPlan(raise_at=(2,)), on_error="raise",
            )

    def test_interrupt_returns_partial_table(self, clean):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS,
            faults=FaultPlan(interrupt_at=(2,)),
        )
        assert result.stats.interrupted
        assert result.stats.runs == 2
        assert result.rows == clean.rows[:2]
        assert result.failed_rows == []

    def test_table_renders_failures_and_interrupts(self):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, faults=FaultPlan(raise_at=(2,))
        )
        text = result.table()
        assert "failed cells (1):" in text
        assert "! processors=3, jitter_seed=0: InjectedFault" in text
        partial = run_sweep(
            fig1_matrix(), metrics=METRICS,
            faults=FaultPlan(interrupt_at=(2,)),
        )
        assert "interrupted: 2/4 cells" in partial.table()

    def test_parameter_validation(self):
        matrix = fig1_matrix()
        with pytest.raises(ModelError):
            run_sweep(matrix, metrics=METRICS, on_error="ignore")
        with pytest.raises(ModelError):
            run_sweep(matrix, metrics=METRICS, max_retries=-1)
        with pytest.raises(ModelError):
            run_sweep(matrix, metrics=METRICS, retry_backoff=-0.1)


# ---------------------------------------------------------------------------
# the shared invariant: serial and parallel capture identically
# ---------------------------------------------------------------------------
class TestSharedFailureSemantics:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_capture_is_backend_independent(self, clean, workers):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS,
            faults=FaultPlan(raise_at=(2,)), workers=workers,
        )
        assert result.rows == [clean.rows[0], clean.rows[1], clean.rows[3]]
        assert result.stats.failed_cells == 1
        assert result.stats.runs == 3
        [failed] = result.failed_rows
        # The whole structured record — type, message, stage, retries —
        # is identical whichever backend captured it.
        assert failed.error == SweepCellError(
            error_type="InjectedFault",
            message="injected kernel fault at cell 2",
            stage="run",
            retries=0,
        )

    def test_parallel_on_error_raise(self):
        with pytest.raises(SweepError, match="processors"):
            run_sweep(
                fig1_matrix(), metrics=METRICS,
                faults=FaultPlan(raise_at=(2,)), on_error="raise", workers=2,
            )


# ---------------------------------------------------------------------------
# worker supervision: crash, timeout, interrupt
# ---------------------------------------------------------------------------
class TestWorkerSupervision:
    def test_transient_worker_crash_recovers(self, clean):
        # The worker holding cells 2,3 hard-exits once; the supervisor
        # respawns the pool, requeues, and the retry completes the table.
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, workers=2,
            faults=FaultPlan(kill_at={2: 1}), retry_backoff=0.01,
        )
        assert result.rows == clean.rows
        assert result.stats.failed_cells == 0
        assert result.stats.retries >= 1
        assert not result.stats.interrupted

    def test_crash_exhausts_retry_budget(self, clean):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, workers=2,
            faults=FaultPlan(kill_at={2: 9}),
            max_retries=1, retry_backoff=0.01,
        )
        # The crashing group degrades to error rows; the other group's
        # rows are still the fault-free rows.
        assert result.rows == clean.rows[:2]
        assert len(result.failed_rows) == 2
        assert result.stats.failed_cells == 2
        for failed in result.failed_rows:
            assert failed.error.error_type == "WorkerCrashError"
            assert failed.error.retries == 1
        assert {tuple(f.cell.items()) for f in result.failed_rows} == {
            (("processors", 3), ("jitter_seed", 0)),
            (("processors", 3), ("jitter_seed", 1)),
        }

    def test_transient_timeout_recovers(self, clean):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, workers=2,
            faults=FaultPlan(delay_at={2: (5.0, 1)}),
            group_timeout=1.5, retry_backoff=0.01,
        )
        assert result.rows == clean.rows
        assert result.stats.failed_cells == 0
        assert result.stats.retries >= 1

    def test_timeout_exhausts_retry_budget(self, clean):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, workers=2,
            faults=FaultPlan(delay_at={2: (30.0, 5)}),
            group_timeout=1.5, max_retries=0, retry_backoff=0.01,
        )
        assert result.rows == clean.rows[:2]
        assert len(result.failed_rows) == 2
        for failed in result.failed_rows:
            assert failed.error.error_type == "SweepTimeoutError"
            assert "deadline" in failed.error.message

    def test_interrupt_drains_completed_groups(self, clean):
        # Delaying the interrupting group lets the other group finish
        # first, so the drain has a completed reply to keep; the pool is
        # torn down promptly with no orphaned workers.
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, workers=2,
            faults=FaultPlan(interrupt_at=(2,), delay_at={2: (0.5, 1)}),
        )
        assert result.stats.interrupted
        assert multiprocessing.active_children() == []
        kept = {tuple(sorted(row.cell.items())) for row in result.rows}
        # The interrupting group's own reply was merged before the
        # interrupt fired.
        assert (("jitter_seed", 0), ("processors", 3)) in kept
        for row in result.rows:
            assert row in clean.rows


# ---------------------------------------------------------------------------
# error rows and stats survive the JSON format
# ---------------------------------------------------------------------------
class TestFailureFormat:
    def test_failed_result_round_trips(self):
        result = run_sweep(
            fig1_matrix(), metrics=METRICS, faults=FaultPlan(raise_at=(2,))
        )
        restored = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(result)))
        )
        assert restored.rows == result.rows
        assert restored.failed_rows == result.failed_rows
        assert restored.stats == result.stats
        assert restored.stats.failed_cells == 1

    def test_pre_fault_payloads_default_new_fields(self):
        result = run_sweep(
            ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]}),
            metrics=("executed_jobs",),
        )
        data = sweep_result_to_dict(result)
        assert "failed_rows" not in data  # clean payloads stay clean
        for key in (
            "failed_cells", "retries", "store_hits", "store_misses",
            "interrupted",
        ):
            del data["stats"][key]
        restored = sweep_result_from_dict(json.loads(json.dumps(data)))
        assert restored.stats == result.stats
        assert restored.failed_rows == []
        assert not restored.stats.interrupted
