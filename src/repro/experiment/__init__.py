"""Scenario-first experiment API: describe a run once, sweep it at scale.

This package is the scenario-scale entry point to the paper's pipeline:

* :class:`Scenario` — a frozen, serialisable description of one run
  (workload, WCETs, processors, execution-time model, overheads,
  stimulus, frame count, executor flags);
* :class:`Experiment` — a lazy facade computing and caching the pipeline
  stages (:meth:`~Experiment.task_graph`, :meth:`~Experiment.schedule`,
  :meth:`~Experiment.run`, :meth:`~Experiment.check_determinism`,
  :meth:`~Experiment.report`) with observers attachable at any stage;
* :class:`ScenarioMatrix` + :func:`run_sweep` — STOMP-style cartesian
  sweeps over scenario fields with stage-aware derivation/schedule reuse
  and observer-streaming execution; ``run_sweep(workers=N)`` fans
  the cells out across spawned worker processes, one task per
  schedule-key group (:func:`schedule_key_groups`), with rows
  bit-identical to a serial run;
* :class:`SweepPool` — the resident sweep service
  (:mod:`repro.experiment.pool`): spawn the workers once, keep their
  per-schedule-key caches warm across many :meth:`~SweepPool.submit`
  calls, stream rows back through ``on_row`` as cells complete.
  ``run_sweep(workers=N)`` runs on a transient pool; serial and pooled
  sweeps share one cell runner and one bookkeeper.

Sweeps are fault-tolerant: failing cells become structured error rows
(:class:`SweepCellError`) on a partial result, the parallel backend
supervises its workers (crash respawn, per-group deadlines, bounded
retry), and a content-addressed checkpoint store
(:class:`MemorySweepStore` / :class:`SqliteSweepStore`,
``run_sweep(store=...)``) makes interrupted or partially-failed sweeps
resumable — only missing/failed cells recompute.  The recovery paths are
deterministically testable with :class:`FaultPlan`
(:mod:`repro.experiment.faults`).

JSON interchange for scenarios and sweep results lives in
:mod:`repro.io.json_io` (``scenario_to_dict`` / ``sweep_result_to_dict``
and inverses); its one sweep-row codec also encodes the pool's worker
replies, the service's row stream and the checkpoint store's payloads.
"""

from .scenario import (
    Scenario,
    available_workloads,
    register_workload,
    resolve_workload,
)
from .experiment import Experiment, PipelineCache
from .faults import FaultPlan, InjectedFault
from .pool import PoolEvent, SweepPool, SweepTicket
from .store import (
    MemorySweepStore,
    SqliteSweepStore,
    SweepStore,
    scenario_hash,
)
from .sweep import (
    DATA_METRICS,
    DEFAULT_METRICS,
    ScenarioMatrix,
    SweepCell,
    SweepCellError,
    SweepResult,
    SweepRow,
    SweepStats,
    TIMING_METRICS,
    run_sweep,
    schedule_key_groups,
    serial_fallback_reason,
)

__all__ = [
    "Scenario",
    "available_workloads",
    "register_workload",
    "resolve_workload",
    "Experiment",
    "PipelineCache",
    "DATA_METRICS",
    "DEFAULT_METRICS",
    "FaultPlan",
    "InjectedFault",
    "MemorySweepStore",
    "PoolEvent",
    "ScenarioMatrix",
    "SqliteSweepStore",
    "SweepCell",
    "SweepCellError",
    "SweepPool",
    "SweepResult",
    "SweepRow",
    "SweepStats",
    "SweepStore",
    "SweepTicket",
    "TIMING_METRICS",
    "run_sweep",
    "scenario_hash",
    "schedule_key_groups",
    "serial_fallback_reason",
]
