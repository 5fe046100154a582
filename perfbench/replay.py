"""Stage-by-stage replay of one sweep cell through public entry points.

The runtime's phases are not public functions, so the benchmark cannot
wrap them.  Instead a sample of cells is replayed outside the measured
phase, each stage a call into the public API:

* ``binding`` — :class:`~repro.runtime.ArrivalBinding` construction
  alone; the executor's per-frame slot lookups on it are not separable
  from outside and count under ``timing``;
* ``wcet`` — ``run_static_order`` timing-only, no observer, no records,
  with every job at its WCET (no execution-time model);
* ``core`` — the same run with the cell's execution-time model, sampled
  cold (a fresh :func:`~repro.runtime.jittered_execution`) or warm (the
  same sampler after one untimed run), as the cell ran in the sweep;
* ``records`` — the ``core`` run feeding the sweep's ``MetricsObserver``;
* ``full`` — the run as the sweep makes it (with the data phase when the
  cell computes data metrics).

Differences give the split: ``sampling = core - wcet`` (the model's
samples and the duration rows the executor builds from them),
``timing = wcet - binding`` (the rest of the tick-domain set-up and the
timing recurrence), ``records = records - core`` (JobRecord
construction plus the observer), ``data = full - records``.  Each stage
time is the minimum of ``REPS`` repetitions.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Sequence

REPS = 2


def _best(fn: Callable[[], Any]) -> float:
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def replay_cell(scenario: Any, metrics: Sequence[str], cold: bool
                ) -> Dict[str, float]:
    """Seconds per runtime stage of one cell (see the module docstring).

    *cold*: the cell was the first to sample its jitter seed, so every
    execution time it used was drawn fresh rather than read from the
    sampler's memo.
    """
    from repro.core.invocations import Stimulus
    from repro.experiment import DATA_METRICS, Experiment
    from repro.runtime import ArrivalBinding, jittered_execution, run_static_order
    from repro.runtime.observers import MetricsObserver

    exp = Experiment(scenario)
    network, schedule = exp.network(), exp.schedule()
    n_frames = scenario.n_frames
    want_data = (
        not scenario.records_only
        and any(m in DATA_METRICS for m in metrics)
    )

    def model() -> Any:
        if scenario.jitter_seed is None:
            return scenario.execution_model()
        return jittered_execution(scenario.jitter_seed, scenario.jitter_low)

    def observer() -> MetricsObserver:
        return MetricsObserver(
            track_responses=False,
            track_utilization="peak_utilization" in metrics,
            track_frame_spans="frame_makespan_max" in metrics,
        )

    def run(execution_time: Any, observers: Sequence[Any],
            records_only: bool) -> None:
        run_static_order(
            network, schedule, n_frames, scenario.stimulus, execution_time,
            scenario.overheads, observers=observers,
            records_only=records_only, collect_records=False,
            collect_trace=False,
        )

    warm = model()
    run(warm, (), True)

    def with_model(observers: Callable[[], Sequence[Any]],
                   records_only: bool) -> float:
        return _best(lambda: run(
            model() if cold else warm, observers(), records_only
        ))

    binding = _best(lambda: ArrivalBinding(
        network, schedule.graph.hyperperiod, n_frames,
        scenario.stimulus or Stimulus(),
    ))
    core = with_model(lambda: (), True)
    wcet = _best(lambda: run(None, (), True)) if warm is not None else core
    records = with_model(lambda: (observer(),), True)
    full = with_model(lambda: (observer(),), False) if want_data else records
    return {
        "binding": binding,
        "sampling": max(0.0, core - wcet),
        "timing": max(0.0, wcet - binding),
        "records": max(0.0, records - core),
        "data": max(0.0, full - records),
        "full": full,
        "jobs": len(schedule.graph.jobs) * n_frames,
    }


RUNTIME_STAGES = ("binding", "sampling", "timing", "records", "data")


def runtime_split(replays: Sequence[Dict[str, float]], run_total_s: float
                  ) -> Dict[str, float]:
    """Scale the replayed stage shares onto a measured runtime total."""
    full = sum(r["full"] for r in replays)
    return {
        stage: run_total_s * sum(r[stage] for r in replays) / full
        for stage in RUNTIME_STAGES
    }
