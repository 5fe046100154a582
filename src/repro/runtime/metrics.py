"""Aggregate metrics over simulated runs: misses, responses, utilization.

These are the quantities Section V reports narratively ("no deadline misses
were observed", overhead per frame, load): each gets a first-class function
so the benchmark harness prints paper-style rows from one call.

All aggregation lives in :class:`~repro.runtime.observers.MetricsObserver`
(a streaming event consumer); the functions here replay a finished
:class:`RuntimeResult` through it, so live runs (``run(observers=[obs])``)
and post-hoc analysis compute identical values from the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..core.timebase import Time
from .executor import JobRecord, RuntimeResult
from .observers import ExecutionObserver, MetricsObserver, replay


class _TimingMetricsObserver(MetricsObserver):
    """MetricsObserver with the data hooks restored to the base no-ops.

    The record-derived metrics below need only the timing event stream;
    presenting un-overridden data hooks lets :func:`replay` skip the trace
    walk entirely.  It is also the timing path for results produced with
    ``collect_trace=False``: ``replay`` refuses those to any observer that
    consumes data events, but not to this one.
    """

    on_job_data_start = ExecutionObserver.on_job_data_start
    on_job_data_end = ExecutionObserver.on_job_data_end
    on_channel_write = ExecutionObserver.on_channel_write


@dataclass(frozen=True)
class MissSummary:
    """Deadline-miss statistics of one run."""

    total_jobs: int
    executed_jobs: int
    false_jobs: int
    missed_jobs: int
    worst_lateness: Time
    miss_ratio: float

    @property
    def any_missed(self) -> bool:
        return self.missed_jobs > 0


@dataclass(frozen=True)
class KernelSpanStats:
    """Per-process kernel-span statistics from the data-phase events.

    A *kernel span* is the resolved ``[start, end)`` execution interval of
    one true job instance, delimited by the ``on_job_data_start`` /
    ``on_job_data_end`` events of the executor's data phase.  All times are
    exact rationals.
    """

    jobs: int
    total_busy: Time
    max_span: Time
    mean_span: Time


def kernel_span_stats(result: RuntimeResult) -> Dict[str, KernelSpanStats]:
    """Per-process kernel-span statistics of a finished run.

    Replays the stored run through a
    :class:`~repro.runtime.observers.MetricsObserver`; ``replay`` refuses
    a run that kept no records, or whose data phase ran without keeping
    the action trace (the replay source of the data-phase events).
    """
    return _data_metrics_of(result).kernel_span_stats()


def _metrics_of(result: RuntimeResult) -> MetricsObserver:
    obs = _TimingMetricsObserver()
    replay(result, obs)
    return obs


def _data_metrics_of(result: RuntimeResult) -> MetricsObserver:
    obs = MetricsObserver()
    replay(result, obs)
    return obs


def miss_summary(result: RuntimeResult) -> MissSummary:
    """Summarise deadline behaviour of a run."""
    return _metrics_of(result).miss_summary()


def response_times(result: RuntimeResult) -> Dict[str, Time]:
    """Worst-case observed response time per process."""
    return _metrics_of(result).response_times()


def processor_utilization(result: RuntimeResult) -> List[float]:
    """Busy fraction per processor over the simulated horizon."""
    return _metrics_of(result).processor_utilization()


def frame_makespans(result: RuntimeResult) -> List[Time]:
    """Per-frame completion time relative to the frame start."""
    return _metrics_of(result).frame_makespans()


def jobs_of_process(result: RuntimeResult, process: str) -> List[JobRecord]:
    """All records of one process, ordered by frame then invocation."""
    result._require_records()
    return sorted(
        (r for r in result.records if r.process == process),
        key=lambda r: (r.frame, r.k_frame),
    )
