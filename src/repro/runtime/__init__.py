"""Online static-order policy and multiprocessor runtime simulation."""

from .executor import (
    JitterSampler,
    JobRecord,
    MultiprocessorExecutor,
    RuntimeResult,
    jittered_execution,
    run_static_order,
    wcet_execution,
)
from .gantt import GanttObserver, gantt_from_observer, runtime_gantt, schedule_gantt
from .metrics import (
    KernelSpanStats,
    MissSummary,
    frame_makespans,
    jobs_of_process,
    kernel_span_stats,
    miss_summary,
    processor_utilization,
    response_times,
)
from .observers import (
    ExecutionObserver,
    MetricsObserver,
    RecordsObserver,
    RunMeta,
    TraceObserver,
    replay,
)
from .overheads import OverheadModel
from .telemetry import ProgressObserver, Span, SpanObserver
from .static_order import (
    ArrivalBinding,
    BoundArrival,
    served_horizon,
)

__all__ = [
    "JitterSampler",
    "JobRecord",
    "MultiprocessorExecutor",
    "RuntimeResult",
    "jittered_execution",
    "run_static_order",
    "wcet_execution",
    "GanttObserver",
    "gantt_from_observer",
    "runtime_gantt",
    "schedule_gantt",
    "ExecutionObserver",
    "MetricsObserver",
    "RecordsObserver",
    "RunMeta",
    "TraceObserver",
    "replay",
    "KernelSpanStats",
    "MissSummary",
    "frame_makespans",
    "jobs_of_process",
    "kernel_span_stats",
    "miss_summary",
    "processor_utilization",
    "response_times",
    "OverheadModel",
    "ProgressObserver",
    "Span",
    "SpanObserver",
    "ArrivalBinding",
    "BoundArrival",
    "served_horizon",
]
