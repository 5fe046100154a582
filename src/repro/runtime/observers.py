"""Observer/sink protocol for the runtime executor.

The :class:`~repro.runtime.executor.MultiprocessorExecutor` separates the
paper's deterministic timing core from its growing set of output consumers.
Its phases emit nothing: they assemble a :class:`~repro.runtime.executor.
RuntimeResult`, and :func:`replay`, the one event emitter, feeds it to the
observers passed to ``run(observers=...)`` — the stream a stored result
replays too.  VCD export (:mod:`repro.io.vcd`), Gantt rendering
(:mod:`repro.runtime.gantt`), metrics (:mod:`repro.runtime.metrics`) and
determinism sweeps (:mod:`repro.analysis.determinism`) are all such
consumers; new backends plug in by subclassing :class:`ExecutionObserver`
without touching the executor core.

Event order and domain:

* ``on_run_start`` once, then per frame the frame's overhead window (if
  any) followed by that frame's records in timing-resolution order
  (schedule-topological within the frame), then the data events, then
  ``on_run_end`` once.
* **Data-phase events**: per executed job instance, in the deterministic
  ``(start, frame, <J index)`` execution order of the data phase,
  ``on_job_data_start`` then one ``on_channel_write`` per internal channel
  write the kernel makes (in write order) then ``on_job_data_end``, read
  off the stored trace.  False jobs and external output samples emit none.
* Every time stamp is the result's own **exact rational**
  (:class:`fractions.Fraction`), never a raw tick or a rounded value.
  Kernel spans carry the instance's ``[start, end)`` interval; channel
  writes carry the writing job's start instant (kernels execute atomically
  at their start, Section IV).

An observer class consumes the streams whose hooks it overrides, decided
once when the class is created (:class:`ExecutionObserver`); overhead
windows and run milestones go to every observer.  Stock
:class:`MetricsObserver` classes are *tick-fed*: a live run hands them the
same metrics aggregated in integer ticks, once per run — the timing
aggregates as :class:`TickMetrics`, the kernel spans and channel-write
counts from the data phase — and sends them only their run milestones,
overhead windows and, to a subclass that overrides a data hook, the data
events.  The hooks stay their rule and the path :func:`replay` drives.

``run(records_only=True)`` skips the data phase (no data events).
``run(collect_records=False)`` and ``run(collect_trace=False)`` keep
``result.records`` and ``result.trace`` empty: a live run builds them only
for observers that consume them and drops them after the hooks, so with no
such observer no record is built — the determinism matrix's
observable-only fast path.  :func:`replay` refuses up front, before any
hook fires, whatever a stored result cannot re-emit in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from ..core.timebase import Time, ZERO
from ..errors import RuntimeModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .executor import JobRecord, RuntimeResult
    from .metrics import KernelSpanStats, MissSummary

__all__ = [
    "ExecutionObserver",
    "MetricsObserver",
    "RecordsObserver",
    "RunMeta",
    "TraceObserver",
    "replay",
]


@dataclass(frozen=True)
class RunMeta:
    """Run-level milestone data, emitted once at ``on_run_start``."""

    network: str
    processors: int
    frames: int
    hyperperiod: Time


class ExecutionObserver:
    """Base observer: every hook is a no-op — override what you consume.

    :meth:`__init_subclass__` compares a class's hooks with this base
    class's once, at class creation: the class :attr:`consumes_records`
    when its ``on_record`` differs and :attr:`consumes_data` when a
    data-phase hook does (inherited overrides count; restoring a base
    no-op opts out).  It is :attr:`tick_fed` when its ``on_record`` is the
    stock :class:`MetricsObserver` rule (``_tick_rule``), which a live run
    replaces by one :class:`TickMetrics` hand-over, and
    :attr:`data_tick_fed` when its three data hooks are the stock ones
    (``_data_rule``), which a live run replaces by one hand-over of
    kernel-span and channel-write totals.  A class that overrides any data
    hook gets the full data event stream instead.  The executor,
    :func:`replay` and the experiment layer read these class attributes,
    so an instance attribute that shadows a hook subscribes nothing.
    """

    consumes_records = False
    consumes_data = False
    tick_fed = False
    data_tick_fed = False
    _tick_rule: Any = None
    _data_rule: Any = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        base = ExecutionObserver
        data_hooks = (
            cls.on_job_data_start, cls.on_job_data_end, cls.on_channel_write
        )
        cls.consumes_records = cls.on_record is not base.on_record
        cls.consumes_data = data_hooks != (
            base.on_job_data_start, base.on_job_data_end, base.on_channel_write
        )
        cls.tick_fed = cls.on_record is cls._tick_rule
        cls.data_tick_fed = data_hooks == cls._data_rule

    def on_run_start(self, meta: RunMeta) -> None:
        """The run's static shape, before any timing is resolved."""

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        """A frame-arrival overhead window ``[start, end)`` (Section V-A)."""

    def on_record(self, record: "JobRecord") -> None:
        """One resolved job instance (including false server jobs)."""

    def on_job_data_start(
        self, process: str, k: int, frame: int, start: Time
    ) -> None:
        """Kernel span opens: job ``process[k]`` starts executing at *start*."""

    def on_job_data_end(
        self, process: str, k: int, frame: int, end: Time
    ) -> None:
        """Kernel span closes: job ``process[k]`` finished, end time *end*."""

    def on_channel_write(
        self, process: str, channel: str, value: Any, time: Time
    ) -> None:
        """Internal channel write ``x!c`` by the job executing at *time*."""

    def on_run_end(self, result: "RuntimeResult") -> None:
        """The assembled result, after timing (and data, unless skipped)."""


@dataclass
class TickMetrics:
    """One run's :class:`MetricsObserver` timing aggregates, in integer ticks.

    The executor accumulates these inline in its timing loop for tick-fed
    observers (:attr:`ExecutionObserver.tick_fed`) and hands them over
    once per run (:meth:`MetricsObserver._absorb_ticks`), so timing-only
    sweep cells build no :class:`~repro.runtime.executor.JobRecord` at
    all.  Each field is what :meth:`MetricsObserver.on_record` would have
    aggregated from the run's records; ``frame_spans`` are relative to
    each frame's start and ``responses`` is empty unless some observer
    tracks responses.
    """

    total_jobs: int
    false_jobs: int
    missed_jobs: int
    worst_lateness: int
    makespan: int
    busy: List[int]
    frame_spans: List[int]
    responses: Dict[str, int]


def replay(result: "RuntimeResult", *observers: ExecutionObserver) -> None:
    """Emit *result*'s events through *observers*, in the module's order.

    The one emitter: ``run(observers=...)`` feeds its observers that are
    not tick-fed through it, and a stored :class:`RuntimeResult` replays
    the same stream.  Records go only to observers whose class
    :attr:`~ExecutionObserver.consumes_records`, data events only to those
    whose class :attr:`~ExecutionObserver.consumes_data`.

    What the result cannot re-emit in full is refused with
    :class:`~repro.errors.RuntimeModelError` before any hook fires: the
    records or data events of a ``collect_records=False`` result, whose
    empty record list would misreport every count as zero, and the data
    events of a ``collect_trace=False`` result whose data phase ran.
    Attach such observers to ``run()`` instead.
    """
    record_observers = [ob for ob in observers if ob.consumes_records]
    data_observers = [ob for ob in observers if ob.consumes_data]
    if not result.records_collected and (record_observers or data_observers):
        raise RuntimeModelError(
            "cannot replay job records of a result produced with "
            "collect_records=False — they were not retained; attach "
            "record or data consumers to run() instead"
        )
    if data_observers and result.data_collected and not result.trace_collected:
        raise RuntimeModelError(
            "cannot replay data-phase events of a result produced with "
            "collect_trace=False — the action trace was not retained; "
            "attach data-consuming observers to run() instead"
        )
    meta = RunMeta(
        result.network_name, result.processors, result.frames, result.hyperperiod
    )
    for ob in observers:
        ob.on_run_start(meta)
    # Each frame's overhead window goes out before that frame's records.
    windows = {window[0]: window for window in result.overhead_intervals}
    for rec in result.records if record_observers else ():
        if rec.frame in windows:
            window = windows.pop(rec.frame)
            for ob in observers:
                ob.on_overhead(*window)
        for ob in record_observers:
            ob.on_record(rec)
    for window in windows.values():
        for ob in observers:
            ob.on_overhead(*window)
    _replay_data(result, data_observers)
    for ob in observers:
        ob.on_run_end(result)


def _replay_data(result: "RuntimeResult", observers: List[ExecutionObserver]) -> None:
    """Emit *result*'s data-phase events through *observers*."""
    if not observers or not result.data_collected:
        return
    record_of = {
        (r.process, r.global_k): r for r in result.records if not r.is_false
    }
    rec = None
    for act in result.trace.raw:
        code = act[0]
        if code == "S":
            rec = record_of[(act[1], act[2])]
            for ob in observers:
                ob.on_job_data_start(act[1], act[2], rec.frame, rec.start)
        elif code == "W":
            for ob in observers:
                ob.on_channel_write(act[1], act[2], act[3], rec.start)
        elif code == "E":
            for ob in observers:
                ob.on_job_data_end(act[1], act[2], rec.frame, rec.end)


def _finish_tick_fed(result: "RuntimeResult", fed: List[ExecutionObserver]) -> None:
    """What a live run owes tick-fed observers after their hand-overs:
    overhead windows, data events to those not fed data ticks, the end."""
    for window in result.overhead_intervals:
        for ob in fed:
            ob.on_overhead(*window)
    hybrids = [ob for ob in fed if ob.consumes_data and not ob.data_tick_fed]
    _replay_data(result, hybrids)
    for ob in fed:
        ob.on_run_end(result)


class RecordsObserver(ExecutionObserver):
    """Accumulates the raw event streams (records, overheads, meta).

    :func:`replay` emits them from a result's own lists, which these equal.
    """

    def __init__(self) -> None:
        self.meta: Optional[RunMeta] = None
        self.records: List["JobRecord"] = []
        self.overhead_intervals: List[Tuple[int, Time, Time]] = []

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset so a reused observer holds exactly one run's streams.
        self.meta = meta
        self.records = []
        self.overhead_intervals = []

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        self.overhead_intervals.append((frame, start, end))

    def on_record(self, record: "JobRecord") -> None:
        self.records.append(record)


class MetricsObserver(ExecutionObserver):
    """Streaming aggregation of the Section V metrics.

    Computes miss statistics, worst response times, per-processor busy time,
    makespan and per-frame makespans from the event stream alone — no stored
    record list — so long determinism/overload sweeps can aggregate without
    retaining per-instance data.

    A live run feeds this observer integer-tick totals once per run
    (:meth:`_absorb_ticks`, and :meth:`_absorb_data_ticks` when the data
    phase runs); :meth:`on_record` and the data hooks are the same rules
    applied event by event, for :func:`replay` and for subclasses that
    override them (which are fed events, not ticks).  The optional
    aggregates can be switched off at construction: scenario sweeps
    request only the metrics their table needs.  Disabled aggregates refuse to report
    (their accessors raise) instead of returning silent zeros.
    """

    def __init__(
        self,
        *,
        track_responses: bool = True,
        track_utilization: bool = True,
        track_frame_spans: bool = True,
    ) -> None:
        self._track_responses = track_responses
        self._track_utilization = track_utilization
        self._track_frame_spans = track_frame_spans
        self.meta: Optional[RunMeta] = None
        self.total_jobs = 0
        self.executed_jobs = 0
        self.false_jobs = 0
        self.missed_jobs = 0
        self.worst_lateness: Time = ZERO
        self.makespan: Time = ZERO
        self._busy: List[Time] = []
        self._frame_spans: List[Time] = []
        self._frame_bases: List[Time] = []
        self._responses: Dict[str, Time] = {}
        self._span_open: Dict[Tuple[str, int], Time] = {}
        self._span_count: Dict[str, int] = {}
        self._span_total: Dict[str, Time] = {}
        self._span_max: Dict[str, Time] = {}
        self._channel_writes: Dict[str, int] = {}

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset: one observer instance can be reused across runs
        # without mixing their statistics.
        self.meta = meta
        self.total_jobs = 0
        self.executed_jobs = 0
        self.false_jobs = 0
        self.missed_jobs = 0
        self.worst_lateness = ZERO
        self.makespan = ZERO
        self._busy = [ZERO] * meta.processors
        self._frame_spans = [ZERO] * meta.frames
        # Frame start instants, precomputed once: on_record fires per job
        # instance, and the ``hyperperiod * frame`` product is a Fraction
        # multiplication the hot path should not repeat 800 times a frame.
        self._frame_bases = (
            [meta.hyperperiod * f for f in range(meta.frames)]
            if self._track_frame_spans else []
        )
        self._responses = {}
        self._span_open = {}
        self._span_count = {}
        self._span_total = {}
        self._span_max = {}
        self._channel_writes = {}

    def on_record(self, record: "JobRecord") -> None:
        self.total_jobs += 1
        end = record.end
        # All records count toward the makespan (false jobs carry their
        # zero-length visibility instant), matching RuntimeResult.makespan().
        if end > self.makespan:
            self.makespan = end
        if record.is_false:
            self.false_jobs += 1
            return
        self.executed_jobs += 1
        if end > record.deadline:
            self.missed_jobs += 1
            lateness = end - record.deadline
            if lateness > self.worst_lateness:
                self.worst_lateness = lateness
        if self._track_utilization:
            self._busy[record.processor] += end - record.start
        if self._track_responses:
            response = end - record.release
            if response > self._responses.get(record.process, ZERO):
                self._responses[record.process] = response
        if self._track_frame_spans:
            frame = record.frame
            span = end - self._frame_bases[frame]
            if span > self._frame_spans[frame]:
                self._frame_spans[frame] = span

    _tick_rule = on_record

    def _absorb_ticks(self, totals: TickMetrics, from_ticks: Any) -> None:
        """Take a whole run's timing aggregates from the executor.

        The live-run counterpart of one :meth:`on_record` per instance:
        *totals* hold the same aggregates in integer ticks, converted
        here once per run.  ``on_record`` stays the rule (and the path of
        :func:`replay`); the tick-path differential suite holds the two
        equal.
        """
        self.total_jobs = totals.total_jobs
        self.false_jobs = totals.false_jobs
        self.executed_jobs = totals.total_jobs - totals.false_jobs
        self.missed_jobs = totals.missed_jobs
        self.worst_lateness = from_ticks(totals.worst_lateness)
        self.makespan = from_ticks(totals.makespan)
        if self._track_utilization:
            self._busy = [from_ticks(b) for b in totals.busy]
        if self._track_responses:
            self._responses = {
                name: from_ticks(r) for name, r in totals.responses.items()
            }
        if self._track_frame_spans:
            self._frame_spans = [from_ticks(f) for f in totals.frame_spans]

    # -- data-phase events ----------------------------------------------
    def on_job_data_start(
        self, process: str, k: int, frame: int, start: Time
    ) -> None:
        self._span_open[(process, k)] = start

    def on_job_data_end(self, process: str, k: int, frame: int, end: Time) -> None:
        span = end - self._span_open.pop((process, k))
        count = self._span_count.get(process, 0)
        self._span_count[process] = count + 1
        self._span_total[process] = self._span_total.get(process, ZERO) + span
        # The first span sets the maximum even when it is zero long.
        if not count or span > self._span_max[process]:
            self._span_max[process] = span

    def on_channel_write(
        self, process: str, channel: str, value: Any, time: Time
    ) -> None:
        self._channel_writes[channel] = self._channel_writes.get(channel, 0) + 1

    _data_rule = (on_job_data_start, on_job_data_end, on_channel_write)

    def _absorb_data_ticks(
        self,
        spans: Dict[str, Tuple[int, int, int]],
        writes: Dict[str, int],
        from_ticks: Any,
    ) -> None:
        """Take a whole run's data-phase aggregates from the executor.

        The live-run counterpart of the data hooks: *spans* maps each
        process with a true instance to its kernel-span ``(count, total,
        max)`` in integer ticks, *writes* each written channel to its
        write count.  The hooks stay the rule (and the path of
        :func:`replay`); the tick-path differential suite holds the two
        equal.
        """
        self._span_count = {name: n for name, (n, _, _) in spans.items()}
        self._span_total = {
            name: from_ticks(total) for name, (_, total, _) in spans.items()
        }
        self._span_max = {
            name: from_ticks(top) for name, (_, _, top) in spans.items()
        }
        self._channel_writes = dict(writes)

    # -- consumers ------------------------------------------------------
    def _require_run(self) -> None:
        if self.meta is None:
            raise RuntimeModelError(
                "metrics observer has not seen a run (no on_run_start event) "
                "— pass it to run(observers=[...]) or replay(result, ...)"
            )

    def miss_summary(self) -> "MissSummary":
        from .metrics import MissSummary

        self._require_run()
        return MissSummary(
            total_jobs=self.total_jobs,
            executed_jobs=self.executed_jobs,
            false_jobs=self.false_jobs,
            missed_jobs=self.missed_jobs,
            worst_lateness=self.worst_lateness,
            miss_ratio=(
                self.missed_jobs / self.executed_jobs if self.executed_jobs else 0.0
            ),
        )

    def _require_tracked(self, enabled: bool, what: str) -> None:
        if not enabled:
            raise RuntimeModelError(
                f"this MetricsObserver was constructed with {what}=False — "
                "the aggregate was not computed; construct the observer "
                "with it enabled"
            )

    def response_times(self) -> Dict[str, Time]:
        """Worst-case observed response time per process."""
        self._require_run()
        self._require_tracked(self._track_responses, "track_responses")
        return dict(self._responses)

    def processor_utilization(self) -> List[float]:
        """Busy fraction per processor over the simulated horizon."""
        return [float(u) for u in self.processor_utilization_exact()]

    def busy_times(self) -> List[Time]:
        """Busy time per processor: the summed ``end - start`` of its true
        job instances, the same spans the data phase's kernel spans
        cover."""
        self._require_run()
        self._require_tracked(self._track_utilization, "track_utilization")
        return list(self._busy)

    def processor_utilization_exact(self) -> List[Time]:
        """Busy fraction per processor as exact rationals.

        Busy times and the horizon are both exact, so the fractions are
        too; the scenario sweeps report this form because their rows
        promise bit-identical, exactly-rational metrics across machines
        (:mod:`repro.experiment.sweep`).  :meth:`processor_utilization`
        is the float convenience view of the same values.
        """
        busy = self.busy_times()
        horizon = self.meta.hyperperiod * self.meta.frames
        return [b / horizon for b in busy]

    def frame_makespans(self) -> List[Time]:
        """Per-frame completion time relative to the frame start."""
        self._require_run()
        self._require_tracked(self._track_frame_spans, "track_frame_spans")
        return list(self._frame_spans)

    def kernel_span_stats(self) -> Dict[str, "KernelSpanStats"]:
        """Per-process kernel-span statistics from the data-phase events.

        Empty when the run emitted no data events (``records_only=True``
        runs have no data phase).  :func:`replay` refuses to feed this
        observer a trace-suppressed result, so the spans are never
        silently missing.
        """
        from .metrics import KernelSpanStats

        self._require_run()
        return {
            name: KernelSpanStats(
                jobs=count,
                total_busy=self._span_total[name],
                max_span=self._span_max[name],
                mean_span=self._span_total[name] / count,
            )
            for name, count in sorted(self._span_count.items())
        }

    def channel_write_counts(self) -> Dict[str, int]:
        """Number of internal channel writes observed, per written
        channel, sorted by channel name."""
        self._require_run()
        return dict(sorted(self._channel_writes.items()))


class TraceObserver(ExecutionObserver):
    """Waveform-shaped view of a run: busy intervals and pulse times.

    Collects, in exact rational time, per-processor and per-process busy
    intervals, deadline-miss pulse instants, runtime-overhead windows and —
    when the data phase runs — per-channel write pulse instants: everything
    a waveform backend (e.g. the VCD serialiser in :mod:`repro.io.vcd`)
    needs, without retaining ``JobRecord`` objects.
    """

    def __init__(self) -> None:
        self.meta: Optional[RunMeta] = None
        self.processes: Set[str] = set()
        self.processor_intervals: Dict[int, List[Tuple[Time, Time]]] = {}
        self.process_intervals: Dict[str, List[Tuple[Time, Time]]] = {}
        self.miss_times: List[Time] = []
        self.overheads: List[Tuple[Time, Time]] = []
        self.channel_write_times: Dict[str, List[Time]] = {}

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset so a reused observer holds exactly one run's waveform.
        self.meta = meta
        self.processes = set()
        self.processor_intervals = {}
        self.process_intervals = {}
        self.miss_times = []
        self.overheads = []
        self.channel_write_times = {}

    def on_overhead(self, frame: int, start: Time, end: Time) -> None:
        self.overheads.append((start, end))

    def on_record(self, record: "JobRecord") -> None:
        # False jobs still declare their process (a silent wire), exactly
        # like the record-list post-processing did.
        self.processes.add(record.process)
        if record.is_false:
            return
        if record.end > record.deadline:
            self.miss_times.append(record.deadline)
        if record.end == record.start:
            return  # a zero-length job has no busy interval
        span = (record.start, record.end)
        self.processor_intervals.setdefault(record.processor, []).append(span)
        self.process_intervals.setdefault(record.process, []).append(span)

    def on_channel_write(
        self, process: str, channel: str, value: Any, time: Time
    ) -> None:
        self.channel_write_times.setdefault(channel, []).append(time)
