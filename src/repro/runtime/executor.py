"""Multiprocessor runtime simulator executing the static-order policy.

This is the library's substitute for the paper's MPPA/Linux runtime
(Section V): a deterministic discrete-event simulation of ``M`` processors
executing the frame-periodic static-order policy of Section IV, including:

* invocation synchronisation (periodic invocations, early/absent sporadic
  invocations with false-job marking),
* precedence synchronisation against task-graph predecessors,
* per-processor mutual exclusion in static-schedule order,
* the frame-arrival overhead model of Section V-A,
* actual execution times that may differ from WCETs (jitter injection) —
  the policy must stay correct because it synchronises instead of trusting
  the static start times (Prop. 4.1).

The executor is split into a **timing core** and pluggable **consumers**,
fed the assembled :class:`RuntimeResult` by
:func:`~repro.runtime.observers.replay`, the one event emitter:

1. **Timing phase** (:meth:`MultiprocessorExecutor._timing_phase`) — per
   frame, job starts/ends are resolved in a topological pass over the
   combined DAG (precedence edges + per-processor chains + invocation
   floors).  The combined relation is acyclic because a feasible static
   schedule orders both edge kinds by start time.  The pass runs entirely
   in the **integer tick domain** (:mod:`repro.core.ticks`): all timing
   inputs — hyperperiod, arrivals, overheads, bound sporadic arrival
   times, process deadlines and the per-instance execution durations — are
   mapped once per run to exact integer ticks, so the ``max``/``+``
   recurrence per job instance costs machine-integer operations.  The
   resulting :class:`JobRecord` timestamps are converted back to exact
   rationals (bit-identical to a pure-Fraction simulation).

   A sweep cell stays in ticks end to end.  What the policy reads of the
   schedule is one :class:`RunPlan`, memoised on the schedule, and the
   sporadic arrival binding and its per-frame slot tables are memoised
   on the stimulus (:meth:`ArrivalBinding.of`), so every run of one
   schedule over one stimulus shares them.  A :class:`JitterSampler` is
   sampled through its draw table: per frame, one row of integer draws
   aligned to the job index, computed by packed splitmix64 passes and
   kept on the sampler for every run of the graph — each duration
   ``d * wcet / R`` exact in a domain fixed before sampling.  Tick-fed
   observers (stock :class:`~repro.runtime.observers.MetricsObserver`
   classes) get integer aggregates once per run instead of a replay,
   so a timing-only run with no other record consumer builds no
   :class:`JobRecord` at all.  The data phase feeds them its kernel-span
   and channel-write aggregates the same way, in ticks, once per run.
2. **Data phase** (:meth:`MultiprocessorExecutor._data_phase`) — the
   kernels of all *true* jobs run in ``(start, frame, <J index)`` order
   against fresh channel states.  Jobs sharing a channel can never overlap
   (they are precedence-ordered and the policy enforces it), so
   atomic-at-start execution reproduces the real interleaving; the
   resulting channel write sequences are the Prop. 2.1 observable.

Fast modes drop work a caller does not need: ``records_only=True`` skips
the data phase entirely (no ``JobContext``, no kernel dispatch — timing-only
runs with identical :class:`JobRecord` streams), and ``collect_records=False``
and ``collect_trace=False`` skip building records and the action trace when
no observer consumes them, as the determinism matrix and sweep cells run.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import blake2b
from itertools import chain
from math import gcd
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import RuntimeModelError
from ..core.channels import ChannelState, ExternalOutputState
from ..core.ticks import TickDomain, fraction_from_ratio
from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.process import JobContext, KernelBehavior
from ..core.timebase import Time, TimeLike, as_positive_time, as_time
from ..core.trace import Trace
from ..taskgraph.graph import TaskGraph
from ..taskgraph.jobs import Job
from ..scheduling.schedule import StaticSchedule
from .observers import (
    ExecutionObserver, RunMeta, TickMetrics, _finish_tick_fed, replay,
)
from .overheads import OverheadModel
from .static_order import ArrivalBinding, RunPlan

# Hot-loop aliases for the timing phase's trusted record construction,
# which installs a ``__dict__`` literal (see ``_timing_phase``).
_obj_new = object.__new__
_obj_setattr = object.__setattr__

# The jitter draw's mix: odd 64-bit steps spreading ``k`` and ``frame``
# over the splitmix64 input, modulo 2**64.
_M64 = (1 << 64) - 1
_K_STEP = 0x9E3779B97F4A7C15
_FRAME_STEP = 0xD1B54A32D192ED03
#: Lanes of one packed splitmix64 pass.  A lane is 128 bits, so a pass
#: works on integers of at most 32 KiB: drawing a long run in one pass
#: would hold a few temporaries of its full size at once.
_PASS_LANES = 2048
#: A full pass's lane mask (the low 64 bits of every lane) and its ``1``
#: in bit 64 of every lane; a pass of fewer lanes shifts off the rest.
_PASS_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _PASS_LANES, "little")
_PASS_HIGH_ONES = int.from_bytes(
    (bytes(8) + b"\x01" + bytes(7)) * _PASS_LANES, "little"
)

ExecutionTimeSpec = Union[
    None,
    Mapping[str, TimeLike],
    Callable[[Job, int], TimeLike],
]


def wcet_execution(job: Job, frame: int) -> Time:
    """The default execution-time model: every job takes exactly its WCET."""
    return job.wcet


def _splitmix_lanes(x: int, lanes: int, lo: int, span: int) -> array:
    """``lo + (splitmix64(v) * span) >> 64`` for every packed input ``v``.

    *x* holds *lanes* (at most ``_PASS_LANES``) 128-bit lanes,
    little-endian, each with an input ``v`` in its low 64 bits (bits above
    64 are reduced away).  No lane carries into another: a product of two
    64-bit values stays below 2**128, and a right shift moves a lane's
    bits only into its neighbour's high half, which the mask clears before
    the next product.  The draws (below 2**16) come back as an
    ``array('H')``.
    """
    drop = 128 * (_PASS_LANES - lanes)
    m = _PASS_MASK >> drop
    x &= m
    x = ((x ^ (x >> 30)) & m) * 0xBF58476D1CE4E5B9 & m
    x = ((x ^ (x >> 27)) & m) * 0x94D049BB133111EB & m
    # (z * span + lo * 2**64) >> 64 == lo + (z * span) >> 64.
    x = ((x ^ (x >> 31)) & m) * span + (_PASS_HIGH_ONES >> drop) * lo
    x = (x >> 64) & m
    out = array("H")
    out.frombytes(
        memoryview(x.to_bytes(16 * lanes, "little")).cast("H")[::8].tobytes()
    )
    return out


class JitterSampler:
    """The execution-time model behind :func:`jittered_execution`.

    Each job instance draws an integer ``d`` in ``[lo, R]`` (``R`` =
    :attr:`resolution`, ``lo = max(1, round(low_fraction * R))``, both
    ends reachable) and runs for ``d / R`` of its WCET.  The draw is a
    stateless integer mix of ``(seed, process, k, frame)`` — not of the
    WCET: a 64-bit base per ``(seed, process)``, the first 8 bytes of the
    BLAKE2b digest of ``f"{seed}/{process}"`` read little-endian, is
    computed once per sampler; an instance then gets the splitmix64
    finaliser ``x`` of ``base + k * _K_STEP + frame * _FRAME_STEP``
    (mod 2**64), mapped onto the span by ``lo + (x * (R - lo + 1)) >> 64``.
    Nothing depends on ``PYTHONHASHSEED`` or on the process, and no float
    enters a draw.

    Draws are computed in packed passes (:func:`_splitmix_lanes`).  The
    executor reads a graph's draws through :meth:`_rows`: per frame, an
    ``array('H')`` aligned to the run plan's ``keys`` column, false server
    slots included.  The rows are kept on the sampler and grow on demand,
    so the runs of one graph under one sampler — the cells of a jitter
    seed in a sweep — draw each instance once; the executor charges
    ``d * wcet / R`` in integer ticks (its run domain is fixed before
    sampling, from the WCETs and ``R``).  :meth:`draws` serves any keys
    through the same passes, and calling the sampler as a
    ``(job, frame) -> Time`` model returns the same duration as an exact
    rational.
    """

    #: Denominator of every draw: millisecond-ish resolution of a WCET.
    #: Draws are unpacked as 16-bit words, so it must stay below 2**16.
    resolution = 10_000

    __slots__ = ("seed", "low_fraction", "_lo", "_span", "_bases", "_tables")

    def __init__(self, seed: int, low_fraction: float = 0.5) -> None:
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise TypeError(f"jitter seed must be an int, got {seed!r}")
        if isinstance(low_fraction, bool):
            raise TypeError(
                f"low_fraction must be a real number, got {low_fraction!r}"
            )
        if not 0 < low_fraction <= 1:
            raise ValueError("low_fraction must be in (0, 1]")
        self.seed = seed
        self.low_fraction = low_fraction
        self._lo = max(1, round(low_fraction * self.resolution))
        self._span = self.resolution - self._lo + 1
        #: process -> 64-bit base of its draws.
        self._bases: Dict[str, int] = {}
        #: id(keys column) -> (that column, its packed frame-0 inputs, its
        #: draw rows).  Holding the column keeps its id from being reused;
        #: nothing here refers to a graph, schedule or network.
        self._tables: Dict[int, Tuple[Any, bytes, List[array]]] = {}

    def _words(self, keys: Sequence[Tuple[str, int]]) -> bytes:
        """The frame-0 mix inputs of *keys*, one 128-bit lane each."""
        bases = self._bases
        parts = []
        for process, k in keys:
            base = bases.get(process)
            if base is None:
                base = bases[process] = int.from_bytes(blake2b(
                    f"{self.seed}/{process}".encode(), digest_size=8
                ).digest(), "little")
            parts.append(((base + k * _K_STEP) & _M64).to_bytes(16, "little"))
        return b"".join(parts)

    def _draw_rows(self, words: bytes, frames: range) -> List[array]:
        """One row of draws of the lanes *words* per frame of *frames*,
        in passes of at most ``_PASS_LANES`` lanes."""
        n = len(words) // 16
        inputs = words * len(frames)
        steps = b"".join(
            ((f * _FRAME_STEP) & _M64).to_bytes(16, "little") * n
            for f in frames
        )
        flat = array("H")
        for s in range(0, len(inputs), 16 * _PASS_LANES):
            chunk = inputs[s:s + 16 * _PASS_LANES]
            x = int.from_bytes(chunk, "little") + int.from_bytes(
                steps[s:s + 16 * _PASS_LANES], "little"
            )
            flat += _splitmix_lanes(x, len(chunk) // 16, self._lo, self._span)
        return [flat[i * n:(i + 1) * n] for i in range(len(frames))]

    def _rows(
        self, keys: Sequence[Tuple[str, int]], n_frames: int
    ) -> List[array]:
        """The draw rows of frames ``0 .. n_frames - 1`` of the keys
        column *keys*, aligned to it, kept on the sampler."""
        table = self._tables.get(id(keys))
        if table is None:
            table = self._tables[id(keys)] = (keys, self._words(keys), [])
        _, words, rows = table
        # Whole frames per block, one pass each while a frame fits in one.
        block = max(1, _PASS_LANES // max(1, len(keys)))
        for f in range(len(rows), n_frames, block):
            frames = range(f, min(f + block, n_frames))
            rows.extend(self._draw_rows(words, frames))
        return rows[:n_frames]

    def draws(self, frame: int, keys: Sequence[Tuple[str, int]]) -> List[int]:
        """The draws of the ``(process, k)`` instances *keys* in *frame*."""
        rows = self._draw_rows(self._words(keys), range(frame, frame + 1))
        return rows[0].tolist()

    def __call__(self, job: Job, frame: int) -> Time:
        d = self.draws(frame, ((job.process, job.k),))[0]
        return fraction_from_ratio(
            job.wcet.numerator * d, job.wcet.denominator * self.resolution
        )


assert JitterSampler.resolution < 1 << 16


def jittered_execution(seed: int, low_fraction: float = 0.5) -> JitterSampler:
    """Deterministic pseudo-random execution times in ``[low*C, C]``.

    The sample depends only on ``(seed, process, k, frame)``, so repeated
    runs with the same seed are identical — in any process, whatever its
    ``PYTHONHASHSEED`` — which the determinism tests rely on when
    comparing *different schedules* under the *same* jitter.  *seed* must
    be an ``int`` (``TypeError`` otherwise, ``bool`` included).  The
    returned :class:`JitterSampler` is a ``(job, frame) -> Time``
    callable; the executor samples it in ticks from per-graph draw rows
    that the sampler keeps, so determinism sweeps that replay the same
    jitter against many schedules of one graph draw each instance once.
    """
    return JitterSampler(seed, low_fraction)


@dataclass(frozen=True)
class JobRecord:
    """Timing record of one job instance (one job in one frame)."""

    process: str
    frame: int
    k_frame: int        # invocation count within the frame (graph job's k)
    global_k: int       # invocation count over the whole run
    processor: int
    release: Time       # real release: invocation time (arrival for sporadic)
    start: Time
    end: Time
    deadline: Time      # real absolute deadline: release + dp
    is_false: bool
    is_server: bool
    #: Name of the processor class the job's slot is bound to ("cpu" on
    #: classic homogeneous schedules).
    processor_class: str = "cpu"

    @property
    def name(self) -> str:
        return f"{self.process}[{self.global_k}]"

    @property
    def missed(self) -> bool:
        """Deadline miss — false jobs never miss (they do not execute)."""
        return not self.is_false and self.end > self.deadline

    @property
    def response_time(self) -> Time:
        return self.end - self.release


@dataclass
class RuntimeResult:
    """Everything observable from one simulated run."""

    network_name: str
    frames: int
    hyperperiod: Time
    processors: int
    records: List[JobRecord]
    channel_logs: Dict[str, List[Any]]
    external_outputs: Dict[str, List[Tuple[int, Any]]]
    trace: Trace
    overhead_intervals: List[Tuple[int, Time, Time]] = field(default_factory=list)
    #: False when the run was made with ``collect_records=False``: the empty
    #: ``records`` list then means "not retained", not "no jobs ran", and
    #: every record-derived accessor refuses to report misleading zeros.
    records_collected: bool = True
    #: False when the run was made with ``records_only=True``: the data
    #: phase never ran, so the empty channel/output observables mean "not
    #: computed", not "no activity" — ``observable()`` refuses to compare.
    data_collected: bool = True
    #: False when the run was made with ``collect_trace=False`` (or
    #: ``records_only=True``, where no data phase produced actions): the
    #: empty ``trace`` then means "not retained", not "no actions".  When
    #: the data phase ran, :func:`~repro.runtime.observers.replay` then
    #: refuses any observer that consumes data events, before any hook
    #: fires; timing-only observers still replay the result.
    trace_collected: bool = True

    def _require_records(self) -> None:
        if not self.records_collected:
            raise RuntimeModelError(
                "this result was produced with collect_records=False — job "
                "records were not retained; re-run with collect_records=True "
                "or aggregate via observers during the run"
            )

    def action_trace(self) -> Trace:
        """The data phase's action :class:`~repro.core.trace.Trace`.

        Guarded accessor for the ``trace`` field: refuses to hand out an
        empty trace that means "suppressed"/"never computed" rather than
        "no actions happened".
        """
        if not self.data_collected:
            raise RuntimeModelError(
                "this result was produced with records_only=True — the data "
                "phase never ran, so there is no action trace; re-run "
                "without records_only"
            )
        if not self.trace_collected:
            raise RuntimeModelError(
                "this result was produced with collect_trace=False — the "
                "action trace was suppressed; re-run with collect_trace=True"
            )
        return self.trace

    def observable(self) -> Dict[str, Any]:
        """Canonical determinism observable (same shape as zero-delay runs)."""
        if not self.data_collected:
            raise RuntimeModelError(
                "this result was produced with records_only=True — the data "
                "phase never ran, so there is no observable to compare; "
                "re-run without records_only"
            )
        return {
            "channels": {k: list(v) for k, v in sorted(self.channel_logs.items())},
            "outputs": {k: list(v) for k, v in sorted(self.external_outputs.items())},
        }

    def misses(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if r.missed]

    def executed(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if not r.is_false]

    def false_jobs(self) -> List[JobRecord]:
        self._require_records()
        return [r for r in self.records if r.is_false]

    def makespan(self) -> Time:
        self._require_records()
        return max((r.end for r in self.records), default=Time(0))

    def max_response_time(self, process: Optional[str] = None) -> Time:
        candidates = [
            r.response_time
            for r in self.executed()
            if process is None or r.process == process
        ]
        return max(candidates, default=Time(0))


#: One true job instance handed from the timing phase to the data phase:
#: ``(start_tick, frame, job_index, global_k, release_tick, end_tick)``.
#: Sorting these tuples orders instances by ``(start, frame, <J index)`` —
#: the execution order of the policy — because ``(frame, job_index)`` is
#: unique; the trailing fields never influence the order.  ``end_tick``
#: rides along so tick-fed observers get the kernel span without the data
#: phase re-deriving it.
_Instance = Tuple[int, int, int, int, int, int]


@dataclass
class _RunSetup:
    """Per-run immutable inputs, resolved once before the timing loop."""

    n_frames: int
    dom: TickDomain
    arr_t: List[int]
    H_t: int
    ov_first_t: int
    ov_steady_t: int
    pdl_t: List[int]
    dur_t_const: Optional[List[int]]
    dur_t_rows: Optional[List[List[int]]]
    bound_t_rows: List[Dict[int, Tuple[int, int]]]


class MultiprocessorExecutor:
    """Simulates the static-order policy for a network + static schedule."""

    def __init__(
        self,
        network: Network,
        schedule: StaticSchedule,
        overheads: Optional[OverheadModel] = None,
    ) -> None:
        # The verdict is a pure function of the definition: keep it in
        # the network's run memo, which construction methods clear.
        memo = network.run_memo()
        if "validated" not in memo:
            network.validate_taskgraph_subclass()
            memo["validated"] = True
        if schedule.graph.hyperperiod is None:
            raise RuntimeModelError("schedule's task graph has no hyperperiod")
        self.network = network
        self.schedule = schedule
        self.overheads = overheads or OverheadModel.none()
        self.graph: TaskGraph = schedule.graph
        self.hyperperiod: Time = schedule.graph.hyperperiod

    # ------------------------------------------------------------------
    def run(
        self,
        n_frames: int,
        stimulus: Optional[Stimulus] = None,
        execution_time: ExecutionTimeSpec = None,
        *,
        observers: Sequence[ExecutionObserver] = (),
        records_only: bool = False,
        collect_records: bool = True,
        collect_trace: bool = True,
    ) -> RuntimeResult:
        """Simulate ``n_frames`` frames of the static-order policy.

        Parameters
        ----------
        observers:
            :class:`~repro.runtime.observers.ExecutionObserver` instances,
            fed the result by :func:`~repro.runtime.observers.replay`
            after the phases.  Stock ``MetricsObserver`` classes get
            ``on_run_start`` before the phases and the same aggregates in
            integer ticks, once per run, instead.
        records_only:
            Skip the data phase (no kernels, no channel states): the result
            carries identical :class:`JobRecord` timing but empty
            observables.  For timing-only consumers (sweeps, waveforms).
        collect_records:
            When ``False``, ``result.records`` stays empty: records are
            built only for observers that consume records or data events,
            and dropped once they have seen them.  For observable-only
            consumers like the determinism matrix.
        collect_trace:
            When ``False``, ``result.trace`` stays empty (channel logs and
            external outputs are unaffected): the per-action
            :class:`~repro.core.trace.Trace`, the largest allocation stream
            of a full run, is recorded only for observers that consume data
            events, and dropped once they have seen them.
        """
        if n_frames < 1:
            raise RuntimeModelError("n_frames must be >= 1")
        stimulus = stimulus or Stimulus()
        plan, setup = self._prepare(n_frames, stimulus, execution_time)

        # Tick-fed observers (stock MetricsObservers) are handed integer
        # aggregates by the phases, every other observer a replay of the
        # result; records and the trace are built for whoever consumes them.
        fed = [ob for ob in observers if ob.tick_fed]
        events = [ob for ob in observers if not ob.tick_fed]
        want_data = any(
            ob.consumes_data and not (ob.tick_fed and ob.data_tick_fed)
            for ob in observers
        )
        build_records = want_data or collect_records or any(
            ob.consumes_records for ob in events
        )
        record_trace = want_data or collect_trace
        meta = RunMeta(
            self.network.name, self.schedule.processors, n_frames, self.hyperperiod
        )
        for ob in fed:
            ob.on_run_start(meta)

        # Nearly everything the phases and the observers allocate (records,
        # trace actions, channel logs, memoised Fractions, observer views)
        # is retained until the run returns, so generational GC passes
        # meanwhile only re-scan live objects — at 100-frame scale they
        # cost more than a third of the run.  Suspend collection for the
        # duration (restored even on error; left untouched when the caller
        # already disabled GC); cyclic garbage from user kernels is
        # reclaimed at the next post-run collection.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            records, instances, overhead_intervals, frac_memo = self._timing_phase(
                plan, setup, fed, build_records,
                collect_instances=not records_only
            )

            if records_only:
                channel_logs: Dict[str, List[Any]] = {}
                external_outputs: Dict[str, List[Tuple[int, Any]]] = {}
                trace = Trace()
            else:
                channel_logs, external_outputs, trace = self._data_phase(
                    sorted(instances), stimulus, plan, setup.dom, frac_memo,
                    [ob for ob in fed if ob.data_tick_fed], record_trace,
                )

            result = RuntimeResult(
                network_name=self.network.name,
                frames=n_frames,
                hyperperiod=self.hyperperiod,
                processors=self.schedule.processors,
                records=records,
                channel_logs=channel_logs,
                external_outputs=external_outputs,
                trace=trace,
                overhead_intervals=overhead_intervals,
                records_collected=build_records,
                data_collected=not records_only,
                trace_collected=record_trace and not records_only,
            )
            _finish_tick_fed(result, fed)
            if events:
                replay(result, *events)
        finally:
            if gc_was_enabled:
                gc.enable()

        # Drop what the caller did not ask for, once every hook has run.
        if not collect_records:
            result.records, result.records_collected = [], False
        if not collect_trace:
            result.trace, result.trace_collected = Trace(), False
        return result

    # ------------------------------------------------------------------
    def _prepare(
        self,
        n_frames: int,
        stimulus: Stimulus,
        execution_time: ExecutionTimeSpec,
    ) -> Tuple[RunPlan, _RunSetup]:
        """The schedule's run plan and every run input in integer ticks.

        Three steps: (1) invocation identity — the stimulus's memoised
        :class:`ArrivalBinding` says which server-job slots a real arrival
        serves in each frame (the lookup validates the stimulus); (2) the
        run's tick domain — the graph's domain extended by the overheads,
        process deadlines, the binding's domain and what the
        execution-time model needs; (3) the integer
        views of all of them, a callable's durations sampled only for true
        jobs.  Default WCETs and :class:`JitterSampler` draws never leave
        ticks: a sampler's domain is fixed from the WCETs and its
        resolution before any draw.  Tables and other callables yield
        exact rationals that widen the domain first.
        """
        binding = ArrivalBinding.of(self.network, self.hyperperiod, n_frames, stimulus)

        plan = RunPlan.of(self.schedule)
        topo = plan.order
        layout = plan.layout
        # Process deadlines convert once per process, not per job.
        processes = self.network.processes
        proc_deadline = {
            name: processes[name].deadline for name in plan.processes
        }
        ov = self.overheads
        # Each job's WCET on its slot's processor class, read from the
        # graph's duration table on the platform.
        base = self.graph.platform_ticks(self.schedule.platform).ticks
        wcet_base = plan.wcet_t

        spec = execution_time
        if spec is None:
            model_values: Any = ()
        elif isinstance(spec, JitterSampler):
            # d * wcet / R must be a whole tick for every draw d: refine the
            # graph's scale by R / gcd(R, every WCET tick count).
            res = spec.resolution
            model_values = (
                Fraction(1, base.domain.scale * (res // gcd(res, *wcet_base))),
            )
        else:
            const, rows = self._durations(
                spec, [Fraction(w, b) for w, b in zip(wcet_base, base.wcet)],
                binding.slot_ticks(layout, binding.domain.scale),
                n_frames, topo,
            )
            model_values = (
                const if rows is None
                else (d for row in rows for d in row if d is not None)
            )
        tt = base.rescaled_to(chain(
            (ov.first_frame_arrival, ov.steady_frame_arrival, ov.per_job,
             Fraction(1, binding.domain.scale)),
            proc_deadline.values(),
            model_values,
        ))
        dom = tt.domain
        to_ticks = dom.to_ticks
        factor = base.domain.rescale_factor(dom)
        pj_t = to_ticks(ov.per_job)
        slot_rows = binding.slot_ticks(layout, dom.scale)
        dur_t_const: Optional[List[int]] = None
        dur_t_rows: Optional[List[List[int]]] = None
        if spec is None:
            dur_t_const = [w * factor + pj_t for w in wcet_base]
        elif isinstance(spec, JitterSampler):
            dur_t_rows = self._tick_draws(
                spec, plan, [w * factor for w in wcet_base], pj_t, n_frames
            )
        elif rows is None:
            dur_t_const = [to_ticks(d) for d in const]
        else:
            dur_t_rows = [
                [to_ticks(d) if d is not None else 0 for d in row]
                for row in rows
            ]
        pdl_of = {name: to_ticks(d) for name, d in proc_deadline.items()}
        return plan, _RunSetup(
            n_frames=n_frames,
            dom=dom,
            arr_t=tt.arrival,
            H_t=to_ticks(self.hyperperiod),
            ov_first_t=to_ticks(ov.first_frame_arrival),
            ov_steady_t=to_ticks(ov.steady_frame_arrival),
            pdl_t=[pdl_of[p] for p in plan.process],
            dur_t_const=dur_t_const,
            dur_t_rows=dur_t_rows,
            bound_t_rows=slot_rows,
        )

    def _tick_draws(
        self,
        sampler: JitterSampler,
        plan: RunPlan,
        wcet_t: List[int],
        pj_t: int,
        n_frames: int,
    ) -> List[List[int]]:
        """Per-frame tick durations ``d * wcet / R + per_job`` of every job.

        The draws are the sampler's rows for the plan's ``keys`` column
        (:meth:`JitterSampler._rows`), aligned to the job index and shared
        by every run of the graph under the sampler.  False server slots
        get a duration too, which the timing loop never charges.  The run
        domain makes every ``wcet / R`` whole (checked here, per job, as
        ``to_ticks`` would), so each duration is exact integer arithmetic.
        """
        res = sampler.resolution
        if any(w % res for w in wcet_t):
            raise RuntimeModelError(
                "a WCET tick count is not a multiple of the sampler "
                f"resolution {res} — the run's tick domain is too coarse"
            )
        unit = [w // res for w in wcet_t]
        return [
            [u * d + pj_t for u, d in zip(unit, drow)]
            for drow in sampler._rows(plan.keys, n_frames)
        ]

    # ------------------------------------------------------------------
    def _timing_phase(
        self,
        plan: RunPlan,
        rs: _RunSetup,
        tick_fed: Sequence[ExecutionObserver],
        build_records: bool,
        collect_instances: bool = True,
    ) -> Tuple[
        List[JobRecord],
        List[_Instance],
        List[Tuple[int, Time, Time]],
        Dict[int, Time],
    ]:
        """The per-frame timing recurrence, in pure integer ticks.

        Builds one :class:`JobRecord` per instance when *build_records*
        and hands *tick_fed* observers their aggregates after the last
        frame.  Returns the record list, the true-instance hand-off for the
        data phase, the overhead intervals and the tick→Fraction memo
        (shared with the data phase so release conversions are not repeated).
        """
        n = len(plan.order)
        topo = plan.order
        pred_table = plan.pred_table
        proc_of = plan.proc_of
        counts = plan.counts
        is_server_of = plan.is_server
        k_of = plan.k
        process_of = plan.process
        class_name_of = plan.class_name
        arr_t = rs.arr_t
        pdl_t = rs.pdl_t
        H_t = rs.H_t
        from_ticks = rs.dom.from_ticks

        records: List[JobRecord] = []
        instances: List[_Instance] = []
        overhead_intervals: List[Tuple[int, Time, Time]] = []
        chain_end: List[int] = [0] * self.schedule.processors

        # Tick->Fraction conversions repeat heavily (shared arrivals and
        # deadlines within a frame, end==next-start chains on busy
        # processors), so memoise them for the duration of the run.
        frac_memo: Dict[int, Time] = {}
        rec_append = records.append
        # The instance hand-off only feeds the data phase; skip it when the
        # caller will not run one (records_only), keeping long timing-only
        # sweeps O(1) in per-instance memory beyond the records they asked for.
        inst_append = instances.append if collect_instances else None
        new = _obj_new
        set_dict = _obj_setattr
        record_cls = JobRecord
        memo_get = frac_memo.get
        # Tick-fed observers get their aggregates from inline integer
        # accumulators, handed over once after the last frame.
        aggregate = bool(tick_fed)
        track_responses = any(ob._track_responses for ob in tick_fed)
        n_false = n_missed = worst = makespan = 0
        busy = [0] * self.schedule.processors
        frame_spans: List[int] = []
        responses: Dict[str, int] = {}

        for frame in range(rs.n_frames):
            base = H_t * frame
            ov = rs.ov_first_t if frame == 0 else rs.ov_steady_t
            if ov > 0:
                overhead_intervals.append(
                    (frame, from_ticks(base), from_ticks(base + ov))
                )
            floor = base + ov
            frame_end = base
            end_row = [0] * n
            brow = rs.bound_t_rows[frame]
            durs = rs.dur_t_const if rs.dur_t_rows is None else rs.dur_t_rows[frame]
            for i in topo:
                proc = proc_of[i]
                is_false = False
                if is_server_of[i]:
                    bound = brow.get(i)
                    if bound is None:
                        is_false = True
                        release_t = base + arr_t[i]
                        visible = release_t if release_t > floor else floor
                        global_k = frame * counts[i] + k_of[i]
                    else:
                        release_t, global_k = bound
                        visible = release_t if release_t > floor else floor
                        if base > visible:
                            visible = base
                else:
                    release_t = base + arr_t[i]
                    visible = release_t if release_t > floor else floor
                    global_k = frame * counts[i] + k_of[i]
                start = visible
                ce = chain_end[proc]
                if ce > start:
                    start = ce
                for p in pred_table[i]:
                    pe = end_row[p]
                    if pe > start:
                        start = pe
                end = start if is_false else start + durs[i]
                chain_end[proc] = end
                end_row[i] = end

                # MetricsObserver.on_record's rule, in ticks.
                if aggregate:
                    if end > makespan:
                        makespan = end
                    if is_false:
                        n_false += 1
                    else:
                        busy[proc] += end - start
                        if end > frame_end:
                            frame_end = end
                        lateness = end - release_t - pdl_t[i]
                        if lateness > 0:
                            n_missed += 1
                            if lateness > worst:
                                worst = lateness
                        if track_responses:
                            response = end - release_t
                            if response > responses.get(process_of[i], 0):
                                responses[process_of[i]] = response

                if inst_append is not None and not is_false:
                    inst_append((start, frame, i, global_k, release_t, end))
                if not build_records:
                    continue

                release_f = memo_get(release_t)
                if release_f is None:
                    release_f = frac_memo[release_t] = from_ticks(release_t)
                start_f = memo_get(start)
                if start_f is None:
                    start_f = frac_memo[start] = from_ticks(start)
                if end == start:
                    end_f = start_f
                else:
                    end_f = memo_get(end)
                    if end_f is None:
                        end_f = frac_memo[end] = from_ticks(end)
                deadline_t = release_t + pdl_t[i]
                deadline_f = memo_get(deadline_t)
                if deadline_f is None:
                    deadline_f = frac_memo[deadline_t] = from_ticks(deadline_t)

                # Trusted construction inline: installing the whole
                # ``__dict__`` skips the frozen dataclass's per-field
                # ``__setattr__`` guards.  The literal's keys are pinned
                # against the dataclass fields by the record-field drift
                # test in tests/test_observers.py (TestJobRecordConstructor).
                rec = new(record_cls)
                set_dict(rec, "__dict__", {
                    "process": process_of[i],
                    "frame": frame,
                    "k_frame": k_of[i],
                    "global_k": global_k,
                    "processor": proc,
                    "release": release_f,
                    "start": start_f,
                    "end": end_f,
                    "deadline": deadline_f,
                    "is_false": is_false,
                    "is_server": is_server_of[i],
                    "processor_class": class_name_of[proc],
                })
                rec_append(rec)
            frame_spans.append(frame_end - base)

        if tick_fed:
            totals = TickMetrics(
                total_jobs=rs.n_frames * n,
                false_jobs=n_false,
                missed_jobs=n_missed,
                worst_lateness=worst,
                makespan=makespan,
                busy=busy,
                frame_spans=frame_spans,
                responses=responses,
            )
            for ob in tick_fed:
                ob._absorb_ticks(totals, from_ticks)
        return records, instances, overhead_intervals, frac_memo

    # ------------------------------------------------------------------
    def _durations(
        self,
        spec: ExecutionTimeSpec,
        scale: List[Fraction],
        bound_rows: List[Dict[int, Any]],
        n_frames: int,
        topo: List[int],
    ) -> Tuple[Optional[List[Time]], Optional[List[List[Optional[Time]]]]]:
        """Exact-rational durations (including per-job overhead) of a
        per-process table or a callable model other than a
        :class:`JitterSampler`.

        Returns ``(constant_per_job, None)`` when the model is frame
        independent (per-process tables) and
        ``(None, per_frame_rows)`` for callable models.  A callable is
        sampled exactly once per *true* job instance, frame by frame in the
        schedule-topological order — the same call sequence the timing loop
        itself makes — so even a stateful callable observes the original
        evaluation order.  False jobs get ``None`` (they never execute).

        Each value is scaled by *scale*, the exact ``wcet_on(cls) / wcet``
        ratio of the job's slot class — a model expressing "this instance
        ran at 70% of its WCET" keeps that meaning on every class (the
        ratio is 1 on a speed-1 class without WCET tables).
        """
        jobs = self.graph.jobs
        per_job_ov = self.overheads.per_job

        def charge(i: int, value: Time) -> Time:
            return value * scale[i] + per_job_ov

        if not callable(spec):
            table = {
                name: as_positive_time(value, f"execution time of {name!r}")
                for name, value in spec.items()
            }
            missing = sorted({j.process for j in jobs} - set(table))
            if missing:
                raise RuntimeModelError(f"missing execution time for {missing!r}")
            return [charge(i, table[j.process]) for i, j in enumerate(jobs)], None

        rows: List[List[Optional[Time]]] = []
        for frame in range(n_frames):
            brow = bound_rows[frame]
            row: List[Optional[Time]] = [None] * len(jobs)
            for i in topo:
                job = jobs[i]
                if job.is_server and i not in brow:
                    continue  # false job in this frame
                row[i] = charge(i, as_time(spec(job, frame)))
            rows.append(row)
        return None, rows

    # ------------------------------------------------------------------
    def _data_phase(
        self,
        order: List[_Instance],
        stimulus: Stimulus,
        plan: RunPlan,
        dom: TickDomain,
        frac_memo: Dict[int, Time],
        tick_fed: Sequence[ExecutionObserver] = (),
        record_trace: bool = True,
    ) -> Tuple[Dict[str, List[Any]], Dict[str, List[Tuple[int, Any]]], Trace]:
        """Run the kernels of all true instances in policy order.

        The loop is the per-instance fast path of a full simulation:

        * one mutable :class:`JobContext` per **process** (not per
          instance), rebound (``k``/``now``) through the trusted
          :meth:`JobContext._rebind` before each dispatch — the variable
          store, channel states and sample maps it closes over are
          run-constant per process;
        * dispatch is batched per ``(process, frame)`` run: the context,
          kernel entry point and rebind method are re-fetched only when the
          instance stream switches process, so bursts and back-to-back
          frames of one process pay a single lookup;
        * the action trace (``JobStart``/``JobEnd`` markers; the per-action
          log inside :class:`JobContext`) is built only when
          *record_trace* — the source of replayed data events;
        * *tick_fed* observers (stock
          :class:`~repro.runtime.observers.MetricsObserver` classes) get
          the data aggregates once, before ``on_run_end``: per-process
          kernel-span count, total and maximum accumulated as ints where
          the loop switches process, and per-channel write counts read
          off the run's channel write logs, so nothing runs per write.
        """
        network = self.network
        channel_states: Dict[str, ChannelState] = {
            name: spec.new_state() for name, spec in network.channels.items()
        }
        variables: Dict[str, Dict[str, Any]] = {
            name: proc.fresh_variables()
            for name, proc in network.processes.items()
        }
        ext_out: Dict[str, ExternalOutputState] = {
            name: ExternalOutputState(spec)
            for name, spec in network.external_outputs.items()
        }
        trace = Trace() if record_trace else None
        trace_append = trace.raw.append if trace is not None else None
        from_ticks = dom.from_ticks
        memo_get = frac_memo.get
        process_of = plan.process

        # Per-process kernel spans in ticks, (count, total, max): the
        # running process's triple lives in locals and is swapped in and
        # out where the loop switches process.
        spans: Dict[str, Tuple[int, int, int]] = {}
        count = total = top = 0

        # One reusable context and one resolved kernel entry point per
        # process.  Dispatching straight to KernelBehavior's kernel callable
        # skips a delegation frame per instance; other Behavior subclasses
        # keep their run_job entry point.
        bindings: Dict[str, Tuple[JobContext, Callable[[JobContext], None]]] = {}
        for name, proc in network.processes.items():
            ctx = JobContext(
                process=name,
                k=0,
                now=Time(0),
                variables=variables[name],
                inputs={n: channel_states[n] for n in proc.inputs},
                outputs={n: channel_states[n] for n in proc.outputs},
                external_inputs={
                    n: stimulus.samples_view(n) for n in proc.external_inputs
                },
                external_outputs={n: ext_out[n] for n in proc.external_outputs},
                trace=trace,
            )
            behavior = proc.behavior
            dispatch = (
                behavior._kernel
                if behavior.__class__ is KernelBehavior
                else behavior.run_job
            )
            bindings[name] = (ctx, dispatch)

        prev_name = None
        ctx = dispatch = rebind = None
        for start_t, _frame, job_idx, global_k, release_t, end_t in order:
            name = process_of[job_idx]
            if name != prev_name:
                if tick_fed:
                    if prev_name is not None:
                        spans[prev_name] = (count, total, top)
                    count, total, top = spans.get(name, (0, 0, 0))
                ctx, dispatch = bindings[name]
                rebind = ctx._rebind
                prev_name = name
            if tick_fed:
                span = end_t - start_t
                count += 1
                total += span
                if span > top:
                    top = span
            release = memo_get(release_t)
            if release is None:
                release = frac_memo[release_t] = from_ticks(release_t)
            rebind(global_k, release)
            if trace_append is not None:
                trace_append(("S", name, global_k))
            dispatch(ctx)
            if trace_append is not None:
                trace_append(("E", name, global_k))
        if tick_fed:
            if prev_name is not None:
                spans[prev_name] = (count, total, top)
            writes = {
                n: len(s.write_log) for n, s in channel_states.items()
                if s.write_log
            }
            for ob in tick_fed:
                ob._absorb_data_ticks(spans, writes, from_ticks)
        return (
            {n: list(s.write_log) for n, s in channel_states.items()},
            {n: s.as_sequence() for n, s in ext_out.items()},
            trace if trace is not None else Trace(),
        )


def run_static_order(
    network: Network,
    schedule: StaticSchedule,
    n_frames: int,
    stimulus: Optional[Stimulus] = None,
    execution_time: ExecutionTimeSpec = None,
    overheads: Optional[OverheadModel] = None,
    *,
    observers: Sequence[ExecutionObserver] = (),
    records_only: bool = False,
    collect_records: bool = True,
    collect_trace: bool = True,
) -> RuntimeResult:
    """One-call convenience wrapper around :class:`MultiprocessorExecutor`."""
    executor = MultiprocessorExecutor(network, schedule, overheads)
    return executor.run(
        n_frames,
        stimulus,
        execution_time,
        observers=observers,
        records_only=records_only,
        collect_records=collect_records,
        collect_trace=collect_trace,
    )
