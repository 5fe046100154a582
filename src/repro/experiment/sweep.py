"""STOMP-style scenario sweeps: cartesian matrices of experiment runs.

A :class:`ScenarioMatrix` is a base :class:`~repro.experiment.scenario.
Scenario` plus named *axes* — scenario fields paired with the values to
sweep (``processors`` × ``jitter_seed`` × ``overheads`` × ``n_frames`` ×
``workload`` × ...).  :func:`run_sweep` executes every cell of the
cartesian product and returns a :class:`SweepResult` table of streaming
:class:`~repro.runtime.observers.MetricsObserver` aggregates.

Two properties make sweeps cheap at scenario scale:

* **Stage-aware reuse** — all cells share one
  :class:`~repro.experiment.experiment.PipelineCache`, so scenarios that
  differ only in *runtime* axes (jitter seeds, overheads, frame counts,
  stimuli, executor flags) share a single task-graph derivation and a
  single scheduling pass per distinct
  ``(workload, wcet, horizon, processors, heuristics)`` key.  The
  :class:`SweepStats` counters surface exactly how many stage computations
  the sweep paid.
* **Streaming execution** — each cell runs with ``collect_records=False`` and
  ``collect_trace=False`` (nothing is retained per instance; the cell's
  :class:`~repro.runtime.observers.MetricsObserver` receives integer-tick
  aggregates once per run, so no job record is built), and when the
  requested metrics are timing derived only, the data phase is skipped
  entirely (``records_only=True`` — no kernels, no channel states).

Rows are deterministic: the same matrix produces bit-identical rows on
every run (exact rational metrics; jitter models are seed-keyed), which is
what makes sweep tables comparable across machines and commits.  The
``workers`` parameter fans the cells out across worker processes — one
worker task per distinct :meth:`~repro.experiment.scenario.Scenario.
schedule_key` group, each with its own cache, scenarios and rows crossing
the process boundary through the exact JSON wire format — and the rows
stay bit-identical to a serial run of the same matrix.

Every backend runs one engine: :func:`_run_cells`
runs cells on a cache and yields one outcome per cell, and
:class:`_SweepBook` books the outcomes (stats, store, row stream, table
assembly).  The serial path drives both in process; a
:class:`~repro.experiment.pool.SweepPool` — resident, or the transient
one ``run_sweep(workers=N)`` opens — runs the engine in its workers per
schedule-key group and books their replies parent-side.

Sweeps are **fault-tolerant**: a failing cell does not abort the table.
By default (``on_error="capture"``) the exception becomes a structured
:class:`SweepCellError` on a *failed row* (``SweepResult.failed_rows``,
counted in ``SweepStats.failed_cells``) and every other cell still runs —
serial and pooled sweeps share these semantics through the same engine.
``KeyboardInterrupt`` returns the partial table computed so far
(``stats.interrupted``).  A checkpoint store
(:mod:`repro.experiment.store`, ``run_sweep(store=...)``) persists each
healthy row under the scenario's content hash, so resuming an interrupted
or partially-failed sweep recomputes only the missing/failed cells
(``stats.store_hits`` / ``store_misses``).  The recovery paths are
deterministically testable via :class:`~repro.experiment.faults.FaultPlan`
(``run_sweep(faults=...)``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..core.platform import Platform
from ..core.timebase import ZERO
from ..errors import ModelError, RuntimeModelError
from ..runtime.executor import RuntimeResult
from ..runtime.overheads import OverheadModel
from ..runtime.observers import ExecutionObserver, MetricsObserver
from .experiment import Experiment, PipelineCache
from .faults import FaultPlan, apply_cell_faults
from .scenario import Scenario
from .store import ScenarioKeys, SweepStore, metrics_key

__all__ = [
    "DATA_METRICS",
    "DEFAULT_METRICS",
    "ScenarioMatrix",
    "SweepCell",
    "SweepCellError",
    "SweepResult",
    "SweepRow",
    "SweepStats",
    "TIMING_METRICS",
    "run_sweep",
    "schedule_key_groups",
    "serial_fallback_reason",
]

#: Metrics computable from timing events alone (``on_record`` stream) —
#: a sweep requesting only these skips the data phase entirely.
TIMING_METRICS: Tuple[str, ...] = (
    "total_jobs",
    "executed_jobs",
    "false_jobs",
    "missed_jobs",
    "worst_lateness",
    "makespan",
    "frame_makespan_max",
    "peak_utilization",
)

#: Metrics that need the data phase's kernel-span / channel-write events.
DATA_METRICS: Tuple[str, ...] = ("kernel_busy", "channel_writes")

DEFAULT_METRICS: Tuple[str, ...] = TIMING_METRICS + DATA_METRICS

_SCENARIO_FIELDS = frozenset(f.name for f in dataclasses.fields(Scenario))


def _extract_metric(m: MetricsObserver, name: str) -> Any:
    if name == "total_jobs":
        return m.total_jobs
    if name == "executed_jobs":
        return m.executed_jobs
    if name == "false_jobs":
        return m.false_jobs
    if name == "missed_jobs":
        return m.missed_jobs
    if name == "worst_lateness":
        return m.worst_lateness
    if name == "makespan":
        return m.makespan
    if name == "frame_makespan_max":
        return max(m.frame_makespans(), default=ZERO)
    if name == "peak_utilization":
        # Exact rational, not float: sweep rows promise bit-identical,
        # JSON-round-trippable metrics (the "$frac" tagged encoding), and
        # busy/horizon are both exact.
        return max(m.processor_utilization_exact(), default=ZERO)
    if name == "kernel_busy":
        return sum(
            (s.total_busy for s in m.kernel_span_stats().values()), ZERO
        )
    if name == "channel_writes":
        return sum(m.channel_write_counts().values())
    raise ModelError(
        f"unknown sweep metric {name!r} — known: "
        f"{', '.join(DEFAULT_METRICS)}"
    )


@dataclass(frozen=True)
class SweepCell:
    """One point of the matrix: its index, axis coordinates and scenario."""

    index: int
    coords: Tuple[Tuple[str, Any], ...]
    scenario: Scenario


class ScenarioMatrix:
    """Cartesian product of axis substitutions over a base scenario.

    *axes* maps scenario field names to non-empty value sequences; cells
    enumerate the product in row-major order (last axis varies fastest),
    with axis order as given.

    Axis values substitute field values **verbatim** — in particular, the
    base scenario's stimulus is *not* resized when ``n_frames`` is an
    axis.  Build the base with a stimulus covering the largest frame
    count swept (the app ``scenario()`` factories take ``n_frames``);
    cells simulating beyond the stimulus horizon see no external data in
    the uncovered frames, which is well-defined FPPN behaviour but rarely
    what a frames-scaling sweep means to measure.  For per-cell stimuli,
    put the stimuli themselves on an axis (``"stimulus": [...]``).
    """

    def __init__(
        self, base: Scenario, axes: Mapping[str, Sequence[Any]]
    ) -> None:
        if not isinstance(base, Scenario):
            raise ModelError("ScenarioMatrix takes a base Scenario")
        self.base = base
        self.axes: Dict[str, Tuple[Any, ...]] = {}
        for name, values in axes.items():
            if name not in _SCENARIO_FIELDS:
                raise ModelError(
                    f"unknown scenario field {name!r} — axes must name "
                    "Scenario fields"
                )
            values = tuple(values)
            if not values:
                raise ModelError(f"axis {name!r} has no values")
            self.axes[name] = values

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def cells(self) -> Iterator[SweepCell]:
        """Every cell of the product, as (index, coords, scenario)."""
        names = list(self.axes)
        if not names:
            yield SweepCell(0, (), self.base)
            return
        for index, combo in enumerate(product(*self.axes.values())):
            coords = tuple(zip(names, combo))
            yield SweepCell(index, coords, self.base.replace(**dict(coords)))

    def scenarios(self) -> List[Scenario]:
        """All cell scenarios, in cell order."""
        return [cell.scenario for cell in self.cells()]


@dataclass
class SweepCellError:
    """Structured record of one failed sweep cell.

    ``error_type`` / ``message`` mirror the captured exception; ``stage``
    names the pipeline stage that raised (``network`` / ``derivation`` /
    ``scheduling`` / ``run`` — attributed by :class:`PipelineCache`);
    ``retries`` counts the group redispatches that preceded the failure
    (always 0 on the serial path, which has no supervisor).
    """

    error_type: str
    message: str
    stage: str = "run"
    retries: int = 0

    def describe(self) -> str:
        return (
            f"{self.error_type}: {self.message} "
            f"(stage={self.stage}, retries={self.retries})"
        )


def _cell_error(exc: BaseException, retries: int = 0) -> SweepCellError:
    """The structured row form of a captured per-cell exception."""
    return SweepCellError(
        error_type=type(exc).__name__,
        message=str(exc),
        stage=getattr(exc, "_pipeline_stage", "run"),
        retries=retries,
    )


@dataclass
class SweepRow:
    """One sweep-table row: the cell's axis values plus its metrics."""

    cell: Dict[str, Any]
    metrics: Dict[str, Any]
    #: Retained only with ``run_sweep(..., keep_results=True)``; excluded
    #: from equality so streaming and retaining sweeps compare by content.
    result: Optional[RuntimeResult] = field(default=None, compare=False)
    #: Set only on failed rows (``SweepResult.failed_rows``); healthy rows
    #: carry ``None``, so equality against pre-fault-capture rows holds.
    error: Optional[SweepCellError] = None


@dataclass
class SweepStats:
    """What the sweep actually computed (the stage-reuse contract).

    ``workers`` is the number of processes that executed cells (1 for the
    serial path).  When ``run_sweep(workers=N)`` had to fall back to the
    serial path, ``parallel_fallback`` documents why.  Parallel sweeps
    merge the per-worker cache counters by summation, so the contract
    becomes *per worker group*: every schedule-key group pays exactly one
    derivation and one scheduling pass (worker caches cannot share
    derivations across processes the way the serial path shares them
    across schedule keys).
    """

    cells: int = 0
    runs: int = 0
    networks_built: int = 0
    derivations_computed: int = 0
    schedules_computed: int = 0
    workers: int = 1
    parallel_fallback: Optional[str] = None
    #: Cells whose failure was captured as an error row (``failed_rows``).
    failed_cells: int = 0
    #: Group redispatches the parallel supervisor performed (crash/timeout
    #: recovery); retried groups re-pay their stage computations, so the
    #: cache counters above count *work done*, not distinct artifacts.
    retries: int = 0
    #: Checkpoint-store traffic (``run_sweep(store=...)``): cells served
    #: from the store vs. cells that had to execute.  Both stay 0 when no
    #: store is passed or the store is read-bypassed (``keep_results`` /
    #: ``observer_factory`` sweeps need live runs).
    store_hits: int = 0
    store_misses: int = 0
    #: True when a ``KeyboardInterrupt`` cut the sweep short — the result
    #: holds every row completed (and drained) before the interrupt.
    interrupted: bool = False
    #: True when the sweep ran on an already-warm resident
    #: :class:`~repro.experiment.pool.SweepPool` (at least one live worker
    #: at submit time — no spawn cost was paid).  Always False on the
    #: serial path and on the transient pool ``run_sweep(workers=N)``
    #: opens.
    pool_reused: bool = False
    #: Schedule-key groups served by a worker's warm ``PipelineCache``
    #: (resident pool only): each such group paid **zero** new
    #: derivations/scheduling passes this sweep.
    warm_group_hits: int = 0
    #: Scenario/stimulus payloads a worker decoded from its content-hash
    #: cache instead of re-parsing JSON (resident pool only).
    payload_cache_hits: int = 0


@dataclass
class SweepResult:
    """The sweep's table: axes, requested metrics, rows and stage stats.

    ``rows`` holds only *healthy* rows (still in cell order), so they stay
    bit-identical to a fault-free run's rows; cells whose execution failed
    land in ``failed_rows`` with a :class:`SweepCellError` attached, and
    cells never reached (interrupted sweeps) appear in neither.
    """

    axes: Dict[str, Tuple[Any, ...]]
    metrics: Tuple[str, ...]
    rows: List[SweepRow]
    stats: SweepStats
    failed_rows: List[SweepRow] = field(default_factory=list)

    def column(self, name: str) -> List[Any]:
        """All values of one metric (or axis) column, in cell order.

        Failed cells are not part of any column — columns align with
        ``rows``, the healthy table.
        """
        if name in self.metrics:
            return [row.metrics[name] for row in self.rows]
        if name in self.axes:
            return [row.cell[name] for row in self.rows]
        raise ModelError(f"unknown sweep column {name!r}")

    def table(self) -> str:
        """Aligned text rendering of the sweep table (plus any failures)."""
        headers = list(self.axes) + list(self.metrics)
        grid = [headers]
        for row in self.rows:
            grid.append(
                [_cell_str(row.cell[a]) for a in self.axes]
                + [_cell_str(row.metrics[m]) for m in self.metrics]
            )
        widths = [max(len(r[i]) for r in grid) for i in range(len(headers))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in grid
        ]
        lines.insert(1, "  ".join("-" * w for w in widths).rstrip())
        if self.failed_rows:
            lines.append("")
            lines.append(f"failed cells ({len(self.failed_rows)}):")
            for row in self.failed_rows:
                coords = ", ".join(
                    f"{name}={_cell_str(v)}" for name, v in row.cell.items()
                )
                lines.append(f"  ! {coords}: {row.error.describe()}")
        if self.stats.interrupted:
            lines.append("")
            lines.append(
                f"interrupted: {len(self.rows)}/{self.stats.cells} cells "
                "completed before KeyboardInterrupt"
            )
        return "\n".join(lines)


def _cell_str(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, Platform):
        return value.describe()
    if isinstance(value, OverheadModel):
        return (
            f"ov({value.first_frame_arrival}/"
            f"{value.steady_frame_arrival}/{value.per_job})"
        )
    return str(value)


def _check_metrics(metrics: Sequence[str]) -> Tuple[Tuple[str, ...], bool]:
    """Validated metric tuple plus whether any metric needs the data phase."""
    metrics = tuple(metrics)
    if not metrics:
        raise ModelError("run_sweep needs at least one metric")
    for name in metrics:
        if name not in DEFAULT_METRICS:
            raise ModelError(
                f"unknown sweep metric {name!r} — known: "
                f"{', '.join(DEFAULT_METRICS)}"
            )
    return metrics, any(name in DATA_METRICS for name in metrics)


def _run_cell(
    cell: SweepCell,
    metrics: Tuple[str, ...],
    want_data: bool,
    *,
    keep_results: bool,
    cache: PipelineCache,
    extra_observers: Sequence[ExecutionObserver] = (),
) -> Tuple[Dict[str, Any], Optional[RuntimeResult]]:
    """Execute one cell; called only by :func:`_run_cells`.

    Returns the row's metric values plus the retained result (``None``
    unless *keep_results*).  Keeping this the only place a cell is
    configured and executed is what makes pooled rows bit-identical to
    serial rows by construction.
    """
    scenario = cell.scenario
    # Per-record aggregates the table does not ask for are switched
    # off: on_record fires per job instance, and each aggregate is
    # exact-rational arithmetic.  (Responses are not a sweep metric.)
    observer = MetricsObserver(
        track_responses=False,
        track_utilization="peak_utilization" in metrics,
        track_frame_spans="frame_makespan_max" in metrics,
    )
    observers: List[ExecutionObserver] = [observer, *extra_observers]
    # Extra observers that consume data-phase events keep the data
    # phase alive even when the table's metrics alone would allow
    # records_only — they attach live and must see their events.
    cell_wants_data = want_data or any(
        ob.consumes_data for ob in extra_observers
    )
    if keep_results:
        # Retained rows must be usable post-hoc (replay, observables,
        # record-derived metrics), so record collection is forced on even
        # when the base scenario itself suppresses records — retaining a
        # record-suppressed result would hand back rows whose result
        # cannot report anything.
        run_scenario = (
            scenario if scenario.collect_records
            else scenario.replace(collect_records=True)
        )
    else:
        run_scenario = scenario.replace(
            records_only=scenario.records_only or not cell_wants_data,
            collect_records=False,
            collect_trace=False,
        )
    experiment = Experiment(run_scenario, cache=cache)
    result = experiment.run(observers=observers)
    return (
        {n: _extract_metric(observer, n) for n in metrics},
        result if keep_results else None,
    )


@dataclass
class _CellOutcome:
    """What running one cell produced: metrics (+ result) or an error.

    ``stages`` is the ``(networks, derivations, schedules)`` the cell's
    run added to its cache — the cell's share of the stage counters.
    """

    cell: SweepCell
    metrics: Optional[Dict[str, Any]] = None
    result: Optional[RuntimeResult] = None
    error: Optional[SweepCellError] = None
    stages: Tuple[int, int, int] = (0, 0, 0)


def _stage_counts(cache: PipelineCache) -> Tuple[int, int, int]:
    return (
        cache.networks_built,
        cache.derivations_computed,
        cache.schedules_computed,
    )


def _run_cells(
    cells: Sequence[SweepCell],
    metrics: Tuple[str, ...],
    want_data: bool,
    *,
    cache: PipelineCache,
    keep_results: bool = False,
    observer_factory: Optional[
        Callable[[SweepCell], Sequence[ExecutionObserver]]
    ] = None,
    faults: Optional[FaultPlan] = None,
    in_worker: bool = False,
    retries: int = 0,
    raise_errors: bool = False,
) -> Iterator[_CellOutcome]:
    """The sweep engine: run *cells* in order on *cache*, one outcome each.

    A serial sweep calls it once over the whole matrix; a pool worker
    calls it per schedule-key group on its warm cache.  *faults* fire
    before each cell; a raising cell becomes an error outcome (carrying
    *retries*) unless *raise_errors*, and the rest still run.
    ``KeyboardInterrupt`` is never captured.
    """
    # A warm cache outlives its runs: keep only the jitter samplers these
    # cells draw from, or a stream of fresh seeds grows it without bound.
    cache.retain_samplers(cell.scenario for cell in cells)
    for cell in cells:
        before = _stage_counts(cache)
        try:
            apply_cell_faults(faults, cell.index, in_worker=in_worker)
            extra = (
                observer_factory(cell) if observer_factory is not None else ()
            )
            cell_metrics, result = _run_cell(
                cell, metrics, want_data,
                keep_results=keep_results, cache=cache,
                extra_observers=extra,
            )
        except Exception as exc:
            if raise_errors:
                raise
            outcome = _CellOutcome(cell, error=_cell_error(exc, retries))
        else:
            outcome = _CellOutcome(cell, cell_metrics, result)
        outcome.stages = tuple(
            now - then for now, then in zip(_stage_counts(cache), before)
        )
        yield outcome


class _SweepBook:
    """Parent-side bookkeeping of one sweep, on every backend.

    A serial sweep and each pool submission own one.  It resolves
    checkpoint-store hits once, up front (:meth:`resolve_hits`), books
    each cell outcome as it arrives (:meth:`book`: stats, store
    persistence, ``on_row`` streaming) and assembles the table in cell
    order (:meth:`result`).
    """

    def __init__(
        self,
        axes: Dict[str, Tuple[Any, ...]],
        cells: List[SweepCell],
        metrics: Tuple[str, ...],
        want_data: bool,
        stats: SweepStats,
        *,
        store: Optional[SweepStore] = None,
        read_store: bool = True,
        on_row: Optional[Callable[[SweepRow], None]] = None,
    ) -> None:
        # Misconfiguration (records_only base vs data metrics) raises up
        # front, before any cell runs — it is not a per-cell failure.
        for cell in cells if want_data else ():
            if cell.scenario.records_only:
                raise RuntimeModelError(
                    f"cell {dict(cell.coords)!r} is records_only but the "
                    "sweep requests data metrics ("
                    f"{', '.join(n for n in metrics if n in DATA_METRICS)}"
                    ") — drop them or clear records_only"
                )
        self.axes = axes
        self.cells = cells
        self.metrics = metrics
        self.stats = stats
        self.store = store
        self.read_store = read_store
        self.on_row = on_row
        self._mkey = metrics_key(metrics) if store is not None else ""
        #: Content keys of this sweep's scenarios (each stimulus encoded
        #: once); a pool submission also hashes its payloads with them.
        self.keys = ScenarioKeys()
        self._skeys: Dict[int, str] = {}
        self._rows: Dict[int, SweepRow] = {}
        self._errors: Dict[int, SweepCellError] = {}

    def resolve_hits(self) -> List[SweepCell]:
        """Serve stored cells now; return the cells left to compute.

        Every cell is looked up exactly once, here, before anything
        runs — so a cell repeated within one matrix is a miss (and runs)
        on every backend.
        """
        if self.store is None:
            return self.cells
        stats = self.stats
        todo: List[SweepCell] = []
        for cell in self.cells:
            skey = self.keys.store_key(cell.scenario)
            if skey is not None:
                self._skeys[cell.index] = skey
                if self.read_store:
                    stored = self.store.get(skey, self._mkey)
                    if stored is not None:
                        stats.store_hits += 1
                        # Stores keep rows in their own key order; a hit
                        # row lists metrics in the requested order, as a
                        # computed row does.
                        self._add_row(
                            cell, {name: stored[name] for name in self.metrics}
                        )
                        continue
                    stats.store_misses += 1
            todo.append(cell)
        return todo

    def book(self, outcome: _CellOutcome) -> None:
        """Fold one cell outcome into the sweep.

        Bookkeeping completes before user code (``store.put``, then
        ``on_row``) runs, so a raising store or sink surfaces to the
        caller without losing the row.
        """
        stats = self.stats
        networks, derivations, schedules = outcome.stages
        stats.networks_built += networks
        stats.derivations_computed += derivations
        stats.schedules_computed += schedules
        index = outcome.cell.index
        if outcome.error is not None:
            self._errors[index] = outcome.error
            stats.failed_cells += 1
            return
        stats.runs += 1
        self._add_row(
            outcome.cell, outcome.metrics, outcome.result,
            self._skeys.get(index),
        )

    def _add_row(
        self, cell: SweepCell, metrics: Dict[str, Any],
        result: Optional[RuntimeResult] = None, skey: Optional[str] = None,
    ) -> None:
        row = SweepRow(cell=dict(cell.coords), metrics=metrics, result=result)
        self._rows[cell.index] = row
        if skey is not None:
            self.store.put(skey, self._mkey, metrics)
        if self.on_row is not None:
            self.on_row(row)

    def result(self) -> SweepResult:
        """The table so far, in cell order (partial if interrupted)."""
        rows: List[SweepRow] = []
        failed_rows: List[SweepRow] = []
        for cell in self.cells:
            index = cell.index
            if index in self._rows:
                rows.append(self._rows[index])
            elif index in self._errors:
                failed_rows.append(SweepRow(
                    cell=dict(cell.coords), metrics={},
                    error=self._errors[index],
                ))
        return SweepResult(
            axes=self.axes, metrics=self.metrics, rows=rows,
            stats=self.stats, failed_rows=failed_rows,
        )


def _group_cells(cells: Iterable[SweepCell]) -> Dict[Any, List[SweepCell]]:
    groups: Dict[Any, List[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(cell.scenario.schedule_key(), []).append(cell)
    return groups


def _dispatch_plan(
    cells: Sequence[SweepCell],
    *,
    keep_results: bool = False,
    observer_factory: Optional[
        Callable[[SweepCell], Sequence[ExecutionObserver]]
    ] = None,
    cache: Optional[PipelineCache] = None,
    min_groups: int = 2,
) -> Union[str, Dict[Any, List[SweepCell]]]:
    """Why *cells* cannot fan out, or their schedule-key groups.

    Returns the serial-fallback reason, or the cells grouped by schedule
    key in first-seen order.  One group is the unit of dispatch *and* of
    stage reuse: its cells share one derivation and one schedule.
    Sweeps attaching live observers or retaining results need in-process
    objects; a caller-shared cache cannot cross processes; scenarios
    embedding code a fresh worker could not reconstruct are refused per
    cell; and fewer than *min_groups* groups have nothing to fan out.
    """
    if observer_factory is not None:
        return (
            "observer_factory attaches live in-process observers, which "
            "cannot be shipped to worker processes"
        )
    if keep_results:
        return (
            "keep_results retains full RuntimeResult objects, which are "
            "not serialised across the process boundary"
        )
    if cache is not None:
        return (
            "a caller-shared PipelineCache cannot be shared with worker "
            "processes — drop it to fan out"
        )
    for cell in cells:
        # The *cells* are what gets dispatched, so they are the authority
        # — the base scenario may carry code an axis substitutes away.
        blocker = cell.scenario.dispatch_blocker()
        if blocker is not None:
            return f"scenario is not dispatchable: {blocker}"
    groups = _group_cells(cells)
    if len(groups) < min_groups:
        return (
            "matrix has a single schedule-key group — nothing to fan out "
            "(parallelism is per distinct schedule key)"
        )
    return groups


def schedule_key_groups(matrix: ScenarioMatrix) -> List[List[SweepCell]]:
    """The matrix's cells grouped by schedule key, in first-seen order."""
    return list(_group_cells(matrix.cells()).values())


def serial_fallback_reason(
    matrix: ScenarioMatrix,
    *,
    keep_results: bool = False,
    observer_factory: Optional[
        Callable[[SweepCell], Sequence[ExecutionObserver]]
    ] = None,
    cache: Optional[PipelineCache] = None,
) -> Optional[str]:
    """Why this sweep must run serially, or ``None`` if it can fan out.

    The returned string is stored verbatim in
    ``SweepStats.parallel_fallback`` so a ``workers > 1`` caller can see
    which rule demoted the sweep.
    """
    plan = _dispatch_plan(
        list(matrix.cells()),
        keep_results=keep_results,
        observer_factory=observer_factory,
        cache=cache,
    )
    return plan if isinstance(plan, str) else None


def run_sweep(
    matrix: ScenarioMatrix,
    metrics: Sequence[str] = DEFAULT_METRICS,
    *,
    keep_results: bool = False,
    observer_factory: Optional[
        Callable[[SweepCell], Sequence[ExecutionObserver]]
    ] = None,
    cache: Optional[PipelineCache] = None,
    workers: int = 1,
    store: Optional[SweepStore] = None,
    faults: Optional[FaultPlan] = None,
    on_error: str = "capture",
    group_timeout: Optional[float] = None,
    max_retries: int = 2,
    retry_backoff: float = 0.25,
    on_row: Optional[Callable[[SweepRow], None]] = None,
    on_progress: Optional[Callable[[Any], None]] = None,
) -> SweepResult:
    """Execute every cell of *matrix* and tabulate the requested *metrics*.

    Parameters
    ----------
    metrics:
        Row columns, drawn from :data:`TIMING_METRICS` and
        :data:`DATA_METRICS`.  Cells run with ``collect_records=False`` /
        ``collect_trace=False`` (observer-streaming only; nothing retained
        per instance), and when no data metric is requested they run
        ``records_only`` (the data phase — kernels, channel states — is
        skipped entirely).
    keep_results:
        Retain every cell's full :class:`RuntimeResult` on its row.
        Record collection is forced on for the retained runs (a base
        scenario with ``collect_records=False`` would otherwise retain
        record-suppressed, unusable results); the other executor flags
        stay as the scenario says.
    observer_factory:
        Optional per-cell extra observers, attached live to that cell's
        run (e.g. exporters or dashboards fed by the same event streams).
    cache:
        Stage cache to (re)use; by default every sweep gets a fresh one.
        Pass a shared cache to chain sweeps over the same workloads.
    workers:
        Maximum number of worker processes; the default 1 runs serially
        in-process.  ``workers > 1`` partitions the cells into
        schedule-key groups and dispatches them to the spawned workers
        of a transient :class:`~repro.experiment.pool.SweepPool`
        (see :func:`serial_fallback_reason`), falling back to the serial
        path — with the reason recorded in
        :attr:`SweepStats.parallel_fallback` — when the sweep cannot be
        dispatched (an ``observer_factory`` or ``keep_results`` sweep,
        non-serialisable scenarios, a shared ``cache``, or a single
        schedule-key group).
    store:
        Optional checkpoint store (:mod:`repro.experiment.store`).  Cells
        whose ``(scenario_hash, metrics)`` key the store already holds are
        served from it (``stats.store_hits``) instead of executing; every
        freshly-computed healthy row is persisted.  Hits are resolved
        once, before any cell runs, with the same rule on every backend:
        a cell repeated within one matrix is a miss on each copy (both
        run; ``store_misses`` counts both).  Store *reads* are
        bypassed for ``keep_results`` / ``observer_factory`` sweeps, which
        need live runs (writes still happen), and for scenarios without a
        content key (code-bearing workloads/WCETs).
    faults:
        Optional deterministic :class:`~repro.experiment.faults.FaultPlan`
        for testing the recovery paths; fires only for cells that actually
        execute (store hits never fault).
    on_error:
        ``"capture"`` (default) turns a failing cell into an error row on
        :attr:`SweepResult.failed_rows` and keeps sweeping; ``"raise"``
        restores abort-on-first-failure (the serial path re-raises the
        cell's exception, the parallel path raises
        :class:`~repro.errors.SweepError` naming the first failed cell).
    group_timeout:
        Per-group deadline in seconds for the parallel supervisor: a
        dispatched group that does not reply in time is terminated and
        retried (workers are pre-booted when deadlines are active, so the
        deadline measures group runtime, not process spawn).  ``None``
        (default) disables deadlines.  Serial sweeps ignore it (nothing
        to terminate in-process).
    max_retries:
        How many times the parallel supervisor redispatches a group after
        a worker crash or timeout before degrading it to error rows.
    retry_backoff:
        Base seconds of the exponential backoff between a group's
        redispatches (``retry_backoff * 2**retries_so_far``).
    on_row:
        Optional per-cell row stream: called with each *healthy*
        :class:`SweepRow` as it completes (store hits included), before
        the assembled result returns — the same contract as
        :meth:`SweepPool.submit`'s ``on_row``, so live sinks
        (:class:`~repro.runtime.telemetry.ProgressObserver`) work on
        both paths.  The callback is user code and *is* part of the
        sweep: an exception it raises surfaces to the caller (after
        the parallel backend's bookkeeping completes).
    on_progress:
        Optional milestone stream for the parallel backend
        (:class:`~repro.experiment.pool.PoolEvent` values: enqueue,
        dispatch, group completion, retries).  Delivery is best-effort
        — exceptions are swallowed — and the serial path emits nothing
        (there are no groups or dispatches to report).
    """
    metrics, want_data = _check_metrics(metrics)
    if workers < 1:
        raise ModelError("workers must be >= 1")
    if on_error not in ("capture", "raise"):
        raise ModelError(
            f"on_error must be 'capture' or 'raise', got {on_error!r}"
        )
    if max_retries < 0:
        raise ModelError("max_retries must be >= 0")
    if retry_backoff < 0:
        raise ModelError("retry_backoff must be >= 0")

    cells = list(matrix.cells())
    plan = None
    fallback: Optional[str] = None
    if workers > 1:
        plan = _dispatch_plan(
            cells,
            keep_results=keep_results,
            observer_factory=observer_factory,
            cache=cache,
        )
        if isinstance(plan, str):
            fallback, plan = plan, None
    # Store reads are bypassed when the caller needs live runs (retained
    # results, live observers); freshly-computed rows are still persisted.
    book = _SweepBook(
        dict(matrix.axes), cells, metrics, want_data,
        SweepStats(cells=len(cells), parallel_fallback=fallback),
        store=store,
        read_store=not keep_results and observer_factory is None,
        on_row=on_row,
    )
    if plan is not None:
        from .pool import SweepPool

        with SweepPool(
            workers=workers,
            group_timeout=group_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        ) as pool:
            return pool._enqueue(
                book, plan, on_error, on_progress, faults=faults
            ).result()

    runner = _run_cells(
        book.resolve_hits(), metrics, want_data,
        cache=cache if cache is not None else PipelineCache(),
        keep_results=keep_results,
        observer_factory=observer_factory,
        faults=faults,
        raise_errors=on_error == "raise",
    )
    try:
        for outcome in runner:
            book.book(outcome)
    except KeyboardInterrupt:
        book.stats.interrupted = True
    return book.result()
