"""Experiment: a lazy, caching facade over the paper's full pipeline.

One :class:`Experiment` wraps one :class:`~repro.experiment.scenario.
Scenario` and exposes the pipeline stages as memoised accessors::

    exp = Experiment(scenario)
    exp.network()        # workload factory, built once
    exp.task_graph()     # Section III-A derivation
    exp.schedule()       # Section III-B list scheduling (portfolio)
    exp.run()            # Section IV online static-order execution
    exp.reference()      # Section II-B zero-delay reference semantics
    exp.check_determinism()   # Prop. 2.1 / 4.1 matrix
    exp.report()         # paper-style text report

Each stage is computed on first access and cached; observers
(:class:`~repro.runtime.observers.ExecutionObserver`) can be attached to
:meth:`Experiment.run`, and a cached run is *replayed* into late-attached
observers rather than recomputed whenever the stored result allows it.

Experiments can share a :class:`PipelineCache`: the sweep runner
(:mod:`repro.experiment.sweep`) hands every cell the same cache, so
scenarios that differ only in runtime axes (jitter seed, overheads, frame
count, stimulus) reuse one derivation and one schedule.  The cache counts
its stage computations — that count is the contract the sweep tests pin.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from ..analysis.determinism import DeterminismReport, determinism_matrix
from ..analysis.report import ExperimentReport
from ..core.network import Network
from ..core.semantics import ExecutionResult, run_zero_delay
from ..errors import RuntimeModelError
from ..runtime.executor import ExecutionTimeSpec, RuntimeResult, run_static_order
from ..runtime.observers import (
    ExecutionObserver,
    MetricsObserver,
    replay,
)
from ..scheduling.optimizer import DEFAULT_PORTFOLIO, find_feasible_schedule
from ..scheduling.schedule import StaticSchedule
from ..taskgraph.derivation import derive_task_graph
from ..taskgraph.graph import TaskGraph
from ..taskgraph.load import task_graph_load
from .scenario import Scenario

__all__ = ["Experiment", "PipelineCache"]


@contextmanager
def _stage(name: str) -> Any:
    """Attribute exceptions escaping a pipeline stage to that stage.

    The sweep's error capture reads ``exc._pipeline_stage`` to fill
    :attr:`~repro.experiment.sweep.SweepCellError.stage`.  Tag-if-absent:
    when stages nest (``schedule`` → ``task_graph`` → ``network``) the
    innermost stage that raised wins.
    """
    try:
        yield
    except Exception as exc:
        if not hasattr(exc, "_pipeline_stage"):
            try:
                exc._pipeline_stage = name
            except AttributeError:
                pass  # exceptions with __slots__ stay stage "run"
        raise


class PipelineCache:
    """Stage artifacts shared across experiments, keyed by scenario stage keys.

    Networks, task graphs and schedules are cached by
    :meth:`Scenario.workload_key` / :meth:`Scenario.derivation_key` /
    :meth:`Scenario.schedule_key` respectively.  The ``*_computed``
    counters record how many times each stage actually ran — the sweep
    tests assert exactly one derivation and one scheduling pass per
    distinct key, which is the whole point of sharing the cache — and
    ``data_phases`` how many runs executed kernels.  Jitter samplers and
    the channel-write memo (:meth:`channel_writes`) die with the cache,
    or sooner (:meth:`retain`).
    """

    def __init__(self) -> None:
        self._networks: Dict[Any, Network] = {}
        self._graphs: Dict[Any, TaskGraph] = {}
        self._schedules: Dict[Any, StaticSchedule] = {}
        self._samplers: Dict[Tuple[int, float], ExecutionTimeSpec] = {}
        #: Data key -> (the stimulus, per-channel write counts); see
        #: :meth:`channel_writes`.
        self._writes: Dict[Tuple[int, ...], Tuple[Any, Dict[str, int]]] = {}
        self.networks_built = 0
        self.derivations_computed = 0
        self.schedules_computed = 0
        self.data_phases = 0

    def network(self, scenario: Scenario) -> Network:
        key = scenario.workload_key()
        net = self._networks.get(key)
        if net is None:
            with _stage("network"):
                net = self._networks[key] = scenario.build_network()
            self.networks_built += 1
        return net

    def task_graph(self, scenario: Scenario) -> TaskGraph:
        key = scenario.derivation_key()
        graph = self._graphs.get(key)
        if graph is None:
            with _stage("derivation"):
                graph = derive_task_graph(
                    self.network(scenario),
                    scenario.wcet_spec(),
                    horizon=scenario.horizon,
                )
            self._graphs[key] = graph
            self.derivations_computed += 1
        return graph

    def schedule(self, scenario: Scenario) -> StaticSchedule:
        key = scenario.schedule_key()
        schedule = self._schedules.get(key)
        if schedule is None:
            with _stage("scheduling"):
                schedule = find_feasible_schedule(
                    self.task_graph(scenario),
                    scenario.scheduling_target(),
                    scenario.heuristics or DEFAULT_PORTFOLIO,
                )
            self._schedules[key] = schedule
            self.schedules_computed += 1
        return schedule

    def execution_model(self, scenario: Scenario) -> ExecutionTimeSpec:
        """:meth:`Scenario.execution_model`, one jitter sampler per seed.

        Draws depend only on ``(seed, process, k, frame)``, so sharing a
        sampler is invisible in the rows: cells varying overheads,
        processors, platforms or frames under one seed read its draw rows.
        """
        if scenario.jitter_seed is None:
            return scenario.execution_model()
        key = (scenario.jitter_seed, scenario.jitter_low)
        sampler = self._samplers.get(key)
        if sampler is None:
            sampler = self._samplers[key] = scenario.execution_model()
        return sampler

    def run(
        self, scenario: Scenario, observers: Sequence[ExecutionObserver],
        *, records_only: bool, collect_records: bool, collect_trace: bool,
    ) -> RuntimeResult:
        """Run *scenario* on its cached stages under explicit run flags;
        a run with a data phase counts in ``data_phases``."""
        if not records_only:
            self.data_phases += 1
        return run_static_order(
            self.network(scenario), self.schedule(scenario),
            scenario.n_frames, scenario.stimulus,
            self.execution_model(scenario), scenario.overheads,
            observers=observers, records_only=records_only,
            collect_records=collect_records, collect_trace=collect_trace,
        )

    def _data_key(self, scenario: Scenario) -> Tuple[int, ...]:
        # The network and graph live as long as the cache; the stimulus
        # is held by the memo entry, so no id here is reused while keyed.
        return (
            id(self.network(scenario)), id(self.task_graph(scenario)),
            id(scenario.stimulus), scenario.n_frames,
        )

    def channel_writes(self, scenario: Scenario) -> Optional[Dict[str, int]]:
        """The per-channel write counts of *scenario*'s data key, if known.

        By Prop. 2.1 the channel values of a run whose frames do not
        overlap depend only on the network, its job set (the task graph)
        and the stimulus's samples and time stamps over ``n_frames``
        frames — not on the schedule, platform, execution times or
        overheads.  So cells sharing those share one data phase; the
        sweep engine fills the memo (:meth:`keep_channel_writes`) and
        reads it only for runs that pass its frame-overlap guard.
        """
        entry = self._writes.get(self._data_key(scenario))
        return None if entry is None else entry[1]

    def keep_channel_writes(
        self, scenario: Scenario, counts: Dict[str, int]
    ) -> None:
        """Memoise *counts* for *scenario*'s data key."""
        self._writes[self._data_key(scenario)] = (scenario.stimulus, counts)

    def retain(self, scenarios: Iterable[Scenario]) -> None:
        """Forget the jitter samplers no scenario of *scenarios* draws
        from, and the channel-write counts of stimuli none of them uses."""
        scenarios = list(scenarios)
        keep = {(s.jitter_seed, s.jitter_low) for s in scenarios}
        self._samplers = {
            key: sampler for key, sampler in self._samplers.items()
            if key in keep
        }
        stimuli = {id(s.stimulus) for s in scenarios}
        self._writes = {
            key: entry for key, entry in self._writes.items()
            if id(entry[0]) in stimuli
        }


class Experiment:
    """Lazy pipeline facade for one scenario (optionally cache-sharing)."""

    def __init__(
        self, scenario: Scenario, cache: Optional[PipelineCache] = None
    ) -> None:
        if not isinstance(scenario, Scenario):
            raise RuntimeModelError("Experiment takes a Scenario")
        self.scenario = scenario
        self.cache = cache if cache is not None else PipelineCache()
        self._result: Optional[RuntimeResult] = None
        self._reference: Optional[ExecutionResult] = None
        self._metrics: Optional[MetricsObserver] = None

    # -- pipeline stages ------------------------------------------------
    def network(self) -> Network:
        """The workload's network (built once per cache)."""
        return self.cache.network(self.scenario)

    def task_graph(self) -> TaskGraph:
        """The derived task graph (Section III-A, cached)."""
        return self.cache.task_graph(self.scenario)

    def schedule(self) -> StaticSchedule:
        """A feasible static schedule (Section III-B, cached)."""
        return self.cache.schedule(self.scenario)

    def run(
        self,
        *,
        observers: Sequence[ExecutionObserver] = (),
        force: bool = False,
    ) -> RuntimeResult:
        """Simulate the online static-order policy (Section IV, cached).

        The first call executes the scenario and caches the result; later
        calls return the cache.  *observers* attach live on the first (or a
        ``force=True``) execution; on a cached result they are fed through
        :func:`~repro.runtime.observers.replay` instead.  When ``replay``
        refuses the stored result for these observers (records suppressed,
        or a data consumer on a trace-suppressed result), it does so before
        any hook fires, and the scenario is executed afresh with them.
        """
        if self._result is not None and not force:
            if observers:
                try:
                    replay(self._result, *observers)
                except RuntimeModelError:
                    return self._execute(observers)
            return self._result
        return self._execute(observers)

    def _execute(self, observers: Sequence[ExecutionObserver]) -> RuntimeResult:
        s = self.scenario
        # A fresh execution replaces the cached result, so a previously
        # built metrics observer would keep reporting the discarded run:
        # invalidate it here (the only place the result is replaced).
        self._metrics = None
        self._result = self.cache.run(
            s, observers, records_only=s.records_only,
            collect_records=s.collect_records, collect_trace=s.collect_trace,
        )
        return self._result

    def metrics(self) -> MetricsObserver:
        """A :class:`MetricsObserver` that has seen this experiment's run."""
        if self._metrics is None:
            m = MetricsObserver()
            self.run(observers=[m])
            self._metrics = m
        return self._metrics

    def reference(self) -> ExecutionResult:
        """The zero-delay reference over the same horizon (cached)."""
        if self._reference is None:
            horizon = self.task_graph().hyperperiod * self.scenario.n_frames
            self._reference = run_zero_delay(
                self.network(), horizon, self.scenario.stimulus
            )
        return self._reference

    def check_determinism(self, **overrides: Any) -> DeterminismReport:
        """Run the Prop. 2.1 determinism matrix for this scenario.

        The scenario supplies network, task graph (the cached derivation),
        frames, stimulus and overheads; matrix parameters
        (``processor_counts``, ``heuristics``, ``jitter_seeds``) default
        to the checker's own and can be overridden by keyword.  A scenario
        with a platform checks on that platform by default: its WCET
        tables may name no class of the checker's homogeneous ``cpu``.
        """
        s = self.scenario
        overrides.setdefault("overheads", s.overheads)
        if s.platform is not None:
            overrides.setdefault("processor_counts", (s.platform,))
        return determinism_matrix(
            self.network(), self.task_graph(), s.n_frames, s.stimulus,
            **overrides,
        )

    # -- reporting ------------------------------------------------------
    def report(self) -> ExperimentReport:
        """Paper-style summary of every stage this experiment ran."""
        s = self.scenario
        graph = self.task_graph()
        load = task_graph_load(graph)
        metrics = self.metrics()
        summary = metrics.miss_summary()
        rep = ExperimentReport(
            experiment=s.label or s.describe(), artifact="scenario"
        )
        rep.add("jobs / frame", "-", len(graph))
        rep.add("precedence edges", "-", graph.edge_count)
        rep.add("hyperperiod [ms]", "-", graph.hyperperiod)
        rep.add("load", "-", f"{float(load.load):.3f}")
        rep.add("processors", f">= {load.min_processors}", s.processors)
        if s.platform is not None and not s.platform.is_unit:
            rep.add("platform", "-", s.platform.describe())
        rep.add("frames simulated", "-", s.n_frames)
        rep.add("jobs executed", "-", summary.executed_jobs)
        rep.add("deadline misses", "-", summary.missed_jobs)
        rep.add("makespan [ms]", "-", metrics.makespan)
        return rep
