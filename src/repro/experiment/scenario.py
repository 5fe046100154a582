"""Scenario: a frozen, serialisable description of one experiment run.

The paper's pipeline — FPPN → task-graph derivation → list scheduling →
online static-order execution → determinism check — takes half a dozen
inputs (network, WCETs, processor count, execution-time model, overheads,
stimulus, frame count, executor flags) that every app, test and benchmark
used to thread by hand.  A :class:`Scenario` captures all of them in one
immutable value object:

* **comparable** — scenarios are plain frozen dataclasses, so sweep cells
  and regression fixtures can be compared with ``==``;
* **serialisable** — :func:`repro.io.json_io.scenario_to_dict` round-trips
  every field (rational times as ``"num/den"`` strings) for scenarios whose
  workload is a *registered name* rather than a bare callable;
* **stage-keyed** — :meth:`Scenario.derivation_key` and
  :meth:`Scenario.schedule_key` identify which pipeline stages two
  scenarios share, which is what lets the sweep runner
  (:mod:`repro.experiment.sweep`) derive and schedule once per distinct
  ``(workload, wcet, horizon[, processors, heuristics])`` combination and
  reuse the artifacts across every runtime-only variation (jitter seeds,
  overheads, frame counts, stimuli).

Workloads are named through a registry: the application modules in
:mod:`repro.apps` register ``"fig1"``, ``"fft"``, ``"fms"`` and
``"fms-40s"`` at import, and :func:`resolve_workload` imports them lazily
on first use, so deserialised scenarios find their factories without the
experiment layer depending on the apps layer.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.platform import PlatformLike, as_platform
from ..core.timebase import Time, TimeLike, as_positive_time, as_time
from ..errors import ModelError
from ..runtime.executor import ExecutionTimeSpec, jittered_execution
from ..runtime.overheads import OverheadModel
from ..taskgraph.jobs import normalize_wcet_table

__all__ = [
    "Scenario",
    "available_workloads",
    "register_workload",
    "resolve_workload",
]

WorkloadSpec = Union[str, Callable[[], Network]]

# ---------------------------------------------------------------------------
# workload registry
# ---------------------------------------------------------------------------
_WORKLOADS: Dict[str, Callable[[], Network]] = {}
_apps_loaded = False


def register_workload(name: str, factory: Callable[[], Network]) -> None:
    """Register a named network factory for use in scenarios.

    Registered names are what makes a scenario JSON-serialisable; the
    factory must be a zero-argument callable returning a validated
    :class:`~repro.core.network.Network`.  Re-registering a name replaces
    the previous factory (apps re-imported under test runners do this).
    """
    if not isinstance(name, str) or not name:
        raise ModelError("workload name must be a non-empty string")
    if not callable(factory):
        raise ModelError(f"workload factory for {name!r} must be callable")
    _WORKLOADS[name] = factory


def available_workloads() -> Tuple[str, ...]:
    """Sorted names of all registered workloads (apps are loaded first)."""
    _ensure_apps_loaded()
    return tuple(sorted(_WORKLOADS))


def _import_apps() -> None:
    from .. import apps  # noqa: F401  (import for registration side effect)


def _ensure_apps_loaded() -> None:
    # The paper's case studies register themselves at import.  Importing
    # them lazily (and only when a *name* needs resolving) keeps the
    # experiment layer free of an apps dependency while letting
    # deserialised scenarios find "fig1"/"fft"/"fms" without ceremony.
    # A dedicated flag, not a registry-emptiness check: user registrations
    # made before the first lookup must not suppress the built-in names.
    # The flag is set only *after* the import succeeds: a failed apps
    # import must surface its real cause (and be retried on the next
    # lookup), not leave every later name resolving to "unknown workload".
    global _apps_loaded
    if not _apps_loaded:
        _import_apps()
        _apps_loaded = True


def resolve_workload(spec: WorkloadSpec) -> Callable[[], Network]:
    """The network factory behind *spec* (a registered name or a callable)."""
    if callable(spec):
        return spec
    _ensure_apps_loaded()
    factory = _WORKLOADS.get(spec)
    if factory is None:
        raise ModelError(
            f"unknown workload {spec!r} — registered: "
            f"{', '.join(sorted(_WORKLOADS)) or '(none)'}; use "
            "register_workload() or pass a network factory callable"
        )
    return factory


# ---------------------------------------------------------------------------
# normalisation helpers
# ---------------------------------------------------------------------------
def _require_int(name: str, value: Any) -> None:
    """Refuse a non-``int`` field value; ``bool`` counts as non-``int``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ModelError(f"{name} must be an int, got {value!r}")


def _is_normalized_pairs(value: Any) -> bool:
    """True for the canonical tuple-of-(name, value)-pairs form.

    Normalisers must be idempotent: :meth:`Scenario.replace` (and
    ``dataclasses.replace`` generally) re-runs ``__post_init__`` on
    already-normalised field values.
    """
    return isinstance(value, tuple) and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in value
    )


def _normalize_wcet_value(name: str, value: Any) -> Any:
    """One wcet-map entry: callable, per-class table, or Time scalar."""
    if callable(value):
        return value
    if isinstance(value, Mapping) or _is_normalized_pairs(value):
        return normalize_wcet_table(value, f"WCET of {name!r}")
    return as_time(value)


def _normalize_wcet(wcet: Any) -> Any:
    """Canonical immutable form: Time scalar, or sorted (name, value) pairs."""
    if _is_normalized_pairs(wcet):
        return wcet
    if isinstance(wcet, Mapping):
        return tuple(
            sorted(
                (name, _normalize_wcet_value(name, value))
                for name, value in wcet.items()
            )
        )
    if callable(wcet):
        raise ModelError(
            "a bare callable is not a valid wcet — use a mapping "
            "{process: callable} for per-job WCET models"
        )
    return as_time(wcet)


def _normalize_table(
    table: Optional[Mapping[str, TimeLike]], what: str
) -> Optional[Tuple[Tuple[str, Time], ...]]:
    if table is None or _is_normalized_pairs(table):
        return table
    if not isinstance(table, Mapping):
        raise ModelError(f"{what} must be a mapping of process name -> time")
    return tuple(sorted((name, as_time(v)) for name, v in table.items()))


# ---------------------------------------------------------------------------
# the scenario itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """Frozen description of one full pipeline run.

    Parameters
    ----------
    workload:
        A registered workload name (serialisable — see
        :func:`register_workload`) or a zero-argument network factory.
    wcet:
        Uniform WCET, or mapping ``process -> time | (process, k) -> time``
        (exactly what :func:`~repro.taskgraph.derivation.derive_task_graph`
        accepts).  Normalised to an immutable canonical form.
    processors:
        Processor count handed to the list scheduler.  Derived from
        *platform* when one is given (the two always agree).
    platform:
        Optional heterogeneous :class:`~repro.core.platform.Platform`
        (or anything :func:`~repro.core.platform.as_platform` accepts).
        When set, scheduling and execution resolve per-class WCETs on it
        and *processors* is forced to its total core count.  ``None``
        (the default) keeps the classic homogeneous path.
    n_frames:
        Number of hyperperiod frames the runtime simulates.
    horizon:
        Optional explicit frame length for derivation (defaults to the
        hyperperiod).
    heuristics:
        SP-heuristic portfolio for
        :func:`~repro.scheduling.optimizer.find_feasible_schedule`;
        ``None`` selects the default portfolio, and an empty one is
        rejected.
    execution_time:
        Optional per-process actual-execution-time table (exact rationals).
        Mutually exclusive with *jitter_seed*.
    jitter_seed / jitter_low:
        When *jitter_seed* is set, execution times are drawn from
        :func:`~repro.runtime.executor.jittered_execution` in
        ``[jitter_low * C, C]``: one integer mix of ``(jitter_seed,
        process, k, frame)`` per job instance, the same in every process.
        *jitter_seed* must be an ``int`` (not a ``bool`` or a float,
        which compare equal to an int but draw differently).
    overheads:
        The Section V-A frame-arrival/per-job overhead model.
    stimulus:
        External inputs (samples + sporadic arrivals); ``None`` means no
        external data — sporadic processes never fire.
    records_only / collect_records / collect_trace:
        The executor's fast-mode flags, stored so a scenario pins its
        observation level as part of the experiment description.
    label:
        Free-form tag carried through results and sweep tables.
    """

    workload: WorkloadSpec
    wcet: Any
    processors: int = 1
    n_frames: int = 1
    horizon: Optional[TimeLike] = None
    heuristics: Optional[Tuple[str, ...]] = None
    execution_time: Optional[Mapping[str, TimeLike]] = None
    jitter_seed: Optional[int] = None
    jitter_low: float = 0.5
    overheads: OverheadModel = field(default_factory=OverheadModel.none)
    stimulus: Optional[Stimulus] = None
    records_only: bool = False
    collect_records: bool = True
    collect_trace: bool = True
    label: Optional[str] = None
    platform: Optional[PlatformLike] = None

    def __post_init__(self) -> None:
        if not (callable(self.workload) or isinstance(self.workload, str)):
            raise ModelError(
                "workload must be a registered name or a network factory"
            )
        set_ = object.__setattr__  # frozen: normalise through the back door
        if self.platform is not None:
            try:
                set_(self, "platform", as_platform(self.platform))
            except (TypeError, ValueError) as exc:
                raise ModelError(str(exc)) from None
            # processors is a derived view of the platform: keep the two
            # in lock-step so every consumer of the count stays correct.
            set_(self, "processors", self.platform.processors)
        _require_int("processors", self.processors)
        if self.processors < 1:
            raise ModelError("processors must be >= 1")
        _require_int("n_frames", self.n_frames)
        if self.n_frames < 1:
            raise ModelError("n_frames must be >= 1")
        if self.execution_time is not None and self.jitter_seed is not None:
            raise ModelError(
                "execution_time and jitter_seed are mutually exclusive — "
                "a scenario has exactly one execution-time model"
            )
        if self.jitter_seed is not None:
            _require_int("jitter_seed", self.jitter_seed)
            set_(self, "jitter_seed", int(self.jitter_seed))
        if (not isinstance(self.jitter_low, numbers.Real)
                or isinstance(self.jitter_low, bool)):
            raise ModelError(
                f"jitter_low must be a real number, got {self.jitter_low!r}"
            )
        if not 0 < self.jitter_low <= 1:
            raise ModelError("jitter_low must be in (0, 1]")
        if not isinstance(self.overheads, OverheadModel):
            raise ModelError("overheads must be an OverheadModel")
        if self.stimulus is not None and not isinstance(self.stimulus, Stimulus):
            raise ModelError("stimulus must be a Stimulus (or None)")
        set_(self, "wcet", _normalize_wcet(self.wcet))
        set_(self, "execution_time",
             _normalize_table(self.execution_time, "execution_time"))
        if self.heuristics is not None:
            set_(self, "heuristics", tuple(self.heuristics))
            if not self.heuristics:
                raise ModelError("heuristics must not be empty (None: default)")
        if self.horizon is not None:
            set_(self, "horizon", as_positive_time(self.horizon, "horizon"))
        set_(self, "jitter_low", float(self.jitter_low))

    def __hash__(self) -> int:
        # The dataclass-generated hash would include the stimulus, which is
        # structurally compared but unhashable (mutable sample maps).  Hash
        # every other field: scenarios equal under __eq__ hash equal, and
        # stimulus-only collisions are resolved by the equality check.
        return hash((
            self.workload, self.wcet, self.processors, self.n_frames,
            self.horizon, self.heuristics, self.execution_time,
            self.jitter_seed, self.jitter_low, self.overheads,
            self.records_only, self.collect_records, self.collect_trace,
            self.label, self.platform,
        ))

    # -- derived views --------------------------------------------------
    def replace(self, **changes: Any) -> "Scenario":
        """A copy with *changes* applied (axis substitution in sweeps)."""
        return dataclasses.replace(self, **changes)

    def build_network(self) -> Network:
        """Construct a fresh network from the workload factory."""
        return resolve_workload(self.workload)()

    def wcet_spec(self) -> Any:
        """The wcet in the shape ``derive_task_graph`` accepts."""
        if isinstance(self.wcet, tuple):
            return dict(self.wcet)
        return self.wcet

    def execution_model(self) -> ExecutionTimeSpec:
        """The executor's ``execution_time`` argument for this scenario.

        A jittered scenario gets a fresh sampler per call; runs sharing a
        :class:`~repro.experiment.experiment.PipelineCache` share one
        sampler per ``(jitter_seed, jitter_low)`` through
        :meth:`~repro.experiment.experiment.PipelineCache.execution_model`.
        """
        if self.jitter_seed is not None:
            return jittered_execution(self.jitter_seed, self.jitter_low)
        if self.execution_time is not None:
            return dict(self.execution_time)
        return None

    def dispatch_blocker(self) -> Optional[str]:
        """Why this scenario cannot be shipped to a worker process.

        The multiprocess sweep backend (:mod:`repro.experiment.pool`)
        sends scenarios across the process boundary through the JSON wire
        format (:func:`repro.io.json_io.scenario_to_dict`), which carries
        data, not code.  Returns a human-readable reason when this
        scenario embeds code a child process could not reconstruct, or
        ``None`` when it is dispatchable.  This is the cheap pre-check the
        dispatcher runs per cell; the JSON encoder remains the authority
        and still refuses loudly if a new code-bearing field slips by.
        """
        if not isinstance(self.workload, str):
            return (
                "workload is a bare factory callable — only the built-in "
                "app workloads resolve by name in a worker process"
            )
        # A worker re-imports repro from scratch, so the only names it can
        # resolve are the ones the apps package registers at import.  A
        # name registered (or overridden) only in this process would make
        # the worker fail — or worse, silently build a different network.
        _ensure_apps_loaded()
        from ..apps import BUILTIN_WORKLOADS

        if self.workload not in _WORKLOADS:
            # Unknown everywhere: stay serial so the standard
            # unknown-workload error surfaces in-process, not from a pool.
            return f"workload {self.workload!r} is not registered"
        if _WORKLOADS[self.workload] is not BUILTIN_WORKLOADS.get(
            self.workload
        ):
            return (
                f"workload {self.workload!r} is registered only in this "
                "process — spawned workers re-import repro and resolve "
                "only the built-in app workloads"
            )
        if isinstance(self.wcet, tuple) and any(
            callable(value) for _, value in self.wcet
        ):
            return "wcet contains per-job callables, which do not serialise"
        return None

    # -- stage keys -----------------------------------------------------
    def workload_key(self) -> Any:
        """Hashable identity of the workload (name, or callable identity)."""
        return self.workload

    def derivation_key(self) -> Tuple[Any, ...]:
        """Scenarios with equal keys share one task-graph derivation."""
        return (self.workload_key(), self.wcet, self.horizon)

    def schedule_key(self) -> Tuple[Any, ...]:
        """Scenarios with equal keys share one static schedule.

        The platform joins the key only when set, so classic scenarios
        keep their exact pre-platform keys (stored artifacts stay valid)
        while cells of a platform axis schedule once per platform but
        share one derivation (WCET tables are class-*name* keyed).
        """
        key = self.derivation_key() + (
            self.processors,
            self.heuristics,
        )
        if self.platform is not None:
            key += (self.platform,)
        return key

    def scheduling_target(self) -> PlatformLike:
        """What the list scheduler should schedule onto."""
        return self.platform if self.platform is not None else self.processors

    def describe(self) -> str:
        """One-line human-readable summary (sweep tables, reports)."""
        workload = (
            self.workload if isinstance(self.workload, str)
            else getattr(self.workload, "__name__", "<factory>")
        )
        bits = [
            f"workload={workload}",
            (
                f"platform={self.platform.describe()}"
                if self.platform is not None and not self.platform.is_unit
                else f"M={self.processors}"
            ),
            f"frames={self.n_frames}",
        ]
        if self.jitter_seed is not None:
            bits.append(f"jitter#{self.jitter_seed}")
        if not self.overheads.is_zero:
            bits.append("overheads")
        if self.label:
            bits.append(self.label)
        return " ".join(bits)
