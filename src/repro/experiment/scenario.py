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
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.platform import PlatformLike, as_platform
from ..core.timebase import Time, TimeLike, as_time
from ..errors import FormatError, ModelError
from ..runtime.executor import ExecutionTimeSpec, jittered_execution
from ..runtime.overheads import OverheadModel
from ..taskgraph.jobs import normalize_wcet_table
from .fields import Field, boolean, check_all, instance, integer, names, optional, real, text

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
# the field table: rules and JSON codecs
# ---------------------------------------------------------------------------
def _workload(value: Any, what: str) -> WorkloadSpec:
    if not (callable(value) or isinstance(value, str)):
        raise ModelError(f"{what} must be a registered name or a network factory, got {value!r}")
    return value


def _is_normalized_pairs(value: Any) -> bool:
    """True for the canonical tuple-of-(name, value)-pairs form."""
    return isinstance(value, tuple) and all(
        isinstance(item, tuple) and len(item) == 2 and isinstance(item[0], str)
        for item in value
    )


def _wcet_value(name: str, value: Any) -> Any:
    """One wcet-map entry: callable, per-class table, or Time scalar."""
    if isinstance(value, Time) or callable(value):
        return value
    if isinstance(value, Mapping) or _is_normalized_pairs(value):
        return normalize_wcet_table(value, f"WCET of {name!r}")
    return as_time(value)


def _as_mapping(value: Any, what: str) -> Any:
    """A tuple of (name, value) pairs as the mapping it spells, so every
    pair is checked like a mapping entry; anything else unchanged."""
    if not _is_normalized_pairs(value):
        return value
    mapping = dict(value)
    if len(mapping) != len(value):
        raise ModelError(f"{what} names a process twice: {value!r}")
    return mapping


def _wcet(value: Any, what: str) -> Any:
    """Canonical immutable form: Time scalar, or sorted (name, value) pairs."""
    value = _as_mapping(value, what)
    if isinstance(value, Mapping):
        return tuple(sorted(
            (name, _wcet_value(name, entry)) for name, entry in value.items()
        ))
    if callable(value):
        raise ModelError(
            f"{what} must not be a bare callable — use a mapping "
            "{process: callable} for per-job WCET models"
        )
    return as_time(value)


def _positive_time(value: Any, what: str) -> Time:
    t = as_time(value)
    if t <= 0:
        raise ModelError(f"{what} must be positive, got {value!r}")
    return t


def _heuristics(value: Any, what: str) -> Tuple[str, ...]:
    value = names(value, what)
    if not value:
        raise ModelError(f"{what} must not be empty (None: default)")
    return value


def _time_table(value: Any, what: str) -> Tuple[Tuple[str, Time], ...]:
    value = _as_mapping(value, what)
    if not isinstance(value, Mapping):
        raise ModelError(f"{what} must be a mapping of process name -> time")
    return tuple(sorted((name, as_time(t)) for name, t in value.items()))


def _time_text(t: Time) -> str:
    return f"{t.numerator}/{t.denominator}"


def _json_io(name: str) -> Callable[[Any], Any]:
    """Codec *name* of :mod:`repro.io.json_io` (which imports this module)."""
    def codec(value: Any) -> Any:
        from ..io import json_io
        return getattr(json_io, name)(value)
    return codec


def _workload_out(workload: WorkloadSpec) -> str:
    if not isinstance(workload, str):
        raise FormatError(
            "only scenarios with a registered workload name serialise — "
            "register the factory with repro.experiment.register_workload"
        )
    return workload


def _wcet_out(wcet: Any) -> Any:
    if not isinstance(wcet, tuple):
        return _time_text(wcet)
    for name, value in wcet:
        if callable(value):
            raise FormatError(
                f"wcet of {name!r} is a callable — per-job WCET models "
                "do not serialise"
            )
    # Per-class tables encode as [name, time] rows; scalars keep the plain
    # "num/den" form so pre-platform documents stay byte-stable.
    return {
        name: [[n, _time_text(v)] for n, v in value]
        if isinstance(value, tuple) else _time_text(value)
        for name, value in wcet
    }


def _wcet_in(data: Any) -> Any:
    if not isinstance(data, Mapping):
        return data
    return {
        name: tuple(map(tuple, v)) if isinstance(v, list) else v
        for name, v in data.items()
    }


#: Every Scenario field, in declaration order (which is the document's key
#: order).  The rules run in ``__post_init__`` and on matrix axis values;
#: the codecs are the ``fppn-scenario`` document's; the stages and the
#: omit rule make the stage keys.
_FIELDS: Tuple[Field, ...] = (
    Field("workload", _workload, _workload_out, stage="derivation", required=True),
    Field("wcet", _wcet, _wcet_out, _wcet_in, stage="derivation", required=True),
    Field("processors", integer(1), stage="schedule", required=True),
    Field("n_frames", integer(1), required=True),
    Field("horizon", optional(_positive_time), _time_text, stage="derivation"),
    Field("heuristics", optional(_heuristics), list, stage="schedule"),
    Field("execution_time", optional(_time_table),
          lambda table: {n: _time_text(t) for n, t in table}),
    Field("jitter_seed", optional(integer())),
    Field("jitter_low", real("in (0, 1]", lambda low: 0 < low <= 1)),
    Field("overheads", instance(OverheadModel, "an OverheadModel"),
          _json_io("value_to_jsonable"), _json_io("value_from_jsonable"), required=True),
    Field("stimulus", optional(instance(Stimulus, "a Stimulus")),
          _json_io("stimulus_to_dict"), _json_io("stimulus_from_dict")),
    Field("records_only", boolean),
    Field("collect_records", boolean),
    Field("collect_trace", boolean),
    Field("label", optional(text)),
    # Omitted while unset: pre-platform documents, content hashes and
    # schedule keys stay byte-identical.
    Field("platform", optional(lambda value, what: as_platform(value)),
          _json_io("platform_to_jsonable"), _json_io("platform_from_jsonable"),
          stage="schedule", omit=True),
)
_BY_NAME = {field.name: field for field in _FIELDS}
#: The stimulus is compared structurally but is unhashable (mutable maps).
_HASHED = attrgetter(*(f.name for f in _FIELDS if f.name != "stimulus"))


def _stage_key(fields: Tuple[Field, ...]) -> Callable[[Any], Tuple[Any, ...]]:
    """A stage key as getters built once: its fields' values in table
    order, an omitted-while-unset field (those come last) only when set."""
    head = attrgetter(*(f.name for f in fields if not f.omit))
    tail = [attrgetter(f.name) for f in fields if f.omit]
    assert not tail or all(f.omit for f in fields[-len(tail):])
    if not tail:
        return head

    def key(scenario: Any) -> Tuple[Any, ...]:
        values = head(scenario)
        for get in tail:
            value = get(scenario)
            if value is not None:
                values += (value,)
        return values
    return key


_DERIVATION = tuple(f for f in _FIELDS if f.stage == "derivation")
_SCHEDULE = _DERIVATION + tuple(f for f in _FIELDS if f.stage == "schedule")
_DERIVATION_KEY = _stage_key(_DERIVATION)
_SCHEDULE_KEY = _stage_key(_SCHEDULE)


# ---------------------------------------------------------------------------
# the scenario itself
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """Frozen description of one full pipeline run.

    Each field takes the values named below (``None`` only where named;
    a ``bool`` is never an integer or a real); any other value raises
    :class:`~repro.errors.ModelError` naming the field.

    Parameters
    ----------
    workload:
        A registered workload name (``str``, serialisable — see
        :func:`register_workload`) or a zero-argument network factory.
    wcet:
        A time (``Fraction``, ``int``, ``float`` or ``"num/den"``), or a
        mapping ``process -> time | per-class table | callable`` (what
        :func:`~repro.taskgraph.derivation.derive_task_graph` accepts),
        normalised to an immutable canonical form.
    processors:
        ``int >= 1``: the list scheduler's processor count; set from
        *platform* when one is given (the two always agree).
    platform:
        ``None`` (the classic homogeneous path) or a
        :class:`~repro.core.platform.Platform` (or what
        :func:`~repro.core.platform.as_platform` accepts), on which
        scheduling and execution resolve per-class WCETs.
    n_frames:
        ``int >= 1``: hyperperiod frames the runtime simulates.
    horizon:
        ``None`` (the hyperperiod) or a positive time: the frame length
        for derivation.
    heuristics:
        ``None`` (the default portfolio) or a non-empty list of
        SP-heuristic names for
        :func:`~repro.scheduling.optimizer.find_feasible_schedule`.
    execution_time:
        ``None`` or a mapping ``process -> time`` of actual execution
        times.  Mutually exclusive with *jitter_seed*.
    jitter_seed / jitter_low:
        ``None`` or an ``int``; a real in ``(0, 1]``, stored as a float.
        With a seed, execution times are drawn by
        :func:`~repro.runtime.executor.jittered_execution` in
        ``[jitter_low * C, C]``: one integer mix of ``(jitter_seed,
        process, k, frame)`` per job instance, the same in every process.
    overheads:
        An :class:`~repro.runtime.overheads.OverheadModel` (Section V-A
        frame-arrival/per-job overheads).
    stimulus:
        ``None`` (no external data: sporadic processes never fire) or a
        :class:`~repro.core.invocations.Stimulus`.
    records_only / collect_records / collect_trace:
        ``bool`` each: the executor's fast-mode flags, stored so a
        scenario pins its observation level.
    label:
        ``None`` or a ``str`` tag carried through results and sweep tables.
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
        check_all(_FIELDS, self)
        # The cross-field rules.  processors is a derived view of the
        # platform: keep the two in lock-step.
        if self.platform is not None:
            object.__setattr__(self, "processors", self.platform.processors)
        if self.execution_time is not None and self.jitter_seed is not None:
            raise ModelError(
                "execution_time and jitter_seed are mutually exclusive — "
                "a scenario has exactly one execution-time model"
            )

    def __hash__(self) -> int:
        # Every field but the stimulus: scenarios equal under __eq__ hash
        # equal, and stimulus-only collisions are resolved by equality.
        return hash(_HASHED(self))

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
        return _DERIVATION_KEY(self)

    def schedule_key(self) -> Tuple[Any, ...]:
        """Scenarios with equal keys share one static schedule.

        The platform joins the key only when set, so classic scenarios
        keep their exact pre-platform keys (stored artifacts stay valid)
        while cells of a platform axis schedule once per platform but
        share one derivation (WCET tables are class-*name* keyed).
        """
        return _SCHEDULE_KEY(self)

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
