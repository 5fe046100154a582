"""JSON-dict interchange for task graphs, schedules and network topologies.

The authors' toolchain [10] passes artifacts between a compiler, a
scheduler and a runtime as files; this module provides the equivalent
interchange layer so the compile-time flow can be split across tools or
stored next to experiment results:

* task graphs and static schedules round-trip **losslessly** (rational
  times are serialised as ``"num/den"`` strings);
* networks are serialised **structurally** (processes, generators,
  channels, priorities, external channels).  Behaviours are code, so
  deserialisation takes a *kernel registry* mapping process names to
  kernels — unknown names get no-op kernels, which is sufficient for every
  scheduling-side use;
* **scenarios** (:class:`repro.experiment.Scenario`) round-trip losslessly
  when their workload is a registered name: stimuli are serialised
  structurally with a small tagged value encoding (rationals, complex
  numbers, tuples) so even the FFT workload's complex sample vectors
  survive the trip;
* **sweep results** (:class:`repro.experiment.SweepResult`) serialise
  their axes, rows and stage-reuse statistics, so sweep tables can be
  diffed across commits and machines;
* **sweep rows** have exactly one codec here (:func:`sweep_row_to_dict`,
  :func:`value_map_to_jsonable`, :func:`sweep_stats_to_dict`,
  :func:`content_hash`): the sweep document, the service row stream,
  the pool's worker replies and the checkpoint store all go through it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from fractions import Fraction
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..core.channels import ChannelKind
from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.platform import Platform, ProcessorClass
from ..core.process import JobContext
from ..core.timebase import Time, as_time
from ..errors import FormatError, ModelError
from ..runtime.overheads import OverheadModel
from ..taskgraph.graph import TaskGraph
from ..taskgraph.jobs import Job
from ..scheduling.schedule import ScheduledJob, StaticSchedule
from ..experiment.faults import FaultPlan, _FIELDS as _FAULT_FIELDS
from ..experiment.fields import (
    Field, boolean, decode_fields, encode_fields, integer, names, optional,
    text,
)
from ..experiment.pool_core import EVENT_FIELDS, PoolEvent
from ..experiment.scenario import Scenario, _FIELDS as _SCENARIO_FIELDS
from ..experiment.sweep import (
    ScenarioMatrix,
    SweepCellError,
    SweepResult,
    SweepRow,
    SweepStats,
)

FORMAT_VERSION = 1

#: A scenario's fields but its stimulus (callers encode that one once).
_SCENARIO_BODY = tuple(f for f in _SCENARIO_FIELDS if f.name != "stimulus")


def _time_out(t: Optional[Time]) -> Optional[str]:
    if t is None:
        return None
    return f"{t.numerator}/{t.denominator}"


def _time_in(value: Any, what: str) -> Time:
    try:
        return as_time(value)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad time value for {what}: {value!r}") from exc


def _object(value: Any, what: str) -> Mapping[str, Any]:
    """*value*, refused unless it is a JSON object."""
    if not isinstance(value, Mapping):
        raise FormatError(
            f"{what} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _list(value: Any, what: str) -> List[Any]:
    """*value*, refused unless it is a JSON list (or a tuple)."""
    if not isinstance(value, (list, tuple)):
        raise FormatError(
            f"{what} must be a JSON list, got {type(value).__name__}"
        )
    return value


def _rows(
    data: Mapping[str, Any], key: str, table: Any, what: str, positional: bool = False
) -> List[Any]:
    """The rows listed under *key*, each decoded through *table*; a
    *positional* row lists the table's fields in order."""
    rows = _list(data.get(key, []), f"{what} rows")
    if positional:
        keys = [field.name for field in table]
        for i, row in enumerate(rows):
            if not isinstance(row, (list, tuple)) or len(row) != len(keys):
                raise FormatError(
                    f"{what} {i} must be a list [{', '.join(keys)}], got {row!r}"
                )
        rows = [dict(zip(keys, row)) for row in rows]
    return [decode_fields(table, row, f"{what} {i}") for i, row in enumerate(rows)]


# ---------------------------------------------------------------------------
# platforms
# ---------------------------------------------------------------------------
def platform_to_jsonable(platform: Platform) -> List[List[Any]]:
    """Ordered ``[name, speed, count]`` rows (lossless, rational speeds)."""
    return [
        [cls.name, _time_out(cls.speed), count]
        for cls, count in platform.entries
    ]


def platform_from_jsonable(data: Any, what: str = "platform") -> Platform:
    """Inverse of :func:`platform_to_jsonable`."""
    if not isinstance(data, list) or not data:
        raise FormatError(f"bad {what}: expected a non-empty list of rows")
    entries = []
    for row in data:
        if not isinstance(row, (list, tuple)) or len(row) != 3:
            raise FormatError(f"bad {what} row {row!r}")
        name, speed, count = row
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise FormatError(
                f"bad {what} row {row!r}: the core count must be an int >= 1"
            )
        entries.append((name, _time_in(speed, f"{what} speed"), count))
    try:
        return Platform(tuple((ProcessorClass(n, s), c) for n, s, c in entries))
    except ValueError as exc:  # a bad class name or speed, a duplicate class
        raise FormatError(f"bad {what}: {exc}") from None


def _default_platform(platform: Platform, processors: int) -> bool:
    """True for the implicit homogeneous platform ``processors`` implies.

    Such platforms are *omitted* from encodings: pre-platform documents
    decode unchanged and re-encode byte-identically.
    """
    return platform == Platform.homogeneous(processors)


# ---------------------------------------------------------------------------
# task graphs
# ---------------------------------------------------------------------------
#: A task-graph document's job rows (Job's own checks still run).
_JOB_FIELDS = (
    Field("process", text, required=True),
    Field("k", integer(), required=True),
    *(Field(name, lambda t, what: as_time(t), _time_out, required=True)
      for name in ("arrival", "deadline", "wcet")),
    Field("is_server", boolean),
    Field("subset_index", optional(integer())),
    Field("slot", optional(integer())),
    # Only on jobs with a per-class table: homogeneous graphs keep their bytes.
    Field("wcet_by_class",
          optional(lambda rows, what: tuple((n, as_time(t)) for n, t in rows)),
          lambda rows: [[n, _time_out(t)] for n, t in rows], omit=True),
)


def task_graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Lossless dict form of a task graph."""
    return {
        "format": "fppn-taskgraph",
        "version": FORMAT_VERSION,
        "hyperperiod": _time_out(graph.hyperperiod),
        "jobs": [encode_fields(_JOB_FIELDS, job) for job in graph.jobs],
        "edges": [list(e) for e in graph.edges()],
    }


def task_graph_from_dict(data: Mapping[str, Any]) -> TaskGraph:
    """Inverse of :func:`task_graph_to_dict`."""
    _check_header(data, "fppn-taskgraph")
    jobs = [Job(**row) for row in _rows(data, "jobs", _JOB_FIELDS, "job")]
    hyper = data.get("hyperperiod")
    edges = data.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError(f"task graph edges must be a list, got {edges!r}")
    for pos, edge in enumerate(edges):
        # bool is an int subclass, but true/false is no job index
        if not (isinstance(edge, list) and len(edge) == 2
                and all(type(x) is int for x in edge)):
            raise FormatError(
                f"edge {pos} must be a [from, to] pair of job indices, "
                f"got {edge!r}"
            )
    return TaskGraph(
        jobs, edges,
        None if hyper is None else _time_in(hyper, "hyperperiod"),
    )


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------
def schedule_to_dict(schedule: StaticSchedule) -> Dict[str, Any]:
    """Lossless dict form of a static schedule (references jobs by name).

    The platform is emitted only when it is *not* the implicit homogeneous
    one the processor count already describes — classic schedules keep
    their exact pre-platform byte layout.
    """
    return {
        "format": "fppn-schedule",
        "version": FORMAT_VERSION,
        "processors": schedule.processors,
        **(
            {"platform": platform_to_jsonable(schedule.platform)}
            if not _default_platform(schedule.platform, schedule.processors)
            else {}
        ),
        "graph": task_graph_to_dict(schedule.graph),
        "entries": [
            {
                "job": schedule.graph.jobs[e.job_index].name,
                "processor": e.processor,
                "start": _time_out(e.start),
            }
            for e in schedule.entries
        ],
    }


#: A schedule document's processor count (read when it has no platform).
_SCHEDULE_FIELDS = (Field("processors", integer(1), required=True),)

#: A schedule document's entry rows.
_ENTRY_FIELDS = (
    Field("job", text, required=True),
    Field("processor", integer(0), required=True),
    Field("start", _time_in, required=True),
)


def schedule_from_dict(data: Mapping[str, Any]) -> StaticSchedule:
    """Inverse of :func:`schedule_to_dict`."""
    _check_header(data, "fppn-schedule")
    graph = task_graph_from_dict(data["graph"])
    entries = [
        ScheduledJob(graph.index_of(row["job"]), row["processor"], row["start"])
        for row in _rows(data, "entries", _ENTRY_FIELDS, "schedule entry")
    ]
    platform = data.get("platform")
    target = (
        decode_fields(_SCHEDULE_FIELDS, data, "fppn-schedule")["processors"]
        if platform is None
        else platform_from_jsonable(platform, "schedule platform")
    )
    return StaticSchedule(graph, target, entries)


# ---------------------------------------------------------------------------
# networks (structural)
# ---------------------------------------------------------------------------
def network_to_dict(network: Network) -> Dict[str, Any]:
    """Structural dict form of a network (behaviours are not serialised)."""
    processes = []
    for name, proc in network.processes.items():
        gen = proc.generator
        processes.append(
            {
                "name": name,
                "sporadic": proc.is_sporadic,
                "period": _time_out(gen.period),
                "deadline": _time_out(gen.deadline),
                "burst": gen.burst,
                "offset": _time_out(getattr(gen, "offset", Fraction(0)))
                if not proc.is_sporadic else None,
            }
        )
    return {
        "format": "fppn-network",
        "version": FORMAT_VERSION,
        "name": network.name,
        "processes": processes,
        "channels": [
            {
                "name": c.name,
                "kind": c.kind.value,
                "writer": c.writer,
                "reader": c.reader,
            }
            for c in network.channels.values()
        ],
        "priorities": sorted(list(p) for p in network.priorities),
        "external_inputs": [
            {"name": n, "owner": s.owner} for n, s in network.external_inputs.items()
        ],
        "external_outputs": [
            {"name": n, "owner": s.owner} for n, s in network.external_outputs.items()
        ],
    }


KernelRegistry = Mapping[str, Callable[[JobContext], None]]

#: A network document's process rows (``period`` is a sporadic
#: process's minimum inter-arrival time).
_PROCESS_FIELDS = (
    Field("name", text, required=True),
    Field("sporadic", boolean),
    Field("period", _time_in, required=True),
    Field("deadline", _time_in, required=True),
    Field("burst", integer(1)),
    Field("offset", optional(_time_in)),
)

#: A network document's channel rows.
_CHANNEL_FIELDS = (
    Field("name", text, required=True),
    Field("kind", lambda value, what: ChannelKind(value), required=True),
    Field("writer", text, required=True),
    Field("reader", text, required=True),
)

#: A network document's priority pairs ``[higher, lower]``, and its
#: external input and output rows.
_PRIORITY_FIELDS = tuple(Field(n, text, required=True) for n in ("higher", "lower"))
_EXTERNAL_FIELDS = tuple(Field(n, text, required=True) for n in ("name", "owner"))


def network_from_dict(
    data: Mapping[str, Any],
    kernels: Optional[KernelRegistry] = None,
) -> Network:
    """Rebuild a network from its structural dict.

    *kernels* maps process names to kernel callables; processes without an
    entry get a no-op kernel (adequate for derivation/scheduling, which
    never execute behaviours).
    """
    _check_header(data, "fppn-network")
    kernels = kernels or {}
    net = Network(data.get("name", "network"))
    for row in _rows(data, "processes", _PROCESS_FIELDS, "process"):
        name, burst = row["name"], row.get("burst", 1)
        kernel = kernels.get(name)
        if row.get("sporadic"):
            net.add_sporadic(
                name, min_period=row["period"], deadline=row["deadline"],
                burst=burst, kernel=kernel,
            )
        else:
            net.add_periodic(
                name, period=row["period"], deadline=row["deadline"],
                burst=burst, offset=row.get("offset") or 0, kernel=kernel,
            )
    for row in _rows(data, "channels", _CHANNEL_FIELDS, "channel"):
        net.connect(row["writer"], row["reader"], row["name"], kind=row["kind"])
    for row in _rows(data, "priorities", _PRIORITY_FIELDS, "priority", True):
        net.add_priority(row["higher"], row["lower"])
    for row in _rows(data, "external_inputs", _EXTERNAL_FIELDS, "external input"):
        net.add_external_input(row["owner"], row["name"])
    for row in _rows(data, "external_outputs", _EXTERNAL_FIELDS, "external output"):
        net.add_external_output(row["owner"], row["name"])
    return net


# ---------------------------------------------------------------------------
# tagged values (stimulus samples, sweep cells): JSON-representable forms of
# the Python values experiments actually carry — rationals, complex numbers,
# tuples.  Scalars pass through; anything else is rejected loudly instead of
# being silently stringified.
# ---------------------------------------------------------------------------
def value_to_jsonable(value: Any) -> Any:
    """Encode a Python value into the tagged JSON form (inverse below)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):  # includes Time
        return {"$frac": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, float):
        return value
    if isinstance(value, complex):
        return {"$complex": [value.real, value.imag]}
    if isinstance(value, tuple):
        return {"$tuple": [value_to_jsonable(v) for v in value]}
    if isinstance(value, list):
        return [value_to_jsonable(v) for v in value]
    if isinstance(value, Platform):
        return {"$platform": platform_to_jsonable(value)}
    if isinstance(value, OverheadModel):
        return {
            "$overheads": [
                _time_out(value.first_frame_arrival),
                _time_out(value.steady_frame_arrival),
                _time_out(value.per_job),
            ]
        }
    if isinstance(value, Mapping):
        return {
            "$map": [
                [value_to_jsonable(k), value_to_jsonable(v)]
                for k, v in value.items()
            ]
        }
    raise FormatError(
        f"value {value!r} of type {type(value).__name__} is not "
        "JSON-serialisable — supported: scalars, Fraction, complex, "
        "tuple/list, mappings, Platform, OverheadModel"
    )


def value_from_jsonable(data: Any) -> Any:
    """Inverse of :func:`value_to_jsonable`."""
    if isinstance(data, list):
        return [value_from_jsonable(v) for v in data]
    if isinstance(data, dict):
        if len(data) == 1:
            (tag, payload), = data.items()
            try:
                if tag == "$frac":
                    return _time_in(payload, "tagged rational")
                if tag == "$complex":
                    return complex(payload[0], payload[1])
                if tag == "$tuple":
                    return tuple(value_from_jsonable(v) for v in payload)
                if tag == "$platform":
                    return platform_from_jsonable(payload, "tagged platform")
                if tag == "$overheads":
                    return OverheadModel(
                        _time_in(payload[0], "overheads.first_frame_arrival"),
                        _time_in(payload[1], "overheads.steady_frame_arrival"),
                        _time_in(payload[2], "overheads.per_job"),
                    )
                if tag == "$map":
                    return {
                        value_from_jsonable(k): value_from_jsonable(v)
                        for k, v in payload
                    }
            except (TypeError, ValueError, IndexError) as exc:
                raise FormatError(
                    f"malformed tagged value {tag!r}: {exc}"
                ) from exc
        raise FormatError(f"unrecognised tagged value {data!r}")
    return data


# ---------------------------------------------------------------------------
# stimuli (structural: sample maps + sporadic arrival traces)
# ---------------------------------------------------------------------------
def stimulus_to_dict(stimulus: Stimulus) -> Dict[str, Any]:
    """Lossless dict form of a stimulus (tagged values, rational times)."""
    return {
        "input_samples": {
            name: value_to_jsonable(samples)
            for name, samples in sorted(stimulus.input_samples.items())
        },
        "sporadic_arrivals": {
            name: [_time_out(t) for t in times]
            for name, times in sorted(stimulus.sporadic_arrivals.items())
        },
    }


def stimulus_from_dict(data: Mapping[str, Any]) -> Stimulus:
    """Inverse of :func:`stimulus_to_dict`."""
    data = _object(data, "stimulus")
    samples = _object(data.get("input_samples", {}), "stimulus input_samples")
    arrivals = _object(
        data.get("sporadic_arrivals", {}), "stimulus sporadic_arrivals"
    )
    try:
        return Stimulus(
            input_samples={
                name: value_from_jsonable(values)
                for name, values in samples.items()
            },
            sporadic_arrivals={
                name: [
                    _time_in(t, f"arrival of {name!r}")
                    for t in _list(times, f"sporadic arrivals of {name!r}")
                ]
                for name, times in arrivals.items()
            },
        )
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad stimulus: {exc}") from exc


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------
def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Lossless dict form of a scenario: every field, by its table codec.

    Requires a *registered* workload name (bare factory callables are
    code, not data) and a callable-free WCET map.
    """
    return _scenario_body(scenario, _SCENARIO_FIELDS)


def scenario_from_dict(data: Mapping[str, Any]) -> Scenario:
    """Inverse of :func:`scenario_to_dict`; a bad field names itself."""
    _check_header(data, "fppn-scenario")
    return Scenario(**decode_fields(_SCENARIO_FIELDS, data, "fppn-scenario"))


def _scenario_body(scenario: Scenario, fields: Any = _SCENARIO_BODY) -> Dict[str, Any]:
    """:func:`scenario_to_dict` without its ``"stimulus"`` key (by default)."""
    return {
        "format": "fppn-scenario",
        "version": FORMAT_VERSION,
        **encode_fields(fields, scenario),
    }


# ---------------------------------------------------------------------------
# scenario matrices
# ---------------------------------------------------------------------------
def matrix_to_dict(matrix: "ScenarioMatrix") -> Dict[str, Any]:
    """Lossless dict form of a scenario matrix (base scenario + axes).

    Axis values use the tagged value encoding, so rational WCET axes,
    overhead-model axes and stimulus-free scalar axes all survive; the
    base scenario obeys :func:`scenario_to_dict`'s registered-workload
    rule.  This is the ``sweep`` config the CLI consumes.
    """
    return {
        "format": "fppn-matrix",
        "version": FORMAT_VERSION,
        "base": scenario_to_dict(matrix.base),
        "axes": {
            name: [value_to_jsonable(v) for v in values]
            for name, values in matrix.axes.items()
        },
    }


def matrix_from_dict(data: Mapping[str, Any]) -> "ScenarioMatrix":
    """Inverse of :func:`matrix_to_dict`."""
    _check_header(data, "fppn-matrix")
    axes = _object(data.get("axes", {}), "fppn-matrix axes")
    if "base" not in data:
        raise FormatError("fppn-matrix is missing field 'base'")
    base = scenario_from_dict(data["base"])
    axes = {
        name: [
            value_from_jsonable(v)
            for v in _list(values, f"fppn-matrix axis {name!r}")
        ]
        for name, values in axes.items()
    }
    try:
        return ScenarioMatrix(base, axes)
    except ModelError as exc:
        raise FormatError(f"fppn-matrix {exc}") from None


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------
def fault_plan_to_dict(plan: "FaultPlan") -> Dict[str, Any]:
    """Dict form of a fault plan (normalised index tuples, as lists)."""
    return encode_fields(_FAULT_FIELDS, plan)


def fault_plan_from_dict(data: Mapping[str, Any]) -> "FaultPlan":
    """Inverse of :func:`fault_plan_to_dict` (missing fields stay empty)."""
    return FaultPlan(**decode_fields(_FAULT_FIELDS, data, "fault plan", ()))


# ---------------------------------------------------------------------------
# telemetry spans
# ---------------------------------------------------------------------------
def spans_to_jsonable(spans: Any) -> Dict[str, Any]:
    """OTel-style JSON document for a span list.

    Spans are duck-typed (``name`` / ``span_id`` / ``parent_id`` /
    ``kind`` / ``start`` / ``end`` / ``attributes`` attributes —
    :class:`repro.runtime.telemetry.Span` is the producer) so this
    module does not import the telemetry layer.  Timestamps and
    attribute values use the tagged value encoding: span intervals stay
    exact rationals, the library's invariant for every time stamp.
    """
    return {
        "format": "fppn-spans",
        "version": FORMAT_VERSION,
        "spans": [
            {
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "kind": span.kind,
                "start": value_to_jsonable(span.start),
                "end": (
                    None if span.end is None else value_to_jsonable(span.end)
                ),
                "attributes": {
                    name: value_to_jsonable(v)
                    for name, v in span.attributes.items()
                },
            }
            for span in spans
        ],
    }


# ---------------------------------------------------------------------------
# sweep rows — the one owner of the row format.  A row crosses every
# process and file boundary through these codecs: the fppn-sweep document,
# the service's ``sweep.row`` notifications, the pool's worker replies and
# the checkpoint store's payloads.  That is what keeps sweep rows
# bit-identical across the serial, pooled and served backends.
# ---------------------------------------------------------------------------
def canonical_json(data: Any) -> str:
    """A JSON-able value's canonical text: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def content_hash(data: Any) -> str:
    """SHA-256 hex digest of a JSON-able value's canonical encoding.

    Canonical means sorted keys and compact separators, so equal values
    hash equally whatever their key order.  Content keys of scenarios
    (the checkpoint store) and of pool payloads (the worker caches) are
    both this hash.
    """
    return canonical_hash(canonical_json(data).encode("utf-8"))


def canonical_hash(*chunks: bytes) -> str:
    """SHA-256 hex digest of canonical JSON text fed in byte chunks."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def scenario_content_hash(scenario: Scenario, stimulus_json: bytes) -> str:
    """``content_hash(scenario_to_dict(scenario))``, stimulus pre-encoded.

    *stimulus_json* is the canonical JSON of the scenario's stimulus.
    The stimulus is most of a scenario's canonical text, so a caller
    keying many scenarios over one stimulus encodes it once and this
    hashes the same text incrementally: the stimulus-free fields before
    the ``"stimulus"`` key, the stimulus bytes, the fields after it.
    """
    doc = canonical_json({**_scenario_body(scenario), "stimulus": None})
    # Only the top-level key reads so: no nested object of a scenario
    # document holds a null, and quotes inside strings are escaped.
    head, _, tail = doc.partition('"stimulus":null')
    return canonical_hash(
        f'{head}"stimulus":'.encode("utf-8"), stimulus_json,
        tail.encode("utf-8"),
    )


def value_map_to_jsonable(values: Mapping[str, Any]) -> Dict[str, Any]:
    """A row's cell or metric map in the tagged value encoding."""
    return {name: value_to_jsonable(v) for name, v in values.items()}


def value_map_from_jsonable(data: Any, what: str) -> Dict[str, Any]:
    """Inverse of :func:`value_map_to_jsonable`."""
    if not isinstance(data, Mapping):
        raise FormatError(f"{what} must be a JSON object, got {data!r}")
    return {name: value_from_jsonable(v) for name, v in data.items()}


def sweep_row_to_dict(row: SweepRow) -> Dict[str, Any]:
    """Encode one row: its cell plus either its metrics or its error."""
    out: Dict[str, Any] = {"cell": value_map_to_jsonable(row.cell)}
    error = row.error
    if error is not None:
        out["error"] = {
            "type": error.error_type,
            "message": error.message,
            "stage": error.stage,
            "retries": error.retries,
        }
    else:
        out["metrics"] = value_map_to_jsonable(row.metrics)
    return out


#: A failed row's error record; ``stage`` and ``retries`` default as in
#: :class:`SweepCellError`.
_ERROR_FIELDS = (
    Field("type", text, required=True), Field("message", text, required=True),
    Field("stage", text), Field("retries", integer(0)),
)


def sweep_row_from_dict(data: Mapping[str, Any]) -> SweepRow:
    """Inverse of :func:`sweep_row_to_dict`.

    Rows come from outside the process (a server reply, a file), so an
    error record is decoded through its field table: a missing ``type``
    or ``message``, or a field of the wrong type, is a
    :class:`FormatError` naming the field.
    """
    cell = value_map_from_jsonable(data.get("cell", {}), "row cell")
    error = data.get("error")
    if error is None:
        return SweepRow(
            cell=cell,
            metrics=value_map_from_jsonable(
                data.get("metrics", {}), "row metrics"
            ),
        )
    try:
        fields = decode_fields(_ERROR_FIELDS, error, "row error record")
    except FormatError as exc:
        raise FormatError(f"bad row error record {error!r}: {exc}") from None
    return SweepRow(cell=cell, metrics={}, error=SweepCellError(
        error_type=fields["type"], message=fields["message"],
        stage=fields.get("stage", "run"), retries=fields.get("retries", 0),
    ))


def _count(value: Any, what: str) -> int:
    """A counter: an int >= 0, or (as older documents hold) its digits."""
    if isinstance(value, str) and value.isascii() and value.isdigit():
        value = int(value)
    return integer(0)(value, what)


#: Every SweepStats field, its rule read off its default; an absent one
#: takes the default, so payloads older than a counter still decode.
_STATS_FIELDS = tuple(
    Field(f.name, boolean if isinstance(f.default, bool)
          else _count if isinstance(f.default, int) else optional(text))
    for f in dataclasses.fields(SweepStats)
)


def sweep_stats_to_dict(stats: SweepStats) -> Dict[str, Any]:
    """Every :class:`SweepStats` field, in declaration order."""
    return encode_fields(_STATS_FIELDS, stats)


def sweep_stats_from_dict(data: Mapping[str, Any]) -> SweepStats:
    """Inverse of :func:`sweep_stats_to_dict`."""
    return SweepStats(**decode_fields(_STATS_FIELDS, data, "sweep stats"))


# ---------------------------------------------------------------------------
# sweep results
# ---------------------------------------------------------------------------
def sweep_result_to_dict(result: SweepResult) -> Dict[str, Any]:
    """Dict form of a sweep table (axes, rows, stage-reuse stats).

    Cell axis values and metric values use the tagged value encoding, so
    rational metrics (makespans, latenesses) survive losslessly.
    """
    return {
        "format": "fppn-sweep",
        "version": FORMAT_VERSION,
        "axes": {
            name: [value_to_jsonable(v) for v in values]
            for name, values in result.axes.items()
        },
        "metrics": list(result.metrics),
        "rows": [sweep_row_to_dict(row) for row in result.rows],
        # Failure capture travels with the table: failed rows have no
        # metrics, their error record instead.  Omitted entirely when the
        # sweep was clean, so clean payloads are byte-stable across
        # library versions.
        **(
            {"failed_rows": [sweep_row_to_dict(r) for r in result.failed_rows]}
            if result.failed_rows
            else {}
        ),
        "stats": sweep_stats_to_dict(result.stats),
    }


def _axes(value: Any, what: str) -> Dict[str, Tuple[Any, ...]]:
    """A sweep document's axes: each name's list of tagged values."""
    return {
        name: tuple(map(value_from_jsonable, _list(values, f"{what} {name!r}")))
        for name, values in _object(value, what).items()
    }


#: A sweep document's table fields (its rows and stats decode apart).
_SWEEP_FIELDS = (Field("axes", _axes), Field("metrics", names))


def sweep_result_from_dict(data: Mapping[str, Any]) -> SweepResult:
    """Inverse of :func:`sweep_result_to_dict`.

    Payloads written before the fault-tolerance fields existed decode
    with the neutral defaults (no failed rows, zero failure/store
    counters, not interrupted).
    """
    _check_header(data, "fppn-sweep")
    head = decode_fields(_SWEEP_FIELDS, data, "fppn-sweep")
    rows = [sweep_row_from_dict(row) for row in data.get("rows", [])]
    failed_rows = [
        sweep_row_from_dict(row) for row in data.get("failed_rows", [])
    ]
    if any(row.error is not None for row in rows):
        raise FormatError("a healthy sweep row carries an error record")
    if any(row.error is None for row in failed_rows):
        raise FormatError("a failed sweep row has no error record")
    return SweepResult(
        axes=head.get("axes", {}),
        metrics=head.get("metrics", ()),
        rows=rows,
        stats=sweep_stats_from_dict(data.get("stats", {})),
        failed_rows=failed_rows,
    )


# ---------------------------------------------------------------------------
# service wire payloads
# ---------------------------------------------------------------------------
def pool_event_to_dict(event: Any) -> Dict[str, Any]:
    """Dict form of a :class:`repro.experiment.PoolEvent` milestone."""
    return encode_fields(EVENT_FIELDS, event)


def pool_event_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`pool_event_to_dict`."""
    return PoolEvent(**decode_fields(EVENT_FIELDS, data, "pool event"))


def ticket_status_to_dict(status: Any) -> Dict[str, Any]:
    """Dict form of a :class:`repro.service.TicketStatus` snapshot."""
    from ..service.orchestrator import STATUS_FIELDS

    return encode_fields(STATUS_FIELDS, status)


def ticket_status_from_dict(data: Mapping[str, Any]) -> Any:
    """Inverse of :func:`ticket_status_to_dict`."""
    from ..service.orchestrator import STATUS_FIELDS, TicketStatus

    return TicketStatus(**{
        "client": None, "cells": 0, "rows_streamed": 0, "done": False,
        **decode_fields(STATUS_FIELDS, data, "ticket status"),
    })


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------
def save_json(data: Mapping[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _check_header(data: Mapping[str, Any], expected: str) -> None:
    fmt = _object(data, f"{expected} document").get("format")
    if fmt != expected:
        raise FormatError(f"expected format {expected!r}, got {fmt!r}")
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise FormatError(
            f"unsupported {expected} version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
