"""VCD (Value Change Dump) export of runtime traces.

Hardware engineers read schedules in waveform viewers; this module dumps a
simulated run as an IEEE-1364 VCD file with:

* one wire per processor (``M0, M1, ...``), 1 while the processor is busy;
* one wire per process (``p_<name>``), 1 while any of its jobs runs;
* a ``deadline_miss`` wire pulsing one tick at each violated deadline;
* a ``runtime_overhead`` wire covering the frame-arrival overhead windows;
* one wire per internal channel (``c_<name>``), pulsing one tick at each
  write — fed by the executor's data-phase ``on_channel_write`` events, so
  the wires appear whenever the observed run executed its data phase
  (live, or replayed from a result that retained its action trace).

The serialiser consumes a :class:`~repro.runtime.observers.TraceObserver` —
the waveform-shaped event sink of the executor's observer protocol — so a
dump can be produced live (``run(observers=[obs])``, even with
``records_only=True``) or by replaying a stored
:class:`~repro.runtime.executor.RuntimeResult`.

Time resolution: the dump uses a configurable rational *timescale* (default
1 us for millisecond-grain models) and scales every rational timestamp
exactly; :class:`VcdError` is raised if a timestamp does not land on the
grid, so rounding never silently corrupts a trace.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from ..core.timebase import Time, as_positive_time
from ..errors import FPPNError
from ..runtime.executor import RuntimeResult
from ..runtime.observers import TraceObserver, replay


class VcdError(FPPNError):
    """A trace cannot be represented exactly at the requested timescale."""


def _ident(index: int) -> str:
    """Short VCD identifier codes: '!', '\"', '#', ... (printable ASCII)."""
    chars = []
    index += 1
    while index:
        index, rem = divmod(index - 1, 94)
        chars.append(chr(33 + rem))
    return "".join(reversed(chars))


def _ticks(t: Time, unit: Fraction) -> int:
    q = t / unit
    if q.denominator != 1:
        raise VcdError(
            f"timestamp {t} is not a multiple of the VCD timescale {unit}; "
            "choose a finer timescale"
        )
    return int(q)


def _merge_intervals(intervals: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Union of half-open tick intervals, merging overlaps and adjacency."""
    merged: List[Tuple[int, int]] = []
    for start, end in sorted(intervals):
        if start >= end:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def trace_to_vcd(
    trace: TraceObserver,
    timescale_ms: "Fraction | int | float | str" = "1/1000",
    module: str = "fppn",
) -> str:
    """Serialise the events a :class:`TraceObserver` collected as VCD text.

    Parameters
    ----------
    timescale_ms:
        Length of one VCD tick in model milliseconds; the default 1/1000
        makes one tick = 1 us, matching the emitted ``$timescale``.
    """
    meta = trace.meta
    if meta is None:
        raise VcdError("trace observer has not seen a run (no on_run_start event)")
    unit = as_positive_time(timescale_ms, "timescale")

    signals: List[Tuple[str, str]] = []  # (vcd name, identifier)
    intervals: Dict[str, List[Tuple[int, int]]] = {}

    def declare(name: str) -> str:
        ident = _ident(len(signals))
        signals.append((name, ident))
        intervals[ident] = []
        return ident

    proc_ids = {m: declare(f"M{m}") for m in range(meta.processors)}
    process_ids = {p: declare(f"p_{p}") for p in sorted(trace.processes)}
    miss_id = declare("deadline_miss")
    overhead_id = declare("runtime_overhead")
    channel_ids = {
        c: declare(f"c_{c}") for c in sorted(trace.channel_write_times)
    }

    for m, spans in trace.processor_intervals.items():
        intervals[proc_ids[m]].extend(
            (_ticks(s, unit), _ticks(e, unit)) for s, e in spans
        )
    for p, spans in trace.process_intervals.items():
        intervals[process_ids[p]].extend(
            (_ticks(s, unit), _ticks(e, unit)) for s, e in spans
        )
    for t in trace.miss_times:
        tick = _ticks(t, unit)
        intervals[miss_id].append((tick, tick + 1))
    for start, end in trace.overheads:
        intervals[overhead_id].append((_ticks(start, unit), _ticks(end, unit)))
    for c, times in trace.channel_write_times.items():
        ident = channel_ids[c]
        for t in times:
            tick = _ticks(t, unit)
            intervals[ident].append((tick, tick + 1))

    # Per-tick value changes, derived from the merged busy intervals.
    changes: List[Tuple[int, str, int]] = []
    for ident, ivs in intervals.items():
        for start, end in _merge_intervals(ivs):
            changes.append((start, ident, 1))
            changes.append((end, ident, 0))
    changes.sort()

    lines: List[str] = []
    lines.append("$date generated by repro (FPPN reproduction) $end")
    lines.append("$timescale 1 us $end")
    lines.append(f"$scope module {module} $end")
    for name, ident in signals:
        lines.append(f"$var wire 1 {ident} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("$dumpvars")
    for _name, ident in signals:
        lines.append(f"0{ident}")
    lines.append("$end")

    last_tick = None
    for tick, ident, value in changes:
        if tick != last_tick:
            lines.append(f"#{tick}")
            last_tick = tick
        lines.append(f"{value}{ident}")
    return "\n".join(lines) + "\n"


def runtime_result_to_vcd(
    result: RuntimeResult,
    timescale_ms: "Fraction | int | float | str" = "1/1000",
    module: str = "fppn",
) -> str:
    """Serialise a finished run as VCD text (replays it through a
    :class:`~repro.runtime.observers.TraceObserver`).

    :func:`~repro.runtime.observers.replay` refuses a result produced with
    ``collect_records=False`` or, when its data phase ran, with
    ``collect_trace=False``: the ``c_<name>`` wires need a live run or a
    retained trace.  Attach a ``TraceObserver`` to ``run()`` and use
    :func:`trace_to_vcd` for such runs.
    """
    trace = TraceObserver()
    replay(result, trace)
    return trace_to_vcd(trace, timescale_ms, module)


def write_vcd(result: RuntimeResult, path: str, **kwargs) -> None:
    """Write a run's VCD dump to *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(runtime_result_to_vcd(result, **kwargs))
