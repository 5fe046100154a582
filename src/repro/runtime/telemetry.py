"""Telemetry sinks: OTel-style execution spans and live sweep progress.

Two consumers of the event streams the repo already emits, built for the
operational layer (``python -m repro``):

* :class:`SpanObserver` — an :class:`~repro.runtime.observers.
  ExecutionObserver` that maps a run onto an OpenTelemetry-shaped span
  tree: one *run span* (opened at ``on_run_start``, closed at
  ``on_run_end``) parenting one *frame span* per executed frame (the
  frame's record envelope, from the ``on_record`` stream), each
  parenting the frame's *kernel spans* — one per executed job instance
  (opened/closed by the ``on_job_data_start/end`` pair).  The result is
  a plain list of :class:`Span` values — no OpenTelemetry dependency —
  serialisable via :func:`repro.io.json_io.spans_to_jsonable` and
  exportable from the CLI with ``python -m repro run --spans``.
* :class:`ProgressObserver` — a sweep-level sink rendering live
  progress to a text stream (stderr by default).  It is *not* an
  ``ExecutionObserver``: its two entry points plug into the sweep
  layer's existing callbacks — :meth:`ProgressObserver.on_row` consumes
  the ``run_sweep(on_row=...)`` row stream, and
  :meth:`ProgressObserver.on_event` consumes the pool's
  ``on_progress`` milestone stream
  (:class:`repro.experiment.pool.PoolEvent`).  Events are duck-typed
  (``kind`` / ``gid`` / ``cells`` / ``groups`` / ``detail`` attributes)
  so this module never imports the experiment package — the experiment
  package already imports the runtime.

Both sinks follow the pool's delivery contract: progress rendering is
best-effort decoration (the pool swallows ``on_progress`` exceptions),
while span collection is exact — spans carry the same exact rational
timestamps (:class:`fractions.Fraction`) every observer sees.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..core.timebase import Time, ZERO
from .observers import ExecutionObserver, RunMeta

__all__ = ["ProgressObserver", "Span", "SpanObserver"]


@dataclass
class Span:
    """One OTel-style span: a named ``[start, end)`` interval with context.

    ``span_id`` / ``parent_id`` encode the tree (the run span is id 1 and
    has no parent; kernel spans parent to it).  ``end`` is ``None`` while
    the span is open; a finished run leaves every span closed.  Times are
    exact rationals, converted to floats only at serialisation
    (:func:`repro.io.json_io.spans_to_jsonable`).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    kind: str  # "run" | "frame" | "kernel"
    start: Time
    end: Optional[Time] = None
    attributes: Dict[str, Any] = field(default_factory=dict)


#: The run span's fixed id — kernel spans count up from 2 in open order.
_RUN_SPAN_ID = 1


class SpanObserver(ExecutionObserver):
    """Collect a run as an OTel-style span tree (run / frame / kernel).

    Three levels: one *run span* parents one *frame span* per executed
    frame (interval = the frame's record envelope, built from the
    ``on_record`` stream), and each frame span parents the *kernel
    spans* of the jobs it contains.  Attach to
    ``Experiment.run(observers=[...])`` or ``replay(result, ...)``, which
    feeds live runs too, so both produce identical span lists.  Kernel
    spans take ids in the trace's data-event order; the frame level is
    assembled from the completed record stream at ``on_run_end``, so its
    ids follow the kernel spans' although records arrive first.  Because
    this observer overrides the data hooks, attaching it to a live run
    keeps the data phase on — a ``records_only`` scenario emits no kernel
    spans and yields the run span plus its frame envelopes.

    The run span closes at the latest record end time, tracked from the
    ``on_record`` stream rather than ``result.makespan()``: a live run
    that keeps no records still feeds them to this observer.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._next_id = _RUN_SPAN_ID
        self._open: Dict[Tuple[str, int], Span] = {}
        self._run_span: Optional[Span] = None
        self._run_end: Time = ZERO
        self._frame_bounds: Dict[int, Tuple[Time, Time]] = {}
        self._kernel_spans: List[Span] = []

    def on_run_start(self, meta: RunMeta) -> None:
        # Full reset so a reused observer holds exactly one run's spans.
        self.spans = []
        self._next_id = _RUN_SPAN_ID
        self._open = {}
        self._run_end = ZERO
        self._frame_bounds = {}
        self._kernel_spans = []
        self._run_span = Span(
            name=f"run:{meta.network}",
            span_id=self._next_id,
            parent_id=None,
            kind="run",
            start=ZERO,
            attributes={
                "network": meta.network,
                "processors": meta.processors,
                "frames": meta.frames,
                "hyperperiod": meta.hyperperiod,
            },
        )
        self._next_id += 1
        self.spans.append(self._run_span)

    def on_record(self, record: Any) -> None:
        if record.end > self._run_end:
            self._run_end = record.end
        bounds = self._frame_bounds.get(record.frame)
        if bounds is None:
            self._frame_bounds[record.frame] = (record.start, record.end)
        else:
            self._frame_bounds[record.frame] = (
                min(bounds[0], record.start), max(bounds[1], record.end)
            )

    def on_job_data_start(
        self, process: str, k: int, frame: int, start: Time
    ) -> None:
        # Parented to the run for now; frames re-parent at on_run_end,
        # once the record stream has named every frame envelope.
        span = Span(
            name=f"{process}[{k}]",
            span_id=self._next_id,
            parent_id=_RUN_SPAN_ID,
            kind="kernel",
            start=start,
            attributes={"process": process, "k": k, "frame": frame},
        )
        self._next_id += 1
        self._open[(process, k)] = span
        self._kernel_spans.append(span)
        self.spans.append(span)

    def on_job_data_end(self, process: str, k: int, frame: int, end: Time) -> None:
        self._open.pop((process, k)).end = end

    def on_run_end(self, result: Any) -> None:
        if self._run_span is None:
            return
        self._run_span.end = self._run_end
        # The frame level is assembled here, not as records arrive: its
        # ids continue past the kernel spans, in frame order, and its
        # spans sit between the run span and the kernels in the list.
        frame_ids: Dict[int, int] = {}
        frame_spans: List[Span] = []
        for frame in sorted(self._frame_bounds):
            start, end = self._frame_bounds[frame]
            span = Span(
                name=f"frame[{frame}]",
                span_id=self._next_id,
                parent_id=_RUN_SPAN_ID,
                kind="frame",
                start=start,
                end=end,
                attributes={"frame": frame},
            )
            self._next_id += 1
            frame_ids[frame] = span.span_id
            frame_spans.append(span)
        self.spans[1:1] = frame_spans
        for span in self._kernel_spans:
            frame_id = frame_ids.get(span.attributes["frame"])
            if frame_id is not None:
                span.parent_id = frame_id


class ProgressObserver:
    """Render live sweep progress as plain lines on a text stream.

    Wire it to the sweep layer's two callback streams::

        progress = ProgressObserver(total_cells=len(matrix))
        run_sweep(matrix, metrics, workers=2,
                  on_row=progress.on_row, on_progress=progress.on_event)
        progress.finish(result.stats)

    ``on_row`` fires once per completed cell (healthy or error row);
    ``on_event`` receives the parallel backend's milestone events and is
    simply never called on the serial path.  The renderer is
    deliberately plain (one line per event, no cursor control) so it
    composes with logs and CI output; *stream* defaults to stderr to
    keep stdout clean for the CLI's JSON results.
    """

    def __init__(
        self,
        total_cells: Optional[int] = None,
        *,
        label: str = "sweep",
        stream: Optional[TextIO] = None,
    ) -> None:
        self.total_cells = total_cells
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        self.rows_seen = 0

    def _emit(self, text: str) -> None:
        print(f"[{self.label}] {text}", file=self.stream, flush=True)

    def on_row(self, row: Any) -> None:
        """Consume one streamed :class:`~repro.experiment.sweep.SweepRow`."""
        self.rows_seen += 1
        total = f"/{self.total_cells}" if self.total_cells is not None else ""
        coords = ", ".join(f"{k}={v}" for k, v in row.cell.items())
        error = getattr(row, "error", None)
        if error is not None:
            self._emit(
                f"cell {self.rows_seen}{total} ({coords}) "
                f"FAILED: {error.describe()}"
            )
        else:
            self._emit(f"cell {self.rows_seen}{total} ({coords}) done")

    def on_event(self, event: Any) -> None:
        """Consume one pool milestone (duck-typed ``PoolEvent``)."""
        kind = getattr(event, "kind", "?")
        cells = getattr(event, "cells", 0)
        detail = getattr(event, "detail", "")
        gid = getattr(event, "gid", None)
        if kind == "store-hits":
            self._emit(f"{cells} cell(s) restored from checkpoint store")
        elif kind == "enqueued":
            groups = getattr(event, "groups", 0)
            self._emit(f"enqueued {cells} cell(s) in {groups} group(s)")
        elif kind == "dispatch":
            self._emit(f"group {gid} ({cells} cell(s)) -> {detail}")
        elif kind == "group-done":
            self._emit(f"group {gid} done ({cells} cell(s))")
        elif kind == "group-failed":
            self._emit(f"group {gid} FAILED: {detail}")
        elif kind == "retry":
            self._emit(f"group {gid} retrying: {detail}")
        elif kind == "finished":
            self._emit("all groups finished")
        else:  # forward-compatible: unknown kinds still render
            self._emit(f"{kind} {detail}".rstrip())

    def finish(self, stats: Any) -> None:
        """Render the closing summary from a ``SweepStats``."""
        parts = [
            f"{self.rows_seen} row(s)",
            f"{stats.runs} run(s)",
            f"{stats.workers} worker(s)",
        ]
        if stats.failed_cells:
            parts.append(f"{stats.failed_cells} failed")
        if stats.store_hits:
            parts.append(f"{stats.store_hits} store hit(s)")
        if stats.retries:
            parts.append(f"{stats.retries} retrie(s)")
        if stats.interrupted:
            parts.append("interrupted")
        self._emit("done: " + ", ".join(parts))
