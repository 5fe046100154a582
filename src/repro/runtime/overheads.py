"""Runtime-overhead model.

Section V-A measures, on the Kalray MPPA, a runtime overhead *"at the
beginning of each frame, which is 41 ms for the first frame (probably due to
initial cache misses) and 20 ms for all subsequent frames, required to manage
the arrival of 14 jobs"*; per-access read/write synchronisation costs are
folded into the WCETs.

We reproduce this as an explicit model:

* ``first_frame_arrival`` / ``steady_frame_arrival`` — the frame-arrival
  management cost: no invocation of frame ``f`` becomes visible to the
  application processors before ``f*H + overhead(f)``;
* ``per_job`` — synchronisation cost added to every executed job's execution
  time (the paper's read/write overhead, normally folded into WCETs, exposed
  for the granularity study E7);
* :meth:`as_overhead_job` — the paper's schedulability-analysis trick: model
  the arrival overhead as an extra job with a precedence edge *to* the
  generator, so the load metric accounts for it ("we modeled it by an extra
  41 ms job with a precedence edge directed to the generator").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..core.timebase import Time, TimeLike, as_nonnegative_time
from ..taskgraph.graph import TaskGraph
from ..taskgraph.jobs import Job


@dataclass(frozen=True)
class OverheadModel:
    """Frame-arrival and per-job runtime overheads (all default to zero)."""

    first_frame_arrival: Time = Time(0)
    steady_frame_arrival: Time = Time(0)
    per_job: Time = Time(0)

    @classmethod
    def create(
        cls,
        first_frame_arrival: TimeLike = 0,
        steady_frame_arrival: TimeLike = 0,
        per_job: TimeLike = 0,
    ) -> "OverheadModel":
        """Normalising constructor accepting any time-like values."""
        return cls(
            as_nonnegative_time(first_frame_arrival, "first_frame_arrival"),
            as_nonnegative_time(steady_frame_arrival, "steady_frame_arrival"),
            as_nonnegative_time(per_job, "per_job"),
        )

    @classmethod
    def none(cls) -> "OverheadModel":
        """The zero-overhead model (ideal platform)."""
        return cls()

    @classmethod
    def mppa_like(cls) -> "OverheadModel":
        """The overheads measured in Section V-A (41 ms / 20 ms)."""
        return cls.create(first_frame_arrival=41, steady_frame_arrival=20)

    def frame_arrival(self, frame: int) -> Time:
        """Arrival-management overhead of 0-based frame *frame*."""
        if frame < 0:
            raise ValueError("frame index must be non-negative")
        return self.first_frame_arrival if frame == 0 else self.steady_frame_arrival

    @property
    def is_zero(self) -> bool:
        return (
            self.first_frame_arrival == 0
            and self.steady_frame_arrival == 0
            and self.per_job == 0
        )

    # ------------------------------------------------------------------
    def as_overhead_job(
        self, graph: TaskGraph, overhead: TimeLike = None
    ) -> TaskGraph:
        """*graph* with the paper's extra overhead job prepended (*graph*
        itself when the overhead is zero).

        The synthetic job ``__overhead__[1]`` arrives at 0, consumes the
        (worst-case) frame-arrival overhead, and precedes every source job of
        the graph, so ASAP times and the load metric see the arrival delay.
        """
        value = as_nonnegative_time(
            overhead if overhead is not None else
            max(self.first_frame_arrival, self.steady_frame_arrival),
            "overhead",
        )
        if value == 0:
            return graph
        deadline = graph.hyperperiod if graph.hyperperiod is not None else max(
            j.deadline for j in graph.jobs
        )
        ojob = Job(
            process="__overhead__",
            k=1,
            arrival=Time(0),
            deadline=deadline,
            wcet=value,
        )
        jobs = [ojob] + list(graph.jobs)
        edges: List[Tuple[int, int]] = [(i + 1, j + 1) for i, j in graph.edges()]
        for src in graph.sources():
            edges.append((0, src + 1))
        return TaskGraph(jobs, edges, graph.hyperperiod)
