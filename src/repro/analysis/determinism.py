"""Mechanical determinism checking (Proposition 2.1 / 4.1).

Proposition 2.1 states that the value sequences written to all channels are
a function of the event time stamps and the external input samples — i.e.
independent of platform, mapping, schedule and execution-time variation.

:func:`check_determinism` verifies this empirically and systematically: it
executes a network once under the zero-delay reference semantics and then
under a configurable family of runtime variants (different processor counts,
different SP heuristics, WCET jitter seeds, overhead models) and compares
the canonical observables.  Any mismatch is reported with the first
diverging channel.

This is the library's equivalent of the paper's "functionally equivalent,
which we verified by testing".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.platform import PlatformLike, as_platform
from ..core.semantics import run_zero_delay
from ..core.timebase import TimeLike, as_positive_time
from ..taskgraph.derivation import WcetMap, derive_task_graph
from ..taskgraph.graph import TaskGraph
from ..scheduling.list_scheduler import list_schedule
from ..runtime.executor import (
    MultiprocessorExecutor,
    jittered_execution,
)
from ..runtime.overheads import OverheadModel


@dataclass
class VariantOutcome:
    """Result of one runtime variant against the reference."""

    label: str
    matches: bool
    first_divergence: Optional[str] = None


@dataclass
class DeterminismReport:
    """Outcome of a determinism check across all variants."""

    reference_jobs: int
    variants: List[VariantOutcome] = field(default_factory=list)

    @property
    def deterministic(self) -> bool:
        return all(v.matches for v in self.variants)

    def failures(self) -> List[VariantOutcome]:
        return [v for v in self.variants if not v.matches]

    def summary(self) -> str:
        status = "DETERMINISTIC" if self.deterministic else "NON-DETERMINISTIC"
        lines = [
            f"{status}: {len(self.variants)} runtime variants vs zero-delay "
            f"reference ({self.reference_jobs} jobs)"
        ]
        for v in self.variants:
            mark = "ok " if v.matches else "FAIL"
            extra = "" if v.matches else f"  ({v.first_divergence})"
            lines.append(f"  [{mark}] {v.label}{extra}")
        return "\n".join(lines)


def first_divergence(a: Mapping[str, Any], b: Mapping[str, Any]) -> Optional[str]:
    """Human-readable description of the first difference between two
    observables (``None`` when identical)."""
    for section in ("channels", "outputs"):
        sa, sb = a.get(section, {}), b.get(section, {})
        for key in sorted(set(sa) | set(sb)):
            va, vb = sa.get(key), sb.get(key)
            if va != vb:
                return (
                    f"{section}[{key!r}]: reference has {_preview(va)}, "
                    f"variant has {_preview(vb)}"
                )
    return None


def _preview(seq, limit: int = 4) -> str:
    if seq is None:
        return "<absent>"
    head = list(seq)[:limit]
    suffix = "..." if len(seq) > limit else ""
    return f"{len(seq)} values {head!r}{suffix}"


def check_determinism(
    network: Network,
    wcet: WcetMap,
    n_frames: int,
    stimulus: Optional[Stimulus] = None,
    processor_counts: Sequence[PlatformLike] = (1, 2, 4),
    heuristics: Sequence[str] = ("alap", "arrival"),
    jitter_seeds: Sequence[int] = (0, 7),
    overheads: Optional[OverheadModel] = None,
) -> DeterminismReport:
    """Run the determinism matrix: reference vs schedule/jitter variants.

    All variants consume the *same* stimulus, so by Prop. 2.1 every
    observable must be identical to the zero-delay reference over the same
    horizon ``n_frames * H``.  *processor_counts* lists the platforms the
    variants schedule on: an ``int`` is ``M`` identical processors, a
    :class:`~repro.core.platform.Platform` is scheduled and run as is
    (labelled ``M=<count>`` when it is one speed-1 class, by its
    description otherwise).

    Each variant runs through the executor's observer-based core with
    ``collect_records=False`` and ``collect_trace=False``: the matrix only
    compares data-phase observables (channel logs and external outputs), so
    neither :class:`~repro.runtime.executor.JobRecord` objects nor action
    traces are ever materialised — the timing recurrence stays in pure
    integer ticks and the sweep skips every per-record and per-action
    allocation.
    """
    return determinism_matrix(
        network, derive_task_graph(network, wcet), n_frames, stimulus,
        processor_counts=processor_counts, heuristics=heuristics,
        jitter_seeds=jitter_seeds, overheads=overheads,
    )


def determinism_matrix(
    network: Network,
    graph: TaskGraph,
    n_frames: int,
    stimulus: Optional[Stimulus] = None,
    *,
    processor_counts: Sequence[PlatformLike] = (1, 2, 4),
    heuristics: Sequence[str] = ("alap", "arrival"),
    jitter_seeds: Sequence[int] = (0, 7),
    overheads: Optional[OverheadModel] = None,
) -> DeterminismReport:
    """:func:`check_determinism` on an already derived task *graph*
    (:meth:`~repro.experiment.Experiment.check_determinism` passes its
    cached one)."""
    horizon = graph.hyperperiod * n_frames
    stimulus = stimulus or Stimulus()
    # Arrivals whose server window lies beyond the simulated frames would be
    # deferred by the runtime; exclude them from every execution so the
    # comparison is over the same event set.
    from ..runtime.static_order import served_horizon

    stimulus = stimulus.truncated(
        served_horizon(network, graph.hyperperiod, n_frames)
    )

    reference = run_zero_delay(network, horizon, stimulus)
    ref_obs = reference.observable()

    report = DeterminismReport(reference_jobs=reference.job_count)
    for platform in map(as_platform, processor_counts):
        where = (
            f"M={platform.processors}" if platform.is_unit
            else platform.describe()
        )
        for heuristic in heuristics:
            schedule = list_schedule(graph, platform, heuristic)
            executor = MultiprocessorExecutor(network, schedule, overheads)
            variants = [("wcet", None)] + [
                (f"jitter#{seed}", jittered_execution(seed)) for seed in jitter_seeds
            ]
            for label, exec_time in variants:
                result = executor.run(
                    n_frames, stimulus, exec_time,
                    collect_records=False, collect_trace=False,
                )
                obs = result.observable()
                div = first_divergence(ref_obs, obs)
                report.variants.append(
                    VariantOutcome(
                        label=f"{where} sp={heuristic} {label}",
                        matches=div is None,
                        first_divergence=div,
                    )
                )
    return report
