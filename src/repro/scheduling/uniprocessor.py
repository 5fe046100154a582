"""Uniprocessor fixed-priority baseline.

The paper's introduction observes that on uniprocessors, fixed-priority
scheduling is used *"not only for meeting the deadlines but also for ensuring
functional determinism"*: the schedule priority defines the relative
execution order of communicating tasks.  FPPN generalises exactly this to
multiprocessors.  Section V-B uses the original uniprocessor FMS prototype
(rate-monotonic priorities) as the functional-equivalence reference.

This module provides that reference:

* :func:`rate_monotonic_priorities` — the RM assignment (shorter period =
  higher priority) over a network's processes;
* :class:`UniprocessorFixedPriority` — two complementary views:

  - :meth:`functional_run` executes the *functional abstraction* of
    fixed-priority scheduling with zero task execution times: jobs run
    atomically in ``(release time, priority, k)`` order.  That is the
    zero-delay construction of :mod:`repro.core.semantics` (one runner)
    under the scheduling priorities instead of the FP rank, so when the
    two orders agree on simultaneous jobs the run is functionally
    equivalent to the FPPN semantics — the property the paper "verified
    by testing" (our tests do the same, mechanically).
  - :meth:`simulate_preemptive` is a cycle-accurate preemptive
    fixed-priority timing simulation producing response times and deadline
    misses (the schedulability side of the baseline).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import RuntimeModelError, SchedulingError
from ..core.invocations import Stimulus
from ..core.network import Network
from ..core.semantics import ExecutionResult, _invocations, _run_atomic
from ..core.timebase import Time, TimeLike, as_positive_time


def rate_monotonic_priorities(network: Network) -> Dict[str, int]:
    """RM priority map: smaller period -> smaller rank (= higher priority).

    Ties are broken by process name for determinism.
    """
    ordered = sorted(network.processes.values(), key=lambda p: (p.period, p.name))
    return {p.name: i for i, p in enumerate(ordered)}


@dataclass(frozen=True)
class CompletedJob:
    """Timing record of one job in the preemptive simulation."""

    process: str
    k: int
    release: Time
    start: Time
    finish: Time
    deadline: Time
    preemptions: int

    @property
    def response_time(self) -> Time:
        return self.finish - self.release

    @property
    def missed(self) -> bool:
        return self.finish > self.deadline


class UniprocessorFixedPriority:
    """Fixed-priority uniprocessor scheduler for an FPPN's process set."""

    def __init__(
        self, network: Network, priorities: Optional[Mapping[str, int]] = None
    ) -> None:
        network.validate()
        self.network = network
        self.priorities: Dict[str, int] = dict(
            priorities if priorities is not None else rate_monotonic_priorities(network)
        )
        missing = sorted(set(network.processes) - set(self.priorities))
        if missing:
            raise SchedulingError(f"missing scheduling priority for {missing!r}")

    # ------------------------------------------------------------------
    def release_sequence(
        self, horizon: TimeLike, stimulus: Optional[Stimulus] = None
    ) -> List[Tuple[Time, int, str, int]]:
        """All job releases in ``[0, horizon)`` as ``(time, prio, process, k)``."""
        h = as_positive_time(horizon, "horizon")
        prio = self.priorities
        return sorted(
            (inv.time, prio[inv.process], inv.process, inv.index)
            for _, invocations in _invocations(self.network, h, stimulus or Stimulus())
            for inv in invocations
        )

    # ------------------------------------------------------------------
    def functional_run(
        self, horizon: TimeLike, stimulus: Optional[Stimulus] = None
    ) -> ExecutionResult:
        """Execute the zero-execution-time functional abstraction.

        Jobs run atomically in ``(release, priority, k)`` order — the data
        semantics of an idealised fixed-priority uniprocessor.  Returns the
        same :class:`ExecutionResult` structure as the FPPN executors so
        equivalence checks are one ``==`` on :meth:`observable`.
        """
        return _run_atomic(self.network, horizon, stimulus, self.priorities)

    # ------------------------------------------------------------------
    def simulate_preemptive(
        self,
        horizon: TimeLike,
        execution_times: Mapping[str, TimeLike],
        stimulus: Optional[Stimulus] = None,
    ) -> List[CompletedJob]:
        """Preemptive fixed-priority timing simulation over ``[0, horizon)``.

        *execution_times* maps process name to a constant execution time.
        Returns the completed-job records in finish order; jobs still running
        at the horizon are truncated away (not reported).
        """
        h = as_positive_time(horizon, "horizon")
        releases = self.release_sequence(h, stimulus)
        exec_of = {
            name: as_positive_time(value, f"execution time of {name!r}")
            for name, value in execution_times.items()
        }
        missing = sorted(set(self.network.processes) - set(exec_of))
        if missing:
            raise RuntimeModelError(f"missing execution time for {missing!r}")

        # Ready heap entries: (priority, release, k, process, remaining, started?, start, preemptions)
        ready: List[List] = []
        completed: List[CompletedJob] = []
        idx = 0
        now = Time(0)

        while idx < len(releases) or ready:
            if not ready:
                now = max(now, releases[idx][0])
            # admit all releases at or before now
            while idx < len(releases) and releases[idx][0] <= now:
                t, prio, pname, k = releases[idx]
                heapq.heappush(
                    ready, [prio, t, k, pname, exec_of[pname], None, 0]
                )
                idx += 1
            if not ready:
                continue
            entry = ready[0]
            prio, release, k, pname, remaining, start, preempts = entry
            if start is None:
                entry[5] = start = now
            # run until completion or next release, whichever first
            next_release = releases[idx][0] if idx < len(releases) else None
            finish_at = now + remaining
            if next_release is not None and next_release < finish_at:
                ran = next_release - now
                entry[4] = remaining - ran
                now = next_release
                # will this job actually be preempted? only if a strictly
                # higher-priority job arrives
                incoming_best = min(
                    r[1] for r in (releases[j] for j in range(idx, len(releases)))
                    if r[0] == next_release
                )
                if incoming_best < prio:
                    entry[6] += 1
                continue
            # completes
            heapq.heappop(ready)
            now = finish_at
            proc = self.network.processes[pname]
            completed.append(
                CompletedJob(
                    process=pname,
                    k=k,
                    release=release,
                    start=start,
                    finish=finish_at,
                    deadline=release + proc.deadline,
                    preemptions=preempts,
                )
            )
        return completed

    def deadline_misses(
        self,
        horizon: TimeLike,
        execution_times: Mapping[str, TimeLike],
        stimulus: Optional[Stimulus] = None,
    ) -> List[CompletedJob]:
        """Jobs that missed their deadline in the preemptive simulation."""
        return [
            j
            for j in self.simulate_preemptive(horizon, execution_times, stimulus)
            if j.missed
        ]
