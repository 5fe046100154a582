"""Persistent sweep service: a resident worker pool with warm caches.

:class:`SweepPool` is the multiprocess backend of the sweep engine in
:mod:`repro.experiment.sweep`, run as a resident service.  The pool
spawns its worker processes once and keeps them alive across many
:meth:`~SweepPool.submit` calls, so repeated sweep traffic — the
ROADMAP north-star — stops paying the two dominant fixed costs of
``run_sweep(workers=N)``:

* **process spawn**: each spawned interpreter takes ~a second to boot
  and re-import :mod:`repro`; a resident pool pays it once per worker
  slot, not once per sweep (``SweepStats.pool_reused`` tells a
  submission it ran on an already-warm pool);
* **stage recomputation**: workers retain warm state between sweeps — a
  :class:`~repro.experiment.experiment.PipelineCache` per
  ``schedule_key`` plus decoded :class:`Scenario` / :class:`Stimulus`
  payloads keyed by content hash — so a resubmitted or overlapping
  matrix pays **zero** new derivations/scheduling passes
  (``SweepStats.warm_group_hits`` / ``payload_cache_hits`` count the
  reuse; the test suite pins the zero).

Warmth only helps if a group reliably lands on the worker that cached
it, which a shared task queue cannot promise.  Each worker therefore
owns a dedicated inbox queue (and reply pipe) and the pool routes
groups by **schedule-key affinity**, as a preference and never a wait:
a group runs on an idle worker warm for its key, otherwise on an idle
worker no pending group is warm on, a newly spawned one (the pool grows
up to ``workers`` slots on demand) or any idle one.  So a key spreads to
a second worker only while its warm one is busy.  Both worker-side
caches are bounded LRUs (``max_cached_groups`` /
``max_cached_payloads``) and :meth:`~SweepPool.evict_caches` clears
them on demand, so resident memory stays flat under churning traffic.

Submissions go through a queue.  :meth:`~SweepPool.submit` enqueues the
matrix's schedule-key groups and returns a :class:`SweepTicket`
immediately; multiple pending matrices interleave at group granularity
(the pending queue is FIFO over *groups*, not submissions), rows stream
back through the ``on_row`` callback as cells complete, and
``ticket.result()`` drives the pool until its submission finishes.  A
driver on another thread calls :meth:`~SweepPool.wake` to end a pump's
wait for replies early.

Workers run each group through the serial path's cell runner
(:func:`repro.experiment.sweep._run_cells`) and each submission books
the replies through the serial path's bookkeeper
(:class:`repro.experiment.sweep._SweepBook`), so:

* rows are **bit-identical** to a serial ``run_sweep`` of the matrix;
* checkpoint-store hits are resolved parent-side before dispatch
  (workers stay store-free) and computed rows are persisted as replies
  merge;
* the pool supervises its workers: a worker that dies is respawned
  *into its slot* (the dedicated channels make crash attribution exact
  — only the dead worker's group is charged a retry), per-group
  deadlines terminate and retry wedged groups with exponential backoff
  up to ``max_retries``, and ``KeyboardInterrupt`` drains completed
  replies, tears the workers down (no orphans) and returns the partial
  result with ``stats.interrupted`` set;
* deterministic :class:`~repro.experiment.faults.FaultPlan` injection
  works per submission, exactly as under ``run_sweep(faults=...)``.

``run_sweep(workers=N)`` hands its schedule-key groups to a transient
``SweepPool`` that lives for that one submission.

Spawn's usual rule applies: a *script* using a ``SweepPool`` at import
time must guard it with ``if __name__ == "__main__":`` (workers use the
spawn start method unconditionally and re-import the main module).
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import (
    ModelError,
    SweepError,
    SweepTimeoutError,
    WorkerCrashError,
)
from .experiment import PipelineCache
from .faults import FaultPlan
from .store import ScenarioKeys, SweepStore
from .sweep import (
    DATA_METRICS,
    DEFAULT_METRICS,
    ScenarioMatrix,
    SweepCell,
    SweepResult,
    SweepRow,
    SweepStats,
    _CellOutcome,
    _SweepBook,
    _cell_error,
    _check_metrics,
    _dispatch_plan,
    _run_cells,
)

__all__ = ["PoolEvent", "SweepPool", "SweepTicket"]

#: Supervisor poll period [s]: how long a collect blocks for replies
#: before re-checking dispatch, crashes and deadlines.
_POLL_INTERVAL = 0.02

#: Worker-side inbox wait [s] between checks that the parent is alive: a
#: worker whose parent was killed exits within about this long.
_PARENT_CHECK_INTERVAL = 0.5


@dataclass(frozen=True)
class PoolEvent:
    """One milestone in a submission's lifecycle (telemetry stream).

    Emitted to the ``on_progress`` callback of :meth:`SweepPool.submit`
    at group granularity — the complement of the per-cell ``on_row``
    stream.  Delivery is **best-effort**: a raising progress sink is
    swallowed and never perturbs the sweep (unlike ``on_row``, whose
    errors are surfaced after bookkeeping — rows are data, progress is
    telemetry).

    ``kind`` is one of ``"store-hits"`` (cells resolved from the
    checkpoint store at submit), ``"enqueued"`` (groups queued behind
    the pending queue), ``"dispatch"`` (group handed to a worker slot),
    ``"group-done"`` (reply merged), ``"group-failed"`` (retry budget
    exhausted — detail carries the error), ``"retry"`` (group requeued
    after a crash/timeout) and ``"finished"`` (submission complete).
    """

    kind: str
    gid: Optional[int] = None
    cells: int = 0
    groups: int = 0
    detail: str = ""


# ---------------------------------------------------------------------------
# wire format (parent <-> worker), all JSON text
# ---------------------------------------------------------------------------
def _encode_service_group(
    group: Sequence[SweepCell],
    metrics: Tuple[str, ...],
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
    keys: Optional[ScenarioKeys] = None,
) -> str:
    """One group as wire JSON, with content hashes for the warm caches.

    Stimuli are pooled by object identity (cells of a group usually
    share the base scenario's stimulus, and stimuli dominate the
    payload) and every scenario body / pooled stimulus carries its
    content hash, so a worker that already decoded the same bytes in an
    earlier sweep reuses the decoded object instead of re-parsing it.
    The scenario hash is computed over the stimulus-free body — stimulus
    identity is covered by the pool entry's own hash, over *keys*'s
    encoding (the submission's: one per stimulus).
    """
    from ..io.json_io import canonical_hash, content_hash, scenario_to_dict

    keys = ScenarioKeys() if keys is None else keys
    pool: List[Dict[str, Any]] = []
    pool_index: Dict[int, int] = {}
    cells = []
    for cell in group:
        stimulus = cell.scenario.stimulus
        data = scenario_to_dict(cell.scenario.replace(stimulus=None))
        del data["stimulus"]
        stim_ref = None
        if stimulus is not None:
            stim_ref = pool_index.get(id(stimulus))
            if stim_ref is None:
                stim_ref = pool_index[id(stimulus)] = len(pool)
                stim_data, stim_bytes = keys.stimulus(stimulus)
                stim_hash = canonical_hash(stim_bytes)
                pool.append({"hash": stim_hash, "data": stim_data})
        cells.append({
            "index": cell.index,
            "scenario": data,
            "hash": content_hash(data),
            "stimulus": stim_ref,
        })
    plan = (
        None if faults is None
        else faults.restrict([cell.index for cell in group])
    )
    return json.dumps({
        "metrics": list(metrics),
        "stimulus_pool": pool,
        "cells": cells,
        "faults": None if plan is None or plan.is_empty
        else plan.to_jsonable(),
        "attempt": attempt,
    })


class _LRU(OrderedDict):
    """A bounded map that evicts its least recently used entry."""

    def __init__(self, bound: int) -> None:
        super().__init__()
        self.bound = bound

    def fetch(self, key: str, make: Callable[[], Any]) -> Tuple[Any, bool]:
        """The entry for *key* (made on a miss) and whether it was a hit."""
        if key in self:
            self.move_to_end(key)
            return self[key], True
        value = self[key] = make()
        while len(self) > self.bound:
            self.popitem(last=False)
        return value, False


class _WorkerCaches:
    """The warm state a resident worker keeps between sweeps.

    Three bounded LRUs: one :class:`PipelineCache` per schedule key
    (the unit of stage reuse — evicting an entry drops that key's
    network/derivation/schedule in one piece), plus decoded ``Scenario``
    and ``Stimulus`` payloads keyed by content hash.  Payload hits and
    the per-group pipeline hit are reported back with each reply so
    the parent can surface per-sweep reuse in :class:`SweepStats`.
    """

    def __init__(self, max_groups: int, max_payloads: int) -> None:
        self.pipelines = _LRU(max_groups)
        self.scenarios = _LRU(max_payloads)
        self.stimuli = _LRU(max_payloads)

    def clear(self) -> None:
        self.pipelines.clear()
        self.scenarios.clear()
        self.stimuli.clear()


def _service_run_group(payload: str, caches: _WorkerCaches) -> str:
    """Run one schedule-key group against the worker's warm caches.

    The cells go through :func:`~repro.experiment.sweep._run_cells`, the
    engine a serial sweep uses, on the :class:`PipelineCache` fetched
    from (or installed into) the per-schedule-key LRU; scenario/stimulus
    decoding is skipped when the content hash hits.  Each outcome
    travels as a :func:`~repro.io.json_io.sweep_row_to_dict` row without
    its cell (the parent owns the coordinates), plus its cell index and
    cache-counter deltas, so a warm group contributes exactly zero
    derivations/schedules to the sweep's totals.
    """
    from ..io.json_io import (
        scenario_from_dict,
        stimulus_from_dict,
        sweep_row_to_dict,
    )

    data = json.loads(payload)
    metrics = tuple(data["metrics"])
    plan_data = data.get("faults")
    payload_hits = 0

    def decode(table: _LRU, key: str, body: Any, parse: Callable) -> Any:
        nonlocal payload_hits
        value, hit = table.fetch(key, lambda: parse(body))
        payload_hits += hit
        return value

    stimuli = [
        decode(caches.stimuli, entry["hash"], entry["data"],
               stimulus_from_dict)
        for entry in data.get("stimulus_pool", ())
    ]
    cells = []
    for item in data["cells"]:
        scenario = decode(caches.scenarios, item["hash"], item["scenario"],
                          scenario_from_dict)
        stim_ref = item.get("stimulus")
        if stim_ref is not None:
            scenario = scenario.replace(stimulus=stimuli[stim_ref])
        cells.append(
            SweepCell(index=int(item["index"]), coords=(), scenario=scenario)
        )

    # All cells of a group share one schedule key by construction; repr
    # is a stable worker-local identity for it (the cache never leaves
    # this process).
    cache_key = repr(cells[0].scenario.schedule_key()) if cells else ""
    cache, warm = caches.pipelines.fetch(cache_key, PipelineCache)
    outcomes = []
    for outcome in _run_cells(
        cells, metrics, any(name in DATA_METRICS for name in metrics),
        cache=cache,
        faults=None if plan_data is None
        else FaultPlan.from_jsonable(plan_data),
        in_worker=True,
        retries=int(data.get("attempt", 0)),
    ):
        row = SweepRow(
            cell={}, metrics=outcome.metrics or {}, error=outcome.error
        )
        outcomes.append({
            "index": outcome.cell.index,
            "stages": outcome.stages,
            **sweep_row_to_dict(row),
        })
    return json.dumps({
        "outcomes": outcomes,
        "group_cache_hit": warm,
        "payload_hits": payload_hits,
    })


def _service_worker(
    inbox: Any, outbox: Any, max_cached_groups: int, max_cached_payloads: int,
) -> None:
    """Resident worker main loop (spawn target).

    Announces readiness (the parent starts deadline clocks only after
    the boot, so a tight ``group_timeout`` measures group runtime, not
    interpreter spawn), then serves ``run`` / ``evict`` messages until
    ``stop``.  Warm state lives in :class:`_WorkerCaches` and survives
    across messages — that persistence *is* the service.

    *outbox* is this worker's own reply pipe, written synchronously: a
    worker that dies can lose or truncate only its own messages, never
    hold a lock the other workers' replies need.  An idle worker checks
    that its parent is alive every :data:`_PARENT_CHECK_INTERVAL` and
    exits once it is not: a killed parent sends no ``stop``.
    """
    import multiprocessing
    import queue

    parent = multiprocessing.parent_process()
    caches = _WorkerCaches(max_cached_groups, max_cached_payloads)
    try:
        outbox.send(("ready", None))
        while True:
            try:
                message = inbox.get(timeout=_PARENT_CHECK_INTERVAL)
            except queue.Empty:
                if parent is not None and not parent.is_alive():
                    return
                continue
            kind = message[0]
            if kind == "stop":
                return
            if kind == "evict":
                caches.clear()
                continue
            if kind == "run":
                outbox.send(("reply", _service_run_group(message[1], caches)))
    except (KeyboardInterrupt, EOFError, BrokenPipeError):
        return


# ---------------------------------------------------------------------------
# parent-side bookkeeping
# ---------------------------------------------------------------------------
@dataclass
class _Submission:
    """One submitted matrix: its bookkeeper, options and dispatch state."""

    book: _SweepBook
    on_error: str
    on_progress: Optional[Callable[[PoolEvent], None]]
    group_timeout: Optional[float]
    max_retries: int
    retry_backoff: float
    faults: Optional[FaultPlan] = None
    #: Fair-scheduling tag: the pending-group queue round-robins across
    #: distinct client tags, FIFO within a tag (``None`` is a tag too).
    client: Optional[str] = None
    outstanding: int = 0
    finished: bool = False
    cancelled: bool = False
    result: Optional[SweepResult] = None

    @property
    def stats(self) -> SweepStats:
        return self.book.stats


@dataclass
class _PoolGroup:
    """One schedule-key group's dispatch bookkeeping."""

    gid: int
    submission: _Submission
    cells: List[SweepCell]
    key: Any
    #: Budget-charged redispatches so far (crash / timeout recovery).
    attempt: int = 0
    #: Monotonic time before which the group must not be redispatched.
    not_before: float = 0.0

    @property
    def indices(self) -> List[int]:
        return [cell.index for cell in self.cells]


@dataclass(eq=False)
class _WorkerSlot:
    """Parent-side record of one resident worker process."""

    index: int
    process: Any = None
    inbox: Any = None
    #: Read end of the worker's reply pipe.
    outbox: Any = None
    ready: bool = False
    current: Optional[_PoolGroup] = None
    deadline: Optional[float] = None
    #: Schedule keys this worker ran, mirroring its pipeline LRU.
    warm: Optional[_LRU] = None

    @property
    def idle(self) -> bool:
        return self.current is None


class SweepTicket:
    """Handle for one :meth:`SweepPool.submit` call.

    ``result()`` drives the pool until the submission finishes and
    returns its :class:`SweepResult` (subsequent calls return the same
    object); ``cancel()`` withdraws groups not yet dispatched.  Rows
    stream through the submission's ``on_row`` callback as replies
    merge, in completion order — the final result is in cell order.
    """

    def __init__(self, pool: "SweepPool", submission: _Submission) -> None:
        self._pool = pool
        self._submission = submission

    @property
    def done(self) -> bool:
        """True once every group finished (or was cancelled/failed)."""
        return self._submission.finished

    @property
    def cancelled(self) -> bool:
        return self._submission.cancelled

    def cancel(self) -> bool:
        """Withdraw the submission's not-yet-dispatched groups.

        Groups already running complete normally and their rows are
        kept; everything still queued is dropped.  The result becomes a
        partial table with ``stats.interrupted`` set (the same shape an
        interrupted sweep returns).  Returns ``True`` if anything was
        actually withdrawn.
        """
        return self._pool._cancel(self._submission)

    def result(self) -> SweepResult:
        """Drive the pool until this submission completes; its table."""
        sub = self._submission
        if not sub.finished:
            self._pool._pump(sub)
        if sub.result is None:
            sub.result = sub.book.result()
        if sub.on_error == "raise" and sub.result.failed_rows:
            first = sub.result.failed_rows[0]
            raise SweepError(
                f"sweep cell {first.cell!r} failed — "
                f"{first.error.describe()}"
            )
        return sub.result


class SweepPool:
    """Resident sweep service: spawn once, stay warm, stream rows.

    Parameters
    ----------
    workers:
        Maximum resident worker processes.  Slots are spawned lazily as
        groups demand them (a submission fully served by its checkpoint
        store spawns nothing) and then stay alive until :meth:`close`.
    group_timeout, max_retries, retry_backoff:
        Pool-wide supervision defaults, overridable per ``submit``;
        semantics identical to :func:`~repro.experiment.sweep.run_sweep`.
    max_cached_groups, max_cached_payloads:
        Bounds of each worker's warm LRUs (pipeline caches per schedule
        key / decoded payloads by content hash).

    The pool is a context manager; ``with SweepPool(...) as pool:``
    guarantees the workers are torn down (no orphan processes) on exit.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        group_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.25,
        max_cached_groups: int = 8,
        max_cached_payloads: int = 64,
    ) -> None:
        if workers < 1:
            raise ModelError("SweepPool needs workers >= 1")
        if max_retries < 0:
            raise ModelError("max_retries must be >= 0")
        if retry_backoff < 0:
            raise ModelError("retry_backoff must be >= 0")
        if max_cached_groups < 1 or max_cached_payloads < 1:
            raise ModelError("worker cache bounds must be >= 1")
        self.workers = workers
        self.group_timeout = group_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.max_cached_groups = max_cached_groups
        self.max_cached_payloads = max_cached_payloads
        self._slots: List[_WorkerSlot] = []
        self._pending: List[_PoolGroup] = []
        #: The client tag served by the most recent dispatch — the
        #: round-robin cursor of the fair scheduler (see `_dispatch_next`).
        self._last_client: Optional[str] = None
        self._ctx: Any = None
        self._next_gid = 0
        self._closed = False
        import socket  # here: serial sweeps never pay for it

        # `wake` writes here to end a blocked collect from another thread.
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_w.setblocking(False)

    # -- lifecycle ------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while at least one resident worker process is alive."""
        return any(
            slot.process is not None and slot.process.is_alive()
            for slot in self._slots
        )

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(graceful=exc_info[0] is None)

    def close(self, *, graceful: bool = True) -> None:
        """Shut the service down and reap every worker process.

        ``graceful`` lets in-flight groups finish (their replies are
        discarded); otherwise workers are terminated immediately.
        Unfinished submissions become partial results with
        ``stats.interrupted`` set.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._teardown(graceful)
        self._wake_r.close()
        self._wake_w.close()

    def wake(self) -> None:
        """End a blocked :meth:`pump_once` wait early (thread-safe)."""
        try:
            self._wake_w.send(b"w")
        except OSError:  # a wake is already pending, or the pool is closed
            pass

    def _teardown(self, graceful: bool) -> None:
        """Cut every unfinished submission short and reap every worker."""
        for group in self._pending:
            self._mark_interrupted(group.submission)
        self._pending.clear()
        for slot in self._slots:
            if slot.current is not None:
                self._mark_interrupted(slot.current.submission)
            process = slot.process
            if process is None:
                continue
            if graceful and process.is_alive():
                try:
                    slot.inbox.put(("stop",))
                except Exception:
                    process.terminate()
            else:
                process.terminate()
            # Replies are discarded: a worker mid-send sees a broken pipe
            # and exits instead of blocking on a full one.
            if slot.outbox is not None:
                slot.outbox.close()
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join()
        self._slots = []

    def evict_caches(self) -> None:
        """Clear every worker's warm caches (memory back to baseline).

        The workers stay resident — only their cached pipeline stages
        and decoded payloads are dropped, so the next submission pays
        stage computation again but no respawn.
        """
        for slot in self._slots:
            if slot.process is not None and slot.process.is_alive():
                slot.inbox.put(("evict",))
                slot.warm.clear()

    # -- submission -----------------------------------------------------
    def submit(
        self,
        matrix: ScenarioMatrix,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        cells: Optional[Sequence[SweepCell]] = None,
        store: Optional[SweepStore] = None,
        faults: Optional[FaultPlan] = None,
        on_error: str = "capture",
        on_row: Optional[Callable[[SweepRow], None]] = None,
        on_progress: Optional[Callable[[PoolEvent], None]] = None,
        group_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        client: Optional[str] = None,
    ) -> SweepTicket:
        """Enqueue a matrix; returns a :class:`SweepTicket` immediately.

        Store hits are resolved here, parent-side, before anything is
        dispatched (hit rows stream through ``on_row`` right away and
        never reach a worker).  The remaining cells are enqueued as
        schedule-key groups behind whatever other submissions are
        pending — interleaving is at group granularity.  Nothing
        executes until the pool is driven (``ticket.result()``).

        ``client`` tags the submission for the fair scheduler: the
        pending queue round-robins across distinct client tags (FIFO
        within a tag), so one client's huge matrix cannot starve
        another client's small one.  Untagged submissions all share the
        ``None`` tag, which degenerates to plain FIFO — the pre-service
        behaviour.

        ``on_progress`` receives a best-effort :class:`PoolEvent` stream
        at group granularity (store hits, enqueue, dispatch, done,
        retry, failure, finish) — the live-telemetry complement of the
        per-cell ``on_row`` row stream.

        Every cell must be dispatchable (scenarios that embed code the
        workers cannot reconstruct are refused with
        :class:`~repro.errors.ModelError`); callers wanting the
        serial-fallback behaviour go through ``run_sweep(workers=N)``.
        """
        if self._closed:
            raise ModelError("SweepPool is closed")
        metrics, want_data = _check_metrics(metrics)
        if on_error not in ("capture", "raise"):
            raise ModelError(
                f"on_error must be 'capture' or 'raise', got {on_error!r}"
            )
        cells = list(matrix.cells() if cells is None else cells)
        # Count the cells actually submitted: an explicit ``cells=``
        # subset (a resubmission of failed/missing cells, say) must not
        # report the full matrix size — ``table()``'s "interrupted:
        # N/M cells" line and any hit-rate computed from ``stats.cells``
        # would misreport the subset run.
        book = _SweepBook(
            dict(matrix.axes), cells, metrics, want_data,
            SweepStats(cells=len(cells)),
            store=store, on_row=on_row,
        )
        plan = _dispatch_plan(cells, min_groups=0)
        if isinstance(plan, str):
            raise ModelError(plan)
        return self._enqueue(
            book, plan,
            faults=faults, on_error=on_error,
            on_progress=on_progress, group_timeout=group_timeout,
            max_retries=max_retries, retry_backoff=retry_backoff,
            client=client,
        )

    def _enqueue(
        self,
        book: _SweepBook,
        groups: Dict[Any, List[SweepCell]],
        *,
        faults: Optional[FaultPlan],
        on_error: str,
        on_progress: Optional[Callable[[PoolEvent], None]],
        group_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        retry_backoff: Optional[float] = None,
        client: Optional[str] = None,
    ) -> SweepTicket:
        """Queue a planned sweep's schedule-key *groups* behind the rest.

        Store hits are resolved first, parent-side — hit cells never
        reach a worker, which keeps workers store-free.
        """
        stats = book.stats
        stats.pool_reused = self.started
        submission = _Submission(
            book=book,
            on_error=on_error,
            on_progress=on_progress,
            group_timeout=(
                self.group_timeout if group_timeout is None else group_timeout
            ),
            max_retries=(
                self.max_retries if max_retries is None else max_retries
            ),
            retry_backoff=(
                self.retry_backoff if retry_backoff is None else retry_backoff
            ),
            faults=faults,
            client=client,
        )
        todo = {cell.index for cell in book.resolve_hits()}
        if stats.store_hits:
            self._notify(submission, "store-hits", cells=stats.store_hits)
        for key, group_cells in groups.items():
            group_cells = [c for c in group_cells if c.index in todo]
            if not group_cells:
                continue
            self._pending.append(_PoolGroup(
                gid=self._next_gid,
                submission=submission,
                cells=group_cells,
                key=key,
            ))
            self._next_gid += 1
            submission.outstanding += 1
        stats.workers = min(self.workers, submission.outstanding) or 1
        self._notify(
            submission, "enqueued",
            cells=len(todo), groups=submission.outstanding,
        )
        if submission.outstanding == 0:
            submission.finished = True
            self._notify(submission, "finished")
        return SweepTicket(self, submission)

    def _notify(self, submission: _Submission, kind: str, **fields: Any) -> None:
        """Deliver one :class:`PoolEvent`, best-effort.

        Progress is telemetry, not data: a raising sink must never
        wedge or fail a sweep, so exceptions are swallowed here (the
        ``on_row`` stream, which *is* data, surfaces its errors after
        group bookkeeping instead).
        """
        if submission.on_progress is None:
            return
        try:
            submission.on_progress(PoolEvent(kind=kind, **fields))
        except Exception:
            pass

    # -- worker slots ---------------------------------------------------
    def _spawn_slot(self) -> _WorkerSlot:
        slot = _WorkerSlot(len(self._slots))
        self._slots.append(slot)
        self._spawn_process(slot)
        return slot

    def _spawn_process(self, slot: _WorkerSlot) -> None:
        import multiprocessing

        if self._ctx is None:
            # Spawn unconditionally: the only start method that is safe
            # and available everywhere (fork inherits arbitrary state).
            self._ctx = multiprocessing.get_context("spawn")
        slot.inbox = self._ctx.Queue()
        slot.outbox, child_outbox = self._ctx.Pipe(duplex=False)
        slot.ready = False
        slot.current = None
        slot.deadline = None
        slot.warm = _LRU(self.max_cached_groups)
        slot.process = self._ctx.Process(
            target=_service_worker,
            args=(
                slot.inbox, child_outbox,
                self.max_cached_groups, self.max_cached_payloads,
            ),
            daemon=True,
        )
        slot.process.start()
        # Only the worker may hold the write end: the pipe then reports
        # EOF once the worker is gone.
        child_outbox.close()

    def _respawn_slot(self, slot: _WorkerSlot) -> None:
        """Replace a dead/wedged worker process in its slot (cold caches)."""
        process = slot.process
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join()
        if slot.outbox is not None:
            slot.outbox.close()
        self._spawn_process(slot)

    # -- scheduling -----------------------------------------------------
    def _worker_for(self, group: _PoolGroup) -> Optional[_WorkerSlot]:
        """The slot this group runs on now, or ``None`` if none is free.

        Affinity is a preference, not a wait: an idle slot warm for the
        group's key, else an idle slot no other pending group is warm
        on, else a new slot (up to ``workers``), else any idle slot.  A
        key spreads to a second slot only while its warm one is busy, so
        uncontended traffic does not churn a worker's LRU.
        """
        idle = [slot for slot in self._slots if slot.idle]
        for slot in idle:
            if group.key in slot.warm:
                return slot
        claimed = {other.key for other in self._pending if other is not group}
        for slot in idle:
            if claimed.isdisjoint(slot.warm):
                return slot
        if len(self._slots) < self.workers:
            return self._spawn_slot()
        return idle[0] if idle else None

    def _dispatch_ready(self, now: float) -> None:
        while self._dispatch_next(now):
            pass

    def _dispatch_next(self, now: float) -> bool:
        """Dispatch one pending group, fair across client tags.

        Clients take turns: the scheduler cycles through the distinct
        client tags present in the pending queue, starting after the tag
        served by the previous dispatch, and hands out the first
        dispatchable group (backoff elapsed, a worker available; see
        `_worker_for`) of the first tag that has one.  FIFO
        within a tag preserves each client's own submission order, and a
        single tag — every pre-service caller — reduces to the original
        FIFO-over-groups behaviour.  Returns True when a group was
        dispatched.
        """
        order: List[Optional[str]] = []
        seen = set()
        for group in self._pending:
            tag = group.submission.client
            if tag not in seen:
                seen.add(tag)
                order.append(tag)
        if not order:
            return False
        if self._last_client in seen:
            pivot = order.index(self._last_client) + 1
            order = order[pivot:] + order[:pivot]
        for tag in order:
            for group in self._pending:
                if group.submission.client != tag:
                    continue
                if group.not_before > now:
                    continue
                slot = self._worker_for(group)
                if slot is None:
                    continue
                self._dispatch_group(group, slot, now)
                self._last_client = tag
                return True
        return False

    def _dispatch_group(
        self, group: _PoolGroup, slot: _WorkerSlot, now: float
    ) -> None:
        self._pending.remove(group)
        submission = group.submission
        payload = _encode_service_group(
            group.cells, submission.book.metrics,
            faults=submission.faults, attempt=group.attempt,
            keys=submission.book.keys,
        )
        slot.inbox.put(("run", payload))
        slot.current = group
        slot.warm.fetch(group.key, lambda: None)
        self._notify(
            submission, "dispatch",
            gid=group.gid, cells=len(group.cells),
            detail=f"slot {slot.index}" + (
                f", attempt {group.attempt}" if group.attempt else ""
            ),
        )
        # Deadlines measure group runtime: the clock starts at
        # dispatch only for booted workers, otherwise when the
        # worker's ready message arrives.
        timeout = submission.group_timeout
        slot.deadline = (
            now + timeout if timeout is not None and slot.ready else None
        )

    # -- collection -----------------------------------------------------
    def _collect_ready(self, *, block: bool, fire_interrupts: bool) -> bool:
        """Merge every available reply; True if any group finished."""
        # Imported here, like the spawn context: sweeps that never start
        # a worker do not pay for the multiprocessing machinery.
        from multiprocessing.connection import wait as wait_connections

        merged_any = False
        timeout = _POLL_INTERVAL if block else 0.0
        while True:
            slots = {
                slot.outbox: slot for slot in self._slots
                if slot.outbox is not None
            }
            ready = wait_connections([self._wake_r, *slots], timeout)
            if not ready:
                return merged_any
            timeout = 0.0  # drain the rest without blocking
            for conn in ready:
                if conn is self._wake_r:
                    conn.recv(4096)
                    continue
                slot = slots[conn]
                try:
                    kind, body = conn.recv()
                except (EOFError, OSError):
                    # The worker is gone; _supervise respawns it.
                    conn.close()
                    slot.outbox = None
                    continue
                merged_any |= self._receive(slot, kind, body, fire_interrupts)

    def _receive(
        self, slot: _WorkerSlot, kind: str, body: Any, fire_interrupts: bool
    ) -> bool:
        """Handle one worker message; True if it finished a group."""
        if kind == "ready":
            slot.ready = True
            if slot.current is not None and slot.deadline is None:
                group_timeout = slot.current.submission.group_timeout
                if group_timeout is not None:
                    slot.deadline = time.monotonic() + group_timeout
            return False
        # Each pipe belongs to one worker incarnation running at most one
        # group, so a reply is always for the slot's current group.
        group = slot.current
        slot.current = None
        slot.deadline = None
        # Group finalisation is exception-safe: once the group has
        # left its slot it is on neither the pending queue nor a
        # slot, so an escaping error from the merge (a raising user
        # ``on_row`` callback or ``store.put``) would otherwise
        # strand it — ``submission.outstanding`` never reaches 0
        # and ``ticket.result()`` pumps forever.  Finish the
        # group's bookkeeping first, then let the error surface.
        try:
            self._merge_reply(group, body)
        except BaseException:
            self._finish_group(group)
            raise
        if (
            fire_interrupts
            and group.submission.faults is not None
            and any(
                i in group.submission.faults.interrupt_at
                for i in group.indices
            )
        ):
            # Merge-then-interrupt, like a real Ctrl-C landing after
            # the reply: the firing group's own rows are kept, its
            # submission is cut short.
            self._mark_interrupted(group.submission)
            raise KeyboardInterrupt
        # group-done precedes the "finished" milestone _finish_group
        # may emit — the stream stays causally ordered for renderers.
        self._notify(
            group.submission, "group-done",
            gid=group.gid, cells=len(group.cells),
        )
        self._finish_group(group)
        return True

    def _merge_reply(self, group: _PoolGroup, payload: str) -> None:
        """Book one group reply into its submission.

        User code runs inside the booking (``store.put`` and the
        ``on_row`` callback), and it may raise.  Errors are *deferred*:
        every outcome is booked regardless and the first error re-raises
        only after the whole reply merged — the caller then finishes the
        group before letting it propagate, so a buggy sink degrades to a
        visible exception instead of a wedged ticket.
        """
        from ..io.json_io import sweep_row_from_dict

        book = group.submission.book
        data = json.loads(payload)
        cell_by_index = {cell.index: cell for cell in group.cells}
        callback_error: Optional[BaseException] = None
        for item in data["outcomes"]:
            row = sweep_row_from_dict(item)
            outcome = _CellOutcome(
                cell_by_index[item["index"]],
                metrics=None if row.error is not None else row.metrics,
                error=row.error,
                stages=tuple(item["stages"]),
            )
            try:
                book.book(outcome)
            except Exception as exc:
                if callback_error is None:
                    callback_error = exc
        if data["group_cache_hit"]:
            book.stats.warm_group_hits += 1
        book.stats.payload_cache_hits += data["payload_hits"]
        if callback_error is not None:
            raise callback_error

    def _finish_group(self, group: _PoolGroup) -> None:
        submission = group.submission
        submission.outstanding -= 1
        if submission.outstanding <= 0:
            submission.finished = True
            self._notify(submission, "finished")

    # -- supervision ----------------------------------------------------
    def _fail_group(
        self, group: _PoolGroup, exc: BaseException,
        retries: Optional[int] = None,
    ) -> None:
        """Degrade every cell of *group* to an error row for *exc*."""
        submission = group.submission
        error = _cell_error(
            exc, retries=group.attempt if retries is None else retries
        )
        for cell in group.cells:
            submission.book.book(_CellOutcome(cell, error=error))
        self._notify(
            submission, "group-failed",
            gid=group.gid, cells=len(group.cells), detail=error.describe(),
        )
        self._finish_group(group)

    def _requeue(
        self, group: _PoolGroup, now: float, exc_type: type, what: str
    ) -> None:
        """Charge one retry to *group*; requeue it or exhaust its budget."""
        submission = group.submission
        group.attempt += 1
        if group.attempt > submission.max_retries:
            # ``retries`` records redispatches actually performed — the
            # exhausting event happened on the last permitted attempt.
            self._fail_group(
                group,
                exc_type(
                    f"{what}; retry budget exhausted after "
                    f"{submission.max_retries} redispatches"
                ),
                retries=submission.max_retries,
            )
            return
        submission.stats.retries += 1
        if submission.faults is not None:
            # The fault that (presumably) fired consumed one firing: a
            # transient (times=1) kill/delay lets the retry succeed.
            submission.faults = submission.faults.decrement(group.indices)
        group.not_before = (
            now + submission.retry_backoff * 2 ** (group.attempt - 1)
        )
        self._pending.append(group)
        self._notify(
            submission, "retry",
            gid=group.gid, cells=len(group.cells),
            detail=f"{what} (attempt {group.attempt})",
        )

    def _supervise(self, now: float) -> None:
        """Respawn dead or overdue workers in place; requeue their group.

        Dedicated per-worker channels make attribution exact: only the
        failed worker's group is charged a retry, and the other workers
        keep running untouched (no pool-wide teardown).  Terminating a
        worker is the only portable way to stop a wedged group; only its
        own slot respawns (cold), the rest of the pool keeps its warmth.
        """
        for slot in self._slots:
            group = slot.current
            if slot.process is None:
                continue
            if not slot.process.is_alive():
                error, what = (
                    WorkerCrashError, "a sweep worker process died mid-group"
                )
            elif slot.deadline is not None and now > slot.deadline:
                error, what = SweepTimeoutError, (
                    f"group exceeded its {group.submission.group_timeout}s "
                    "deadline"
                )
            else:
                continue
            slot.current = None
            slot.deadline = None
            self._respawn_slot(slot)
            if group is not None:
                self._requeue(group, now, error, what)

    # -- driving --------------------------------------------------------
    def _pump(self, submission: Optional[_Submission] = None) -> None:
        """Drive the pool until *submission* (or everything) is done."""
        while not (
            submission.finished if submission is not None else not self.busy
        ):
            self.pump_once()

    def pump_once(self) -> bool:
        """Run one dispatch/collect/supervise cycle and return.

        The cooperative alternative to blocking on
        :meth:`SweepTicket.result`: an external driver (the sweep
        service's orchestrator thread) interleaves ``pump_once`` with
        its own work — accepting new submissions between cycles — while
        the pool makes progress on everything outstanding.  Blocks at
        most ~`_POLL_INTERVAL` waiting for worker replies, less when
        :meth:`wake` is called.  Returns
        True when any reply was merged this cycle (results may have
        completed).  On ``KeyboardInterrupt`` — real or
        :class:`FaultPlan`-injected — completed replies are drained
        into their submissions, every worker is terminated and reaped
        (no orphans), and all active submissions become partial results
        with ``stats.interrupted``.
        """
        try:
            now = time.monotonic()
            self._dispatch_ready(now)
            if self._collect_ready(block=True, fire_interrupts=True):
                return True
            self._supervise(now)
            return False
        except KeyboardInterrupt:
            try:
                self._collect_ready(block=False, fire_interrupts=False)
            except Exception:
                pass
            # The service survives an interrupt: slots are gone (cold),
            # the next submission respawns lazily.
            self._teardown(graceful=False)
            return True

    @property
    def busy(self) -> bool:
        """True while any group is pending or dispatched."""
        return bool(self._pending) or any(
            not s.idle for s in self._slots
        )

    def _mark_interrupted(self, submission: _Submission) -> None:
        if not submission.finished:
            submission.stats.interrupted = True
            submission.finished = True
        elif not submission.stats.interrupted and submission.outstanding > 0:
            submission.stats.interrupted = True

    def _cancel(self, submission: _Submission) -> bool:
        if submission.finished:
            return False
        withdrawn = [
            group for group in self._pending
            if group.submission is submission
        ]
        if not withdrawn:
            # Nothing to withdraw — every group is already dispatched
            # (or merged).  The submission will complete normally, so
            # its state must not be touched: marking it cancelled/
            # interrupted here would make a sweep whose every row
            # completed report itself interrupted.
            return False
        for group in withdrawn:
            self._pending.remove(group)
            submission.outstanding -= 1
        submission.cancelled = True
        submission.stats.interrupted = True
        if submission.outstanding <= 0:
            submission.finished = True
        return True
