"""Persistent sweep service: a resident worker pool with warm caches.

:class:`SweepPool` is the multiprocess backend of the sweep engine in
:mod:`repro.experiment.sweep`; ``run_sweep(workers=N)`` runs one
submission on a transient pool.  A resident pool pays worker spawn once
per slot, not once per sweep (``SweepStats.pool_reused``), and its
workers keep warm state between sweeps in bounded LRUs — a
:class:`~repro.experiment.experiment.PipelineCache` per schedule key and
decoded scenarios/stimuli by content hash (``max_cached_groups`` /
``max_cached_payloads``, cleared by :meth:`~SweepPool.evict_caches`) — so
a resubmitted matrix pays **zero** new derivations or schedules
(``SweepStats.warm_group_hits`` / ``payload_cache_hits``).

Every decision is made by the sans-I/O core,
:class:`~repro.experiment.pool_core.PoolCore`: the fair queue over client
tags, schedule-key affinity with warm mirrors of each worker's LRU, the
retry budget with backoff and fault-plan consumption, group deadlines,
boot failures, cancel, interrupt and settlement.  This module is its
adapter: it owns the processes (one inbox queue and one reply pipe per
worker, so a crash is charged to exactly one group), the wire encoding
of groups and the merge of replies, the user callbacks and the
``KeyboardInterrupt`` drain, and carries out the core's actions.

Two drivers share one receive routine and one action runner: the
synchronous :meth:`~SweepPool.pump_once`, which waits for a worker
message or the core's next instant, and the sweep server's asyncio loop
(reader callbacks on the worker pipes, one timer), on the loop's thread.
``add_reader`` on pipes, like the workers' watchdog, is POSIX-only.

:meth:`~SweepPool.submit` resolves checkpoint-store hits parent-side,
enqueues the remaining schedule-key groups and returns a
:class:`SweepTicket` at once; rows stream through ``on_row`` as replies
merge, and ``ticket.result()`` drives the pool until the submission
settles.  Workers run groups through the serial path's cell runner
(:func:`~repro.experiment.sweep._run_cells`) and replies are booked by
its bookkeeper (:class:`~repro.experiment.sweep._SweepBook`), so rows
are **bit-identical** to a serial ``run_sweep`` and
:class:`~repro.experiment.faults.FaultPlan` injection behaves the same.

Spawn's usual rule applies: a *script* using a ``SweepPool`` at import
time must guard it with ``if __name__ == "__main__":`` (workers re-import
the main module).  A worker that dies before it reports ready fails its
group with :class:`~repro.errors.WorkerBootError`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ModelError, SweepError
from .experiment import PipelineCache
from .faults import FaultPlan
from .fields import check_values
from .pool_core import POOL_OPTIONS, LRU, PoolCore, PoolEvent, Submission
from .store import ScenarioKeys, SweepStore
from .sweep import (
    DEFAULT_METRICS,
    ScenarioMatrix,
    SweepCell,
    SweepResult,
    SweepRow,
    SweepStats,
    _CellOutcome,
    _SweepBook,
    _cell_error,
    _check_request,
    _dispatch_plan,
    _run_cells,
)

__all__ = ["PoolEvent", "SweepPool", "SweepTicket"]

# ---------------------------------------------------------------------------
# wire format (parent <-> worker), all JSON text
# ---------------------------------------------------------------------------
def _encode_service_group(
    group: Sequence[SweepCell],
    metrics: Tuple[str, ...],
    faults: Optional[FaultPlan] = None,
    attempt: int = 0,
    keys: Optional[ScenarioKeys] = None,
    held: Optional[LRU] = None,
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

    *held* is the receiving slot's mirror of its worker's stimulus LRU
    (:attr:`~repro.experiment.pool_core.Slot.payloads`), touched here in
    pool order as the worker will touch its own: an entry whose hash it
    holds is sent as ``{"hash"}`` alone, without its data.
    """
    from ..io.json_io import _scenario_body, content_hash, fault_plan_to_dict

    keys = ScenarioKeys() if keys is None else keys
    pool: List[Dict[str, Any]] = []
    pool_index: Dict[int, int] = {}
    cells = []
    for cell in group:
        stimulus = cell.scenario.stimulus
        data = _scenario_body(cell.scenario)
        stim_ref = None
        if stimulus is not None:
            stim_ref = pool_index.get(id(stimulus))
            if stim_ref is None:
                stim_ref = pool_index[id(stimulus)] = len(pool)
                entry = keys.stimulus(stimulus)
                if held is not None and held.fetch(
                    entry.hash, lambda: None
                )[1]:
                    pool.append({"hash": entry.hash})
                else:
                    pool.append({"hash": entry.hash, "data": entry.data})
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
        else fault_plan_to_dict(plan),
        "attempt": attempt,
    })


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
        self.pipelines = LRU(max_groups)
        self.scenarios = LRU(max_payloads)
        self.stimuli = LRU(max_payloads)

    def clear(self) -> None:
        for table in (self.pipelines, self.scenarios, self.stimuli):
            table.clear()


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
        fault_plan_from_dict,
        scenario_from_dict,
        stimulus_from_dict,
        sweep_row_to_dict,
    )

    data = json.loads(payload)
    metrics, want_data = _check_request("a sweep group", data["metrics"])
    plan_data = data.get("faults")
    payload_hits = 0

    def decode(table: LRU, key: str, body: Any, parse: Callable) -> Any:
        nonlocal payload_hits
        value, hit = table.fetch(key, lambda: parse(body))
        payload_hits += hit
        return value

    stimuli = []
    for entry in data.get("stimulus_pool", ()):
        if "data" not in entry and entry["hash"] not in caches.stimuli:
            raise SweepError(
                f"worker holds no stimulus {entry['hash']} and the payload "
                "carries none: the parent's mirror of its cache is wrong"
            )
        stimuli.append(decode(
            caches.stimuli, entry["hash"], entry.get("data"),
            stimulus_from_dict,
        ))
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
        cells, metrics, want_data,
        cache=cache,
        faults=None if plan_data is None
        else fault_plan_from_dict(plan_data),
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
    hold a lock the other workers' replies need.  A watchdog thread ends
    the worker as soon as its parent is gone, idle or mid-group: a killed
    parent sends no ``stop``.
    """
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent,), name="parent-watchdog",
            daemon=True,
        ).start()
    caches = _WorkerCaches(max_cached_groups, max_cached_payloads)
    try:
        outbox.send(("ready", None))
        while True:
            message = inbox.get()
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


def _exit_with(parent: Any) -> None:
    """Wait for the worker's *parent* process to end, then end the worker."""
    import os

    parent.join()
    os._exit(0)


# ---------------------------------------------------------------------------
# parent side: the adapter that carries out the core's actions
# ---------------------------------------------------------------------------
def _merge_reply(
    book: _SweepBook, cells: Sequence[SweepCell], payload: str
) -> None:
    """Book one group reply into its submission's bookkeeper.

    User code runs inside the booking (``store.put`` and the ``on_row``
    callback), and it may raise.  Errors are *deferred*: every outcome
    is booked regardless and the first error re-raises only after the
    whole reply merged, so a buggy sink degrades to a visible exception
    instead of a wedged ticket.
    """
    from ..io.json_io import sweep_row_from_dict

    data = json.loads(payload)
    cell_by_index = {cell.index: cell for cell in cells}
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


@dataclass(eq=False)
class _Worker:
    """One resident worker process and its two channels."""

    process: Any
    inbox: Any
    #: Read end of the worker's reply pipe (``None`` once it reported EOF).
    outbox: Any


@dataclass(eq=False)
class _Delivery:
    """Where one submission's outcomes go: the core's opaque
    ``Submission.owner``.  It holds no reference back to the ticket, so
    a dropped ticket frees its cells at once, not at the next GC pass."""

    book: _SweepBook
    on_progress: Optional[Callable[[PoolEvent], None]]
    #: Called once, when the submission settles.
    on_settle: List[Callable[[], None]] = field(default_factory=list)

    def notify(self, event: PoolEvent) -> None:
        """Deliver one :class:`PoolEvent`, best-effort.

        Progress is telemetry, not data: a raising sink must never wedge
        or fail a sweep, so exceptions are swallowed here (the ``on_row``
        stream, which *is* data, surfaces its errors after group
        bookkeeping instead).
        """
        if self.on_progress is not None:
            try:
                self.on_progress(event)
            except Exception:
                pass


class SweepTicket:
    """Handle for one :meth:`SweepPool.submit` call.

    ``result()`` drives the pool until the submission finishes and
    returns its :class:`SweepResult` (subsequent calls return the same
    object); ``cancel()`` withdraws groups not yet dispatched.  Rows
    stream through the submission's ``on_row`` callback as replies
    merge, in completion order — the final result is in cell order.
    """

    def __init__(self, pool: "SweepPool", sub: Submission, on_error: str):
        self._pool = pool
        self._sub = sub
        self._on_error = on_error
        self._result: Optional[SweepResult] = None

    @property
    def done(self) -> bool:
        """True once every group finished (or was cancelled/failed)."""
        return self._sub.finished

    @property
    def cancelled(self) -> bool:
        return self._sub.cancelled

    def cancel(self) -> bool:
        """Withdraw the submission's not-yet-dispatched groups.

        Running groups complete and their rows are kept; the result is a
        partial table with ``stats.interrupted`` set.  True if anything
        was actually withdrawn.
        """
        withdrawn = self._pool._core.cancel(self._sub)
        self._pool._run()
        return withdrawn

    def result(self) -> SweepResult:
        """Drive the pool until this submission completes; its table."""
        while not self.done:
            self._pool.pump_once()
        if self._result is None:
            book = self._sub.owner.book
            book.stats.retries = self._sub.retries
            book.stats.interrupted = self._sub.interrupted
            self._result = book.result()
        if self._on_error == "raise" and self._result.failed_rows:
            first = self._result.failed_rows[0]
            raise SweepError(
                f"sweep cell {first.cell!r} failed — "
                f"{first.error.describe()}"
            )
        return self._result

    def _when_settled(self, callback: Callable[[], None]) -> None:
        """Call *callback* once the submission settles (now if it has)."""
        if self.done:
            callback()
        else:
            self._sub.owner.on_settle.append(callback)


class SweepPool:
    """Resident sweep service: spawn once, stay warm, stream rows.

    Parameters
    ----------
    workers:
        Maximum resident worker processes.  Slots are spawned lazily as
        groups demand them (a submission fully served by its checkpoint
        store spawns nothing) and then stay alive until :meth:`close`.
    group_timeout, max_retries, retry_backoff:
        The supervision policy of every submission; semantics identical
        to :func:`~repro.experiment.sweep.run_sweep`.
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
        check_values(
            POOL_OPTIONS, workers=workers, group_timeout=group_timeout,
            max_retries=max_retries, retry_backoff=retry_backoff,
            max_cached_groups=max_cached_groups,
            max_cached_payloads=max_cached_payloads,
        )
        self.workers = workers
        self.max_cached_groups = max_cached_groups
        self.max_cached_payloads = max_cached_payloads
        self._core = PoolCore(
            workers, max_cached_groups, group_timeout, max_retries,
            retry_backoff, payload_bound=max_cached_payloads,
        )
        #: Worker processes, indexed like the core's slots.
        self._slots: List[_Worker] = []
        self._closed = False
        #: The event loop driving the pool, if one does (see _attach).
        self._loop = self._on_failure = self._timer = None

    # -- lifecycle ------------------------------------------------------
    @property
    def started(self) -> bool:
        """True while at least one resident worker process is alive."""
        return any(worker.process.is_alive() for worker in self._slots)

    @property
    def busy(self) -> bool:
        """True while any group is pending or dispatched."""
        return self._core.busy

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
        self._detach()

    def _teardown(self, graceful: bool) -> None:
        """Cut every unfinished submission short and reap every worker."""
        self._core.stop()
        workers, self._slots = self._slots, []
        for worker in workers:
            if graceful and worker.process.is_alive():
                try:
                    worker.inbox.put(("stop",))
                except Exception:
                    worker.process.terminate()
            else:
                worker.process.terminate()
            # Replies are discarded: a worker mid-send sees a broken pipe
            # and exits instead of blocking on a full one.
            self._close_outbox(worker)
        for worker in workers:
            worker.process.join(timeout=10.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join()
        self._run()

    def evict_caches(self) -> None:
        """Clear every worker's warm caches (memory back to baseline).

        The workers stay resident — only their cached pipeline stages
        and decoded payloads are dropped, so the next submission pays
        stage computation again but no respawn.
        """
        for worker in self._slots:
            if worker.process.is_alive():
                worker.inbox.put(("evict",))
        self._core.evicted()

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
        client: Optional[str] = None,
        keys: Optional[ScenarioKeys] = None,
    ) -> SweepTicket:
        """Enqueue a matrix; returns a :class:`SweepTicket` immediately.

        Store hits are resolved here, parent-side (hit rows stream
        through ``on_row`` at once and never reach a worker); the other
        cells are enqueued as schedule-key groups behind the pending
        ones.  Nothing executes until the pool is driven
        (``ticket.result()`` or :meth:`pump_once`, or the event loop of
        the :class:`~repro.service.SweepOrchestrator` serving it).

        ``client`` tags the submission for the fair scheduler: the
        pending queue round-robins across client tags, FIFO within a
        tag, so one client's huge matrix cannot starve another's small
        one (untagged submissions share the ``None`` tag: plain FIFO).
        ``on_progress`` receives the best-effort :class:`PoolEvent`
        stream, the telemetry complement of the ``on_row`` row stream.
        ``keys`` hands over the submission's content keys when the caller
        has encoded its stimuli already (the sweep server does); it
        changes no row, only skips encoding them again.

        Every cell must be dispatchable (scenarios embedding code the
        workers cannot reconstruct are refused with
        :class:`~repro.errors.ModelError`); ``run_sweep(workers=N)``
        falls back to the serial path instead.
        """
        if self._closed:
            raise ModelError("SweepPool is closed")
        metrics, want_data = _check_request(
            "SweepPool.submit", metrics, on_error
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
            store=store, on_row=on_row, keys=keys,
        )
        plan = _dispatch_plan(cells, min_groups=0)
        if isinstance(plan, str):
            raise ModelError(plan)
        return self._enqueue(
            book, plan, on_error, on_progress, client=client, faults=faults
        )

    def _enqueue(
        self, book: _SweepBook, plan: Dict[Any, List[SweepCell]],
        on_error: str, on_progress: Optional[Callable[[PoolEvent], None]],
        **options: Any,
    ) -> SweepTicket:
        """Queue a planned sweep's schedule-key groups behind the rest.

        *options* are :class:`~repro.experiment.pool_core.Submission`
        fields.  Store hits resolve first, parent-side: hit cells never
        reach a worker, which keeps workers store-free.
        """
        book.stats.pool_reused = self.started
        sub = Submission(owner=_Delivery(book, on_progress), **options)
        todo = {cell.index for cell in book.resolve_hits()}
        planned = [
            (key, [cell for cell in group if cell.index in todo])
            for key, group in plan.items()
        ]
        self._core.submit(
            sub, [(key, group) for key, group in planned if group],
            store_hits=book.stats.store_hits,
        )
        book.stats.workers = min(self.workers, sub.outstanding) or 1
        self._run()
        self._arm(time.monotonic())  # a driving loop dispatches next turn
        return SweepTicket(self, sub, on_error)

    # -- carrying out the core's actions --------------------------------
    def _run(self) -> None:
        """Carry out every queued core action, in order.

        A raising action (a user callback, the injected interrupt) stops
        none queued after it, so no settlement is lost: the first error
        re-raises once the queue is empty.
        """
        error: Optional[BaseException] = None
        actions = self._core.take()
        while actions:
            for action in actions:
                try:
                    self._carry_out(action)
                except BaseException as exc:
                    error = error or exc
            actions = self._core.take()
        if error is not None:
            raise error

    def _carry_out(self, action: Tuple[Any, ...]) -> None:
        kind = action[0]
        if kind == "emit":
            action[1].owner.notify(action[2])
        elif kind == "send":
            _, slot, group = action
            book = group.sub.owner.book
            self._slots[slot.index].inbox.put(("run", _encode_service_group(
                group.cells, book.metrics, faults=group.sub.faults,
                attempt=group.attempt, keys=book.keys, held=slot.payloads,
            )))
        elif kind == "spawn":
            self._spawn(action[1].index)
        elif kind == "kill":
            self._reap(self._slots[action[1].index])
        elif kind == "fail":
            _, group, exc, retries = action
            delivery = group.sub.owner
            error = _cell_error(exc, retries=retries)
            for cell in group.cells:
                delivery.book.book(_CellOutcome(cell, error=error))
            delivery.notify(PoolEvent(
                "group-failed", gid=group.gid, cells=len(group.cells),
                detail=error.describe(),
            ))
        elif kind == "settle":
            for callback in action[1].owner.on_settle:
                callback()
        elif kind == "interrupt":
            raise KeyboardInterrupt

    def _spawn(self, index: int) -> None:
        """Start a worker in slot *index*, replacing any process there."""
        import multiprocessing

        # Spawn unconditionally: the only start method that is safe and
        # available everywhere (fork inherits arbitrary state).
        ctx = multiprocessing.get_context("spawn")
        if index < len(self._slots):  # a respawn: dead or overdue
            self._reap(self._slots[index])
        inbox = ctx.Queue()
        outbox, child_outbox = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_service_worker,
            args=(
                inbox, child_outbox,
                self.max_cached_groups, self.max_cached_payloads,
            ),
            daemon=True,
        )
        process.start()
        # Only the worker may hold the write end: the pipe then reports
        # EOF once the worker is gone.
        child_outbox.close()
        # Replaces the slot's worker, or appends a new slot.
        self._slots[index:index + 1] = [_Worker(process, inbox, outbox)]
        if self._loop is not None:
            self._loop.add_reader(outbox.fileno(), self._on_loop, index)

    def _reap(self, worker: _Worker) -> None:
        """Stop *worker*'s process; its pipe reports nothing more."""
        worker.process.terminate()
        worker.process.join()
        self._close_outbox(worker)

    def _close_outbox(self, worker: _Worker) -> None:
        """Close *worker*'s reply pipe, and the loop's reader on it first."""
        if worker.outbox is not None:
            if self._loop is not None:
                self._loop.remove_reader(worker.outbox.fileno())
            worker.outbox.close()
            worker.outbox = None

    # -- driving --------------------------------------------------------
    def pump_once(self) -> bool:
        """Run one dispatch/receive cycle; True if any reply merged.

        The synchronous driver behind :meth:`SweepTicket.result`: ticks
        the core, then waits for a worker message or the core's next
        instant (:meth:`~repro.experiment.pool_core.PoolCore.next_wakeup`:
        a group or boot deadline, the end of a backoff), whichever comes
        first, and feeds every message that arrived to the core.  Nothing
        polls: a busy pool with nothing timed waits for its workers, an
        idle one returns at once.  On ``KeyboardInterrupt`` — real or
        :class:`FaultPlan`-injected — completed replies are drained into
        their submissions, every worker is reaped (no orphans), and all
        active submissions become partial results with
        ``stats.interrupted``.
        """
        try:
            wakeup = self._advance()
            return self._receive_ready(0.0 if not self._core.busy else (
                None if wakeup is None else max(0.0, wakeup - time.monotonic())
            ))
        except KeyboardInterrupt:
            self._interrupted()
            return True

    def _advance(self) -> Optional[float]:
        """Tick the core at now and carry out its actions; the next
        instant it needs a tick, which a driving loop's timer is armed for."""
        now = time.monotonic()
        self._core.tick(now)
        self._run()
        wakeup = self._core.next_wakeup(now)
        self._arm(wakeup)
        return wakeup

    def _interrupted(self) -> None:
        """Drain the replies that arrived, then reap every worker: the
        service survives an interrupt cold, and respawns lazily."""
        self._core.interrupt()
        try:
            self._receive_ready(0.0)
        except Exception:
            pass
        self._teardown(graceful=False)

    def _receive_ready(self, timeout: Optional[float]) -> bool:
        """Feed the core every worker message that arrives within
        *timeout* (``None``: until one does); True if a reply merged."""
        # Imported here, like the spawn context: sweeps that never start
        # a worker do not pay for the multiprocessing machinery.
        from multiprocessing.connection import wait as wait_connections

        merged = False
        while True:
            slots = {
                worker.outbox: index
                for index, worker in enumerate(self._slots)
                if worker.outbox is not None
            }
            if not slots and timeout is None:
                return merged  # no worker could end the wait
            ready = wait_connections(list(slots), timeout)
            if not ready:
                return merged
            timeout = 0.0  # drain the rest without blocking
            for conn in ready:
                merged |= self._receive(slots[conn])

    def _receive(self, index: int) -> bool:
        """Feed one message of slot *index*'s worker to the core and carry
        out its actions; True if it was a merged reply.  The one receive
        path of both drivers (:meth:`pump_once` and a loop's readers)."""
        worker, slot = self._slots[index], self._core.slots[index]
        try:
            kind, body = worker.outbox.recv()
        except (EOFError, OSError):
            # Only the worker held the write end: it is gone, and
            # everything it sent has been read.
            self._close_outbox(worker)
            kind = "died"
        now = time.monotonic()
        if kind == "ready":
            self._core.ready(slot, now)
        elif kind == "died":
            self._core.died(slot, now)
            self._run()
        else:
            # Each pipe belongs to one worker incarnation running at most
            # one group: a reply is for the slot's group.  Its
            # bookkeeping ends before a merge error surfaces.
            group = slot.group
            try:
                _merge_reply(group.sub.owner.book, group.cells, body)
            finally:
                self._core.reply(slot, now)
                self._run()
            return True
        return False

    # -- driven by an event loop (POSIX: readers on the worker pipes) ---
    def _attach(
        self, loop: Any, on_failure: Callable[[BaseException], None]
    ) -> None:
        """Let *loop* drive the pool on its thread: a reader on each
        worker pipe feeds :meth:`_receive`, one timer the core's next
        instant.  An error escaping either goes to *on_failure*, since
        asyncio would only log it."""
        self._loop, self._on_failure = loop, on_failure
        for index, worker in enumerate(self._slots):
            if worker.outbox is not None:
                loop.add_reader(worker.outbox.fileno(), self._on_loop, index)
        self._arm(time.monotonic())

    def _detach(self) -> None:
        """Remove the loop's readers and timer: back to :meth:`pump_once`."""
        for worker in self._slots:
            if self._loop is not None and worker.outbox is not None:
                self._loop.remove_reader(worker.outbox.fileno())
        self._arm(None)
        self._loop = None

    def _arm(self, instant: Optional[float]) -> None:
        """Set a driving loop's one timer to tick the core at *instant*
        (``time.monotonic``; ``None``: no tick is due).  Any tick does
        what an earlier armed one would have."""
        if self._timer is not None:
            self._timer.cancel()
        self._timer = None if instant is None or self._loop is None else (
            self._loop.call_later(instant - time.monotonic(), self._on_loop)
        )

    def _on_loop(self, index: Optional[int] = None) -> None:
        """The loop's callback: slot *index*'s pipe is readable, or
        (``None``) the timer fired."""
        try:
            try:
                if index is not None:
                    self._receive(index)
                self._advance()
            except KeyboardInterrupt:
                self._interrupted()
        except Exception as exc:
            self._on_failure(exc)
