"""Async orchestrator: many coroutine clients, one resident SweepPool.

The pool and the SQLite store are single-threaded by design (store hits
resolve inside ``submit``, rows persist as replies merge, and sqlite3
connections refuse cross-thread use), so the orchestrator funnels
**every** pool/store interaction through one dedicated *driver thread*:
coroutines post commands to a queue, wake the pool
(:meth:`SweepPool.wake`) and await their outcome; the driver alternates
between handling commands and :meth:`SweepPool.pump_once` cycles that
make progress on everything outstanding, and a wake ends a cycle's wait
for worker replies so a command is read at once.  Rows and
:class:`~repro.experiment.PoolEvent` milestones stream back through
per-ticket item queues; a waiting coroutine is woken with
``call_soon_threadsafe`` on whatever loop it awaited from, so the
orchestrator serves any number of event loops (the JSON-RPC server's,
a test's ``asyncio.run``, ...) concurrently.

Fairness is the pool's own: each submission carries its client tag into
:meth:`SweepPool.submit`, whose pending queue round-robins across tags
— one client's huge matrix cannot starve another's small one.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Any,
    AsyncIterator,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import ServiceError, UnknownTicketError
from ..experiment.faults import FaultPlan
from ..experiment.pool import SweepPool, SweepTicket
from ..experiment.store import SqliteSweepStore, SweepStore
from ..experiment.sweep import DEFAULT_METRICS, ScenarioMatrix, SweepResult

__all__ = ["SweepOrchestrator", "TicketStatus", "TICKET_STATES"]

#: Ticket lifecycle: ``queued`` (accepted, not yet handed to the pool
#: driver), ``running`` (groups pending/dispatched), then exactly one of
#: ``done`` (result ready — possibly a partial after ``cancel``),
#: ``failed`` (``on_error="raise"`` sweep raised) or ``cancelled``
#: (cancel withdrew groups; the partial result is still available).
TICKET_STATES = frozenset(
    {"queued", "running", "done", "failed", "cancelled"}
)

_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})


@dataclass(frozen=True)
class TicketStatus:
    """Point-in-time snapshot of one submission's service state."""

    ticket: int
    client: Optional[str]
    state: str
    cells: int
    rows_streamed: int
    done: bool


class _Ticket:
    """Server-side record of one submission.

    ``items`` is the stream seen by :meth:`SweepOrchestrator.stream`:
    ``("row", SweepRow)`` / ``("event", PoolEvent)`` entries pushed from
    the driver thread, closed by a single terminal ``("done",
    SweepResult)`` or ``("error", Exception)``.  At most one coroutine
    may wait on it at a time (one stream consumer per ticket).
    """

    def __init__(self, tid: int, client: Optional[str], cells: int) -> None:
        self.tid = tid
        self.client = client
        self.cells = cells
        self.state = "queued"
        self.rows_streamed = 0
        self.pool_ticket: Optional[SweepTicket] = None
        self.result: Optional[SweepResult] = None
        self.error: Optional[BaseException] = None
        self.lock = threading.Lock()
        self.items: Deque[Tuple[str, Any]] = deque()
        self.waiter: Optional[
            Tuple[asyncio.AbstractEventLoop, asyncio.Future]
        ] = None

    def push(self, kind: str, payload: Any) -> None:
        """Append one stream item and wake the waiting consumer, if any.

        Driver-thread side.  The waiter's loop may already be closed (a
        client that went away mid-stream) — that wake-up is dropped; the
        item stays queued for a later consumer.
        """
        with self.lock:
            self.items.append((kind, payload))
            waiter, self.waiter = self.waiter, None
        if waiter is not None:
            loop, future = waiter
            try:
                loop.call_soon_threadsafe(_wake, future)
            except RuntimeError:
                pass

    def status(self) -> TicketStatus:
        return TicketStatus(
            ticket=self.tid,
            client=self.client,
            state=self.state,
            cells=self.cells,
            rows_streamed=self.rows_streamed,
            done=self.state in _TERMINAL_STATES,
        )


def _wake(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


class SweepOrchestrator:
    """Serve one shared pool (and optional store) to async clients.

    Parameters
    ----------
    pool:
        An existing :class:`~repro.experiment.SweepPool` to serve, or
        ``None`` to create (and own) one from ``workers`` and
        ``pool_options``.  An owned pool is closed by :meth:`close`.
    store:
        The shared cache tier fronting the pool, attached to every
        submission: a :class:`~repro.experiment.SweepStore` instance,
        or a path string opened as a WAL-mode
        :class:`~repro.experiment.SqliteSweepStore` **on the driver
        thread** (sqlite3 connections are single-threaded; passing the
        path is the safe spelling).  Hit rows stream back without any
        dispatch; computed rows persist for every later client.
    max_finished_tickets:
        Bound on retained *finished* ticket records.  A long-lived
        service would otherwise grow its ticket table forever (every
        submission leaves a record); once a terminal ticket ages past
        the newest ``max_finished_tickets`` finished ones, its record is
        dropped and later :meth:`status`/:meth:`stream` lookups raise
        :class:`~repro.errors.UnknownTicketError`.  Live (queued or
        running) tickets are never evicted.
    """

    def __init__(
        self,
        pool: Optional[SweepPool] = None,
        *,
        workers: int = 2,
        store: Union[None, str, SweepStore] = None,
        max_finished_tickets: int = 256,
        **pool_options: Any,
    ) -> None:
        if max_finished_tickets < 1:
            raise ServiceError("max_finished_tickets must be >= 1")
        self._max_finished = max_finished_tickets
        self._finished: Deque[int] = deque()
        self._owns_pool = pool is None
        self._pool = (
            SweepPool(workers=workers, **pool_options)
            if pool is None else pool
        )
        self._store_spec = store
        self._store: Optional[SweepStore] = None
        self._owns_store = isinstance(store, str)
        self._commands: "queue.Queue[Tuple[Any, ...]]" = queue.Queue()
        self._tickets: Dict[int, _Ticket] = {}
        self._active: List[_Ticket] = []
        self._next_tid = 1
        self._closed = False
        self._tickets_lock = threading.Lock()
        self._startup = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._driver = threading.Thread(
            target=self._drive, name="sweep-orchestrator", daemon=True
        )
        self._driver.start()
        self._startup.wait()
        if self._startup_error is not None:
            raise ServiceError(
                f"orchestrator failed to start: {self._startup_error}"
            ) from self._startup_error

    # -- async client API ----------------------------------------------
    async def submit(
        self,
        matrix: ScenarioMatrix,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        client: Optional[str] = None,
        faults: Optional[FaultPlan] = None,
        on_error: str = "capture",
        group_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
    ) -> int:
        """Enqueue a matrix on the shared pool; returns the ticket id.

        The submission is tagged with ``client`` for the pool's fair
        scheduler and fronted by the shared store (hit rows appear on
        the ticket stream without touching a worker).  Returns as soon
        as the driver accepted the submission — consume rows with
        :meth:`stream`, poll with :meth:`status`.
        """
        if self._closed:
            raise ServiceError("orchestrator is closed")
        with self._tickets_lock:
            tid = self._next_tid
            self._next_tid += 1
            ticket = _Ticket(tid, client, len(matrix))
            self._tickets[tid] = ticket
        kwargs = {
            "metrics": metrics,
            "faults": faults,
            "on_error": on_error,
            "group_timeout": group_timeout,
            "max_retries": max_retries,
            "client": client,
        }
        outcome: Future = Future()
        self._post(("submit", ticket, matrix, kwargs, outcome))
        try:
            await asyncio.wrap_future(outcome)
        except BaseException:
            with self._tickets_lock:
                self._tickets.pop(tid, None)
            raise
        return tid

    async def stream(
        self, ticket: int
    ) -> AsyncIterator[Tuple[str, Any]]:
        """Yield a ticket's live stream until its terminal item.

        Items are ``("row", SweepRow)`` and ``("event", PoolEvent)`` in
        arrival order, closed by one ``("done", SweepResult)``.  A
        failed ``on_error="raise"`` sweep raises its error instead.
        One consumer at a time; rows pushed before the consumer
        attached (store hits, an earlier disconnected consumer) are
        replayed from the queue, nothing is lost.
        """
        record = self._ticket(ticket)
        while True:
            kind, payload = await self._next_item(record)
            if kind == "error":
                raise payload
            yield kind, payload
            if kind == "done":
                return

    async def _next_item(self, record: _Ticket) -> Tuple[str, Any]:
        while True:
            with record.lock:
                if record.items:
                    return record.items.popleft()
                if record.waiter is not None:
                    raise ServiceError(
                        f"ticket {record.tid} already has a stream "
                        "consumer"
                    )
                loop = asyncio.get_running_loop()
                future: asyncio.Future = loop.create_future()
                record.waiter = (loop, future)
            try:
                await future
            finally:
                with record.lock:
                    if record.waiter == (loop, future):
                        record.waiter = None

    def status(self, ticket: int) -> TicketStatus:
        """Snapshot a ticket's state (thread-safe, non-blocking)."""
        return self._ticket(ticket).status()

    async def cancel(self, ticket: int) -> bool:
        """Withdraw a ticket's not-yet-dispatched groups.

        Dispatched groups finish normally (their rows are kept); the
        ticket then terminates with a partial result.  True if anything
        was withdrawn.  Cancelling a finished ticket is a no-op.
        """
        record = self._ticket(ticket)
        outcome: Future = Future()
        self._post(("cancel", record, outcome))
        return await asyncio.wrap_future(outcome)

    async def close(self) -> None:
        """Async wrapper over :meth:`close_sync` (runs it off-loop)."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.close_sync
        )

    # -- sync lifecycle -------------------------------------------------
    def close_sync(self) -> None:
        """Stop the driver; unfinished tickets become interrupted partials.

        Owned resources (pool created here, store opened from a path)
        are closed on the driver thread on its way out.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        outcome: Future = Future()
        self._post(("close", outcome))
        outcome.result(timeout=60.0)
        self._driver.join(timeout=60.0)

    def __enter__(self) -> "SweepOrchestrator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close_sync()

    def _post(self, command: Tuple[Any, ...]) -> None:
        self._commands.put(command)
        self._pool.wake()

    def _ticket(self, ticket: int) -> _Ticket:
        with self._tickets_lock:
            record = self._tickets.get(ticket)
        if record is None:
            raise UnknownTicketError(
                f"unknown ticket {ticket} (never issued, or finished and "
                "evicted from the bounded ticket history)"
            )
        return record

    def _retire(self, ticket: _Ticket) -> None:
        """Book a terminal ticket into the bounded finished history.

        Driver-thread side, called at every terminal transition.  The
        record keeps only its result, state and error: dropping the pool
        ticket releases the submission's decoded scenarios and stimuli.
        The oldest finished records beyond ``max_finished_tickets`` are
        dropped; live tickets are untouched (they are not in the
        finished deque until they terminate).
        """
        ticket.pool_ticket = None
        with self._tickets_lock:
            self._finished.append(ticket.tid)
            while len(self._finished) > self._max_finished:
                evicted = self._finished.popleft()
                self._tickets.pop(evicted, None)

    # -- driver thread ---------------------------------------------------
    def _drive(self) -> None:
        try:
            if isinstance(self._store_spec, str):
                self._store = SqliteSweepStore(self._store_spec)
            else:
                self._store = self._store_spec
        except BaseException as exc:
            self._startup_error = exc
            self._startup.set()
            return
        self._startup.set()
        try:
            # Idle, the driver waits on the command queue; busy, in the
            # pump, which a posted command's wake ends early.
            while not self._handle_commands(None if self._active else 0.05):
                if self._active:
                    self._pool.pump_once()
                    self._reap()
        finally:
            if self._owns_store and self._store is not None:
                try:
                    self._store.close()
                except Exception:
                    pass

    def _handle_commands(self, timeout: Optional[float] = None) -> bool:
        """Handle every posted command, waiting up to *timeout* for one.

        True once a ``close`` was handled.  No command outlives its
        handling here: a submit's matrix is released with its ticket.
        """
        while True:
            try:
                command = self._commands.get(timeout is not None, timeout)
            except queue.Empty:
                return False
            timeout = None
            if self._handle(command):
                return True

    def _handle(self, command: Tuple[Any, ...]) -> bool:
        kind = command[0]
        if kind == "submit":
            _, ticket, matrix, kwargs, outcome = command
            try:
                self._do_submit(ticket, matrix, kwargs)
            except BaseException as exc:
                outcome.set_exception(exc)
            else:
                outcome.set_result(ticket.tid)
            return False
        if kind == "cancel":
            _, ticket, outcome = command
            try:
                withdrawn = (
                    ticket.pool_ticket is not None
                    and ticket.pool_ticket.cancel()
                )
                self._reap()
            except BaseException as exc:
                outcome.set_exception(exc)
            else:
                outcome.set_result(withdrawn)
            return False
        if kind == "close":
            _, outcome = command
            try:
                self._shutdown()
            except BaseException as exc:
                outcome.set_exception(exc)
            else:
                outcome.set_result(None)
            return True
        raise AssertionError(f"unknown driver command {kind!r}")

    def _do_submit(
        self, ticket: _Ticket, matrix: ScenarioMatrix, kwargs: Dict[str, Any]
    ) -> None:
        def on_row(row: Any) -> None:
            ticket.rows_streamed += 1
            ticket.push("row", row)

        def on_progress(event: Any) -> None:
            ticket.push("event", event)

        ticket.pool_ticket = self._pool.submit(
            matrix,
            kwargs["metrics"],
            store=self._store,
            faults=kwargs["faults"],
            on_error=kwargs["on_error"],
            on_row=on_row,
            on_progress=on_progress,
            group_timeout=kwargs["group_timeout"],
            max_retries=kwargs["max_retries"],
            client=kwargs["client"],
        )
        ticket.state = "running"
        self._active.append(ticket)
        # A submission fully served by the store is already finished.
        self._reap()

    def _reap(self) -> None:
        """Resolve finished pool tickets into terminal stream items."""
        for ticket in list(self._active):
            pool_ticket = ticket.pool_ticket
            if pool_ticket is None or not pool_ticket.done:
                continue
            self._active.remove(ticket)
            try:
                result = pool_ticket.result()
            except Exception as exc:
                ticket.error = exc
                ticket.state = "failed"
                self._retire(ticket)
                ticket.push("error", exc)
                continue
            ticket.result = result
            ticket.state = (
                "cancelled" if pool_ticket.cancelled else "done"
            )
            self._retire(ticket)
            ticket.push("done", result)

    def _shutdown(self) -> None:
        """Drain-or-cancel everything outstanding, then release the pool.

        Pending groups are withdrawn; dispatched groups are abandoned by
        ``close(graceful=True)`` (their submissions become interrupted
        partials), so shutdown is prompt even mid-sweep.  Each active
        ticket still resolves to a terminal item — late stream consumers
        see a partial result, never a hang.
        """
        for ticket in self._active:
            if ticket.pool_ticket is not None:
                ticket.pool_ticket.cancel()
        if self._owns_pool:
            self._pool.close(graceful=True)
        self._reap()
        # Tickets whose groups were mid-dispatch at close never finish
        # through the pool; resolve them as interrupted partials.
        for ticket in list(self._active):
            self._active.remove(ticket)
            pool_ticket = ticket.pool_ticket
            try:
                result = (
                    pool_ticket.result() if pool_ticket is not None
                    else None
                )
            except Exception as exc:
                ticket.error = exc
                ticket.state = "failed"
                self._retire(ticket)
                ticket.push("error", exc)
                continue
            ticket.result = result
            ticket.state = "cancelled"
            self._retire(ticket)
            ticket.push("done", result)
