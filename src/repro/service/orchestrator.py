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
— one client's huge matrix cannot starve another's small one.  A ticket
ends in one place, when its pool submission settles, with one terminal
item that every later stream sees again; once closed, or once the driver
thread died, every command raises :class:`ServiceError` at once.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import (
    Any, AsyncIterator, Deque, Dict, Optional, Sequence, Tuple, Union,
)

from ..errors import ServiceError, UnknownTicketError
from ..experiment.faults import FaultPlan
from ..experiment.fields import Field, boolean, integer, one_of, optional, text
from ..experiment.pool import SweepPool, SweepTicket
from ..experiment.store import ScenarioKeys, SqliteSweepStore, SweepStore
from ..experiment.sweep import DEFAULT_METRICS, ScenarioMatrix, SweepResult

__all__ = ["SweepOrchestrator", "TicketStatus", "TICKET_STATES"]

#: Ticket lifecycle: ``queued`` (accepted, not yet handed to the pool
#: driver), ``running`` (groups pending/dispatched), then exactly one of
#: ``done`` (result ready — possibly a partial after ``cancel``),
#: ``failed`` (``on_error="raise"`` sweep raised, or the driver thread
#: died) or ``cancelled`` (cancel withdrew groups, or the orchestrator
#: closed; the partial result is still available).
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


#: TicketStatus's fields in wire order: the codec of ``ticket_status_to_dict``.
STATUS_FIELDS: Tuple[Field, ...] = (
    Field("ticket", integer(), required=True),
    Field("client", optional(text)),
    Field("state", one_of(*sorted(TICKET_STATES)), required=True),
    Field("cells", integer()),
    Field("rows_streamed", integer()),
    Field("done", boolean),
)


class _Ticket:
    """Server-side record of one submission.

    ``items`` is the stream seen by :meth:`SweepOrchestrator.stream`:
    ``("row", SweepRow)`` / ``("event", PoolEvent)`` entries pushed from
    the driver thread.  Once the ticket is terminal, an empty queue
    yields its one terminal item, ``("done", SweepResult)`` or
    ``("error", Exception)`` — to every later consumer too.  At most one
    coroutine may wait on it at a time (one stream consumer per ticket).
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

    def push(self, item: Optional[Tuple[str, Any]] = None) -> None:
        """Append one stream item (if any) and wake the waiting consumer.

        Driver-thread side.  The waiter's loop may already be closed (a
        client that went away mid-stream) — that wake-up is dropped; the
        item stays queued for a later consumer.
        """
        with self.lock:
            if item is not None:
                self.items.append(item)
            waiter, self.waiter = self.waiter, None
        if waiter is not None:
            loop, future = waiter
            try:
                loop.call_soon_threadsafe(_wake, future)
            except RuntimeError:
                pass

    def finish(
        self, state: str, result: Any = None, error: Any = None
    ) -> None:
        """Make the ticket terminal and wake its consumer."""
        with self.lock:
            self.result, self.error, self.state = result, error, state
        self.push()

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
        ``None`` to create (and own) one from ``pool_options``
        (``workers`` and the other :class:`~repro.experiment.SweepPool`
        options, with its defaults).  An owned pool is closed by
        :meth:`close`.
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
        store: Union[None, str, SweepStore] = None,
        max_finished_tickets: int = 256,
        **pool_options: Any,
    ) -> None:
        if max_finished_tickets < 1:
            raise ServiceError("max_finished_tickets must be >= 1")
        self._max_finished = max_finished_tickets
        self._finished: Deque[int] = deque()
        self._owns_pool = pool is None
        self._pool = SweepPool(**pool_options) if pool is None else pool
        self._store_spec = store
        self._store: Optional[SweepStore] = None
        self._owns_store = isinstance(store, str)
        self._commands: "queue.Queue[Tuple[Any, ...]]" = queue.Queue()
        self._tickets: Dict[int, _Ticket] = {}
        self._next_tid = 1
        #: Set once no command is accepted (by ``close_sync`` or the
        #: exiting driver); guarded by ``_tickets_lock`` like every post.
        self._closed = False
        #: The exception the driver thread died of, if it did.
        self._crash: Optional[BaseException] = None
        self._shutting_down = False
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
        keys: Optional[ScenarioKeys] = None,
    ) -> int:
        """Enqueue a matrix on the shared pool; returns the ticket id.

        The submission is tagged with ``client`` for the pool's fair
        scheduler and fronted by the shared store (hit rows appear on
        the ticket stream without touching a worker).  ``keys`` carries
        stimulus encodings the caller holds already to the pool (see
        :meth:`SweepPool.submit`).  Returns as soon as the driver
        accepted the submission — consume rows with :meth:`stream`, poll
        with :meth:`status`.
        """
        with self._tickets_lock:
            tid = self._next_tid
            self._next_tid += 1
            ticket = _Ticket(tid, client, len(matrix))
            self._tickets[tid] = ticket
        kwargs = dict(
            metrics=metrics, faults=faults, on_error=on_error, client=client,
            keys=keys,
        )
        try:
            await asyncio.wrap_future(
                self._post("submit", ticket, matrix, kwargs)
            )
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
        replayed from the queue, nothing is lost.  Streaming a finished
        ticket again yields (or raises) its terminal item again.
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
                if record.state in _TERMINAL_STATES:  # again, for a re-stream
                    if record.error is not None:
                        return "error", record.error
                    return "done", record.result
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
        return await asyncio.wrap_future(self._post("cancel", record))

    async def close(self) -> None:
        """Async wrapper over :meth:`close_sync` (runs it off-loop)."""
        await asyncio.get_running_loop().run_in_executor(
            None, self.close_sync
        )

    # -- sync lifecycle -------------------------------------------------
    def close_sync(self) -> None:
        """Stop the driver; unfinished tickets become interrupted partials.

        Owned resources (pool created here, store opened from a path)
        are closed on the driver thread on its way out.  Idempotent, and
        a no-op once the driver thread has died.
        """
        try:
            self._post("close", closing=True).result(timeout=60.0)
        except ServiceError:
            pass  # closed already, or the driver died
        self._driver.join(timeout=60.0)

    def __enter__(self) -> "SweepOrchestrator":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close_sync()

    def _post(self, *command: Any, closing: bool = False) -> Future:
        """Queue one driver command; the future of its outcome.

        Raises :class:`ServiceError` at once when the orchestrator is
        closed or its driver thread died: nobody would read the command.
        """
        outcome: Future = Future()
        with self._tickets_lock:
            if self._closed:
                raise self._closed_error()
            self._closed = closing  # a close is the last command read
            self._commands.put((*command, outcome))
        self._pool.wake()
        return outcome

    def _closed_error(self) -> ServiceError:
        crash = self._crash
        if crash is None:
            return ServiceError("orchestrator is closed")
        error = ServiceError(f"orchestrator driver thread died: {crash!r}")
        error.__cause__ = crash
        return error

    def _ticket(self, ticket: int) -> _Ticket:
        with self._tickets_lock:
            record = self._tickets.get(ticket)
        if record is None:
            raise UnknownTicketError(
                f"unknown ticket {ticket} (never issued, or finished and "
                "evicted from the bounded ticket history)"
            )
        return record

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
            while not self._handle_commands(
                None if self._pool.busy else 0.05
            ):
                if self._pool.busy:
                    self._pool.pump_once()
        except BaseException as exc:
            self._crash = exc
            raise
        finally:
            self._exit()

    def _exit(self) -> None:
        """Refuse every later command and fail every unread one.

        After a crash, live tickets end with the same error, and an
        owned pool is torn down; after ``close`` they already ended.
        """
        with self._tickets_lock:
            self._closed = True
            live = [
                t for t in self._tickets.values()
                if t.state not in _TERMINAL_STATES
            ]
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                break
            command[-1].set_exception(self._closed_error())
        for ticket in live:
            ticket.finish("failed", error=self._closed_error())
        for resource, owned in (
            (self._pool, self._owns_pool), (self._store, self._owns_store)
        ):
            if owned and resource is not None:
                try:
                    resource.close()
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
            kind, *args, outcome = command
            try:
                result = getattr(self, f"_do_{kind}")(*args)
            except BaseException as exc:
                outcome.set_exception(exc)
            else:
                outcome.set_result(result)
            if kind == "close":
                return True

    def _do_submit(
        self, ticket: _Ticket, matrix: ScenarioMatrix, kwargs: Dict[str, Any]
    ) -> int:
        def on_row(row: Any) -> None:
            ticket.rows_streamed += 1
            ticket.push(("row", row))

        def on_progress(event: Any) -> None:
            ticket.push(("event", event))

        ticket.state = "running"
        ticket.pool_ticket = self._pool.submit(
            matrix, store=self._store, on_row=on_row,
            on_progress=on_progress, **kwargs,
        )
        ticket.pool_ticket._when_settled(lambda: self._settle(ticket))
        return ticket.tid

    def _do_cancel(self, ticket: _Ticket) -> bool:
        return ticket.pool_ticket is not None and ticket.pool_ticket.cancel()

    def _do_close(self) -> None:
        """Withdraw every pending group, then release the pool.

        Dispatched groups are abandoned by an owned pool's close (their
        submissions become interrupted partials) and run out on a shared
        one.  Every live ticket settles: late consumers see a partial.
        """
        self._shutting_down = True
        with self._tickets_lock:
            live = [
                t.pool_ticket for t in self._tickets.values()
                if t.pool_ticket is not None
            ]
        for pool_ticket in live:
            pool_ticket.cancel()
        if self._owns_pool:
            self._pool.close(graceful=True)
        while not all(pool_ticket.done for pool_ticket in live):
            self._pool.pump_once()

    def _settle(self, ticket: _Ticket) -> None:
        """Resolve a settled submission: the one place a ticket ends.

        The record keeps only its result, state and error (dropping the
        pool ticket releases the decoded scenarios and stimuli), and the
        oldest finished records beyond ``max_finished_tickets`` go.
        """
        pool_ticket, ticket.pool_ticket = ticket.pool_ticket, None
        if ticket.state in _TERMINAL_STATES:
            return  # failed by a dying driver before its pool closed
        result = error = None
        try:
            result = pool_ticket.result()
        except Exception as exc:
            state, error = "failed", exc
        else:
            cut = pool_ticket.cancelled or self._shutting_down
            state = "cancelled" if cut else "done"
        with self._tickets_lock:
            self._finished.append(ticket.tid)
            while len(self._finished) > self._max_finished:
                self._tickets.pop(self._finished.popleft(), None)
        ticket.finish(state, result, error)  # wakes the consumer last
