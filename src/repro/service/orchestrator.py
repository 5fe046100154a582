"""Async orchestrator: many coroutine clients, one resident SweepPool.

Everything runs on the one event loop that builds the orchestrator (the
JSON-RPC server's, or a test's ``asyncio.run``): coroutines submit,
stream and cancel, and the loop drives the pool's sans-I/O core
directly — a reader callback on each worker's reply pipe feeds it
``ready``, ``reply`` and ``died``, and one timer its next deadline or
backoff (see :mod:`repro.experiment.pool`).  The SQLite store is opened
and written on the same thread, so nothing crosses threads and nothing
waits on a lock, a command queue or a poll.  Rows and
:class:`~repro.experiment.PoolEvent` milestones go from the pool's
callbacks straight to per-ticket item queues, and a waiting stream is a
plain :class:`asyncio.Future`.  Reader callbacks on pipes make it
POSIX-only.

Fairness is the pool's own: each submission carries its client tag into
:meth:`SweepPool.submit`, whose pending queue round-robins across tags
— one client's huge matrix cannot starve another's small one.  A ticket
ends in one place, when its pool submission settles, with one terminal
item that every later stream sees again.  Once closed, or once driving
the pool failed (an exception escaping a loop callback), every command
raises :class:`ServiceError` at once, and a failure ends every live
ticket with a :class:`ServiceError` chained to its cause.
"""

from __future__ import annotations

import asyncio
from collections import deque
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

#: Ticket lifecycle: ``running`` (groups pending/dispatched), then
#: exactly one of ``done`` (result ready — possibly a partial after
#: ``cancel``), ``failed`` (``on_error="raise"`` sweep raised, or driving
#: the pool failed) or ``cancelled`` (cancel withdrew groups, or the
#: orchestrator closed; the partial result is still available).
TICKET_STATES = frozenset({"running", "done", "failed", "cancelled"})

_TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Finished ticket records an orchestrator keeps, oldest dropped first
#: (live tickets never are); a dropped ticket's lookups raise
#: :class:`UnknownTicketError`.
_MAX_FINISHED_TICKETS = 256


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
    ``("row", SweepRow)`` / ``("event", PoolEvent)`` entries pushed by
    the pool's callbacks.  Once the ticket is terminal, an empty queue
    yields its one terminal item, ``("done", SweepResult)`` or
    ``("error", Exception)`` — to every later consumer too.  At most one
    coroutine may wait on it at a time (one stream consumer per ticket).
    """

    def __init__(self, tid: int, client: Optional[str], cells: int) -> None:
        self.tid = tid
        self.client = client
        self.cells = cells
        self.state = "running"
        self.rows_streamed = 0
        self.pool_ticket: Optional[SweepTicket] = None
        self.result: Optional[SweepResult] = None
        self.error: Optional[BaseException] = None
        self.items: Deque[Tuple[str, Any]] = deque()
        self.waiter: Optional[asyncio.Future] = None

    def push(self, item: Optional[Tuple[str, Any]] = None) -> None:
        """Append one stream item (if any) and wake the waiting consumer."""
        if item is not None:
            self.items.append(item)
        waiter, self.waiter = self.waiter, None
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def finish(
        self, state: str, result: Any = None, error: Any = None
    ) -> None:
        """Make the ticket terminal and wake its consumer."""
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


class SweepOrchestrator:
    """Serve one shared pool (and optional store) to async clients.

    Build it on the event loop that will use it (inside a coroutine);
    ``async with`` closes it, and the pool it builds from
    ``pool_options`` (``workers`` and the other
    :class:`~repro.experiment.SweepPool` options, with its defaults).

    Parameters
    ----------
    store:
        The shared cache tier fronting the pool, attached to every
        submission: a :class:`~repro.experiment.SweepStore` instance,
        or a path string opened (and owned) as a WAL-mode
        :class:`~repro.experiment.SqliteSweepStore` on the loop's
        thread (sqlite3 connections are single-threaded; passing the
        path is the safe spelling).  Hit rows stream back without any
        dispatch; computed rows persist for every later client.
    """

    def __init__(
        self,
        *,
        store: Union[None, str, SweepStore] = None,
        **pool_options: Any,
    ) -> None:
        try:
            self._loop = asyncio.get_running_loop()
        except RuntimeError:
            raise ServiceError(
                "build a SweepOrchestrator on the event loop that uses it"
            ) from None
        self._finished: Deque[int] = deque()
        self._pool = SweepPool(**pool_options)
        self._owns_store = isinstance(store, str)
        self._store = SqliteSweepStore(store) if self._owns_store else store
        self._tickets: Dict[int, _Ticket] = {}
        self._next_tid = 1
        self._closed = False
        #: What driving the pool failed with, if it did.
        self._crash: Optional[BaseException] = None
        self._pool._attach(self._loop, self._failed)

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
        :meth:`SweepPool.submit`).  Returns as soon as the pool accepted
        the submission — consume rows with :meth:`stream`, poll with
        :meth:`status`.
        """
        self._check_open()
        ticket = _Ticket(self._next_tid, client, len(matrix))

        def on_row(row: Any) -> None:
            ticket.rows_streamed += 1
            ticket.push(("row", row))

        def on_progress(event: Any) -> None:
            ticket.push(("event", event))

        ticket.pool_ticket = self._pool.submit(
            matrix, metrics, store=self._store, on_row=on_row,
            on_progress=on_progress, faults=faults, on_error=on_error,
            client=client, keys=keys,
        )
        self._tickets[ticket.tid] = ticket
        self._next_tid += 1
        ticket.pool_ticket._when_settled(lambda: self._settle(ticket))
        return ticket.tid

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
            if record.items:
                yield record.items.popleft()
            elif record.error is not None:  # terminal, again on a re-stream
                raise record.error
            elif record.state in _TERMINAL_STATES:
                yield "done", record.result
                return
            elif record.waiter is not None:
                raise ServiceError(
                    f"ticket {record.tid} already has a stream consumer"
                )
            else:
                future = record.waiter = self._loop.create_future()
                try:
                    await future
                finally:
                    if record.waiter is future:
                        record.waiter = None

    def status(self, ticket: int) -> TicketStatus:
        """Snapshot a ticket's state (non-blocking)."""
        return self._ticket(ticket).status()

    async def cancel(self, ticket: int) -> bool:
        """Withdraw a ticket's not-yet-dispatched groups.

        Dispatched groups finish normally (their rows are kept); the
        ticket then terminates with a partial result.  True if anything
        was withdrawn.  Cancelling a finished ticket is a no-op.
        """
        record = self._ticket(ticket)
        self._check_open()
        return record.pool_ticket is not None and record.pool_ticket.cancel()

    async def close(self) -> None:
        """Stop serving; unfinished tickets become interrupted partials.

        Pending groups are withdrawn and dispatched ones abandoned by the
        pool's close.  Every live ticket settles, so late consumers see a
        partial.  The pool and a store opened from a path are closed.
        Idempotent, and a no-op once driving the pool failed.
        """
        if self._closed:
            return
        self._closed = True
        for ticket in list(self._tickets.values()):
            if ticket.pool_ticket is not None:
                ticket.pool_ticket.cancel()
        self._release()

    async def __aenter__(self) -> "SweepOrchestrator":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    def _check_open(self) -> None:
        """Refuse a command at once once closed or failed."""
        if self._crash is not None:
            raise self._failure_error()
        if self._closed:
            raise ServiceError("orchestrator is closed")

    def _failure_error(self) -> ServiceError:
        error = ServiceError(
            f"orchestrator failed driving its pool: {self._crash!r}"
        )
        error.__cause__ = self._crash
        return error

    def _ticket(self, ticket: int) -> _Ticket:
        record = self._tickets.get(ticket)
        if record is None:
            raise UnknownTicketError(
                f"unknown ticket {ticket} (never issued, or finished and "
                "evicted from the bounded ticket history)"
            )
        return record

    # -- pool callbacks ---------------------------------------------------
    def _failed(self, exc: BaseException) -> None:
        """Driving the pool raised *exc* in a loop callback: end every
        live ticket and refuse every later command, chained to it."""
        self._crash = exc
        self._closed = True
        for ticket in list(self._tickets.values()):
            if ticket.state not in _TERMINAL_STATES:
                ticket.finish("failed", error=self._failure_error())
        self._release()

    def _release(self) -> None:
        """Close the pool and any store opened from a path."""
        for resource in (self._pool, self._store if self._owns_store else None):
            if resource is not None:
                try:
                    resource.close()
                except Exception:
                    pass

    def _settle(self, ticket: _Ticket) -> None:
        """Resolve a settled submission: the one place a ticket ends.

        The record keeps only its result, state and error (dropping the
        pool ticket releases the decoded scenarios and stimuli), and the
        oldest finished records beyond :data:`_MAX_FINISHED_TICKETS` go.
        """
        pool_ticket, ticket.pool_ticket = ticket.pool_ticket, None
        if ticket.state in _TERMINAL_STATES:
            return  # failed by a driving failure before its pool closed
        result = error = None
        try:
            result = pool_ticket.result()
        except Exception as exc:
            state, error = "failed", exc
        else:
            cut = pool_ticket.cancelled or self._closed
            state = "cancelled" if cut else "done"
        self._finished.append(ticket.tid)
        while len(self._finished) > _MAX_FINISHED_TICKETS:
            self._tickets.pop(self._finished.popleft(), None)
        ticket.finish(state, result, error)  # wakes the consumer last
