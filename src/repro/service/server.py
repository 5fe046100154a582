"""The sweep server: asyncio TCP front speaking the JSON-RPC protocol.

One :class:`SweepServer` owns one :class:`SweepOrchestrator` (hence one
shared pool and store) and serves any number of TCP connections.  The
asyncio loop runs on a background thread, so the server embeds in
synchronous programs (the CLI, tests) without ceding the main thread:
``start()`` returns once the socket is bound, ``wait()`` blocks until a
``shutdown`` request or :meth:`close`.

Per connection, the read loop handles cheap requests inline and runs
each ``stream`` as its own task — a ``cancel`` or ``status`` arriving
mid-stream is served immediately.  Writes are serialised by a lock so
notification and response lines never interleave.  When a client
disconnects, every ticket it submitted is cancelled: pending groups are
withdrawn, dispatched groups finish on the pool and land in the shared
store for the next client — a vanished client never wedges the pool.
A request that fails answers with an error line; the connection and
its other tickets live on.

A base stimulus is decoded once per server: the loop thread keeps the
last :data:`_HELD_STIMULI` decoded stimuli with their encodings
(:class:`~repro.experiment.store.EncodedStimulus`), keyed by the content
hash of their documents, so a resent document or a stimulus reference
(see :mod:`.protocol`) costs no decode; the encoding goes with the
submission to the pool, which keys rows and payloads with it.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Any, Dict, Optional, Set, Tuple

from ..errors import (
    FPPNError,
    ProtocolError,
    ServiceError,
    SweepError,
    UnknownStimulusError,
)
from ..experiment.fields import Field, decode_fields, names, optional, text
from ..experiment.pool_core import LRU
from ..experiment.store import EncodedStimulus, ScenarioKeys
from ..experiment.sweep import ON_ERROR, ScenarioMatrix
from ..io.json_io import (
    FormatError,
    content_hash,
    fault_plan_from_dict,
    matrix_from_dict,
    pool_event_to_dict,
    sweep_result_to_dict,
    ticket_status_to_dict,
)
from . import protocol
from .orchestrator import SweepOrchestrator

__all__ = ["SweepServer"]

_log = logging.getLogger(__name__)

#: Decoded stimuli a server holds for later submissions (least recently
#: used evicted first).
_HELD_STIMULI = 8


#: A submit's run options (its matrix is decoded apart, stimulus first).
_SUBMIT_FIELDS = (
    Field("metrics", optional(names)),
    Field("faults", lambda value, what: value, decode=fault_plan_from_dict),
    ON_ERROR,
    Field("client", optional(text)),
)


class SweepServer:
    """Serve an orchestrator over TCP; lifecycle wraps a thread + loop.

    Parameters mirror :class:`SweepOrchestrator` (an existing
    ``orchestrator`` is served as-is and not closed on shutdown;
    otherwise one is created from ``store`` and the
    :class:`~repro.experiment.SweepPool` options, and owned).  ``port=0``
    binds an ephemeral port — read the real one from :attr:`address`
    after :meth:`start`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        orchestrator: Optional[SweepOrchestrator] = None,
        store: Any = None,
        **pool_options: Any,
    ) -> None:
        self._host = host
        self._port = port
        self._owns_orchestrator = orchestrator is None
        self._orchestrator = (
            SweepOrchestrator(store=store, **pool_options)
            if orchestrator is None else orchestrator
        )
        self.address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._closed = False
        #: Content hash of a stimulus document -> its decoding; touched
        #: on the loop thread only.
        self._stimuli = LRU(_HELD_STIMULI)

    # -- lifecycle ------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind and serve on a background thread; returns (host, port)."""
        if self._thread is not None:
            raise ServiceError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="sweep-server", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise ServiceError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        assert self.address is not None
        return self.address

    def wait(self) -> None:
        """Block until the server stops (shutdown request or close)."""
        if self._thread is not None:
            self._thread.join()

    def close(self) -> None:
        """Stop serving and (if owned) close the orchestrator. Idempotent."""
        if self._closed:
            return
        self._closed = True
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=60.0)
        if self._owns_orchestrator:
            self._orchestrator.close_sync()

    def __enter__(self) -> "SweepServer":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._conn_writers: Set[asyncio.StreamWriter] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        try:
            server = await asyncio.start_server(
                self._serve_connection, self._host, self._port,
                limit=protocol.MAX_LINE_BYTES,
            )
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        sockname = server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        self._started.set()
        async with server:
            await self._shutdown.wait()
            # Drain connections gracefully instead of letting the loop
            # teardown hard-cancel their handlers mid-await: closing
            # each transport EOFs its read loop, the handlers run their
            # cleanup (cancel owned tickets) and exit on their own.
            for writer in list(self._conn_writers):
                writer.close()
            pending = [t for t in self._conn_tasks if not t.done()]
            if pending:
                await asyncio.wait(pending, timeout=10.0)

    # -- per-connection -------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        owned_tickets: Set[int] = set()
        stream_tasks: Set[asyncio.Task] = set()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        self._conn_writers.add(writer)

        async def send(message: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(protocol.encode(message))
                await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError, ValueError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                try:
                    message = protocol.decode_line(line)
                    method, params, rid = protocol.check_request(message)
                except ProtocolError as exc:
                    code = (
                        protocol.PARSE_ERROR
                        if "unparseable" in str(exc)
                        else protocol.INVALID_REQUEST
                    )
                    await send(protocol.error_response(
                        None, code, str(exc)
                    ))
                    continue
                if method == "stream":
                    task = asyncio.ensure_future(
                        self._handle_stream(send, params, rid)
                    )
                    stream_tasks.add(task)
                    task.add_done_callback(stream_tasks.discard)
                    continue
                stop = await self._handle_request(
                    send, method, params, rid, owned_tickets
                )
                if stop:
                    break
        except ConnectionError:
            pass
        finally:
            for task in list(stream_tasks):
                task.cancel()
            if stream_tasks:
                await asyncio.gather(*stream_tasks, return_exceptions=True)
            # A vanished client must not pin pool work: withdraw its
            # pending groups (dispatched ones finish and feed the store).
            for ticket in owned_tickets:
                try:
                    await self._orchestrator.cancel(ticket)
                except (ServiceError, FPPNError):
                    pass
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_request(
        self,
        send: Any,
        method: str,
        params: Dict[str, Any],
        rid: Any,
        owned_tickets: Set[int],
    ) -> bool:
        """Serve one non-stream request; True when the server must stop."""
        try:
            if method == "ping":
                await send(protocol.response(rid, {"pong": True}))
            elif method == "submit":
                ticket, digest = await self._handle_submit(params)
                owned_tickets.add(ticket)
                result = {
                    "ticket": ticket,
                    "status": ticket_status_to_dict(
                        self._orchestrator.status(ticket)
                    ),
                }
                if digest is not None:
                    result["stimulus"] = digest
                await send(protocol.response(rid, result))
            elif method == "status":
                status = self._orchestrator.status(
                    self._ticket_param(params)
                )
                await send(protocol.response(
                    rid, ticket_status_to_dict(status)
                ))
            elif method == "cancel":
                ticket = self._ticket_param(params)
                cancelled = await self._orchestrator.cancel(ticket)
                await send(protocol.response(rid, {
                    "cancelled": cancelled,
                    "status": ticket_status_to_dict(
                        self._orchestrator.status(ticket)
                    ),
                }))
            elif method == "shutdown":
                await send(protocol.response(rid, {"ok": True}))
                assert self._shutdown is not None
                self._shutdown.set()
                return True
            else:
                await send(protocol.error_response(
                    rid, protocol.METHOD_NOT_FOUND,
                    f"unknown method {method!r}",
                ))
        except UnknownStimulusError as exc:
            await send(protocol.error_response(
                rid, protocol.STIMULUS_UNKNOWN, str(exc)
            ))
        except (ProtocolError, FormatError) as exc:
            await send(protocol.error_response(
                rid, protocol.INVALID_PARAMS, str(exc)
            ))
        except Exception as exc:
            # A failing request must not end the connection: its other
            # tickets would be cancelled.  Only a library error is
            # expected here; anything else is a defect, logged in full.
            if not isinstance(exc, FPPNError):
                _log.exception("%s request failed", method)
            await send(protocol.error_response(
                rid, protocol.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
            ))
        return False

    async def _handle_submit(
        self, params: Dict[str, Any]
    ) -> Tuple[int, Optional[str]]:
        """Submit; the ticket and the hash its base stimulus is held by."""
        matrix_doc = params.get("matrix")
        if not isinstance(matrix_doc, dict):
            raise ProtocolError("submit needs a 'matrix' document")
        matrix_doc, digest, held = self._held_stimulus(matrix_doc)
        matrix = matrix_from_dict(matrix_doc)
        if held is not None:
            matrix = ScenarioMatrix(
                matrix.base.replace(stimulus=held.stimulus), matrix.axes
            )
        kwargs = decode_fields(_SUBMIT_FIELDS, params, "submit")
        if kwargs.get("metrics") is None:
            kwargs.pop("metrics", None)
        kwargs["keys"] = None if held is None else ScenarioKeys(held)
        return await self._orchestrator.submit(matrix, **kwargs), digest

    def _held_stimulus(
        self, matrix_doc: Dict[str, Any]
    ) -> Tuple[Dict[str, Any], Optional[str], Optional[EncodedStimulus]]:
        """Take the base stimulus out of *matrix_doc*, decoded once.

        Returns the document without it, the hash it is held by and its
        held decoding (both ``None`` when the base has no stimulus
        document; a malformed base is left to
        :func:`~repro.io.json_io.matrix_from_dict` to refuse).  A full
        document is decoded only when no held one has its content hash;
        a reference to a hash not held raises
        :class:`~repro.errors.UnknownStimulusError`.
        """
        base = matrix_doc.get("base")
        document = base.get("stimulus") if isinstance(base, dict) else None
        if not isinstance(document, dict):
            return matrix_doc, None, None
        digest = protocol.stimulus_reference(document)
        if digest is None:
            digest = content_hash(document)
            held, _ = self._stimuli.fetch(
                digest, lambda: EncodedStimulus.decode(document)
            )
        elif digest in self._stimuli:
            held, _ = self._stimuli.fetch(digest, lambda: None)
        else:
            raise UnknownStimulusError(
                f"this server holds no stimulus {digest}: send the document"
            )
        return {**matrix_doc, "base": {**base, "stimulus": None}}, digest, held

    async def _handle_stream(
        self, send: Any, params: Dict[str, Any], rid: Any
    ) -> None:
        try:
            ticket = self._ticket_param(params)
        except ProtocolError as exc:
            await send(protocol.error_response(
                rid, protocol.INVALID_PARAMS, str(exc)
            ))
            return
        try:
            async for kind, payload in self._orchestrator.stream(ticket):
                if kind == "row":
                    await send(protocol.notification("sweep.row", {
                        "ticket": ticket,
                        "row": protocol.sweep_row_to_wire(payload),
                    }))
                elif kind == "event":
                    await send(protocol.notification("sweep.event", {
                        "ticket": ticket,
                        "event": pool_event_to_dict(payload),
                    }))
                elif kind == "done":
                    await send(protocol.response(
                        rid, sweep_result_to_dict(payload)
                    ))
        except SweepError as exc:
            await send(protocol.error_response(
                rid, protocol.SWEEP_FAILED, str(exc)
            ))
        except ServiceError as exc:
            await send(protocol.error_response(
                rid, protocol.INVALID_PARAMS, str(exc)
            ))
        except FPPNError as exc:
            await send(protocol.error_response(
                rid, protocol.INTERNAL_ERROR,
                f"{type(exc).__name__}: {exc}",
            ))

    @staticmethod
    def _ticket_param(params: Dict[str, Any]) -> int:
        ticket = params.get("ticket")
        if not isinstance(ticket, int):
            raise ProtocolError("'ticket' must be an integer")
        return ticket
