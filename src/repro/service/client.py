"""Blocking client for the sweep service.

A thin socket front whose ``run_sweep`` mirrors the in-process
:func:`~repro.experiment.run_sweep` signature — same matrix, metrics,
``on_row`` / ``on_progress`` callbacks, fault plans and error policy —
so routing a sweep to a remote pool is a one-line change.  Rows decode
through the tagged codecs back into exact :class:`Fraction` values: a
served table is bit-identical to a local one.

The client is deliberately synchronous (one socket, one in-flight
request plus its notification stream): the CLI and tests drive it
directly, and concurrency comes from opening more clients — the server
multiplexes them onto the shared pool with per-client fairness.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..errors import (
    ProtocolError,
    ServiceError,
    SweepError,
    UnknownStimulusError,
)
from ..experiment.faults import FaultPlan
from ..experiment.pool_core import LRU
from ..experiment.sweep import (
    DEFAULT_METRICS,
    ScenarioMatrix,
    SweepResult,
    SweepRow,
)
from ..io.json_io import (
    fault_plan_to_dict,
    matrix_to_dict,
    pool_event_from_dict,
    sweep_result_from_dict,
    ticket_status_from_dict,
)
from . import protocol

__all__ = ["ServiceClient"]

#: Stimulus objects a client remembers having sent (least recently used
#: forgotten first).
_SENT_STIMULI = 8


class ServiceClient:
    """One TCP connection to a :class:`~repro.service.SweepServer`.

    ``client`` is this connection's fair-scheduling tag (defaults to a
    socket-unique name): submissions sharing a tag are FIFO among
    themselves, distinct tags round-robin on the server's pool.  The
    client is a context manager; the connection closes on exit and the
    server then cancels any tickets still pending from it.

    A matrix whose base stimulus is one of the last :data:`_SENT_STIMULI`
    objects this client sent is submitted with a reference to it (its
    content hash, see :mod:`.protocol`) in place of the document, so a
    stimulus crosses the wire and is decoded once, not once per ticket.
    The client keeps each such object alive, so its identity stays
    unique, and relies on stimuli not changing after first use, as the
    rest of the library does.  The table is only a hint: a server that
    does not hold the stimulus (restarted, or it evicted it) refuses the
    reference and :meth:`submit` resends the document in the same call.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        client: Optional[str] = None,
        timeout: Optional[float] = 300.0,
    ) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout)
        except OSError as exc:
            raise ServiceError(
                f"cannot connect to sweep server at {host}:{port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rb")
        self._next_id = 1
        self._closed = False
        #: ``id(stimulus) -> (stimulus, the hash the server holds it by)``.
        self._sent = LRU(_SENT_STIMULI)
        self.client = (
            client if client is not None
            else f"client-{self._sock.getsockname()[1]}"
        )

    @classmethod
    def from_address(cls, address: str, **kwargs: Any) -> "ServiceClient":
        """Connect to a ``HOST:PORT`` string (the CLI's ``--server``)."""
        host, sep, port_text = address.rpartition(":")
        if not sep or not host:
            raise ServiceError(
                f"server address must be HOST:PORT, got {address!r}"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ServiceError(
                f"bad port in server address {address!r}"
            ) from None
        return cls(host, port, **kwargs)

    # -- the convenience entry point ------------------------------------
    def run_sweep(
        self,
        matrix: ScenarioMatrix,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        faults: Optional[FaultPlan] = None,
        on_error: str = "capture",
        on_row: Optional[Callable[[SweepRow], None]] = None,
        on_progress: Optional[Callable[[Any], None]] = None,
    ) -> SweepResult:
        """Submit, stream and decode one sweep — the remote ``run_sweep``.

        Blocks until the server finishes the matrix; rows and pool
        milestones invoke the callbacks live as notification lines
        arrive.  ``on_error="raise"`` failures surface as
        :class:`~repro.errors.SweepError`, exactly like in-process.
        """
        submitted = self.submit(
            matrix, metrics, faults=faults, on_error=on_error
        )
        return self.stream(
            submitted["ticket"], on_row=on_row, on_progress=on_progress
        )

    # -- protocol methods ------------------------------------------------
    def ping(self) -> bool:
        return bool(self._call("ping", {}).get("pong"))

    def submit(
        self,
        matrix: ScenarioMatrix,
        metrics: Sequence[str] = DEFAULT_METRICS,
        *,
        faults: Optional[FaultPlan] = None,
        on_error: str = "capture",
    ) -> Dict[str, Any]:
        """Enqueue a matrix; returns ``{"ticket": id, "status": ...}``.

        A base stimulus sent before travels as a reference; one the
        server no longer holds is resent in full, once, in this call.
        """
        params: Dict[str, Any] = {
            "matrix": None,
            "metrics": list(metrics),
            "on_error": on_error,
            "client": self.client,
        }
        if faults is not None:
            params["faults"] = fault_plan_to_dict(faults)
        stimulus = matrix.base.stimulus
        sent = self._sent.get(id(stimulus))
        if sent is not None:
            self._sent.move_to_end(id(stimulus))
            document = matrix_to_dict(ScenarioMatrix(
                matrix.base.replace(stimulus=None), matrix.axes
            ))
            document["base"]["stimulus"] = {"hash": sent[1]}
            params["matrix"] = document
            try:
                return self._call("submit", params)
            except UnknownStimulusError:
                pass
        params["matrix"] = matrix_to_dict(matrix)
        result = self._call("submit", params)
        digest = result.get("stimulus")
        if isinstance(digest, str):  # a server that holds stimuli
            self._sent.fetch(id(stimulus), lambda: (stimulus, digest))
        return result

    def status(self, ticket: int) -> Any:
        """The ticket's :class:`~repro.service.TicketStatus` snapshot."""
        return ticket_status_from_dict(self._call("status", {
            "ticket": ticket,
        }))

    def stream(
        self,
        ticket: int,
        *,
        on_row: Optional[Callable[[SweepRow], None]] = None,
        on_progress: Optional[Callable[[Any], None]] = None,
    ) -> SweepResult:
        """Consume a ticket's stream to completion; the final table."""
        document = self._call(
            "stream", {"ticket": ticket},
            on_row=on_row, on_progress=on_progress,
        )
        return sweep_result_from_dict(document)

    def cancel(self, ticket: int) -> bool:
        """Withdraw the ticket's pending groups; True if any were."""
        return bool(self._call("cancel", {"ticket": ticket})["cancelled"])

    def shutdown(self) -> None:
        """Ask the server to stop (it finishes after responding)."""
        self._call("shutdown", {})

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- wire plumbing ---------------------------------------------------
    def _call(
        self,
        method: str,
        params: Mapping[str, Any],
        *,
        on_row: Optional[Callable[[SweepRow], None]] = None,
        on_progress: Optional[Callable[[Any], None]] = None,
    ) -> Any:
        """Send one request; pump lines until its response arrives.

        Notification lines interleaved before the response are
        dispatched to the callbacks (rows are data — their decode
        errors propagate; progress is telemetry — sink errors are
        swallowed like the in-process pool does).
        """
        if self._closed:
            raise ServiceError("client is closed")
        rid = self._next_id
        self._next_id += 1
        try:
            self._sock.sendall(
                protocol.encode(protocol.request(method, dict(params), rid))
            )
        except OSError as exc:
            raise ServiceError(f"send failed: {exc}") from exc
        while True:
            try:
                line = self._file.readline(protocol.MAX_LINE_BYTES + 1)
            except OSError as exc:
                raise ServiceError(f"receive failed: {exc}") from exc
            if not line:
                raise ServiceError(
                    "server closed the connection mid-request"
                )
            if len(line) > protocol.MAX_LINE_BYTES:
                raise ProtocolError("oversized wire line from server")
            message = protocol.decode_line(line)
            if "method" in message and "id" not in message:
                self._dispatch_notification(message, on_row, on_progress)
                continue
            if message.get("id") != rid:
                raise ProtocolError(
                    f"out-of-order response id {message.get('id')!r} "
                    f"(expected {rid})"
                )
            if "error" in message:
                raise self._error_from(message["error"])
            return message.get("result")

    def _dispatch_notification(
        self,
        message: Mapping[str, Any],
        on_row: Optional[Callable[[SweepRow], None]],
        on_progress: Optional[Callable[[Any], None]],
    ) -> None:
        method = message.get("method")
        params = message.get("params")
        if not isinstance(params, Mapping):
            raise ProtocolError(f"notification {method!r} without params")
        if method == "sweep.row":
            if on_row is not None:
                on_row(protocol.sweep_row_from_wire(params.get("row", {})))
        elif method == "sweep.event":
            if on_progress is not None:
                try:
                    on_progress(
                        pool_event_from_dict(params.get("event", {}))
                    )
                except Exception:
                    pass
        # Unknown notifications are skipped: the protocol may grow
        # telemetry kinds without breaking older clients.

    @staticmethod
    def _error_from(error: Mapping[str, Any]) -> Exception:
        code = error.get("code")
        message = str(error.get("message", "unknown server error"))
        if code == protocol.SWEEP_FAILED:
            return SweepError(message)
        if code == protocol.STIMULUS_UNKNOWN:
            return UnknownStimulusError(message)
        return ServiceError(f"server error {code}: {message}")
