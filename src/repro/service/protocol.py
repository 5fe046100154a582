"""The sweep service wire protocol: newline-delimited JSON-RPC 2.0.

Every message is one JSON object on one ``\\n``-terminated line —
requests and responses carry an ``id``, server-to-client notifications
do not.  Payload values travel through the :mod:`repro.io.json_io`
tagged codecs, so exact rationals (`$frac`), complex FFT samples
(`$complex`) and the rest of the library's value vocabulary survive the
wire losslessly; the served rows are bit-identical to an in-process
sweep.

Methods (client to server):

``ping``
    Liveness probe; responds ``{"pong": true}``.
``submit``
    Params: ``matrix`` (``fppn-matrix`` document), ``metrics`` (list of
    names), optional ``faults`` (fault-plan dict), ``on_error``
    (``"capture"``/``"raise"``), ``client`` (fair-scheduling tag).
    Responds with the new ticket id and its status snapshot, plus, when
    the base scenario has a stimulus, the hash ``stimulus`` the server
    holds it by: the :func:`~repro.io.json_io.content_hash` of the
    document received.  The server keeps the stimuli it decoded in a
    bounded table keyed by that hash, and a later submit (on any
    connection) may name one by a *stimulus reference*, ``{"hash": H}``
    and nothing else, as its base scenario's ``stimulus``.  A reference
    the server does not hold (evicted, or never received) is refused
    with ``STIMULUS_UNKNOWN``, and the client resends the document.
    Clients send references only for hashes a server named, so never to
    a server that does not hold stimuli.  Axis values always carry full
    documents.
``status``
    Params: ``ticket``.  Responds with a ticket-status dict.
``stream``
    Params: ``ticket``.  The *response* arrives when the sweep
    finishes, carrying the final ``fppn-sweep`` document; until then
    the server interleaves ``sweep.row`` and ``sweep.event``
    notifications on the connection.  A failed ``on_error="raise"``
    sweep answers with error code ``SWEEP_FAILED`` instead.
``cancel``
    Params: ``ticket``.  Withdraws not-yet-dispatched groups; responds
    ``{"cancelled": bool, "status": {...}}``.
``shutdown``
    Responds ``{"ok": true}``, then stops the server.

Notifications (server to client):

``sweep.row``
    Params: ``ticket`` plus one encoded row (cell, metrics or error).
``sweep.event``
    Params: ``ticket`` plus one encoded
    :class:`~repro.experiment.PoolEvent`.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Mapping, Optional, Tuple

from ..errors import ProtocolError
from ..io.json_io import sweep_row_from_dict, sweep_row_to_dict

__all__ = [
    "JSONRPC_VERSION",
    "MAX_LINE_BYTES",
    "PARSE_ERROR",
    "INVALID_REQUEST",
    "METHOD_NOT_FOUND",
    "INVALID_PARAMS",
    "INTERNAL_ERROR",
    "SWEEP_FAILED",
    "STIMULUS_UNKNOWN",
    "encode",
    "decode_line",
    "request",
    "notification",
    "response",
    "error_response",
    "check_request",
    "stimulus_reference",
    "sweep_row_to_wire",
    "sweep_row_from_wire",
]

JSONRPC_VERSION = "2.0"

#: Per-line ceiling for both directions.  A final ``fppn-sweep``
#: document for a large matrix is the biggest single message; 64 MiB is
#: far beyond any sweep this library runs while still bounding a
#: malformed peer.
MAX_LINE_BYTES = 64 * 1024 * 1024

# JSON-RPC 2.0 standard error codes, plus two application codes.
PARSE_ERROR = -32700
INVALID_REQUEST = -32600
METHOD_NOT_FOUND = -32601
INVALID_PARAMS = -32602
INTERNAL_ERROR = -32603
#: The sweep itself failed (``on_error="raise"`` with a failing cell).
#: Clients surface this as :class:`~repro.errors.SweepError`, exactly
#: like the in-process path.
SWEEP_FAILED = -32000
#: A submit's stimulus reference names a stimulus the server does not
#: hold.  Clients surface this as
#: :class:`~repro.errors.UnknownStimulusError` and resend the document.
STIMULUS_UNKNOWN = -32001


def encode(message: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON, newline-terminated.

    Keys are **not** sorted: axis order in a matrix document is
    semantic (it fixes the cell product order, hence row order), so the
    wire must preserve insertion order end to end.
    """
    return json.dumps(
        message, separators=(",", ":")
    ).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one received line into a message object."""
    try:
        message = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"unparseable wire line: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"wire message must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message


def request(
    method: str, params: Optional[Mapping[str, Any]], rid: int
) -> Dict[str, Any]:
    message: Dict[str, Any] = {
        "jsonrpc": JSONRPC_VERSION, "id": rid, "method": method,
    }
    if params is not None:
        message["params"] = dict(params)
    return message


def notification(
    method: str, params: Mapping[str, Any]
) -> Dict[str, Any]:
    return {
        "jsonrpc": JSONRPC_VERSION, "method": method, "params": dict(params),
    }


def response(rid: Any, result: Any) -> Dict[str, Any]:
    return {"jsonrpc": JSONRPC_VERSION, "id": rid, "result": result}


def error_response(rid: Any, code: int, message: str) -> Dict[str, Any]:
    return {
        "jsonrpc": JSONRPC_VERSION,
        "id": rid,
        "error": {"code": code, "message": message},
    }


def check_request(
    message: Mapping[str, Any],
) -> Tuple[str, Dict[str, Any], Any]:
    """Validate an incoming request; returns (method, params, id).

    Raises :class:`~repro.errors.ProtocolError` on shape violations —
    the server maps that to an ``INVALID_REQUEST`` error response.
    """
    if message.get("jsonrpc") != JSONRPC_VERSION:
        raise ProtocolError(
            f"missing/unsupported jsonrpc version "
            f"{message.get('jsonrpc')!r}"
        )
    method = message.get("method")
    if not isinstance(method, str) or not method:
        raise ProtocolError("request needs a non-empty 'method' string")
    rid = message.get("id")
    if rid is None:
        raise ProtocolError(
            "client notifications are not part of this protocol — "
            "every request needs an 'id'"
        )
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be an object when present")
    return method, params, rid


def stimulus_reference(document: Any) -> Optional[str]:
    """The content hash a stimulus reference names; ``None`` for a document.

    A reference is exactly ``{"hash": H}`` with ``H`` a SHA-256 hex
    digest; a stimulus document never has a ``"hash"`` key.  Anything
    else holding one is refused with :class:`~repro.errors.ProtocolError`.
    """
    if not isinstance(document, dict) or "hash" not in document:
        return None
    digest = document["hash"]
    if len(document) != 1 or not (
        isinstance(digest, str) and re.fullmatch("[0-9a-f]{64}", digest)
    ):
        raise ProtocolError(
            "a stimulus reference is {\"hash\": <sha256 hex digest>} and "
            f"nothing else, got {json.dumps(document)[:120]}"
        )
    return digest


# Row payloads — the streaming unit — are encoded by the one sweep-row
# codec in json_io (final tables use its fppn-sweep document; a live row
# travels alone).  Both names stay attributes of this module: callers go
# through it, so a wrapper installed here sees every streamed row.
sweep_row_to_wire = sweep_row_to_dict
sweep_row_from_wire = sweep_row_from_dict
