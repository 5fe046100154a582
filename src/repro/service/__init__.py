"""Sweep service: a shared :class:`~repro.experiment.SweepPool` served
to many concurrent clients.

Three layers, lowest to highest:

* :mod:`repro.service.orchestrator` — an asyncio front over the pool.
  The event loop that uses it drives the pool's core directly (reader
  callbacks on the worker pipes, one timer for its deadlines) and owns
  the store; coroutines submit matrices, stream rows/milestones and
  cancel through ticket handles.  Fair scheduling across client tags is
  the pool's own round-robin (``SweepPool.submit(client=...)``).
* :mod:`repro.service.protocol` + :mod:`repro.service.server` — a
  stdlib-only newline-delimited JSON-RPC 2.0 wire protocol over TCP and
  the asyncio server speaking it.  All payloads travel through the
  :mod:`repro.io.json_io` tagged codecs, so exact rationals and FFT
  stimuli survive the wire and served rows are bit-identical to an
  in-process ``run_sweep``.
* :mod:`repro.service.client` — a blocking socket client whose
  ``run_sweep`` mirrors the in-process signature (``on_row`` /
  ``on_progress`` callbacks included), plus the CLI verbs
  ``python -m repro serve`` and ``sweep --server HOST:PORT``.

The served path runs on the server's loop thread; reading the worker
pipes with ``add_reader`` makes it POSIX-only.
"""

from .client import ServiceClient
from .orchestrator import SweepOrchestrator, TicketStatus
from .server import SweepServer

__all__ = [
    "ServiceClient",
    "SweepOrchestrator",
    "SweepServer",
    "TicketStatus",
]
