"""Content-addressed checkpoint store for sweep results.

A :class:`Scenario` is frozen, comparable and JSON-round-trippable, so
its tagged-JSON encoding is a *content key*: :func:`scenario_hash`
canonicalises ``scenario_to_dict`` (sorted keys, compact separators) and
SHA-256 hashes it.  A :class:`SweepStore` persists each sweep row's
metric values keyed by ``(scenario_hash, metrics_key)``, which makes
sweeps incremental:

* an interrupted or partially-failed sweep resumed with the same store
  recomputes only the missing/failed cells (the completed rows are
  hits);
* re-running a matrix after editing one axis recomputes only the
  changed cells;
* chained sweeps across sessions hit the store instead of the
  simulator.

Because sweep rows are deterministic (bit-identical across runs and
across the serial/parallel backends) a stored row *is* the row the
simulator would produce, and metric values go through the exact tagged
value encoding of :mod:`repro.io.json_io` — Fractions come back as the
same Fractions.  ``run_sweep(store=...)`` reports its traffic in
``SweepStats.store_hits`` / ``store_misses``.

Two backends ship (modelled on hypergraph's ``checkpointers/``
base/sqlite split): :class:`MemorySweepStore` for tests and ephemeral
chaining, :class:`SqliteSweepStore` for durable cross-session files.

Caveat: the hash keys the scenario *description*.  A workload name must
mean the same network wherever the store is reused — registering a
different factory under an old name makes stored rows silently stale
(exactly as it would make any cache stale).  Scenarios that cannot be
serialised (bare factory callables, per-job WCET callables) have no
content key: :func:`store_key` returns ``None`` and the sweep computes
them normally without consulting the store.
"""

from __future__ import annotations

import json
import sqlite3
from typing import Any, Dict, Iterable, Optional, Tuple

from ..core.invocations import Stimulus
from ..errors import CheckpointError, FormatError
from .scenario import Scenario

__all__ = [
    "EncodedStimulus",
    "MemorySweepStore",
    "SqliteSweepStore",
    "SweepStore",
    "metrics_key",
    "scenario_hash",
    "store_key",
]


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 content key of a scenario's canonical JSON encoding.

    Raises :class:`~repro.io.json_io.FormatError` for scenarios that do
    not serialise (code-bearing workloads/WCETs); use :func:`store_key`
    for the forgiving variant.
    """
    return ScenarioKeys().scenario_hash(scenario)


def store_key(scenario: Scenario) -> Optional[str]:
    """:func:`scenario_hash`, or ``None`` when the scenario has no content key.

    ``None`` means the scenario embeds code (a bare factory callable, a
    per-job WCET callable) that the JSON encoding refuses; such cells are
    computed fresh on every sweep and never persisted.
    """
    return ScenarioKeys().store_key(scenario)


class EncodedStimulus:
    """A stimulus with its canonical encoding, computed once.

    ``data`` is its :func:`~repro.io.json_io.stimulus_to_dict` form,
    ``canonical`` that form's canonical JSON bytes and ``hash`` their
    SHA-256: the stimulus's content hash, which store keys include and
    pool payloads and service references name it by.  Immutable once
    built, so one entry may serve many submissions.
    """

    __slots__ = ("stimulus", "data", "canonical", "hash")

    def __init__(self, stimulus: Stimulus) -> None:
        from ..io.json_io import (
            canonical_hash,
            canonical_json,
            stimulus_to_dict,
        )

        self.stimulus = stimulus
        self.data = stimulus_to_dict(stimulus)
        self.canonical = canonical_json(self.data).encode("utf-8")
        self.hash = canonical_hash(self.canonical)

    @classmethod
    def decode(cls, data: Any) -> "EncodedStimulus":
        """Decode a stimulus document, then encode the decoded object."""
        from ..io.json_io import stimulus_from_dict

        return cls(stimulus_from_dict(data))


class ScenarioKeys:
    """Content keys of one submission's scenarios, each stimulus encoded once.

    A matrix's cells usually share one stimulus object, and the stimulus
    is most of a scenario's canonical JSON.  So each stimulus is encoded
    once (an :class:`EncodedStimulus`), kept here by object identity for
    as long as this object lives (one submission), and a cell's key
    hashes the canonical text of the whole scenario incrementally
    (:func:`~repro.io.json_io.scenario_content_hash`).  Keys equal
    ``content_hash(scenario_to_dict(scenario))``.  A caller that holds
    encodings already (the sweep server) passes them to the constructor.
    Nothing is cached on the stimulus itself.
    """

    def __init__(self, *seeds: EncodedStimulus) -> None:
        # Each entry holds its stimulus, so the id cannot be reused.
        self._stimuli: Dict[int, EncodedStimulus] = {
            id(entry.stimulus): entry for entry in seeds
        }

    def stimulus(self, stimulus: Stimulus) -> EncodedStimulus:
        """The stimulus's encoding (made on first use)."""
        entry = self._stimuli.get(id(stimulus))
        if entry is None:
            entry = self._stimuli[id(stimulus)] = EncodedStimulus(stimulus)
        return entry

    def scenario_hash(self, scenario: Scenario) -> str:
        """:func:`scenario_hash` of *scenario*, its stimulus encoded once."""
        from ..io.json_io import scenario_content_hash

        stimulus = scenario.stimulus
        return scenario_content_hash(scenario, b"null" if stimulus is None
                                     else self.stimulus(stimulus).canonical)

    def store_key(self, scenario: Scenario) -> Optional[str]:
        """:func:`store_key` of *scenario*, its stimulus encoded once."""
        try:
            return self.scenario_hash(scenario)
        except FormatError:
            return None


def metrics_key(metrics: Iterable[str]) -> str:
    """Canonical key of a requested metric set (order-insensitive)."""
    return ",".join(sorted(metrics))


class SweepStore:
    """Persisted sweep rows keyed by ``(scenario_hash, metrics_key)``.

    Only *healthy* rows are stored — failed cells are recomputed on
    resume, which is what makes a store-backed re-run the recovery path
    for partial sweeps.  Subclasses implement the four raw-text methods;
    the encode/decode (exact tagged values) is shared here.
    """

    # -- raw backend interface (text payloads) --------------------------
    def _load(self, scenario_key: str, metric_set: str) -> Optional[str]:
        raise NotImplementedError

    def _save(self, scenario_key: str, metric_set: str, payload: str) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def close(self) -> None:
        """Release any backing resources (no-op by default)."""

    # -- typed interface used by run_sweep ------------------------------
    def get(
        self, scenario_key: str, metric_set: str
    ) -> Optional[Dict[str, Any]]:
        """The stored metric row, decoded to exact values, or ``None``."""
        from ..io.json_io import value_map_from_jsonable

        payload = self._load(scenario_key, metric_set)
        if payload is None:
            return None
        try:
            data = json.loads(payload)
        except ValueError as exc:
            raise CheckpointError(f"corrupt store row payload: {exc}") from exc
        return value_map_from_jsonable(data, "store row payload")

    def put(
        self, scenario_key: str, metric_set: str, metrics: Dict[str, Any]
    ) -> None:
        """Persist one healthy row (idempotent: last write wins)."""
        from ..io.json_io import value_map_to_jsonable

        self._save(
            scenario_key, metric_set,
            json.dumps(value_map_to_jsonable(metrics), sort_keys=True),
        )

    def __contains__(self, key: Tuple[str, str]) -> bool:
        scenario_key, metric_set = key
        return self._load(scenario_key, metric_set) is not None

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class MemorySweepStore(SweepStore):
    """Dict-backed store: ephemeral, but byte-equivalent to the sqlite one.

    Rows go through the same text encoding as the durable backend, so a
    test passing against this store proves the round-trip exactness too.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, str], str] = {}

    def _load(self, scenario_key: str, metric_set: str) -> Optional[str]:
        return self._rows.get((scenario_key, metric_set))

    def _save(self, scenario_key: str, metric_set: str, payload: str) -> None:
        self._rows[(scenario_key, metric_set)] = payload

    def __len__(self) -> int:
        return len(self._rows)


class SqliteSweepStore(SweepStore):
    """Sqlite-file store: durable checkpoints shared across sessions.

    One table, primary-keyed by ``(scenario_hash, metrics_key)``, payload
    in the tagged-JSON text encoding.  ``":memory:"`` works for tests.
    The connection runs in autocommit mode — every ``put`` is durable on
    return — and the store is a context manager (``with`` closes it).

    The database runs in WAL journal mode with a busy timeout, so several
    connections — e.g. a resident :class:`~repro.experiment.pool.
    SweepPool` service and an interactive session sharing one checkpoint
    file — can read and write concurrently without ``database is locked``
    errors (readers never block the writer under WAL; a briefly-locked
    writer waits instead of raising).  In-memory databases have no WAL
    (sqlite reports ``memory`` journal mode) but need none: they are
    single-connection by construction.
    """

    #: How long [s] a connection waits on a locked database before
    #: giving up — generous, because checkpoint writes are tiny and the
    #: lock holder finishes in milliseconds.
    BUSY_TIMEOUT = 10.0

    #: ``PRAGMA user_version`` stamped on the files this class writes.
    #: The scenario hash keys a row's description, not the simulator that
    #: computed it, so a row must not outlive a change of what a
    #: description computes.  Version 1: jittered rows drawn by the
    #: counter-based :class:`~repro.runtime.executor.JitterSampler`.
    #: Files without a stamp (version 0) predate it and may hold rows of
    #: the string-seeded draws; one that holds any row is refused.
    SCHEMA_VERSION = 1

    def __init__(self, path: str) -> None:
        self.path = str(path)
        try:
            self._conn = sqlite3.connect(
                self.path, isolation_level=None, timeout=self.BUSY_TIMEOUT
            )
            self._conn.execute(
                f"PRAGMA busy_timeout = {int(self.BUSY_TIMEOUT * 1000)}"
            )
            self._conn.execute("PRAGMA journal_mode = WAL")
            # One write transaction (committed, or rolled back on error):
            # a second connection opening the same fresh file cannot
            # interleave between the version check and the stamp.
            self._conn.execute("BEGIN IMMEDIATE")
            with self._conn:
                self._check_version()
                self._conn.execute(
                    "CREATE TABLE IF NOT EXISTS sweep_rows ("
                    " scenario_hash TEXT NOT NULL,"
                    " metrics_key TEXT NOT NULL,"
                    " payload TEXT NOT NULL,"
                    " PRIMARY KEY (scenario_hash, metrics_key))"
                )
                self._conn.execute(
                    f"PRAGMA user_version = {self.SCHEMA_VERSION}"
                )
        except sqlite3.Error as exc:
            raise CheckpointError(
                f"cannot open sweep store at {self.path!r}: {exc}"
            ) from exc
        except CheckpointError:
            self._conn.close()
            raise

    def _check_version(self) -> None:
        """Refuse a file of another schema version that holds rows."""
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version == self.SCHEMA_VERSION:
            return
        has_table = self._conn.execute(
            "SELECT 1 FROM sqlite_master"
            " WHERE type = 'table' AND name = 'sweep_rows'"
        ).fetchone()
        if version < self.SCHEMA_VERSION and not (
            has_table and self._conn.execute(
                "SELECT 1 FROM sweep_rows LIMIT 1"
            ).fetchone()
        ):
            return  # nothing stored yet: stamp it as this version
        raise CheckpointError(
            f"sweep store {self.path!r} is schema version {version}, this "
            f"library reads version {self.SCHEMA_VERSION}: its rows may "
            "hold jittered values of another draw rule and would be served "
            "stale — delete the file or use a new path"
        )

    def _load(self, scenario_key: str, metric_set: str) -> Optional[str]:
        row = self._conn.execute(
            "SELECT payload FROM sweep_rows"
            " WHERE scenario_hash = ? AND metrics_key = ?",
            (scenario_key, metric_set),
        ).fetchone()
        return None if row is None else row[0]

    def _save(self, scenario_key: str, metric_set: str, payload: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO sweep_rows"
            " (scenario_hash, metrics_key, payload) VALUES (?, ?, ?)",
            (scenario_key, metric_set, payload),
        )

    def __len__(self) -> int:
        return self._conn.execute(
            "SELECT COUNT(*) FROM sweep_rows"
        ).fetchone()[0]

    def close(self) -> None:
        self._conn.close()
