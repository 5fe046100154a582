"""The one sweep-row codec, exercised at every boundary a row crosses.

One table — Fraction, complex, tuple and Platform cell values, a failed
row from each pipeline stage, non-default stats — goes through the
fppn-sweep document, the service's row stream, the pool's worker reply
and the checkpoint store.  Committed bytes written by an earlier encoder
(``fixtures/sweep_failed_rows.json``, the pinned store payload) must
re-encode identically: nothing that leaves the process may drift.
"""

import inspect
import json
from fractions import Fraction

import pytest

from repro import FaultPlan
from repro.apps import fig1_scenario
from repro.core.platform import Platform
from repro.experiment import pool as pool_mod
from repro.experiment import store as store_mod
from repro.experiment.experiment import PipelineCache
from repro.experiment.pool import (
    _WorkerCaches,
    _encode_service_group,
    _merge_reply,
    _service_run_group,
)
from repro.experiment.store import MemorySweepStore, SqliteSweepStore
from repro.experiment.sweep import (
    SweepCell,
    SweepCellError,
    SweepResult,
    SweepRow,
    SweepStats,
    _run_cells,
    _SweepBook,
)
from repro.io.json_io import (
    FormatError,
    sweep_result_from_dict,
    sweep_result_to_dict,
)
from repro.service import protocol

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"

BIG_LITTLE = Platform.of(("big", 1, 2), ("little", 2, "1/2"))

#: ``store.put`` payload of ``wire_table().rows[1].metrics``.  Sqlite
#: checkpoint files written earlier hold these bytes, so they must keep
#: decoding to the same values and re-encoding to the same string.
STORE_PAYLOAD = (
    '{"executed_jobs": 15, "kernel_busy": {"$frac": "1/3"}, '
    '"makespan": {"$frac": "700/1"}, "peak_utilization": {"$frac": "7/9"}}'
)

STAGES = ("network", "derivation", "scheduling", "run")


def wire_table():
    cells = [
        {"wcet": Fraction(25), "gain": 1 + 2j, "heuristics": ("alap",),
         "platform": Platform.homogeneous(2)},
        {"wcet": Fraction(75, 2), "gain": -0.5j,
         "heuristics": ("asap", "alap"), "platform": BIG_LITTLE},
    ]
    rows = [
        SweepRow(cell=cells[0], metrics={
            "makespan": Fraction(1375, 2), "executed_jobs": 16,
            "peak_utilization": Fraction(3, 4), "kernel_busy": Fraction(0),
        }),
        SweepRow(cell=cells[1], metrics={
            "makespan": Fraction(700), "executed_jobs": 15,
            "peak_utilization": Fraction(7, 9), "kernel_busy": Fraction(1, 3),
        }),
    ]
    failures = [
        ("network", "ModelError", "unknown workload 'no-such-workload'", 0),
        ("derivation", "ModelError",
         "horizon 7/3 is not a multiple of the effective period 200", 0),
        ("scheduling", "InfeasibleError",
         "no feasible schedule on 1 processors (best: 'alap')", 1),
        ("run", "WorkerCrashError",
         "a sweep worker process died mid-group; retry budget exhausted", 2),
    ]
    failed_rows = [
        SweepRow(
            cell={**cells[i % 2], "wcet": Fraction(10 + i, 3)},
            metrics={},
            error=SweepCellError(
                error_type=kind, message=message, stage=stage,
                retries=retries,
            ),
        )
        for i, (stage, kind, message, retries) in enumerate(failures)
    ]
    return SweepResult(
        axes={
            "wcet": (Fraction(25), Fraction(75, 2)),
            "gain": (1 + 2j, -0.5j),
            "heuristics": (("alap",), ("asap", "alap")),
            "platform": (Platform.homogeneous(2), BIG_LITTLE),
        },
        metrics=("makespan", "executed_jobs", "peak_utilization",
                 "kernel_busy"),
        rows=rows,
        stats=SweepStats(
            cells=6, runs=2, networks_built=3, derivations_computed=2,
            schedules_computed=1, workers=2,
            parallel_fallback="matrix has a single schedule-key group",
            failed_cells=4, retries=3, store_hits=1, store_misses=5,
            interrupted=True, pool_reused=True, warm_group_hits=2,
            payload_cache_hits=7,
        ),
        failed_rows=failed_rows,
    )


def _read(name):
    with open(f"{FIXTURES}/{name}", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# the fppn-sweep document
# ---------------------------------------------------------------------------
class TestDocument:
    def test_round_trip(self):
        table = wire_table()
        back = sweep_result_from_dict(
            json.loads(json.dumps(sweep_result_to_dict(table)))
        )
        assert back == table
        assert [r.error.stage for r in back.failed_rows] == list(STAGES)

    def test_failed_row_fixture_is_byte_stable(self):
        text = _read("sweep_failed_rows.json")
        decoded = sweep_result_from_dict(json.loads(text))
        assert decoded == wire_table()
        assert json.dumps(sweep_result_to_dict(decoded), indent=2) + "\n" == text
        assert (
            json.dumps(sweep_result_to_dict(wire_table()), indent=2) + "\n"
            == text
        )

    def test_prehetero_fixture_is_byte_stable(self):
        text = _read("prehetero_sweep.json")
        decoded = sweep_result_from_dict(json.loads(text))
        assert json.dumps(
            sweep_result_to_dict(decoded), indent=2, sort_keys=True
        ) + "\n" == text

    def test_stats_missing_fields_take_defaults(self):
        data = sweep_result_to_dict(wire_table())
        data["stats"] = {"cells": 6, "runs": "2"}
        assert sweep_result_from_dict(data).stats == SweepStats(cells=6, runs=2)

    def test_bad_stats_value_is_a_format_error(self):
        data = sweep_result_to_dict(wire_table())
        data["stats"]["retries"] = "many"
        with pytest.raises(FormatError, match="retries"):
            sweep_result_from_dict(data)


# ---------------------------------------------------------------------------
# the service's sweep.row notifications
# ---------------------------------------------------------------------------
class TestRpcRowWire:
    def test_round_trip_through_a_wire_line(self):
        table = wire_table()
        for row in table.rows + table.failed_rows:
            line = protocol.encode(protocol.notification(
                "sweep.row", {"ticket": 1, "row": protocol.sweep_row_to_wire(row)}
            ))
            params = protocol.decode_line(line)["params"]
            assert protocol.sweep_row_from_wire(params["row"]) == row

    def test_wire_rows_equal_the_document_rows(self):
        # The row stream and the committed document share one encoding.
        document = json.loads(_read("sweep_failed_rows.json"))
        table = wire_table()
        assert [
            protocol.sweep_row_to_wire(r) for r in table.rows
        ] == document["rows"]
        assert [
            protocol.sweep_row_to_wire(r) for r in table.failed_rows
        ] == document["failed_rows"]


# ---------------------------------------------------------------------------
# the pool's parent <-> worker reply, in process
# ---------------------------------------------------------------------------
def _pool_cells():
    """Real cells whose coordinates are the table's cell values.

    Cells 0 and 1 run; cells 2-5 fail in the network, derivation,
    scheduling and run stage respectively (cell 5 by an injected fault).
    """
    table = wire_table()
    base = fig1_scenario(n_frames=1)
    scenarios = [
        base.replace(jitter_seed=0),
        base.replace(jitter_seed=1, processors=3),
        base.replace(workload="no-such-workload"),
        base.replace(horizon=Fraction(7, 3)),
        base.replace(processors=1),
        base.replace(jitter_seed=2),
    ]
    coords = [row.cell for row in table.rows + table.failed_rows]
    return [
        SweepCell(index=i, coords=tuple(c.items()), scenario=s)
        for i, (c, s) in enumerate(zip(coords, scenarios))
    ]


def _book(cells, metrics):
    return _SweepBook({}, cells, metrics, False, SweepStats(cells=len(cells)))


class TestPoolReply:
    METRICS = ("makespan", "executed_jobs", "peak_utilization")

    def test_reply_merges_bit_identical_to_the_in_process_engine(self):
        cells = _pool_cells()
        faults = FaultPlan(raise_at=(5,))
        payload = _encode_service_group(
            cells, self.METRICS, faults=faults, attempt=2
        )
        assert "lean" not in json.loads(payload)
        reply = _service_run_group(payload, _WorkerCaches(4, 8))

        book = _book(cells, self.METRICS)
        _merge_reply(book, cells, reply)
        pooled = book.result()

        local = _book(cells, self.METRICS)
        for outcome in _run_cells(
            cells, self.METRICS, False, cache=PipelineCache(),
            faults=faults, retries=2,
        ):
            local.book(outcome)
        expected = local.result()

        assert pooled == expected
        assert [row.cell for row in pooled.rows] == [
            row.cell for row in wire_table().rows
        ]
        assert [r.error.stage for r in pooled.failed_rows] == list(STAGES)
        assert {r.error.retries for r in pooled.failed_rows} == {2}
        assert isinstance(pooled.rows[0].metrics["makespan"], Fraction)


# ---------------------------------------------------------------------------
# the checkpoint store
# ---------------------------------------------------------------------------
@pytest.fixture(params=["memory", "sqlite"])
def store(request):
    with (
        MemorySweepStore() if request.param == "memory"
        else SqliteSweepStore(":memory:")
    ) as s:
        yield s


class TestStore:
    def test_put_get_round_trip(self, store):
        for i, row in enumerate(wire_table().rows):
            store.put(f"s{i}", "m", row.metrics)
            assert store.get(f"s{i}", "m") == row.metrics

    def test_payload_is_byte_stable(self, store):
        metrics = wire_table().rows[1].metrics
        store.put("new", "m", metrics)
        assert store._load("new", "m") == STORE_PAYLOAD
        # An earlier payload decodes to the same values and re-encodes to
        # the same string.
        store._save("old", "m", STORE_PAYLOAD)
        assert store.get("old", "m") == metrics
        store.put("again", "m", store.get("old", "m"))
        assert store._load("again", "m") == STORE_PAYLOAD

    def test_non_object_payload_is_a_format_error(self, store):
        store._save("bad", "m", "[1, 2]")
        with pytest.raises(FormatError, match="store row payload"):
            store.get("bad", "m")


# ---------------------------------------------------------------------------
# malformed rows are refused loudly, naming what is missing
# ---------------------------------------------------------------------------
class TestMalformedRows:
    @pytest.mark.parametrize("key", ["type", "message"])
    def test_wire_row_missing_error_key(self, key):
        wire = protocol.sweep_row_to_wire(wire_table().failed_rows[0])
        del wire["error"][key]
        with pytest.raises(FormatError, match=repr(key)):
            protocol.sweep_row_from_wire(wire)

    @pytest.mark.parametrize("key", ["type", "message"])
    def test_document_failed_row_missing_error_key(self, key):
        data = sweep_result_to_dict(wire_table())
        del data["failed_rows"][2]["error"][key]
        with pytest.raises(FormatError, match=repr(key)):
            sweep_result_from_dict(data)

    def test_failed_row_without_error_record(self):
        data = sweep_result_to_dict(wire_table())
        del data["failed_rows"][0]["error"]
        with pytest.raises(FormatError, match="no error record"):
            sweep_result_from_dict(data)

    def test_non_integer_retries(self):
        wire = protocol.sweep_row_to_wire(wire_table().failed_rows[1])
        wire["error"]["retries"] = "twice"
        with pytest.raises(FormatError, match="bad row error record"):
            protocol.sweep_row_from_wire(wire)

    def test_error_record_not_an_object(self):
        with pytest.raises(FormatError, match="error record"):
            protocol.sweep_row_from_wire({"cell": {}, "error": "boom"})

    def test_metrics_not_an_object(self):
        with pytest.raises(FormatError, match="row metrics"):
            protocol.sweep_row_from_wire({"cell": {}, "metrics": [1]})


def test_row_format_has_one_owner():
    """No boundary module spells the row format out for itself."""
    for module in (protocol, pool_mod, store_mod):
        source = inspect.getsource(module)
        for needle in ("SweepCellError(", "asdict(", '"stage"', '"retries"',
                       "value_to_jsonable", "value_from_jsonable",
                       "hashlib"):
            assert needle not in source, (module.__name__, needle)
