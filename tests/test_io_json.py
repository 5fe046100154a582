"""Tests for JSON interchange: task graphs, schedules, networks."""

import json
import re
from fractions import Fraction

import pytest

from repro.apps import build_fig1_network, build_fms_network, fig1_wcets, fms_wcets
from repro.core import ChannelKind
from repro.errors import ModelError
from repro.io import (
    FormatError,
    load_json,
    network_from_dict,
    network_to_dict,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    task_graph_from_dict,
    task_graph_to_dict,
)
from repro.scheduling import find_feasible_schedule
from repro.taskgraph import derive_task_graph, task_graph_load


@pytest.fixture(scope="module")
def fig1_graph():
    return derive_task_graph(build_fig1_network(), fig1_wcets())


class TestTaskGraphRoundTrip:
    def test_lossless(self, fig1_graph):
        data = task_graph_to_dict(fig1_graph)
        back = task_graph_from_dict(data)
        assert [j.name for j in back.jobs] == [j.name for j in fig1_graph.jobs]
        assert back.edges() == fig1_graph.edges()
        assert back.hyperperiod == fig1_graph.hyperperiod

    def test_rational_times_preserved(self):
        from repro.taskgraph.graph import TaskGraph
        from repro.taskgraph.jobs import Job

        g = TaskGraph(
            [Job("p", 1, Fraction(1, 3), Fraction(2, 3), Fraction(1, 7))],
            [],
            Fraction(2, 3),
        )
        back = task_graph_from_dict(task_graph_to_dict(g))
        assert back.jobs[0].arrival == Fraction(1, 3)
        assert back.jobs[0].wcet == Fraction(1, 7)

    def test_server_metadata_preserved(self, fig1_graph):
        back = task_graph_from_dict(task_graph_to_dict(fig1_graph))
        j = back.job("CoefB[2]")
        assert j.is_server and j.subset_index == 1 and j.slot == 2

    def test_is_json_serializable(self, fig1_graph):
        json.dumps(task_graph_to_dict(fig1_graph))

    def test_analysis_identical_after_roundtrip(self, fig1_graph):
        back = task_graph_from_dict(task_graph_to_dict(fig1_graph))
        assert task_graph_load(back).load == task_graph_load(fig1_graph).load

    def test_format_checked(self):
        with pytest.raises(FormatError, match="expected format"):
            task_graph_from_dict({"format": "other", "version": 1})

    def test_version_checked(self, fig1_graph):
        data = task_graph_to_dict(fig1_graph)
        data["version"] = 99
        with pytest.raises(FormatError, match="version"):
            task_graph_from_dict(data)

    def test_missing_field_reported(self):
        with pytest.raises(FormatError, match="missing field"):
            task_graph_from_dict(
                {"format": "fppn-taskgraph", "version": 1,
                 "jobs": [{"process": "p"}], "edges": []}
            )

    def test_bad_time_reported(self):
        with pytest.raises(FormatError, match="bad time"):
            task_graph_from_dict(
                {"format": "fppn-taskgraph", "version": 1, "hyperperiod": "x!",
                 "jobs": [], "edges": []}
            )

    @pytest.mark.parametrize("edges, error, match", [
        ([[0, 1], [0]], FormatError, r"edge 1 must be"),
        ([[0, 1], [0, 1, 2]], FormatError, r"edge 1 must be"),
        ([[0, 1], ["0", "1"]], FormatError, r"edge 1 must be"),
        ([[0, 1], [0.0, 1.0]], FormatError, r"edge 1 must be"),
        ([[0, 1], [True, 2]], FormatError, r"edge 1 must be"),
        ([[0, 1], 7], FormatError, r"edge 1 must be"),
        ({"0": 1}, FormatError, r"edges must be a list"),
        ("0,1", FormatError, r"edges must be a list"),
        ([[0, 1], [0, 999]], ModelError, r"out of range"),
        ([[0, 1], [2, 1]], ModelError, r"total order"),
    ], ids=[
        "one-index", "three-indices", "strings", "floats", "bool", "scalar",
        "object", "string", "out-of-range", "order",
    ])
    def test_malformed_edges_reported(self, fig1_graph, edges, error, match):
        graph_doc = task_graph_to_dict(fig1_graph)
        graph_doc["edges"] = edges
        with pytest.raises(error, match=match):
            task_graph_from_dict(graph_doc)
        schedule_doc = schedule_to_dict(find_feasible_schedule(fig1_graph, 2))
        schedule_doc["graph"]["edges"] = edges
        with pytest.raises(error, match=match):
            schedule_from_dict(schedule_doc)


class TestScheduleRoundTrip:
    def test_lossless(self, fig1_graph):
        schedule = find_feasible_schedule(fig1_graph, 2)
        back = schedule_from_dict(schedule_to_dict(schedule))
        assert back.processors == 2
        for i in range(len(fig1_graph)):
            assert back.start(i) == schedule.start(i)
            assert back.mapping(i) == schedule.mapping(i)
        assert back.is_feasible()

    def test_json_serializable(self, fig1_graph):
        schedule = find_feasible_schedule(fig1_graph, 2)
        json.dumps(schedule_to_dict(schedule))

    def test_executable_after_roundtrip(self, fig1_graph):
        """A deserialized schedule drives the runtime like the original."""
        from repro.apps import fig1_stimulus
        from repro.runtime import run_static_order

        net = build_fig1_network()
        schedule = find_feasible_schedule(fig1_graph, 2)
        back = schedule_from_dict(schedule_to_dict(schedule))
        a = run_static_order(net, schedule, 2, fig1_stimulus(2))
        b = run_static_order(net, back, 2, fig1_stimulus(2))
        assert a.observable() == b.observable()


class TestNetworkRoundTrip:
    def test_structure_preserved(self):
        net = build_fig1_network()
        back = network_from_dict(network_to_dict(net))
        assert set(back.processes) == set(net.processes)
        assert set(back.channels) == set(net.channels)
        assert back.priorities == net.priorities
        assert set(back.external_inputs) == set(net.external_inputs)
        assert back.channels["b_coef"].kind is ChannelKind.BLACKBOARD

    def test_generators_preserved(self):
        back = network_from_dict(network_to_dict(build_fig1_network()))
        coef = back.processes["CoefB"]
        assert coef.is_sporadic and coef.burst == 2 and coef.period == 700

    def test_derivation_identical(self):
        net = build_fms_network()
        back = network_from_dict(network_to_dict(net))
        g1 = derive_task_graph(net, fms_wcets())
        g2 = derive_task_graph(back, fms_wcets())
        assert [j.name for j in g1.jobs] == [j.name for j in g2.jobs]
        assert g1.edges() == g2.edges()

    def test_kernels_reattached(self):
        from repro.core import run_zero_delay

        net = build_fig1_network()
        kernels = {
            name: (lambda ctx: None) for name in net.processes
        }
        seen = []
        kernels["InputA"] = lambda ctx: seen.append(ctx.k)
        back = network_from_dict(network_to_dict(net), kernels)
        run_zero_delay(back, 400)
        assert seen == [1, 2]

    def test_validates_after_roundtrip(self):
        back = network_from_dict(network_to_dict(build_fms_network()))
        back.validate_taskgraph_subclass()


class TestFileHelpers:
    def test_save_and_load(self, tmp_path, fig1_graph):
        path = tmp_path / "graph.json"
        save_json(task_graph_to_dict(fig1_graph), str(path))
        back = task_graph_from_dict(load_json(str(path)))
        assert len(back) == len(fig1_graph)


class TestServiceWireCodecs:
    """PoolEvent / ticket-status codecs (ISSUE 9): the payloads the
    sweep service streams over JSON-RPC."""

    def test_pool_event_round_trip(self):
        from repro.experiment import PoolEvent
        from repro.io.json_io import pool_event_from_dict, pool_event_to_dict

        event = PoolEvent(
            kind="dispatch", gid=3, cells=4, groups=0,
            detail="slot 1, attempt 2",
        )
        encoded = pool_event_to_dict(event)
        json.dumps(encoded)  # pure JSON
        assert pool_event_from_dict(encoded) == event

    def test_pool_event_defaults_and_null_gid(self):
        from repro.experiment import PoolEvent
        from repro.io.json_io import pool_event_from_dict, pool_event_to_dict

        event = PoolEvent(kind="finished")
        back = pool_event_from_dict(pool_event_to_dict(event))
        assert back == event and back.gid is None

    def test_pool_event_rejects_bad_shapes(self):
        from repro.io.json_io import pool_event_from_dict

        with pytest.raises(FormatError):
            pool_event_from_dict({"cells": 3})  # no kind
        with pytest.raises(FormatError):
            pool_event_from_dict({"kind": "dispatch", "gid": "three"})

    def test_ticket_status_round_trip(self):
        from repro.io.json_io import (
            ticket_status_from_dict,
            ticket_status_to_dict,
        )
        from repro.service.orchestrator import TicketStatus

        status = TicketStatus(
            ticket=7, client="alice", state="running", cells=6,
            rows_streamed=2, done=False,
        )
        encoded = ticket_status_to_dict(status)
        json.dumps(encoded)
        assert ticket_status_from_dict(encoded) == status

    def test_ticket_status_untagged_client(self):
        from repro.io.json_io import (
            ticket_status_from_dict,
            ticket_status_to_dict,
        )
        from repro.service.orchestrator import TicketStatus

        status = TicketStatus(
            ticket=1, client=None, state="done", cells=1,
            rows_streamed=1, done=True,
        )
        assert ticket_status_from_dict(
            ticket_status_to_dict(status)
        ) == status

    def test_ticket_status_rejects_bad_shapes(self):
        from repro.io.json_io import ticket_status_from_dict

        with pytest.raises(FormatError):
            ticket_status_from_dict({"state": "running"})  # no ticket
        with pytest.raises(FormatError):
            ticket_status_from_dict({"ticket": 1, "state": "sleeping"})
        with pytest.raises(FormatError):
            ticket_status_from_dict(
                {"ticket": 1, "state": "done", "client": 5}
            )


# ---------------------------------------------------------------------------
# heterogeneous-platform encoding + pre-platform back compat
# ---------------------------------------------------------------------------
FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


class TestPreHeteroBackCompat:
    """Documents written before the platform model decode (and re-encode)
    unchanged: the platform/wcet_by_class keys are omitted-when-default,
    so old payloads — and their content hashes — stay byte-stable."""

    def test_prehetero_scenario_decodes_homogeneous(self):
        from repro.io.json_io import scenario_from_dict, scenario_to_dict

        data = load_json(f"{FIXTURES}/prehetero_scenario.json")
        scenario = scenario_from_dict(data)
        assert scenario.platform is None
        assert scenario.processors == 2
        assert scenario.label == "prehetero-fixture"
        # Re-encoding reproduces the committed document exactly.
        assert scenario_to_dict(scenario) == data

    def test_prehetero_scenario_hash_is_stable(self):
        from repro.experiment.store import scenario_hash
        from repro.io.json_io import scenario_from_dict

        data = load_json(f"{FIXTURES}/prehetero_scenario.json")
        scenario = scenario_from_dict(data)
        # The hash of the canonical encoding equals the hash of the
        # committed bytes' canonical form — stored sweep rows keyed by
        # pre-platform scenario hashes keep resolving.
        canonical = json.dumps(
            data, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        import hashlib

        assert scenario_hash(scenario) == hashlib.sha256(canonical).hexdigest()

    def test_prehetero_matrix_round_trips(self):
        from repro.io.json_io import matrix_from_dict, matrix_to_dict

        data = load_json(f"{FIXTURES}/prehetero_matrix.json")
        matrix = matrix_from_dict(data)
        assert matrix.base.platform is None
        assert matrix.axes["processors"] == (1, 2)
        assert matrix_to_dict(matrix) == data

    def test_prehetero_sweep_round_trips(self):
        from repro.io.json_io import (
            sweep_result_from_dict,
            sweep_result_to_dict,
        )

        data = load_json(f"{FIXTURES}/prehetero_sweep.json")
        result = sweep_result_from_dict(data)
        assert len(result.rows) == 4 and not result.failed_rows
        assert sweep_result_to_dict(result) == data

    def test_prehetero_schedule_document_decodes(self, fig1_graph):
        # A schedule dict without a "platform" key (the pre-platform
        # layout) decodes onto the implicit homogeneous platform.
        schedule = find_feasible_schedule(fig1_graph, 2)
        data = schedule_to_dict(schedule)
        assert "platform" not in data  # degenerate platforms are omitted
        back = schedule_from_dict(data)
        assert back.platform.is_unit
        assert back.processors == 2
        assert schedule_to_dict(back) == data


class TestHeteroEncoding:
    def test_platform_schedule_round_trips(self, fig1_graph):
        from repro.core.platform import Platform

        platform = Platform.of(("big", 1), ("little", 1, Fraction(1, 2)))
        schedule = find_feasible_schedule(fig1_graph, platform)
        data = json.loads(json.dumps(schedule_to_dict(schedule)))
        assert data["platform"] == [
            ["big", "1/1", 1], ["little", "1/2", 1]
        ]
        back = schedule_from_dict(data)
        assert back.platform == platform
        assert [(e.job_index, e.processor, e.start) for e in back.entries] == [
            (e.job_index, e.processor, e.start) for e in schedule.entries
        ]

    def test_wcet_by_class_survives_graph_round_trip(self):
        wcets = dict(fig1_wcets())
        wcets["FilterA"] = {"big": Fraction(3, 10), "little": Fraction(3, 5)}
        graph = derive_task_graph(build_fig1_network(), wcets)
        data = json.loads(json.dumps(task_graph_to_dict(graph)))
        back = task_graph_from_dict(data)
        for j, b in zip(graph.jobs, back.jobs):
            assert b.wcet_by_class == j.wcet_by_class
            assert b.wcet == j.wcet
        assert any(j.wcet_by_class is not None for j in back.jobs)

    def test_tagged_platform_value_round_trips(self):
        from repro.core.platform import Platform
        from repro.io.json_io import value_from_jsonable, value_to_jsonable

        platform = Platform.of(("big", 2), ("little", 4, Fraction(1, 3)))
        encoded = json.loads(json.dumps(value_to_jsonable(platform)))
        assert value_from_jsonable(encoded) == platform

    def test_bad_platform_payloads_rejected(self):
        from repro.io.json_io import platform_from_jsonable

        with pytest.raises(FormatError):
            platform_from_jsonable([])
        with pytest.raises(FormatError):
            platform_from_jsonable([["big", "1/1"]])  # missing count
        with pytest.raises(FormatError):
            platform_from_jsonable("2xbig")

    @pytest.mark.parametrize("count", ["1", 2.5, 2.0, True, 0, -1, None])
    def test_a_platform_row_count_is_an_int_of_at_least_one(self, count):
        from repro.io.json_io import platform_from_jsonable

        # "1" used to decode as int("1") and 2.5 as a 2-core class.
        row = ["big", "1", count]
        with pytest.raises(
            FormatError, match=re.escape(f"row {row!r}") + ".*core count"
        ):
            platform_from_jsonable([["little", "1/2", 1], row])
        assert platform_from_jsonable([["big", "1", 2]]).processors == 2


# ---------------------------------------------------------------------------
# decoders refuse what they used to coerce, naming the field
# ---------------------------------------------------------------------------
def _sweep_document():
    from repro.experiment import SweepCellError, SweepResult, SweepRow, SweepStats
    from repro.io import sweep_result_to_dict

    return json.loads(json.dumps(sweep_result_to_dict(SweepResult(
        axes={"processors": (2,)},
        metrics=("makespan",),
        rows=[SweepRow(cell={"processors": 2}, metrics={"makespan": 5})],
        stats=SweepStats(cells=2, runs=1, failed_cells=1),
        failed_rows=[SweepRow(
            cell={"processors": 2}, metrics={},
            error=SweepCellError("ModelError", "boom", "run", 1),
        )],
    ))))


class TestSweepDocumentsRefuseCoercion:
    @pytest.mark.parametrize("field, value", [
        ("interrupted", "false"), ("runs", 2.9), ("cells", True),
    ], ids=["bool-string", "float-count", "bool-count"])
    def test_stats_field(self, field, value):
        from repro.io import sweep_result_from_dict

        data = _sweep_document()
        data["stats"][field] = value
        with pytest.raises(FormatError, match=f"field {field!r}"):
            sweep_result_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("retries", 2.9), ("retries", "3"), ("type", 1), ("message", ["m"]),
        ("stage", 5),
    ], ids=["float-retries", "string-retries", "type", "message", "stage"])
    def test_error_record_field(self, field, value):
        from repro.io import sweep_result_from_dict

        data = _sweep_document()
        data["failed_rows"][0]["error"][field] = value
        with pytest.raises(FormatError, match=f"field {field!r}"):
            sweep_result_from_dict(data)

    @pytest.mark.parametrize("field, value", [
        ("axes", [1]), ("metrics", "abc"),
    ])
    def test_table_field(self, field, value):
        from repro.io import sweep_result_from_dict

        data = _sweep_document()
        data[field] = value
        with pytest.raises(FormatError, match=f"field {field!r}"):
            sweep_result_from_dict(data)


class TestScheduleAndNetworkDocumentsRefuseCoercion:
    @pytest.fixture
    def schedule_doc(self, fig1_graph):
        return schedule_to_dict(find_feasible_schedule(fig1_graph, 2))

    def test_fractional_processor_count(self, schedule_doc):
        schedule_doc["processors"] = 2.7
        with pytest.raises(FormatError, match="'processors'"):
            schedule_from_dict(schedule_doc)

    @pytest.mark.parametrize("value", [True, "1"])
    def test_entry_processor_not_an_int(self, schedule_doc, value):
        schedule_doc["entries"][0]["processor"] = value
        with pytest.raises(FormatError, match="entry 0 field 'processor'"):
            schedule_from_dict(schedule_doc)

    def test_entry_without_start(self, schedule_doc):
        del schedule_doc["entries"][3]["start"]
        with pytest.raises(FormatError, match="entry 3 is missing field 'start'"):
            schedule_from_dict(schedule_doc)

    def test_fractional_burst(self):
        data = network_to_dict(build_fig1_network())
        data["processes"][0]["burst"] = 2.9
        with pytest.raises(FormatError, match="process 0 field 'burst'"):
            network_from_dict(data)

    def test_nameless_process(self):
        data = network_to_dict(build_fig1_network())
        del data["processes"][1]["name"]
        with pytest.raises(FormatError, match="process 1 is missing field 'name'"):
            network_from_dict(data)

    def test_bad_channel_kind(self):
        data = network_to_dict(build_fig1_network())
        data["channels"][0]["kind"] = "pipe"
        with pytest.raises(FormatError, match="channel 0 field 'kind'"):
            network_from_dict(data)

    def test_external_input_without_owner(self):
        data = network_to_dict(build_fig1_network())
        del data["external_inputs"][0]["owner"]
        with pytest.raises(
            FormatError, match="external input 0 is missing field 'owner'"
        ):
            network_from_dict(data)

    def test_one_element_priority_pair(self):
        data = network_to_dict(build_fig1_network())
        data["priorities"][1] = data["priorities"][1][:1]
        with pytest.raises(
            FormatError, match=re.escape("priority 1 must be a list [higher, lower]")
        ):
            network_from_dict(data)

    def test_priorities_not_a_list(self):
        data = network_to_dict(build_fig1_network())
        data["priorities"] = 5
        with pytest.raises(FormatError, match="priority rows must be a JSON list"):
            network_from_dict(data)

    def test_external_outputs_not_a_list(self):
        data = network_to_dict(build_fig1_network())
        data["external_outputs"] = "abc"
        with pytest.raises(
            FormatError, match="external output rows must be a JSON list"
        ):
            network_from_dict(data)

    @pytest.mark.parametrize("rows, match", [
        ([[1, "1", 2]], "class name"),
        ([["big", "0", 1]], "must be positive"),
        ([["big", "1", 1], ["big", "1/2", 2]], "duplicate processor class"),
    ], ids=["name-not-a-string", "zero-speed", "duplicate-class"])
    def test_bad_platform_classes(self, rows, match):
        from repro.io.json_io import platform_from_jsonable

        with pytest.raises(FormatError, match=match):
            platform_from_jsonable(rows)
