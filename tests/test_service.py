"""Sweep service (ISSUE 9): JSON-RPC protocol round-trips, the asyncio
orchestrator over the shared pool, server/client end-to-end identity
with the in-process sweep, concurrent clients sharing one WAL sqlite
store, disconnect/cancel never wedging the pool, and a malformed matrix
refused with INVALID_PARAMS on a connection that keeps serving."""

import asyncio
import json
import socket
import threading

import pytest

from repro import FaultPlan, ScenarioMatrix, run_sweep
from repro.analysis.compare import compare_payloads
from repro.apps import fig1_scenario, fms_scenario
from repro.errors import (
    ProtocolError,
    ServiceError,
    SweepError,
    UnknownTicketError,
)
from repro.experiment.sweep import SweepCellError, SweepRow
from repro.io.json_io import matrix_to_dict, sweep_result_to_dict
from repro.service import ServiceClient, SweepOrchestrator, SweepServer
from repro.service import orchestrator, protocol

METRICS = ("executed_jobs", "missed_jobs", "makespan")


def fig1_matrix():
    return ScenarioMatrix(
        fig1_scenario(n_frames=1),
        {"jitter_seed": [0, 1], "processors": [2, 3]},
    )


def small_matrix():
    # Overlaps fig1_matrix: the base scenario's processors=2 makes these
    # two cells identical to fig1_matrix's processors=2 column, so a
    # shared store computed by one client serves the other.
    return ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]})


@pytest.fixture(scope="module")
def fig1_serial():
    return run_sweep(fig1_matrix(), metrics=METRICS)


@pytest.fixture(scope="module")
def small_serial():
    return run_sweep(small_matrix(), metrics=METRICS)


# ---------------------------------------------------------------------------
# protocol layer
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_request_response_round_trip(self):
        req = protocol.request("submit", {"client": "a"}, 7)
        back = protocol.decode_line(protocol.encode(req))
        assert back == req
        method, params, rid = protocol.check_request(back)
        assert (method, params, rid) == ("submit", {"client": "a"}, 7)
        resp = protocol.response(7, {"ticket": 1})
        assert protocol.decode_line(protocol.encode(resp))["result"] == {
            "ticket": 1
        }

    def test_encode_preserves_key_order(self):
        # Axis order is semantic (it fixes the cell product order); the
        # wire must not alphabetise it.
        line = protocol.encode({"b": 1, "a": 2})
        assert line == b'{"b":1,"a":2}\n'
        assert list(protocol.decode_line(line)) == ["b", "a"]

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            protocol.decode_line(b"[1, 2]\n")

    def test_check_request_rejects_bad_shapes(self):
        with pytest.raises(ProtocolError):  # wrong version
            protocol.check_request({"jsonrpc": "1.0", "method": "x", "id": 1})
        with pytest.raises(ProtocolError):  # no method
            protocol.check_request({"jsonrpc": "2.0", "id": 1})
        with pytest.raises(ProtocolError):  # client notification
            protocol.check_request({"jsonrpc": "2.0", "method": "x"})
        with pytest.raises(ProtocolError):  # params not an object
            protocol.check_request(
                {"jsonrpc": "2.0", "method": "x", "id": 1, "params": [1]}
            )

    def test_row_wire_round_trip_exact_fractions(self, fig1_serial):
        for row in fig1_serial.rows:
            wire = protocol.sweep_row_to_wire(row)
            json.dumps(wire)  # pure JSON
            back = protocol.sweep_row_from_wire(wire)
            assert back == row  # Fractions survive exactly

    def test_error_row_wire_round_trip(self):
        row = SweepRow(
            cell={"jitter_seed": 1},
            metrics={},
            error=SweepCellError(
                error_type="ValueError", message="boom", stage="run",
                retries=2,
            ),
        )
        back = protocol.sweep_row_from_wire(protocol.sweep_row_to_wire(row))
        assert back == row


# ---------------------------------------------------------------------------
# orchestrator layer (no sockets)
# ---------------------------------------------------------------------------
class TestOrchestrator:
    def test_submit_stream_matches_serial(self, fig1_serial):
        async def scenario():
            rows, events = [], []
            async with SweepOrchestrator(workers=1) as orch:
                tid = await orch.submit(fig1_matrix(), METRICS, client="t")
                async for kind, payload in orch.stream(tid):
                    if kind == "row":
                        rows.append(payload)
                    elif kind == "event":
                        events.append(payload)
                    else:
                        final = payload
                return rows, events, final, orch.status(tid)

        rows, events, final, status = asyncio.run(scenario())
        assert final.rows == fig1_serial.rows  # bit-identical
        assert sorted(
            rows, key=lambda r: tuple(map(str, r.cell.items()))
        ) == sorted(
            final.rows, key=lambda r: tuple(map(str, r.cell.items()))
        )
        assert any(e.kind == "finished" for e in events)
        assert status.state == "done" and status.done
        assert status.rows_streamed == len(final.rows)
        assert status.client == "t"

    def test_unknown_ticket_raises(self):
        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                with pytest.raises(UnknownTicketError, match="unknown ticket"):
                    orch.status(99)

        asyncio.run(scenario())

    def test_finished_tickets_are_garbage_collected(self, monkeypatch):
        monkeypatch.setattr(orchestrator, "_MAX_FINISHED_TICKETS", 2)

        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                tids = []
                for _ in range(3):
                    tid = await orch.submit(small_matrix(), METRICS, client="gc")
                    async for kind, _ in orch.stream(tid):
                        if kind == "done":
                            break
                    tids.append(tid)
                # The two newest finished tickets are retained ...
                assert orch.status(tids[1]).state == "done"
                assert orch.status(tids[2]).state == "done"
                # ... the oldest was evicted: a typed ServiceError
                # subclass, never a bare KeyError from the ticket table.
                with pytest.raises(UnknownTicketError, match="unknown ticket"):
                    orch.status(tids[0])
                with pytest.raises(ServiceError):
                    orch.status(tids[0])

        asyncio.run(scenario())

    def test_needs_a_running_loop(self):
        with pytest.raises(ServiceError, match="on the event loop"):
            SweepOrchestrator(workers=1)


# ---------------------------------------------------------------------------
# server + client end to end
# ---------------------------------------------------------------------------
class TestServedSweeps:
    def test_served_rows_bit_identical_to_serial(self, fig1_serial):
        with SweepServer(workers=1) as server:
            host, port = server.address
            rows, events = [], []
            with ServiceClient(host, port, client="e2e") as client:
                assert client.ping()
                remote = client.run_sweep(
                    fig1_matrix(), METRICS,
                    on_row=rows.append, on_progress=events.append,
                )
        assert remote.rows == fig1_serial.rows
        assert len(rows) == len(fig1_serial.rows)
        assert any(e.kind == "finished" for e in events)
        # The acceptance gate: the shared comparison engine sees zero
        # drift between the served table and the in-process one.
        comparison = compare_payloads(
            sweep_result_to_dict(fig1_serial),
            sweep_result_to_dict(remote),
            tolerance=0.0,
        )
        assert comparison.exit_code == 0 and not comparison.regressions

    def test_submit_status_stream_as_separate_calls(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                submitted = client.submit(small_matrix(), METRICS)
                ticket = submitted["ticket"]
                assert submitted["status"]["state"] in ("running", "done")
                result = client.stream(ticket)
                status = client.status(ticket)
        assert len(result.rows) == len(small_matrix())
        assert status.state == "done" and status.done
        assert status.rows_streamed == len(result.rows)

    def test_sweep_failure_surfaces_as_sweep_error(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(SweepError):
                    client.run_sweep(
                        small_matrix(), METRICS,
                        faults=FaultPlan(raise_at=(1,)),
                        on_error="raise",
                    )
                # The failure poisoned nothing: the same connection
                # immediately serves a healthy sweep.
                ok = client.run_sweep(small_matrix(), METRICS)
        assert len(ok.rows) == len(small_matrix())

    def test_captured_fault_rows_travel(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                result = client.run_sweep(
                    small_matrix(), METRICS,
                    faults=FaultPlan(raise_at=(1,)),
                )
        assert len(result.rows) == 1
        assert len(result.failed_rows) == 1
        assert result.failed_rows[0].error is not None
        assert result.stats.failed_cells == 1

    def test_unknown_method_and_bad_params(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ServiceError, match="-32601"):
                    client._call("frobnicate", {})
                with pytest.raises(ServiceError, match="-32602"):
                    client._call("status", {"ticket": "one"})

    @pytest.mark.parametrize("spoil, field", [
        (lambda d: d["base"].update(stimulus=5), "stimulus"),
        (lambda d: d["base"].update(stimulus=[1, 2]), "stimulus"),
        (lambda d: d["base"].update(stimulus={"input_samples": 7}),
         "input_samples"),
        (lambda d: d["base"].update(
            stimulus={"sporadic_arrivals": {"x": 3}}), "arrivals of 'x'"),
        (lambda d: d.update(axes=[1, 2]), "axes"),
        (lambda d: d["axes"].update(jitter_seed=3), "axis 'jitter_seed'"),
        (lambda d: d["base"].pop("wcet"), "'wcet'"),
        (lambda d: d.update(base=[1, 2]), "fppn-scenario"),
        (lambda d: d["base"].update(n_frames="x"), "'n_frames'"),
        (lambda d: d["base"].update(stimulus={"hash": 5}),
         "stimulus reference"),
        (lambda d: d["base"].update(stimulus={"hash": "0" * 64, "data": {}}),
         "stimulus reference"),
    ], ids=[
        "stimulus-int", "stimulus-list", "input-samples-int",
        "arrivals-int", "axes-list", "axis-scalar", "no-wcet", "base-list",
        "n-frames-text", "reference-hash-int", "reference-with-data",
    ])
    def test_a_malformed_matrix_is_refused_and_the_connection_lives(
        self, spoil, field, small_serial
    ):
        document = matrix_to_dict(small_matrix())
        spoil(document)
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                pending = client.submit(small_matrix(), METRICS)["ticket"]
                with pytest.raises(ServiceError, match="-32602") as info:
                    client._call("submit", {
                        "matrix": document, "metrics": list(METRICS),
                    })
                assert field in str(info.value)
                # The ticket submitted before completes, and so does one
                # submitted after, on the same connection.
                assert client.stream(pending).rows == small_serial.rows
                after = client.run_sweep(small_matrix(), METRICS)
        assert after.rows == small_serial.rows

    def test_an_axis_value_no_scenario_takes_keeps_the_connection(
        self, small_serial
    ):
        document = matrix_to_dict(small_matrix())
        document["axes"]["processors"] = ["two"]
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                with pytest.raises(
                    ServiceError, match="-32602.*axis 'processors'"
                ):
                    client._call("submit", {"matrix": document})
                after = client.run_sweep(small_matrix(), METRICS)
        assert after.rows == small_serial.rows

    @pytest.mark.parametrize("spoil, field", [
        (lambda p: p.update(faults={"kill_at": [1]}), "'kill_at'"),
        (lambda p: p.update(faults={"raise_at": "12"}), "'raise_at'"),
        (lambda p: p.update(faults={"raise_at": [0], "kill": 1}), "(s): kill"),
        (lambda p: p["matrix"]["axes"].update(heuristics=["alap"]),
         "axis 'heuristics'"),
    ], ids=["kill-at-scalar", "raise-at-text", "unknown-key", "axis-text"])
    def test_a_malformed_field_is_invalid_params_and_the_connection_lives(
        self, spoil, field, small_serial, caplog
    ):
        params = {"matrix": matrix_to_dict(small_matrix()),
                  "metrics": list(METRICS)}
        spoil(params)
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                pending = client.submit(small_matrix(), METRICS)["ticket"]
                with pytest.raises(ServiceError, match="-32602") as info:
                    client._call("submit", params)
                assert field in str(info.value)
                assert client.stream(pending).rows == small_serial.rows
                after = client.run_sweep(small_matrix(), METRICS)
        assert after.rows == small_serial.rows
        assert not [r for r in caplog.records if r.exc_info]

    def test_shutdown_stops_the_server(self):
        server = SweepServer(workers=1)
        host, port = server.start()
        with ServiceClient(host, port) as client:
            client.shutdown()
        server.wait()  # returns because the shutdown request landed
        server.close()
        with pytest.raises(ServiceError):
            ServiceClient(host, port, timeout=2.0)


# ---------------------------------------------------------------------------
# the acceptance scenario: concurrent clients, one shared sqlite store
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_two_clients_share_one_store(
        self, tmp_path, fig1_serial, small_serial
    ):
        """Two concurrent clients with overlapping matrices both
        complete against one WAL-mode SqliteSweepStore; afterwards the
        union is fully checkpointed, so a third pass is all store hits
        and streams rows without a single dispatch."""
        store_path = str(tmp_path / "service.db")
        with SweepServer(workers=1, store=store_path) as server:
            host, port = server.address
            outcomes = {}

            def drive(name, matrix):
                events = []
                try:
                    with ServiceClient(host, port, client=name) as client:
                        result = client.run_sweep(
                            matrix, METRICS, on_progress=events.append
                        )
                    outcomes[name] = (result, events)
                except Exception as exc:  # surfaced in the main thread
                    outcomes[name] = exc

            threads = [
                threading.Thread(
                    target=drive, args=("alice", fig1_matrix())
                ),
                threading.Thread(
                    target=drive, args=("bob", small_matrix())
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(t.is_alive() for t in threads)
            for name in ("alice", "bob"):
                assert not isinstance(outcomes[name], Exception), (
                    outcomes[name]
                )

            alice, _ = outcomes["alice"]
            bob, _ = outcomes["bob"]
            # Both completed with bit-identical rows (the shared store
            # only short-circuits computation, never changes results).
            assert alice.rows == fig1_serial.rows
            assert bob.rows == small_serial.rows
            # Every cell was either computed here or served from the
            # other client's checkpoints — the hits surface in each
            # client's own SweepStats.
            assert alice.stats.store_hits + alice.stats.runs == len(
                alice.rows
            )
            assert bob.stats.store_hits + bob.stats.runs == len(bob.rows)
            assert (
                alice.stats.store_hits
                + bob.stats.store_hits
                + alice.stats.runs
                + bob.stats.runs
                == len(alice.rows) + len(bob.rows)
            )

            # Third pass over the union: pure cache tier, no dispatch.
            events = []
            with ServiceClient(host, port, client="carol") as client:
                replay = client.run_sweep(
                    fig1_matrix(), METRICS, on_progress=events.append
                )
            assert replay.rows == fig1_serial.rows
            assert replay.stats.store_hits == len(replay.rows)
            assert replay.stats.runs == 0
            kinds = [e.kind for e in events]
            assert "store-hits" in kinds and "dispatch" not in kinds


# ---------------------------------------------------------------------------
# disconnect / cancel never wedge the pool
# ---------------------------------------------------------------------------
class TestDisconnectAndCancel:
    def test_cancel_rpc_terminates_the_ticket(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with ServiceClient(host, port) as client:
                matrix = ScenarioMatrix(
                    fms_scenario(n_frames=1),
                    {"processors": [1, 2], "jitter_seed": [0, 1, 2]},
                )
                ticket = client.submit(matrix, METRICS)["ticket"]
                client.cancel(ticket)  # either withdrew groups or no-op
                result = client.stream(ticket)  # terminates either way
                status = client.status(ticket)
        assert status.done
        assert len(result.rows) + len(result.failed_rows) <= len(matrix)

    def test_disconnect_mid_sweep_does_not_wedge_the_pool(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            # First client submits a multi-group sweep and vanishes
            # without ever streaming it.
            abandoned = ServiceClient(host, port, client="ghost")
            abandoned.submit(fig1_matrix(), METRICS)
            abandoned.close()
            # The pool keeps serving: a second client's sweep completes.
            with ServiceClient(host, port, client="alive") as client:
                result = client.run_sweep(small_matrix(), METRICS)
        assert len(result.rows) == len(small_matrix())

    def test_raw_socket_garbage_gets_an_error_line(self):
        with SweepServer(workers=1) as server:
            host, port = server.address
            with socket.create_connection((host, port), 10.0) as sock:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
        message = json.loads(line)
        assert message["error"]["code"] == protocol.PARSE_ERROR


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
