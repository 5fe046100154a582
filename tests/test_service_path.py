"""The served path's parent-side work: store keys computed with one
stimulus encoding per submission (byte-identical to the one-shot hash),
stimuli sent by content hash on all three hops — client to server,
decoded once per server, server to a warm worker — finished tickets
releasing their decoded inputs, a busy schedule key's group running on
an idle slot, and a submit read at once while a group runs."""

import asyncio
import gc
import hashlib
import json
import random
import time
import weakref

import pytest

from repro import FaultPlan, MemorySweepStore, ScenarioMatrix, run_sweep
from repro.apps import fft_scenario, fig1_scenario, fms_scenario
from repro.core.platform import Platform
from repro.errors import SweepError, UnknownStimulusError
from repro.experiment import TIMING_METRICS, SweepPool
from repro.experiment import pool as pool_mod
from repro.experiment.pool import _encode_service_group
from repro.experiment.store import EncodedStimulus, ScenarioKeys, store_key
from repro.experiment.sweep import SweepStats, _group_cells, _SweepBook
from repro.io import json_io
from repro.io.json_io import (
    content_hash,
    matrix_from_dict,
    matrix_to_dict,
    scenario_to_dict,
    stimulus_to_dict,
)
from repro.service import ServiceClient, SweepOrchestrator, SweepServer
from repro.service import protocol
from repro.service import server as server_mod

METRICS = ("executed_jobs", "missed_jobs", "makespan")


def _matrices():
    """fig1, fft, FMS and a big/little FMS matrix, each over one stimulus."""
    return {
        "fig1": ScenarioMatrix(
            fig1_scenario(n_frames=2),
            {"jitter_seed": [0, 1], "processors": [2, 3]},
        ),
        "fft": ScenarioMatrix(
            fft_scenario(n_frames=2), {"jitter_seed": [5, 6]}
        ),
        "fms": ScenarioMatrix(
            fms_scenario(n_frames=3),
            {"jitter_seed": [1, 2, 3, 4], "processors": [1, 2]},
        ),
        "big_little": ScenarioMatrix(
            fms_scenario(n_frames=1),
            {"platform": [Platform.of(("big", 1), ("little", 1, "1/2"))],
             "jitter_seed": [0, 1]},
        ),
    }


# ---------------------------------------------------------------------------
# one stimulus encoding per submission
# ---------------------------------------------------------------------------
class TestStoreKeys:
    @pytest.mark.parametrize("name", ["fig1", "fft", "fms", "big_little"])
    def test_keys_equal_the_one_shot_hash(self, name):
        cells = list(_matrices()[name].cells())
        keys = ScenarioKeys()
        for cell in cells:
            assert cell.scenario.stimulus is not None
            expected = content_hash(scenario_to_dict(cell.scenario))
            assert keys.scenario_hash(cell.scenario) == expected
            assert keys.store_key(cell.scenario) == expected
            assert store_key(cell.scenario) == expected

    def test_stimulus_free_and_code_bearing_scenarios(self):
        bare = fig1_scenario(n_frames=1).replace(stimulus=None)
        keys = ScenarioKeys()
        assert keys.scenario_hash(bare) == content_hash(scenario_to_dict(bare))
        code = fig1_scenario(n_frames=1).replace(workload=lambda: None)
        assert keys.store_key(code) is None

    def test_one_encoding_per_submission(self, monkeypatch):
        matrix = _matrices()["fms"]
        cells = list(matrix.cells())
        encoded = []
        original = json_io.stimulus_to_dict

        def spy(stimulus):
            encoded.append(stimulus)
            return original(stimulus)

        monkeypatch.setattr(json_io, "stimulus_to_dict", spy)
        # Served, a submission's stimulus arrives decoded with its
        # encoding: the server encodes a decoded stimulus once, and not
        # at all once it holds it.
        document = matrix_to_dict(matrix)
        with SweepServer(workers=1) as server:
            encoded.clear()
            _, digest, held = server._held_stimulus(document)
            assert len(encoded) == 1
            assert server._held_stimulus(document)[1:] == (digest, held)
            assert len(encoded) == 1
        encoded.clear()
        book = _SweepBook(
            {}, cells, METRICS, False, SweepStats(cells=len(cells)),
            store=MemorySweepStore(), keys=ScenarioKeys(held),
        )
        assert book.resolve_hits() == cells
        for group in _group_cells(cells).values():
            _encode_service_group(group, METRICS, keys=book.keys)
        assert encoded == [held.stimulus] and held.stimulus is not (
            matrix.base.stimulus
        )
        encoded.clear()
        # In process, the submission encodes its stimulus itself, once.
        book = _SweepBook(
            {}, cells, METRICS, False, SweepStats(cells=len(cells)),
            store=MemorySweepStore(),
        )
        assert book.resolve_hits() == cells  # an empty store: all misses
        groups = {}
        for cell in cells:
            groups.setdefault(cell.scenario.processors, []).append(cell)
        payloads = [
            _encode_service_group(group, METRICS, keys=book.keys)
            for group in groups.values()
        ]
        # Every key of the submission and both groups' stimulus-pool
        # hashes came from one encoding of the shared stimulus.
        assert len(encoded) == 1
        monkeypatch.setattr(json_io, "stimulus_to_dict", original)
        for cell in cells:
            assert book._skeys[cell.index] == content_hash(
                scenario_to_dict(cell.scenario)
            )
        stimulus = matrix.base.stimulus
        for group, payload in zip(groups.values(), payloads):
            assert payload == _encode_service_group(group, METRICS)
            data = json.loads(payload)
            assert data["stimulus_pool"][0]["hash"] == content_hash(
                stimulus_to_dict(stimulus)
            )

    def test_keys_and_payloads_hash_equal_the_pinned_digest(self):
        """Store keys and whole worker payloads of three matrices, byte
        for byte as the encoder wrote them before stimuli were held by
        hash — with encodings made here and with the server's, made from
        the stimulus it decoded."""
        def digest(decoded):
            h = hashlib.sha256()
            for matrix in (
                _FMS3,
                ScenarioMatrix(fig1_scenario(n_frames=2),
                               {"jitter_seed": [0, 1], "processors": [2, 3]}),
                ScenarioMatrix(fft_scenario(n_frames=2),
                               {"jitter_seed": [5, 6]}),
            ):
                keys = None
                if decoded:
                    matrix = matrix_from_dict(matrix_to_dict(matrix))
                    keys = ScenarioKeys(EncodedStimulus(matrix.base.stimulus))
                cells = list(matrix.cells())
                book = _SweepBook(
                    {}, cells, METRICS, False, SweepStats(cells=len(cells)),
                    store=MemorySweepStore(), keys=keys,
                )
                book.resolve_hits()
                for cell in cells:
                    h.update(book._skeys[cell.index].encode())
                for group in _group_cells(cells).values():
                    h.update(_encode_service_group(
                        group, METRICS, faults=FaultPlan(raise_at=(1,)),
                        attempt=1, keys=book.keys,
                    ).encode())
            return h.hexdigest()

        assert digest(False) == digest(True) == _PINNED_DIGEST


#: The 8-cell 3-frame FMS matrix of a served ``fms3`` ticket.
_FMS3 = ScenarioMatrix(
    fms_scenario(n_frames=3),
    {"jitter_seed": [1, 2, 3, 4], "processors": [1, 2]},
)

#: SHA-256 over the store keys and worker payloads of
#: ``test_keys_and_payloads_hash_equal_the_pinned_digest``'s matrices, as
#: the encoder wrote them before stimuli were sent by content hash.
_PINNED_DIGEST = (
    "4ea9ccd74132ca7a683485c6c5740392ba6e85b49b28532c508fb442bb980174"
)


# ---------------------------------------------------------------------------
# client -> server: a stimulus is sent and decoded once
# ---------------------------------------------------------------------------
class _Requests:
    """Records the byte size of every ``submit`` request line."""

    def __init__(self, monkeypatch):
        self.sizes = []
        original = protocol.encode

        def encode(message):
            line = original(message)
            if message.get("method") == "submit":
                self.sizes.append(len(line))
            return line

        monkeypatch.setattr(protocol, "encode", encode)


def _count_calls(monkeypatch, *names):
    """Count calls of the named ``json_io`` functions (in this process)."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(json_io, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(json_io, name, counted)
    return calls


class TestStimulusReferences:
    def test_a_second_submit_sends_a_reference(self, monkeypatch):
        requests = _Requests(monkeypatch)
        second = ScenarioMatrix(
            _FMS3.base, {"jitter_seed": [5, 6, 7, 8], "processors": [1, 2]}
        )
        with SweepServer(workers=2) as server:
            with ServiceClient(*server.address) as client:
                first = client.run_sweep(_FMS3, TIMING_METRICS)
                calls = _count_calls(
                    monkeypatch, "stimulus_from_dict", "stimulus_to_dict"
                )
                again = client.run_sweep(second, TIMING_METRICS)
        # Nothing in this process (client, server, orchestrator, pool
        # adapter) decoded or encoded the stimulus for the second ticket.
        assert calls == {"stimulus_from_dict": 0, "stimulus_to_dict": 0}
        full, referring = requests.sizes
        assert full > 20_000 and referring < 2_000
        assert first.rows == run_sweep(_FMS3, TIMING_METRICS).rows
        assert again.rows == run_sweep(second, TIMING_METRICS).rows
        # Each group's warm worker held the stimulus: no decode there.
        assert again.stats.payload_cache_hits >= 2
        assert again.stats.retries == 0

    def test_an_evicted_stimulus_is_resent_once(self, monkeypatch):
        monkeypatch.setattr(server_mod, "_HELD_STIMULI", 1)
        requests = _Requests(monkeypatch)
        a = ScenarioMatrix(fig1_scenario(n_frames=2), {"jitter_seed": [0, 1]})
        b = ScenarioMatrix(fig1_scenario(n_frames=3), {"jitter_seed": [0, 1]})
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                results = [
                    client.run_sweep(matrix, METRICS) for matrix in (a, b, a)
                ]
                # The resent document is held again: a reference serves.
                results.append(client.run_sweep(a, METRICS))
        # a (full), b (full, evicts a), a (reference refused, then full),
        # a (reference).
        assert len(requests.sizes) == 5
        full_a, full_b, refused, resent, referring = requests.sizes
        assert resent == full_a and refused == referring < full_a
        for matrix, result in zip((a, b, a, a), results):
            assert result.rows == run_sweep(matrix, METRICS).rows

    def test_a_server_naming_no_hash_gets_no_reference(self, monkeypatch):
        # A server that does not hold stimuli (an older one) names no
        # hash in its submit response: the client keeps sending documents.
        original = server_mod.SweepServer._handle_submit

        async def naming_none(self, params):
            ticket, _ = await original(self, params)
            return ticket, None

        monkeypatch.setattr(
            server_mod.SweepServer, "_handle_submit", naming_none
        )
        requests = _Requests(monkeypatch)
        matrix = _decoded_matrix()
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                results = [client.run_sweep(matrix, METRICS) for _ in "ab"]
        first, second = requests.sizes
        assert first == second  # a reference would be the shorter line
        assert results[1].rows == run_sweep(matrix, METRICS).rows

    def test_an_unknown_reference_is_refused_with_its_code(self):
        document = matrix_to_dict(_decoded_matrix())
        document["base"]["stimulus"] = {"hash": "0" * 64}
        with SweepServer(workers=1) as server:
            with ServiceClient(*server.address) as client:
                with pytest.raises(
                    UnknownStimulusError, match="holds no stimulus 0{64}"
                ):
                    client._call("submit", {"matrix": document})
                # The connection serves on.
                assert client.ping()


# ---------------------------------------------------------------------------
# pool -> worker: a warm worker is sent a stimulus's hash alone
# ---------------------------------------------------------------------------
class _Payloads:
    """Records, per sent group payload, which pool entries carry data."""

    def __init__(self, monkeypatch):
        self.sent = []
        original = pool_mod._encode_service_group

        def encode(*args, **kwargs):
            payload = original(*args, **kwargs)
            self.sent.append([
                "data" in entry
                for entry in json.loads(payload)["stimulus_pool"]
            ])
            return payload

        monkeypatch.setattr(pool_mod, "_encode_service_group", encode)


class TestPayloadMirror:
    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_seeded_groups_never_miss_the_mirror(self, monkeypatch, bound):
        payloads = _Payloads(monkeypatch)
        rng = random.Random(bound)
        bases = [fig1_scenario(n_frames=n) for n in (1, 2, 3, 4)]
        with SweepPool(workers=1, max_cached_payloads=bound) as pool:
            for seed in range(12):
                if rng.random() < 0.25:
                    # Several stimuli in one group, in a seeded order.
                    stimuli = [b.stimulus for b in rng.sample(bases, 3)]
                    matrix = ScenarioMatrix(
                        bases[0], {"stimulus": stimuli, "jitter_seed": [seed]}
                    )
                else:
                    matrix = ScenarioMatrix(
                        rng.choice(bases), {"jitter_seed": [seed, 100 + seed]}
                    )
                result = pool.submit(matrix, METRICS).result()
                # A mirror miss would kill the worker and retry the group.
                assert result.stats.retries == 0
                assert not result.failed_rows
                assert result.rows == run_sweep(matrix, METRICS).rows
        entries = [has_data for sent in payloads.sent for has_data in sent]
        assert not all(entries)  # warm hits went out without data

    def test_a_killed_worker_and_evict_caches_resend_data(self, monkeypatch):
        payloads = _Payloads(monkeypatch)
        matrix = ScenarioMatrix(
            fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]}
        )
        with SweepPool(workers=1, retry_backoff=0.0) as pool:
            pool.submit(matrix, METRICS).result()
            pool.submit(matrix, METRICS).result()
            assert payloads.sent == [[True], [False]]
            # The worker dies holding the group; its respawn holds nothing.
            killed = pool.submit(
                matrix, METRICS, faults=FaultPlan(kill_at={0: 1})
            ).result()
            assert killed.stats.retries == 1 and not killed.failed_rows
            assert payloads.sent[2:] == [[False], [True]]
            pool.evict_caches()
            pool.submit(matrix, METRICS).result()
            assert payloads.sent[4:] == [[True]]
        assert killed.rows == run_sweep(matrix, METRICS).rows

    def test_a_worker_without_the_stimulus_fails_naming_it(self):
        cells = list(_decoded_matrix().cells())
        payload = json.loads(_encode_service_group(cells, METRICS))
        digest = payload["stimulus_pool"][0]["hash"]
        del payload["stimulus_pool"][0]["data"]
        with pytest.raises(SweepError, match=f"holds no stimulus {digest}"):
            pool_mod._service_run_group(
                json.dumps(payload), pool_mod._WorkerCaches(4, 4)
            )


# ---------------------------------------------------------------------------
# finished tickets release their inputs
# ---------------------------------------------------------------------------
def _decoded_matrix():
    """A matrix as the server hands it over: decoded from its document."""
    return matrix_from_dict(matrix_to_dict(ScenarioMatrix(
        fig1_scenario(n_frames=1), {"jitter_seed": [0, 1]},
    )))


async def _drain(orch, tid):
    return [item async for item in orch.stream(tid)]


class TestFinishedTicketRelease:
    def test_finished_ticket_drops_its_decoded_stimulus(self):
        serial = run_sweep(_decoded_matrix(), METRICS)

        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                matrix = _decoded_matrix()
                ref = weakref.ref(matrix.base.stimulus)
                tid = await orch.submit(matrix, METRICS, client="gc")
                del matrix
                while not orch.status(tid).done:
                    await asyncio.sleep(0.01)
                gc.collect()
                assert ref() is None
                # The record still answers status, stream and cancel.
                status = orch.status(tid)
                items = await _drain(orch, tid)
                assert await orch.cancel(tid) is False
                return status, items, orch.status(tid)

        status, items, after = asyncio.run(scenario())
        assert status.state == "done" and status.done
        assert status.rows_streamed == len(serial.rows)
        kind, final = items[-1]
        assert kind == "done"
        assert final.rows == serial.rows  # bit-identical
        rows = [payload for kind, payload in items if kind == "row"]
        assert len(rows) == len(serial.rows)
        assert after.state == "done"


# ---------------------------------------------------------------------------
# affinity is a preference, not a wait (the routing rule itself is pinned
# in simulated time by tests/test_pool_core.py)
# ---------------------------------------------------------------------------
class TestRouting:
    def test_busy_key_runs_on_an_idle_slot(self):
        base = fig1_scenario(n_frames=1)
        first = ScenarioMatrix(base, {"jitter_seed": [0, 1]})
        second = ScenarioMatrix(base, {"jitter_seed": [2, 3]})
        dispatched = []

        def on_progress(event):
            if event.kind == "dispatch":
                dispatched.append(event.detail)

        with SweepPool(workers=2) as pool:
            # Warm both slots, one schedule key each.
            pool.submit(
                ScenarioMatrix(base, {"processors": [2, 3]}), METRICS
            ).result()
            assert len(pool._slots) == 2
            # Two queued submissions of one key (processors=2): the
            # second does not wait for the first's warm slot.
            a = pool.submit(first, METRICS, on_progress=on_progress)
            b = pool.submit(second, METRICS, on_progress=on_progress)
            got_a, got_b = a.result(), b.result()
        assert sorted(dispatched) == ["slot 0", "slot 1"]
        assert got_a.rows == run_sweep(first, METRICS).rows
        assert got_b.rows == run_sweep(second, METRICS).rows
        assert got_a.stats.warm_group_hits == 1


# ---------------------------------------------------------------------------
# a command wakes the loop at once, whatever the pool is doing
# ---------------------------------------------------------------------------
class TestWake:
    def test_orchestrator_reads_a_submit_while_a_group_runs(self):
        slow = ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [0]})
        quick = ScenarioMatrix(fig1_scenario(n_frames=1), {"jitter_seed": [1]})

        async def scenario():
            async with SweepOrchestrator(workers=1) as orch:
                first = await orch.submit(
                    slow, METRICS, faults=FaultPlan(delay_at={0: (4.0, 1)})
                )
                await asyncio.sleep(1.5)  # the worker boots; the group sleeps
                t0 = time.monotonic()
                second = await orch.submit(quick, METRICS)
                accepted = time.monotonic() - t0
                results = [
                    (await _drain(orch, tid))[-1][1] for tid in (first, second)
                ]
                return accepted, results

        accepted, results = asyncio.run(scenario())
        assert accepted < 2.0
        assert [r.rows for r in results] == [
            run_sweep(slow, METRICS).rows, run_sweep(quick, METRICS).rows,
        ]
