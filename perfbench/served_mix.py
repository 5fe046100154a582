"""served_mix: a served sweep pool under a seeded closed-loop load.

The program runs as ``python -m repro serve`` in a subprocess with a
2-worker ``SweepPool`` and a fresh SQLite store.  This module is the
load generator: one thread per connection (as many as CPUs, at most 2),
each submitting 8-cell tickets back to back over its own
``ServiceClient`` and waiting for the final table (a closed loop).  The
measured phase runs until ``--seconds`` have passed and at least
``MIN_TICKETS`` tickets are done, in raw host time: the work spans both
CPUs, so a one-CPU reference kernel does not track it.  Ticket kinds:

* ``fig1`` / ``fft`` — 50-frame matrices over 4 jitter seeds x
  {no overheads, MPPA-like}, all metrics, so the data phase runs;
* ``fms3`` — a 3-frame FMS matrix over 4 jitter seeds x processors
  {1, 2}: two schedule-key groups, which fan out to both workers;
* ``replay`` — 1 in 4 tickets resubmits one of the connection's
  earlier tickets, which the store answers without compute.

Each block of 8 tickets holds 2 replays, 1 ``fig1``, 3 ``fft`` and 2
``fms3`` tickets in an order drawn from the seed.

Jitter seeds come from a per-connection counter, so tickets of different
connections never share a cell and every store hit is a replay.

``perfbench/run.py --workload served_mix`` is the entry point; the
module only guards ``__main__``.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostclock import HostClock
from inproc import rows_digest, rows_sha256
from replay import replay_cell
from spans import Tracer

#: Connections (one thread each) and pool workers: 2, or fewer CPUs.
CONNECTIONS = WORKERS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPS = 3
HASH_TICKETS = 4
#: A floor on the measured phase: at least 15 tickets lie beyond the p90,
#: and the p50 of a broad latency mix is not left to a few tickets.
MIN_TICKETS = 150
TRACE_TICKETS = 20
KINDS = ("fig1", "fft", "fms3")
#: One block of tickets: a quarter are replays.
BLOCK = ("replay", "replay", "fig1", "fft", "fft", "fft", "fms3", "fms3")


class Bases:
    """The base scenarios tickets are drawn over (built in set-up)."""

    def __init__(self, seed: int) -> None:
        from repro.apps import example_fig1, fft, fms

        self.fig1 = example_fig1.scenario(n_frames=50)
        self.fft = fft.scenario(n_frames=50)
        self.fms3 = fms.scenario(
            n_frames=3, seed=random.Random(f"served_mix:{seed}").randrange(
                1, 1 << 20)
        )


def ticket_matrix(bases: Bases, kind: str, jitter: List[int]) -> Tuple[Any, Any]:
    from repro.experiment import DEFAULT_METRICS, TIMING_METRICS, ScenarioMatrix
    from repro.runtime.overheads import OverheadModel

    if kind == "fms3":
        return ScenarioMatrix(bases.fms3, {
            "jitter_seed": jitter, "processors": [1, 2],
        }), TIMING_METRICS
    return ScenarioMatrix(getattr(bases, kind), {
        "jitter_seed": jitter,
        "overheads": [OverheadModel.none(), OverheadModel.mppa_like()],
    }), DEFAULT_METRICS


class Plan:
    """The deterministic ticket stream of one connection.

    Tickets come in blocks of ``BLOCK`` in a seeded order, so every run
    has the same mix.  The mix puts the median ticket inside the ``fft``
    latency mode and the p90 inside the ``fms3`` mode, not on the edge
    between two modes, where it would jump with the seed.
    """

    def __init__(self, seed: int, conn: int, bases: Bases) -> None:
        self.rng = random.Random(f"served_mix:{seed}:conn{conn}")
        self.bases = bases
        self.next_jitter = 1_000_000 * (conn + 1)
        self.issued: List[Dict[str, Any]] = []
        self.queue: List[str] = []

    def next(self) -> Dict[str, Any]:
        if not self.queue:
            self.queue = list(BLOCK)
            self.rng.shuffle(self.queue)
            if not self.issued:  # a replay needs an earlier ticket
                self.queue.sort(key=lambda kind: kind == "replay")
        kind = self.queue.pop(0)
        fresh = [t for t in self.issued if t["replay_of"] is None]
        if kind == "replay":
            original = self.rng.choice(fresh)
            ticket = dict(original, replay_of=original["index"])
        else:
            jitter = list(range(self.next_jitter, self.next_jitter + 4))
            self.next_jitter += 4
            matrix, metrics = ticket_matrix(self.bases, kind, jitter)
            ticket = {"kind": kind, "matrix": matrix, "metrics": metrics,
                      "replay_of": None}
        ticket["index"] = len(self.issued)
        self.issued.append(ticket)
        return ticket


class Server:
    """``python -m repro serve`` in a subprocess, with a fresh store."""

    def __init__(self, work: Path, env: Dict[str, str], tag: str) -> None:
        work.mkdir(parents=True, exist_ok=True)
        store = work / f"store-{tag}.db"
        for suffix in ("", "-wal", "-shm"):
            Path(f"{store}{suffix}").unlink(missing_ok=True)
        config = work / f"server-{tag}.json"
        config.write_text(json.dumps({
            "format": "fppn-server", "version": 1, "host": "127.0.0.1",
            "port": 0, "workers": WORKERS, "store": str(store),
        }), encoding="utf-8")
        ready = work / f"ready-{tag}"
        ready.unlink(missing_ok=True)
        with open(work / f"server-{tag}.log", "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", str(config),
                 "--ready-file", str(ready)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
            )
        deadline = time.perf_counter() + 60
        while not (ready.exists() and ready.read_text().endswith("\n")):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("sweep server failed to start")
            time.sleep(0.005)
        host, _, port = ready.read_text().strip().rpartition(":")
        self.host, self.port = host, int(port)

    def client(self, name: str) -> Any:
        from repro.service import ServiceClient

        # A ticket that hangs fails the run well inside its time limit.
        return ServiceClient(self.host, self.port, client=name, timeout=60.0)

    def peak_rss_mb(self) -> float:
        """Sum of the high-water RSS of the server and its descendants."""
        parent_of: Dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    stat = Path(f"/proc/{entry}/stat").read_text()
                except OSError:
                    continue
                parent_of[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        tree = {self.proc.pid}
        grew = True
        while grew:
            grew = False
            for pid, ppid in parent_of.items():
                if ppid in tree and pid not in tree:
                    tree.add(pid)
                    grew = True
        total_kb = 0
        for pid in tree:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client("shutdown") as c:
                    c.shutdown()
            except Exception:
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_ticket(client: Any, ticket: Dict[str, Any],
               events: bool) -> Dict[str, Any]:
    """Submit one ticket and stream it to its final table."""
    out: Dict[str, Any] = {"ticket": ticket, "first_row": None,
                           "dispatch": {}, "done": {},
                           "thread": threading.get_ident()}

    def on_row(row: Any) -> None:
        if out["first_row"] is None:
            out["first_row"] = time.perf_counter()

    def on_progress(event: Any) -> None:
        now = time.perf_counter()
        if event.kind == "dispatch":
            out["dispatch"][event.gid] = now
        elif event.kind == "group-done":
            out["done"][event.gid] = now

    t0 = time.perf_counter()
    submitted = client.submit(ticket["matrix"], ticket["metrics"])
    t1 = time.perf_counter()
    try:
        out["result"] = client.stream(
            submitted["ticket"], on_row=on_row,
            on_progress=on_progress if events else None,
        )
    except Exception as exc:  # a failed ticket is counted, not fatal
        out["result"] = None
        out["error"] = f"{type(exc).__name__}: {exc}"
    out.update(t0=t0, submitted=t1, t_end=time.perf_counter())
    return out


def drive(server: Server, plans: List[Plan], *, seconds: float,
          tickets: Optional[int], events: bool) -> Tuple[List[List[Dict]], float]:
    """Closed loop: each connection's thread runs its tickets back to back.

    With *tickets* set, each connection runs exactly that many;
    otherwise it starts tickets until *seconds* have passed, at least
    ``MIN_TICKETS`` are done in all and ``HASH_TICKETS`` on this
    connection.  Returns per-connection outcomes and the
    wall time from the first submit to the last final table.
    """
    outcomes: List[List[Dict]] = [[] for _ in plans]
    errors: List[BaseException] = []
    t_start = time.perf_counter()
    t_end = t_start + seconds

    def more(n: int) -> bool:
        if tickets is not None:
            return n < tickets
        return n < HASH_TICKETS or time.perf_counter() < t_end or (
            sum(len(o) for o in outcomes) < MIN_TICKETS
        )

    def loop(c: int) -> None:
        try:
            with server.client(f"conn{c}") as client:
                n = 0
                while more(n):
                    outcomes[c].append(
                        run_ticket(client, plans[c].next(), events)
                    )
                    n += 1
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(len(plans))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return outcomes, time.perf_counter() - t_start


def check(outcomes: List[List[Dict]]) -> Tuple[int, int, int, List[str]]:
    """Cells completed/attempted/failed, plus every correctness failure."""
    cells = attempted = failed = 0
    errors: List[str] = []
    for c, conn in enumerate(outcomes):
        by_index = {o["ticket"]["index"]: o for o in conn}
        for o in conn:
            t = o["ticket"]
            n = len(t["matrix"])
            attempted += n
            r = o["result"]
            if r is None:
                failed += n
                errors.append(f"conn{c} ticket {t['index']}: {o['error']}")
                continue
            failed += len(r.failed_rows)
            cells += len(r.rows)
            s = r.stats
            if r.failed_rows or s.runs + s.store_hits != n or len(r.rows) != n:
                errors.append(
                    f"conn{c} ticket {t['index']}: {len(r.failed_rows)} "
                    f"failed, runs {s.runs} + store hits {s.store_hits} / "
                    f"rows {len(r.rows)} != {n} cells"
                )
            if t["replay_of"] is not None:
                first = by_index.get(t["replay_of"])
                if s.store_hits != n:
                    errors.append(
                        f"conn{c} ticket {t['index']}: replay answered "
                        f"{s.store_hits}/{n} cells from the store"
                    )
                if first is not None and first["result"] is not None and (
                    rows_digest(first["result"].rows) != rows_digest(r.rows)
                ):
                    errors.append(
                        f"conn{c} ticket {t['index']}: replay rows differ "
                        f"from ticket {t['replay_of']}"
                    )
    errors += compare_in_process(outcomes)
    return cells, attempted, failed, errors


def compare_in_process(outcomes: List[List[Dict]]) -> List[str]:
    """The first ticket of each kind vs in-process ``run_sweep``, exactly."""
    from repro.analysis.compare import compare_payloads
    from repro.experiment import run_sweep
    from repro.io.json_io import sweep_result_to_dict

    errors = []
    seen = set()
    for o in (o for conn in outcomes for o in conn):
        t = o["ticket"]
        if t["replay_of"] is not None or t["kind"] in seen or o["result"] is None:
            continue
        seen.add(t["kind"])
        local = run_sweep(t["matrix"], t["metrics"])
        comp = compare_payloads(
            sweep_result_to_dict(local), sweep_result_to_dict(o["result"]),
            tolerance=0.0, names=("in-process", "served"),
        )
        if comp.exit_code != 0 or not comp.lines[-1].endswith("identical"):
            errors.append(
                f"served {t['kind']} ticket differs from in-process run_sweep: "
                + "; ".join(comp.regressions[:3] or comp.lines[-1:]
                            or [str(comp.refusal)])
            )
    missing = set(KINDS) - seen
    if missing:
        errors.append(f"no served ticket of kind(s) {sorted(missing)} to compare")
    return errors


def setup(seed: int, work: Path, env: Dict[str, str],
          tracer: Optional[Tracer]) -> Tuple[Server, Bases, List[float]]:
    """Set up ``SETUP_REPS`` times; keep the last server running.

    One set-up builds the base scenarios (the FMS stimulus included),
    boots a server (its imports and both workers) and runs one warm-up
    ticket outside every connection's jitter range.
    """
    from repro.apps import fms

    times = []
    server = None
    if tracer is not None:
        tracer.wrap(fms, "fms_stimulus", "core.stimulus")
    try:
        for rep in range(SETUP_REPS):
            if server is not None:
                server.stop()
            t0 = time.perf_counter()
            bases = Bases(seed)
            server = Server(work, env, tag=str(rep))
            matrix, metrics = ticket_matrix(bases, "fms3", [1, 2, 3, 4])
            with server.client("warmup") as client:
                warm = run_ticket(client, {"matrix": matrix, "metrics": metrics},
                                  events=False)
            if warm["result"] is None or warm["result"].failed_rows:
                raise RuntimeError(f"warm-up ticket failed: {warm.get('error')}")
            times.append(time.perf_counter() - t0)
    except BaseException:
        if server is not None:
            server.stop()
        raise
    finally:
        if tracer is not None:
            tracer.restore()
    return server, bases, times


def latency_ms(o: Dict) -> float:
    return (o["t_end"] - o["t0"]) * 1e3 if o["result"] is not None else float("inf")


def run(seed: int, seconds: float, trace: bool, env: Dict[str, str],
        out_dir: Path) -> Dict[str, Any]:
    clock = HostClock()
    try:
        tracer = Tracer() if trace else None
        clock.sample()
        server, bases, setup_times = setup(seed, out_dir / "served", env,
                                           tracer)
        try:
            plans = [Plan(seed, c, bases) for c in range(CONNECTIONS)]
            if trace:
                return _traced(server, plans, bases, clock, tracer,
                               setup_times, seed, out_dir)
            outcomes, wall = drive(server, plans, seconds=seconds,
                                   tickets=None, events=False)
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        clock.sample()
    finally:
        clock.close()
    cells, attempted, failed, errors = check(outcomes)
    lat = sorted(latency_ms(o) for conn in outcomes for o in conn)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": cells / wall,
        "peak_rss_mb": rss,
        "ticket_p50_ms": statistics.median(lat),
        "ticket_p90_ms": statistics.quantiles(lat, n=10)[8],
    }
    detail = {
        "rows_sha256": served_sha256(outcomes),
        "tickets": len(lat),
        "host.ref_kernel_ms": statistics.median(clock.kernel_ms()),
        "setup_reps_s": setup_times,
        "measured_wall_s": wall,
    }
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failed": failed, "errors": errors}


def served_sha256(outcomes: List[List[Dict]]) -> str:
    history = {}
    for c, conn in enumerate(outcomes):
        for i in range(HASH_TICKETS):
            r = conn[i]["result"]
            history[c * HASH_TICKETS + i] = rows_digest(r.rows) if r else ["failed"]
    return rows_sha256(history, len(history))


def _traced(server: Server, plans: List[Plan], bases: Bases, clock: HostClock,
            tracer: Tracer, setup_times: List[float], seed: int,
            out_dir: Path) -> Dict[str, Any]:
    import repro.service.client as client_mod
    from repro.service import protocol

    sizes: List[Tuple[int, float, str, int]] = []

    def sized(kind: str):
        def after(result: Any, *args: Any) -> None:
            data = args[0] if kind == "reply" else result
            sizes.append((threading.get_ident(), time.perf_counter(), kind,
                          len(data)))
        return after

    clock.sample()
    plain, plain_wall = drive(server, plans, seconds=0,
                              tickets=TRACE_TICKETS, events=False)
    tracer.wrap(client_mod, "matrix_to_dict", "io.encode")
    tracer.wrap(protocol, "encode", "io.encode", after=sized("request"))
    tracer.wrap(protocol, "decode_line", "io.decode", after=sized("reply"))
    tracer.wrap(protocol, "sweep_row_from_wire", "io.decode")
    tracer.wrap(client_mod, "sweep_result_from_dict", "io.decode")
    tracer.wrap(client_mod, "pool_event_from_dict", "io.decode")
    try:
        traced, traced_wall = drive(server, plans, seconds=0,
                                    tickets=TRACE_TICKETS, events=True)
    finally:
        tracer.restore()
    server.stop()
    clock.sample()
    outcomes = [p + t for p, t in zip(plain, traced)]
    cells, attempted, failed, errors = check(outcomes)
    plain_cells = sum(len(o["result"].rows) for conn in plain for o in conn
                      if o["result"] is not None)
    traced_cells = sum(len(o["result"].rows) for conn in traced for o in conn
                       if o["result"] is not None)
    done = [o for conn in traced for o in conn if o["result"] is not None]

    def per_ticket(o: Dict, name: str) -> float:
        return sum(
            s[4] - s[3] for s in tracer.spans
            if s[2] == name and s[5] == o["thread"] and o["t0"] <= s[3] <= o["t_end"]
        )

    def bytes_of(o: Dict, kind: str) -> int:
        return sum(
            n for thread, t, k, n in sizes
            if k == kind and thread == o["thread"] and o["t0"] <= t <= o["t_end"]
        )

    waits = [(t - o["t0"]) * 1e3 for o in done for t in o["dispatch"].values()]
    groups = [(o["done"][g] - t) * 1e3 for o in done
              for g, t in o["dispatch"].items() if g in o["done"]]
    stats = [o["result"].stats for o in done]
    replays = [o for o in done if o["ticket"]["replay_of"] is not None]
    # Worker compute is not visible from here: replay one cell of each
    # kind in-process and weight it by the cells of that kind computed.
    split = {k: 0.0 for k in ("binding", "sampling", "timing", "records", "data")}
    sim_jobs = sim_s = 0.0
    for kind in KINDS:
        matrix, metrics = ticket_matrix(bases, kind, [7, 8, 9, 10])
        cell = next(iter(matrix.cells())).scenario
        stages = replay_cell(cell, metrics, cold=True)
        computed = sum(o["result"].stats.runs for o in done
                       if o["ticket"]["kind"] == kind)
        for k in split:
            split[k] += stages[k] * computed
        sim_jobs += stages["jobs"]
        sim_s += stages["full"]
    stim = tracer.durations("core.stimulus")
    plain_cps = plain_cells / plain_wall
    metrics = {
        "core.stimulus_s": statistics.median(stim) if stim else 0.0,
        "taskgraph.derive_calls": sum(s.derivations_computed for s in stats),
        "taskgraph.derive_s": 0.0,
        "taskgraph.jobs_derived": 0,
        "scheduling.schedule_calls": sum(s.schedules_computed for s in stats),
        "scheduling.schedule_s": 0.0,
        "scheduling.attempts_per_schedule": 0.0,
        **{f"runtime.{k}_s": v for k, v in split.items()},
        "runtime.sim_jobs_per_s": sim_jobs / sim_s,
        "experiment.derivations": sum(s.derivations_computed for s in stats),
        "experiment.schedules": sum(s.schedules_computed for s in stats),
        "experiment.runs": sum(s.runs for s in stats),
        "experiment.bookkeeping_s": 0.0,
        "pool.queue_wait_ms": statistics.median(waits),
        "pool.group_ms": statistics.median(groups),
        "pool.warm_group_hits": sum(s.warm_group_hits for s in stats),
        "pool.payload_cache_hits": sum(s.payload_cache_hits for s in stats),
        "pool.retries": sum(s.retries for s in stats),
        "store.hits": sum(s.store_hits for s in stats),
        "store.misses": sum(s.store_misses for s in stats),
        "store.hit_ticket_ms": statistics.median(latency_ms(o) for o in replays),
        "io.encode_ms": statistics.median(per_ticket(o, "io.encode") * 1e3 for o in done),
        "io.decode_ms": statistics.median(per_ticket(o, "io.decode") * 1e3 for o in done),
        "io.request_kb": statistics.median(bytes_of(o, "request") / 1e3 for o in done),
        "io.reply_kb": statistics.median(bytes_of(o, "reply") / 1e3 for o in done),
        "service.submit_ms": statistics.median((o["submitted"] - o["t0"]) * 1e3 for o in done),
        "service.first_row_ms": statistics.median(
            (o["first_row"] - o["t0"]) * 1e3 for o in done),
        "host.ref_kernel_ms": statistics.median(clock.kernel_ms()),
        "host.raw_cells_per_s": plain_cps,
        "host.raw_setup_s": statistics.median(setup_times),
        "trace.overhead_frac": 1.0 - (traced_cells / traced_wall) / plain_cps,
    }
    tracer.dump(out_dir / f"trace-served_mix-{seed}.json")
    detail = {
        "rows_sha256": served_sha256(outcomes),
        "tickets": sum(len(c) for c in outcomes),
        "not_measured": [
            "server-side decode/encode, JSON-RPC dispatch and per-worker "
            "compute run in other processes: taskgraph.derive_s, "
            "scheduling.schedule_s, scheduling.attempts_per_schedule, "
            "taskgraph.jobs_derived and experiment.bookkeeping_s read 0",
            "runtime.*_s estimate worker compute from an in-process replay "
            "of the first cell of each kind, sampled cold, weighted by the "
            "cells of that kind run",
        ],
    }
    return {"metrics": metrics, "detail": detail, "attempted": attempted,
            "failed": failed, "errors": errors}


if __name__ == "__main__":
    sys.exit("run perfbench/run.py --workload served_mix")
