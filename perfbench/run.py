"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fms_sweep --seed 1 --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

* ``fms_sweep`` and ``design_space`` — in-process serial ``run_sweep``
  (:mod:`inproc`), pinned to one CPU.  ``setup_s``, ``cells_per_s`` and
  the ticket latencies are in reference-host time: host time scaled by
  the committed nominal over a reference kernel's measured time
  (:mod:`refkernel`, :mod:`hostclock`).  A "ticket" is one cell here:
  the time from the previous row to this one.
* ``served_mix`` — ``python -m repro serve`` with a 2-worker pool and a
  closed-loop load generator (:mod:`served_mix`), in raw host time.  A
  ticket is one 8-cell submission, timed from submit to final table.

End-to-end metrics (``--trace 0``):

* ``setup_s`` — one set-up, median of several: a fresh interpreter's
  imports, the scenario and stimulus build, and warm-up work so that no
  timed cell pays a first-use cost (one cell per jitter seed on
  ``fms_sweep``, one cell on ``design_space``; on ``served_mix`` the
  server and worker boot plus one warm-up ticket);
* ``cells_per_s`` — healthy cells per second of the measured phase;
* ``peak_rss_mb`` — peak resident memory of this process once set-up
  and the batches ``rows_sha256`` covers are done (a fixed amount of
  work: fresh jitter seeds grow the samplers' memo with every batch, so
  a whole-run peak would follow the host's speed), or on ``served_mix``
  the summed peaks of the server and its workers;
* ``ticket_p50_ms`` / ``ticket_p90_ms`` — ticket latency percentiles.

Per-layer metrics (``--trace 1``) come from a fixed amount of work run
untraced and then traced (in process, after a warm-up of the same
size), so counts repeat exactly.  Each group, and
the end-to-end metric it should move:

* ``core.stimulus_s`` — ``setup_s`` on ``fms_sweep`` (the known
  quadratic admission filter in ``random_sporadic_trace``);
* ``taskgraph.*``, ``scheduling.*``, ``experiment.*`` —
  ``cells_per_s`` on ``design_space``; ``experiment.bookkeeping_s`` is
  ``run_sweep`` time outside the derivation, scheduling and runtime
  spans;
* ``runtime.binding_s`` / ``sampling_s`` / ``records_s`` / ``timing_s``
  — ``cells_per_s`` on ``fms_sweep``; ``runtime.data_s`` —
  ``cells_per_s`` on ``served_mix``.  The split comes from a stage-by-
  stage replay of sampled cells through public calls (:mod:`replay`),
  scaled onto the traced ``run_static_order`` time.  It is approximate:
  ``binding_s`` is ``ArrivalBinding`` construction alone (the
  executor's slot lookups count under ``timing_s``) and ``sampling_s``
  is a run with the cell's execution-time model minus one at WCETs;
* ``pool.*``, ``store.*``, ``io.*``, ``service.*`` — ``ticket_p50_ms``
  (and ``cells_per_s``) on ``served_mix``; they read 0 in process;
* ``host.*`` — raw host values beside the reference-host ones, and
  ``trace.overhead_frac``, the traced phase's throughput loss.

Every run checks the program's outputs outside the timed phase: zero
failed cells, stats that account for every cell, served replays
reproducing their rows, served rows equal to in-process ``run_sweep``
rows at zero tolerance, and ``rows_sha256`` over a fixed prefix of the
rows (equal for equal seeds, traced or not).  A failed check prints
``"correct": false`` and exits 1.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it,
prefixed ``detail``, holds ``rows_sha256``, raw host values and what the
benchmark cannot see.  Traced runs write their spans to ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

WORKLOADS = ("fms_sweep", "design_space", "served_mix")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no program source at {src}/repro — run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    if args.workload == "served_mix":
        import served_mix

        outcome = served_mix.run(
            args.seed, args.seconds, bool(args.trace), env, out_dir
        )
    else:
        import hostclock
        import inproc

        hostclock.pin_to_one_cpu()
        outcome = inproc.run(
            args.workload, args.seed, args.seconds, bool(args.trace), env,
            out_dir,
        )

    # BENCHMARK.json is the one list of metric names and units.
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    produced = outcome["metrics"]
    if set(produced) != set(units):
        outcome["errors"].append(
            f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(produced))}, extra "
            f"{sorted(set(produced) - set(units))}"
        )
    metrics = {}
    for name in units:
        value = float(produced.get(name, float("nan")))
        if not math.isfinite(value):
            outcome["errors"].append(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": units[name]}
    correct = not outcome["errors"]
    for error in outcome["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print("detail " + json.dumps(outcome["detail"], sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
