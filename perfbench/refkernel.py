"""Reference kernel: a fixed stdlib workload that tracks the host's speed.

The benchmark reports ``setup_s`` and ``cells_per_s`` of the in-process
workloads in *reference-host seconds*: host seconds scaled by
``NOMINAL_MS / measured kernel time``.  When the host runs slow (other
tenants, frequency drift), the kernel slows with the program and the
scaling cancels it.

The kernel mimics what the simulator spends its time on: dict lookups
keyed by tuples, tuple allocation and ``Fraction`` construction, over a
working set of about 16 MB visited in a scattered order, so it shares
the program's sensitivity to cache and memory bandwidth.  It never
imports ``repro``.

It runs in its own process, pinned to the benchmark's CPU, so its
working set adds nothing to the benchmark's resident memory or to the
program's garbage-collector scans.  Protocol on stdin/stdout, one line
each: the child prints ``ready`` after building its table, then answers
every ``run`` line with the kernel's duration in milliseconds (timed
inside the child, with GC off).  End of input stops it.

Run ``python3 perfbench/refkernel.py --calibrate`` to print the median
of ``CALIBRATION_SAMPLES`` samples; that is how ``NOMINAL_MS`` was obtained.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time
from fractions import Fraction

#: Median kernel time on the host the nominal was committed from:
#: 2 vCPUs (``nproc`` = 2), "Intel(R) Xeon(R) Processor", Python 3.11.7,
#: kernel process pinned to one vCPU.
NOMINAL_MS = 41.0

_TABLE_SIZE = 50_000
_VISITS = 8_000
CALIBRATION_SAMPLES = 40


def build_table() -> tuple:
    """The persistent working set and a fixed scattered visit order."""
    rng = random.Random(20150309)
    table = {}
    for i in range(_TABLE_SIZE):
        link = (i * 7919) % _TABLE_SIZE
        table[(i % 811, i)] = (
            rng.randrange(1, 10_000), rng.randrange(1, 64), link % 811, link,
        )
    keys = list(table)
    order = [keys[rng.randrange(_TABLE_SIZE)] for _ in range(_VISITS)]
    return table, order


def run_once(table: dict, order: list) -> int:
    """One kernel pass; returns a checksum so no work is skipped."""
    out = {}
    acc = 0
    for key in order:
        num, den, lk0, lk1 = table[key]
        f = Fraction(num, den)
        link = table[(lk0, lk1)]
        acc = (acc + f.numerator * link[1] + f.denominator) % 1_000_003
        out[key[1] & 4095] = (f, acc)
    return acc + len(out)


def timed_run(table: dict, order: list) -> float:
    """Milliseconds of one pass with the cyclic GC off."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        run_once(table, order)
        return (time.perf_counter() - t0) * 1e3
    finally:
        gc.enable()


def serve() -> None:
    table, order = build_table()
    gc.freeze()
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(f"{timed_run(table, order):.6f}", flush=True)


def calibrate() -> float:
    table, order = build_table()
    gc.freeze()
    times = [timed_run(table, order) for _ in range(CALIBRATION_SAMPLES)]
    return statistics.median(times)


if __name__ == "__main__":
    if sys.argv[1:] == ["--calibrate"]:
        print(f"{calibrate():.3f}")
    else:
        serve()
