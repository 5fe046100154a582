"""Host time, reference-kernel samples and reference-host time.

:class:`HostClock` owns the reference-kernel child process
(:mod:`refkernel`) and takes a kernel sample between units of work, at
most every ``INTERVAL_S`` seconds.  Sample time is kept out of every
measured interval.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Tuple

import refkernel

HERE = Path(__file__).resolve().parent
INTERVAL_S = 0.5


def pin_to_one_cpu() -> None:
    """Pin this process (and the children it starts) to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostClock:
    """Kernel samples interleaved with the work, and host-to-reference time.

    Samples are ``(start, end, ms)``.  Work between two consecutive
    samples runs at the speed their mean reports, so :meth:`ref_seconds`
    scales each stretch of an interval by ``NOMINAL_MS / that mean``
    (before the first or after the last sample, by the nearest sample)
    and leaves out the time spent sampling.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "refkernel.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference kernel failed to start")
        self._last = time.perf_counter()

    def sample(self) -> float:
        """Run the kernel once; its duration in ms."""
        t0 = time.perf_counter()
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("reference kernel exited")
        ms = float(line)
        t1 = time.perf_counter()
        self.samples.append((t0, t1, ms))
        self._last = t1
        return ms

    def tick(self) -> None:
        """Sample if the last sample is more than ``INTERVAL_S`` old."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def kernel_ms(self) -> List[float]:
        return [ms for _, _, ms in self.samples]

    def host_seconds(self, t0: float, t1: float) -> float:
        """Wall seconds of ``[t0, t1]`` not spent sampling."""
        return t1 - t0 - sum(
            max(0.0, min(t1, b) - max(t0, a)) for a, b, _ in self.samples
        )

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Reference-host seconds of the work done in ``[t0, t1]``."""
        s = self.samples
        gaps = [(-math.inf, s[0][0], s[0][2])]
        gaps += [
            (s[i][1], s[i + 1][0], (s[i][2] + s[i + 1][2]) / 2)
            for i in range(len(s) - 1)
        ]
        gaps.append((s[-1][1], math.inf, s[-1][2]))
        return sum(
            max(0.0, min(t1, b) - max(t0, a)) * refkernel.NOMINAL_MS / ms
            for a, b, ms in gaps
        )

    def close(self) -> None:
        if self._proc.stdin and not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        if self._proc.stdout:
            self._proc.stdout.close()
