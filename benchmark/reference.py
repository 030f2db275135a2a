"""A reference kernel that gauges how fast the machine runs at the moment.

On a shared virtual machine the same op can take 1.5 times longer in one
minute than in the next, with no change to the program: the host's other
tenants take cache, memory bandwidth and turbo headroom.  The benchmark
therefore reads a fixed kernel's speed throughout each run and scales the
run's wall times by ``(NOMINAL_MS / reference_ms) ** EXPONENT``, where
``reference_ms`` is the median reading of the run and ``NOMINAL_MS`` the
kernel's time on a quiet run of a 2-vCPU Xeon VM.  A slower program still
shows in full, because the kernel does not use cvqec; a slower machine slows
both and mostly cancels.

The exponent is 1/2 because the kernel reacts to the host more strongly than
the ops do, and by a share that changes with what the other tenants do.  On
that VM, ten 30 s runs per workload in each of two stretches of different
host load gave best exponents from 0.3 to 1.1 per workload and stretch.
In the second stretch the kernel took 33% less time than in the first, but
``transpile-enum`` ops only 20% less.  With exponent 1 its scaled medians
moved by 15-22% between the stretches; with 1/2, no median of any workload
moved by more than 10%, and no spread over ten runs exceeded 13% (set-up
time aside).  Unscaled, medians moved by up to 20% and spreads reached 21%.
A third stretch, run after the exponent was fixed, kept every spread but
set-up time's under 12%.

The kernel is one FFT along one axis of a 16 MB complex array, the shape of a
braunstein5 state at N=16.  Of the kernels tried (a pure-Python loop, tiny
numpy calls, small and mid-sized FFTs), its time followed the ops' time best
across one-minute swings of the host.  In one process over 150 s of such
swings, dividing by it cut the spread of medians over 40 ``rep3-sweep`` ops
from 19% to 6%.

The kernel runs in a helper process, one reading at a time while the
benchmark waits, so that its 50 MB of arrays stay out of the benchmark's
peak RSS.  The worker process and its helper are pinned to the same CPU
while it measures, so the readings gauge the core the ops run on.  Run as a script, this
file is that helper: it answers each line on standard input with one reading
in milliseconds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

NOMINAL_MS = 8.0
EXPONENT = 0.5
PASSES = 3  # kernel passes per reading; the fastest counts
STOP_TIMEOUT_S = 10


def scale(reference_ms: float) -> float:
    """Factor that takes wall times measured while the kernel read
    ``reference_ms`` to the nominal machine speed."""
    return (NOMINAL_MS / reference_ms) ** EXPONENT


class Reference:
    """Context manager around the helper process; pins this process and the
    helper to one CPU while it is open."""

    def __enter__(self) -> "Reference":
        self.cpus = os.sched_getaffinity(0)
        self.cpu = max(self.cpus)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self._pin(self.proc.pid, {self.cpu})
            self._pin(0, {self.cpu})
            self.reading()  # waits until the helper has loaded numpy and its array
        except BaseException:
            self.__exit__()
            raise
        return self

    @staticmethod
    def _pin(pid: int, cpus: set[int]) -> None:
        try:
            os.sched_setaffinity(pid, cpus)
        except OSError:
            pass  # unpinned readings still gauge the machine, only less closely

    def reading(self) -> float:
        """Milliseconds of the fastest of ``PASSES`` kernel passes."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference helper exited with {self.proc.wait()}")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._pin(0, self.cpus)
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve() -> None:
    import numpy as np

    data = np.random.default_rng(12345).standard_normal((16,) * 5) + 0j
    for _ in sys.stdin:
        best = float("inf")
        for _ in range(PASSES):
            start = time.perf_counter()
            np.fft.fft(data, axis=2)
            best = min(best, time.perf_counter() - start)
        print(1e3 * best, flush=True)


if __name__ == "__main__":
    serve()
