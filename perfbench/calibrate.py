"""Host-speed calibration of the end-to-end wall times.

On a shared machine the speed of the cores the benchmark gets swings by up
to 1.8x within seconds, and moves every wall time alike: a process's CPU
time grows with its wall time, so this is not descheduling but slower
cores.  A fixed reference kernel, none of it quatspin code, is timed
between the workload's operations.  An operation's calibrated time is its
wall time scaled by the kernel's nominal time over the median kernel time
measured around it: the time it would have taken on a machine that runs
the kernel in its nominal time.

Two kernels, because in-process work and process start-up slow down
differently:
  in-process  interpreted float arithmetic, unmarshalling compiled code as
              an import does, numpy array arithmetic and dict inserts.  In a
              three-minute test that alternated a variant of it with one
              hydrogen-layer operation (assemble n = 12 plus a small density
              grid), 15-second medians of both wall times swung between
              0.72x and 1.32x of their overall medians while their ratio
              stayed between 0.94x and 1.06x.
  spawn       `python -S -c pass` as a subprocess: process creation and
              interpreter start-up without site or any package.  Against
              `python -m quatspin probability` calls, 15-second medians of
              the wall time had a coefficient of variation of 0.082 over
              three minutes; their ratio to this kernel 0.034, and their
              ratio to the in-process kernel 0.093, which is why subprocess
              operations and set-up probes use this one.

A change to quatspin cannot move either kernel, so it moves calibrated
times as it moves wall times.
"""

from __future__ import annotations

import marshal
import math
import statistics
import subprocess
import sys
import time

import numpy as np

# round figures near each kernel's median time (in-process: 3.9 to 6.9 ms
# from minute to minute) on the machine the benchmark was defined on:
# x86-64, 2 vCPUs of a shared host, Python 3.11, numpy 2.4; so calibrated
# times read close to that machine's wall times
K_NOMINAL_S = 5.0e-3
SPAWN_NOMINAL_S = 15e-3
NEIGHBOURS = 3             # kernel samples on each side of an operation

_CODE = marshal.dumps(compile(
    "\n".join(f"def f{i}(x, y=({i}, 'a{i}', {i}.5)):\n"
              f"    return x*{i} + len(y)\n" for i in range(150)),
    "<calibration>", "exec"))
_ARRAY = np.linspace(0.1, 2.0, 50000)


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    x = 0.0
    for i in range(4000):
        x = x*0.999 + math.sin(i)
    for _ in range(20):
        marshal.loads(_CODE)
    for _ in range(10):
        np.exp(-_ARRAY)*_ARRAY
    d = {}
    for i in range(3000):
        d[str(i)] = i
    return time.perf_counter() - t0


def spawn_kernel_s() -> float:
    """Wall time of one `python -S -c pass` subprocess."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Calibration:
    """Kernel samples taken between operations: sample() before the first
    operation and after each one, so operation i lies between samples i
    and i + 1.  `spawn` selects the spawn kernel, for operations that are
    subprocesses."""

    def __init__(self, spawn: bool):
        self.kernel, self.nominal = ((spawn_kernel_s, SPAWN_NOMINAL_S)
                                     if spawn else (kernel_s, K_NOMINAL_S))
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(self.kernel())

    def scale(self, i: int) -> float:
        """The nominal kernel time over the median of the NEIGHBOURS samples
        on each side of operation i."""
        lo = max(0, i + 1 - NEIGHBOURS)
        near = self.samples[lo:i + 1 + NEIGHBOURS]
        return self.nominal/statistics.median(near)

    def calibrated(self, walls: list[float]) -> list[float]:
        if len(self.samples) != len(walls) + 1:
            raise ValueError("need one kernel sample more than operations")
        return [w*self.scale(i) for i, w in enumerate(walls)]
