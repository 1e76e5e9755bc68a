"""The machine's speed, sampled while the program runs.

On a shared host the speed of a core drifts by up to 2x within seconds
and over minutes, and a time measured on it drifts with it. A
SpeedProbe interrupts the measured code every INTERVAL_S seconds of
wall time (SIGALRM) and times a fixed pure-Python kernel in the same
thread, so the samples see the core the program runs on at the moment
it runs. A time measured under the probe is rescaled to reference
seconds: the time the same work takes on a machine where the kernel
takes REF_KERNEL_S,

    reference_s = (wall_s - handler_s) * REF_KERNEL_S / mean kernel time,

where handler_s is the time the probe itself took from the program.
Interrupted system calls are retried by Python (PEP 475), and the timer
is not inherited by child processes.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.02
REF_KERNEL_S = 200e-6

# Reads at scattered places in 1 MiB, taking about as long as the dict
# and float work. With them the kernel follows the program's slow spells
# more closely than with dict and float work alone: rescaled single
# passes of two workloads, each in a fresh process, spread 5 % instead
# of 6-7 % (README, "Reference seconds").
_BUFFER = bytes(range(256)) * (4 << 10)
_READS = tuple(i * 2654435761 % len(_BUFFER) for i in range(1500))


def kernel() -> float:
    """Dict, float and memory work of the kind the interpreter does in
    the program; 0.2 to 0.35 ms on the machine the README describes."""
    table: dict[int, float] = {}
    total = 0.0
    for i in range(300):
        key = i % 17
        table[key] = table.get(key, 0.0) + math.exp(-(i % 50) / 10.0)
        total += table[key]
    for j in _READS:
        total += _BUFFER[j]
    return total


class SpeedProbe:
    """Context manager that samples the kernel while its block runs."""

    def __init__(self):
        self.kernel_s = 0.0
        self.handler_s = 0.0
        self.samples = 0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()  # untimed: brings the kernel back into the caches
        timed = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.kernel_s += end - timed
        self.samples += 1
        self.handler_s += end - start

    def __enter__(self) -> "SpeedProbe":
        kernel()  # warm before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Reference seconds per second of the program's own time."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample")
        return REF_KERNEL_S * self.samples / self.kernel_s

    def reference_s(self, wall_s: float) -> float:
        return (wall_s - self.handler_s) * self.scale()
