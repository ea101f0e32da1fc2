"""The machine's speed, sampled by a fixed reference loop between the work.

The benchmark's host shares its cores with other tenants.  On the 2-vCPU
Xeon it was written on, the same pure-Python loop ran up to 1.5 times slower
for minutes at a time and by a third from one second to the next, with CPU
time rising as much as wall time; a run's raw time mostly measured that.
So every unit interleaves a short fixed loop with its work: a SIGALRM timer
runs the loop every PERIOD_S in the main thread, between two bytecodes of
the program.  Each stretch of work between two loops is rescaled by the
loop's CPU time around it (the median of WINDOW samples) to the time it
would have taken with the loop at REF_S.  These reference times are what
the benchmark reports for the work; the raw times are printed beside them.

The timer is per process, so a worker forked by the program runs none; with
--jobs 2 the loop runs in the waiting parent and samples the same machine.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# The loop's CPU time on an unloaded core of the 2-vCPU Xeon this benchmark
# was written on, so that reference times read close to that box's seconds.
REF_S = 0.00045
WINDOW = 7  # samples whose median rescales one stretch of work

clock = time.perf_counter
cpu_clock = time.thread_time


def reference_loop() -> int:
    seen: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = (i * 2654435761) & 1023
        seen[key] = seen.get(key, 0) + 1
        acc ^= key << (i & 7)
    return acc


def sample() -> tuple[float, float, float]:
    """Run the loop once: (wall start, wall end, CPU seconds)."""
    start, cpu = clock(), cpu_clock()
    reference_loop()
    return start, clock(), cpu_clock() - cpu


def warm() -> None:
    for _ in range(20):
        reference_loop()


class Sampler:
    """Samples the loop before, every PERIOD_S during, and after some work."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []
        self.start = self.end = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample())

    def begin(self) -> None:
        warm()
        self.samples.append(sample())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self.start = clock()

    def finish(self) -> None:
        self.end = clock()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(sample())

    def times(self) -> tuple[float, float]:
        """(raw, reference) seconds of the work, the loop's own time left out."""
        return rescale(self.samples, self.start, self.end)


def rescale(samples: list, start: float, end: float) -> tuple[float, float]:
    """Raw and reference seconds of the work in [start, end] between samples.

    samples are (wall start, wall end, CPU seconds) in time order, one at
    least before start and one after end.
    """
    raw = ref = 0.0
    half = WINDOW // 2
    cpus = [c for _, _, c in samples]
    for k in range(1, len(samples)):
        gap = min(samples[k][0], end) - max(samples[k - 1][1], start)
        if gap <= 0:
            continue
        local = statistics.median(cpus[max(0, k - 1 - half) : k + half])
        raw += gap
        ref += gap * REF_S / local
    return raw, ref

