"""Probe how fast this process's CPU runs, while the benchmark runs.

The speed of a virtual CPU on a shared host changes by up to 2x within
seconds, and each virtual CPU changes on its own.  run.py pins itself, and
so this process, launch.py and every step, to one CPU.  This process times
a fixed unit of pure-Python work every PROBE_EVERY_S on that CPU.  The unit
looks up keys of a dict too large for the CPU's private caches, as the
pipeline's own dicts do.

It reads one JSON request per line on stdin, ``[t0, t1]`` in
``time.monotonic()`` seconds, the same clock in every process, and answers
with the harmonic mean of the probe times that ended in that window.  The
samples are evenly spaced in time, so that mean is the probe time at the
CPU's mean speed over the window.  A probe that another process preempts
reads long and, in a harmonic mean, counts for little.  It exits when stdin
closes.
"""

import json
import random
import statistics
import sys
import threading
import time

PROBE_EVERY_S = 0.01
TABLE_KEYS = 30_000  # a dict of about 2.5 MB
LOOKUPS = 1_000  # keys per probe

_rng = random.Random(0)
TABLE = {_rng.randrange(1 << 40): float(i) for i in range(TABLE_KEYS)}
ORDER = list(TABLE)
_rng.shuffle(ORDER)


class Sampler(threading.Thread):
    def __init__(self) -> None:
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float]] = []  # (monotonic end, seconds)

    def run(self) -> None:
        start = 0
        while True:
            t0 = time.perf_counter()
            total = 0.0
            for key in ORDER[start:start + LOOKUPS]:
                total += TABLE[key]
            self.samples.append((time.monotonic(), time.perf_counter() - t0))
            start = (start + LOOKUPS) % (TABLE_KEYS - LOOKUPS)
            time.sleep(PROBE_EVERY_S)

    def mean_s(self, t0: float, t1: float) -> float:
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        # A window shorter than the probe period takes the latest sample.
        return statistics.harmonic_mean(inside or [self.samples[-1][1]])


def main() -> int:
    sampler = Sampler()
    sampler.start()
    while not sampler.samples:
        time.sleep(PROBE_EVERY_S)
    for line in sys.stdin:
        t0, t1 = json.loads(line)
        print(json.dumps(sampler.mean_s(t0, t1)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
