"""How fast the host runs right now, from a fixed reference loop.

    python3 perfbench/calib.py    # samples until its standard input closes

The machines this benchmark runs on are shared, and their speed drifts
between fast and slow periods that last from under a second to minutes.
The drift moves every timing by about the same factor.  On a 2-core KVM
guest, the spread (IQR over median) of five 20 s `invariance-scan` runs was
0.27 for fresh-process start-up and 0.12 to 0.16 for op throughput and
latency; scaled as below, ten 15 s runs spread 0.02 to 0.06.

So while a run measures, this script runs as a sampler: every `PERIOD_S`
it times the reference loop, a few milliseconds of work, and when its
standard input closes it prints every reading as one JSON list.  It is busy
about 5% of the time.  `HostSpeed.scale` then takes any timed window to a
host on which the loop takes `REF_S`, using the readings taken during the
window and `WINDOW_S` either side of it.  The loop uses only the standard
library, never ewlgames, so no change to the program can move it.

Readings and windows are both stamped with `time.perf_counter`, which on
Linux is CLOCK_MONOTONIC and so is shared by every process.
"""

import bisect
import json
import select
import subprocess
import sys
import time
from fractions import Fraction
from itertools import accumulate

REF_S = 0.002  # the loop's time in this host's fast periods; sets the scale only
PERIOD_S = 0.05
WINDOW_S = 0.25


def sample() -> float:
    """The CPU time of one run of the reference loop, in seconds.

    CPU time, not wall time: when the sampler shares a CPU with a measured
    process, the time it waits for its turn is left out.  A slow host still
    shows, because it makes the loop itself take longer.
    """
    start = time.thread_time()
    acc = 0
    for i in range(1, 150):
        q = Fraction(i, i + 7) + Fraction(i + 1, i + 5) * Fraction(3, i + 2)
        acc += q.numerator % 97
    for j in range(22000):
        acc += j * j % 7
    return time.thread_time() - start


class HostSpeed:
    """The sampler's readings, as (midpoint, duration) pairs."""

    def __init__(self, readings) -> None:
        readings = sorted(readings)
        if not readings:
            raise ValueError("the host-speed sampler took no readings")
        self.times = [t for t, _ in readings]
        self.durations = [d for _, d in readings]
        self.prefix = [0.0, *accumulate(self.durations)]

    def scale(self, start: float, end: float) -> float:
        """The factor that takes a timing of [start, end] to the reference host."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no reading near the window: the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return REF_S / ((self.prefix[hi] - self.prefix[lo]) / (hi - lo))

    def median_speed(self) -> float:
        return REF_S / sorted(self.durations)[len(self.durations) // 2]


def start_sampler(env, cwd) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=cwd)


def stop_sampler(proc: subprocess.Popen) -> HostSpeed | None:
    """Close the sampler's input and collect its readings; kill it if it does not end."""
    try:
        out, _ = proc.communicate(input="", timeout=10)
        return HostSpeed(json.loads(out)) if proc.returncode == 0 else None
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main() -> None:
    readings = []
    while True:
        start = time.perf_counter()
        duration = sample()
        readings.append(((start + time.perf_counter()) / 2, duration))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break
    print(json.dumps(readings))


if __name__ == "__main__":
    main()
