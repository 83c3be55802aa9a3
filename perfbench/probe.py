"""Host-speed probe: a fixed piece of pure-Python work timed all through a run.

On a shared virtual machine the speed of the host's cores drifts with the
load of its other tenants: on a two-vCPU Xeon virtual machine the time of
the same report moved by a factor of up to two within three minutes.  The
probe measures that drift in the same process, on the same thread, while
the workload runs: a timer signal fires every INTERVAL_S and its handler
times ``probe_work``, which does exact rational and integer elimination and
a JSON round trip like the program but shares no code with it.  Operation
latencies exclude the time the handler took.  The garbage collector is off
while the handler runs, so that the probe neither collects the program's
garbage nor takes longer when the program holds more memory.

Each timing is then reported at the reference host speed: multiplied by
REFERENCE_S over the median of the probes that fired while it ran, widened
on both sides to at least MIN_PROBES probes (about a second): the host's
speed changes by tens of percent within a few seconds, so a wider window
corrects less.  The
probe moves more than the program does when the host's speed changes, so
the correction is partial; README.md gives the spreads with and without it.
"""

import bisect
import gc
import json
import random
import signal
import statistics
import time
from math import gcd

import oracles

INTERVAL_S = 0.1
MIN_PROBES = 9

# A scale, since only ratios between runs matter: about the probe's median
# time on the host of README.md's reference figures in its faster phases.
REFERENCE_S = 0.003

_rng = random.Random(20260810)
RATIONAL = [[_rng.randint(-9, 9) for _ in range(9)] for _ in range(9)]
INTEGER = [[_rng.randint(-3, 3) for _ in range(16)] for _ in range(16)]
DOCUMENT = {f"k{i}": [i, str(i), {"x": i * 1.5}] for i in range(300)}


def _integer_elimination(matrix):
    """Fraction-free Gauss-Jordan on integer rows, each kept primitive."""
    rows = [list(r) for r in matrix]
    n, r = len(rows), 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(r, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow, pv = rows[r], rows[r][col]
        for i in range(n):
            if i != r and rows[i][col]:
                f = rows[i][col]
                new = [pv * a - f * b for a, b in zip(rows[i], prow)]
                g = 0
                for v in new:
                    g = gcd(g, v)
                rows[i] = [v // g for v in new] if g > 1 else new
        r += 1
    return rows


def probe_work():
    oracles.rank(RATIONAL)
    _integer_elimination(INTEGER)
    json.loads(json.dumps(DOCUMENT, sort_keys=True))


class HostProbe:
    """Times ``probe_work`` every INTERVAL_S while entered as a context."""

    def __init__(self):
        self.times = []    # when each probe ended
        self.samples = []  # seconds each probe took
        self.spent = 0.0  # seconds spent in the handler so far
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            probe_work()
            t1 = time.perf_counter()
            dt = t1 - t0
            self.times.append(t1)
            self.samples.append(dt)
            self.spent += dt
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start, end):
        """Multiply a time measured over [start, end] by this for the reference speed.

        Uses the probes that ended within [start, end], widened on both
        sides to MIN_PROBES; 1 when the run did not probe.
        """
        if not self.samples:
            return 1.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
