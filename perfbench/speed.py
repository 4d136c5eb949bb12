"""Machine-speed probe, to take the shared machine's speed out of the times.

On a shared machine the speed of one core wanders by tens of percent within
seconds, and by up to a factor of two over minutes, whatever runs on it.  A
timer interrupts the pass every INTERVAL_S and runs a fixed piece of pure
Python (about 20 microseconds); how long it took measures the machine's
speed at that moment.  An interval of the pass is then reported twice: as
measured, minus the probes that ran inside it, and scaled to the reference
speed by the median probe time around it.  The end-to-end metrics report
the second figure; the benchmark prints both.  The probes cost about 1% of
a pass.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.002
WINDOW_S = 0.02  # probes this close to an interval's ends also count for it
REFERENCE_S = 16e-6  # probe time at the reference speed


def _probe_work():
    x = 0
    for i in range(80):
        t = (i, i * 7 % 13, i ^ 5)
        x += sum(t) & 0xFF
    return x


class SpeedProbe:
    def __init__(self):
        self.at = []
        self.took = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        a = time.perf_counter()
        _probe_work()
        b = time.perf_counter()
        self.at.append(a)
        self.took.append(b - a)

    def start(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def index(self):
        """Median probe time over the reference: 1.0 at reference speed,
        2.0 on a machine running at half of it."""
        return statistics.median(self.took) / REFERENCE_S

    def measure(self, start, end):
        """(seconds as measured, seconds at reference speed) of the
        interval [start, end], the probes inside it taken out."""
        i = bisect.bisect_left(self.at, start)
        j = bisect.bisect_left(self.at, end)
        net = end - start - sum(self.took[i:j])
        a = bisect.bisect_left(self.at, start - WINDOW_S)
        b = bisect.bisect_left(self.at, end + WINDOW_S)
        near = self.took[a:b] or self.took[max(0, i - 1):i + 1]
        return net, net * REFERENCE_S / statistics.median(near)
