"""Host speed reference: times in seconds at a fixed reference speed.

The benchmark runs on small shared virtual machines whose speed swings by up
to 2x for seconds to minutes at a time, as the neighbours' load comes and
goes.  A run is too short to average that out, so every timing is rescaled
by the speed of the host while it was taken.

The speed is measured with a reference slice: a fixed pure-Python computation
that does not touch hypersos and runs with the cyclic garbage collector off,
so the program's heap does not change its cost.  Half of it is rational
arithmetic on small fractions, which slows down less than the program when
the host is busy; the other half is lookups in a dict and a list of a few
megabytes, which slows down more.  Together they roughly track the
program's own slowdown (checked against operations of the sos and lines
workloads; a run's scaled times still move by about 10% with the host's load).

While `sampling()` is active, a SIGALRM timer runs one slice every TICK_S
seconds, in the main thread between two bytecodes, so operations of any
length are sampled evenly in time.  The slices that ran inside an operation
are subtracted from its latency.  A net time t taken over [start, end] is
then reported as

    t * REFERENCE_SLICE_S / (median duration of the slices around it)

that is, in seconds on a host where one reference slice takes
REFERENCE_SLICE_S (about its time on a quiet 2-vCPU Xeon VM with Python
3.11).  The raw times are kept next to the scaled ones.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import random
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_SLICE_S = 0.007
TICK_S = 0.25
WINDOW_S = 2.0  # slices this close to a timing's interval are its reference
MIN_SLICES = 15  # else the nearest this many slices

_XS = [Fraction(i + 1, 2 * i + 3) for i in range(12)]


class HostClock:
    """Reference slices taken during a run, and the scale factor they give.

    The slice's lookup tables are built here, not at import, so that set-up
    time does not include them.
    """

    def __init__(self):
        rng = random.Random(0)
        self._table = {i * 7919 % 300007: i for i in range(60000)}
        self._keys = [rng.randrange(300007) for _ in range(25000)]
        self._list = list(range(100000))
        self.starts: list[float] = []  # perf_counter seconds
        self.durations: list[float] = []
        self._busy = False

    def reference_slice(self) -> float:
        """Run the reference computation once; returns its duration in seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            counts: dict = {}
            for r in range(60):
                acc = Fraction(0)
                for i, x in enumerate(_XS):
                    acc = acc + x * x - Fraction(r, i + 1)
                    key = (r % 7, i)
                    counts[key] = counts.get(key, 0) + acc.numerator % 97
            total = 0
            for k in self._keys:
                total += self._table.get(k, 0)
            total += sum(self._list[::3])
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def tick(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.durations.append(self.reference_slice())
            self.starts.append(start)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Run a slice every TICK_S seconds until the block ends."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.tick())
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside_s(self, start: float, end: float) -> float:
        """Time the slices that started within [start, end] took."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.durations[lo:hi])

    def slice_s(self, start: float, end: float) -> float:
        """Median reference slice around the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        if hi - lo < MIN_SLICES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.starts)), key=lambda k: abs(self.starts[k] - mid))
            return statistics.median(self.durations[k] for k in nearest[:MIN_SLICES])
        return statistics.median(self.durations[lo:hi])

    def scaled(self, start: float, end: float) -> float:
        """The net time of [start, end], in seconds at the reference speed."""
        net = end - start - self.inside_s(start, end)
        return net * REFERENCE_SLICE_S / self.slice_s(start, end)

    def median_slice_s(self) -> float:
        return statistics.median(self.durations)
