"""A fixed pure-Python reference loop that gauges the host's current speed.

The host this benchmark runs on is shared: the same code runs up to 1.5x
slower for minutes at a time, with no steal time reported, so raw seconds
drift with the neighbours' load rather than with the code.  Every
repetition therefore times this loop, which does the simulator's kind of
work (slotted objects, a heap of tuples, a deque lane, generator sends,
dict stores) and never changes, and reports its times scaled to the speed
at which the loop takes :data:`NOMINAL_S`:

    reported_s = measured_s * NOMINAL_S / reference_s

Raw seconds are kept next to the scaled ones in every report.  Changing
this loop or :data:`NOMINAL_S` changes what a reported second means, so it
bumps ``run.BENCH_VERSION``.
"""

import collections
import heapq
import random
import time

#: the loop's time at the speed reported seconds are scaled to.
NOMINAL_S = 0.05

#: loop iterations; about NOMINAL_S on an unloaded 2-vCPU x86 host.
ITERATIONS = 45_000


class _Event:
    __slots__ = ("at", "seq")

    def __init__(self, at, seq):
        self.at = at
        self.seq = seq

    def fire(self, sink):
        sink.append(self.seq)
        return self.seq & 7


def _consumer(sink):
    while True:
        sink.append((yield))


def _loop(iterations):
    rng = random.Random(7)
    heap, lane, sink, table = [], collections.deque(), [], {}
    consumer = _consumer(sink)
    next(consumer)
    for seq in range(iterations):
        event = _Event(rng.random(), seq)
        heapq.heappush(heap, (event.at, seq, event))
        lane.append(event)
        if len(heap) > 32:
            _at, _seq, due = heapq.heappop(heap)
            kind = due.fire(sink)
            consumer.send(kind)
            table[(kind, seq & 255)] = due
        if len(lane) > 16:
            lane.popleft()
        if len(sink) > 1000:
            sink.clear()


def reference_s():
    """Seconds the reference loop takes right now."""
    start = time.perf_counter()
    _loop(ITERATIONS)
    return time.perf_counter() - start


class Gauge:
    """Samples the reference loop between cells, at most every
    :data:`EVERY_S` of work, so the samples cover a repetition evenly.

    The host's speed also flickers within a second, so one sample is a
    poor estimate; ``run.py`` scales a run by the mean of all its samples.
    """

    EVERY_S = 0.25

    def __init__(self):
        _loop(ITERATIONS // 50)  # warm the interpreter's specialisation
        self.samples = []
        self._last = None

    def sample(self, force=False):
        now = time.perf_counter()
        if force or self._last is None or now - self._last >= self.EVERY_S:
            self.samples.append(reference_s())
            self._last = time.perf_counter()
