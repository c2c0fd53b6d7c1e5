"""Host speed sampling, to take the host's own speed out of the timings.

The benchmark runs on a few cores of a shared host, whose speed moves by a
quarter or more from one minute to the next: a fixed loop of pure Python
takes that much longer or shorter, with the program not involved. A
``SpeedSampler`` runs a fixed reference kernel every ``INTERVAL_S`` seconds
while a pass runs, from a ``SIGALRM`` handler in the same thread. Each
stretch of program time between two samples is scaled by ``REFERENCE_S``
over the mean time of the kernel at its two ends; ``work`` sums the scaled
stretches. So ``work`` is what the program's share of the pass would have
taken on a host on which the kernel takes ``REFERENCE_S``, with the host's
speed taken where the time was spent. The kernel is the benchmark's own code
and calls nothing of the program, so a change to the program moves the
program's time and not the kernel's.

The kernel mixes the interpreter work the analyzer is made of: integer and
dict arithmetic, list indexing in a unit-propagation loop, hashing a tree of
tuples, and loads from a table larger than the processor's caches in a
pseudo-random order. Timed next to runs of the analyzer's CDCL search and
term walks, this mix tracked both more closely than any of its parts alone.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from time import perf_counter

INTERVAL_S = 0.25
# about the kernel's time on the host the reference figures were taken on
# (2-vCPU Xeon VM, Python 3.11), so that scaled seconds read about as wall
# seconds there
REFERENCE_S = 0.005

TABLE_WORDS = 1 << 20  # 8 MiB of 64-bit words
TABLE_MASK = TABLE_WORDS - 1
TABLE_MB = TABLE_WORDS * array("q").itemsize / 2**20

CLAUSES = [((i * 7) % 64 + 1, -((i * 13) % 64 + 1), (i * 29) % 64 + 1)
           for i in range(200)]


def _tree(depth: int, x: int) -> tuple:
    if depth == 0:
        return ("leaf", x)
    return ("add", _tree(depth - 1, x), _tree(depth - 1, x + depth))


def _walk(t: tuple) -> int:
    if t[0] == "leaf":
        return hash(t)
    return hash((t[0], _walk(t[1]), _walk(t[2])))


class Kernel:
    """A fixed amount of interpreter work; one call is one speed sample."""

    def __init__(self) -> None:
        self.tree = _tree(10, 3)
        self.table = array("q", [0]) * TABLE_WORDS
        self.cursor = 1

    def _arith(self) -> int:
        d: dict[int, int] = {}
        acc = 0
        for i in range(4000):
            k = i & 255
            d[k] = d.get(k, 0) + i
            acc ^= (i * 2654435761) & 0xFFFFFFFF
        return acc

    def _propagate(self) -> int:
        n = 0
        for _ in range(12):
            assign = [0] * 65
            trail = []
            for clause in CLAUSES:
                for lit in clause:
                    v = assign[abs(lit)]
                    if v == 0:
                        assign[abs(lit)] = 1 if lit > 0 else -1
                        trail.append(lit)
                        n += 1
                        break
                    if (v > 0) == (lit > 0):
                        n += 1
                        break
        return n

    def _chase(self) -> int:
        # full-period linear congruential walk over the table
        table, x, acc = self.table, self.cursor, 0
        for _ in range(6000):
            x = (x * 1103515245 + 12345) & TABLE_MASK
            acc += table[x]
        self.cursor = x
        return acc

    def __call__(self) -> None:
        self._arith()
        self._propagate()
        _walk(self.tree)
        self._chase()


class SpeedSampler:
    """Samples the kernel's time every INTERVAL_S while entered.

    The kernel runs with the garbage collector paused, so that no collection
    of the program's objects lands in a sample. It samples once on entry and
    once on exit, so the code run inside lies between two samples. ``work``
    is the time between the samples, the sampler's own time left out, scaled
    to the reference speed.
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[float] = []
        self.work = 0.0
        self._last_end: float | None = None
        self._previous = None

    def sample(self) -> None:
        start = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.kernel()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if self._last_end is not None:
            self.work += ((start - self._last_end) * REFERENCE_S
                          / ((self.samples[-1] + took) / 2))
        self.samples.append(took)
        self._last_end = perf_counter()

    def _tick(self, *_signal) -> None:
        self.sample()
        # re-armed after the sample, so that samples never nest
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> SpeedSampler:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self) -> float:
        """REFERENCE_S over the mean kernel time, for a stretch of time
        measured next to the samples rather than between them."""
        return REFERENCE_S / statistics.mean(self.samples)

