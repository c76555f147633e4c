"""The machine's speed during a pass, sampled with a fixed reference chunk.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to 2x within seconds, for every program on it alike.  A pass is one call that
cannot be split, so the speed is sampled inside it: a SIGALRM every
``INTERVAL_S`` runs ``_chunk``, a fixed piece of pure-Python work that does
not touch ``mseg``, and times it.  The mean chunk time over a pass tracks the
pass's own slowdowns closely (correlation 0.93 to 0.97 over passes of one
seed), so a time divided by it, rescaled to ``NOMINAL_CHUNK_S``, stays steady
while the raw time drifts.

``Sampler.clock`` leaves the chunks out of the times it measures, and
``normalise`` turns such a time into seconds at nominal speed.  The chunks
cost about 3 % of a pass.
"""

from __future__ import annotations

import signal
import statistics
import time

clock = time.perf_counter

INTERVAL_S = 0.01
# about the chunk's time on a quiet 2-vCPU Intel Xeon VM with Python 3.11; it
# only scales normalised times to what that machine measures when it is quiet
NOMINAL_CHUNK_S = 6e-5
# a chunk this many times the median was preempted, not slowed; left out
SPIKE = 5

_P = 2147483647
_N = 9


def _chunk() -> int:
    """Rank mod p of a fixed 9x9 matrix: list, int and modular work."""
    a = [[(i * 31 + j * 17 + i * j) % _P for j in range(_N)] for i in range(_N)]
    rank = 0
    for c in range(_N):
        pivot = next((i for i in range(rank, _N) if a[i][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][c], _P - 2, _P)
        for i in range(rank + 1, _N):
            f = a[i][c] * inv % _P
            if f:
                a[i] = [(x - f * y) % _P for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank


class Sampler:
    def __init__(self) -> None:
        self.chunks: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        # The untimed first run brings the chunk back into the caches the pass
        # evicted it from, so the timed run measures the machine, not how
        # much cache the pass uses.
        t0 = clock()
        _chunk()
        t1 = clock()
        _chunk()
        t2 = clock()
        self.chunks.append(t2 - t1)
        self.spent += t2 - t0

    def start(self) -> None:
        _chunk()  # let the interpreter specialise it before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """A perf_counter that stands still while a chunk runs."""
        spent = self.spent
        return clock() - spent

    def chunk_s(self) -> float:
        """Mean chunk time, without the chunks that were preempted."""
        cap = SPIKE * statistics.median(self.chunks)
        return statistics.mean(c for c in self.chunks if c < cap)


def normalise(seconds: float, chunk_s: float) -> float:
    """`seconds` measured while a chunk took `chunk_s`, at nominal speed."""
    return seconds * NOMINAL_CHUNK_S / chunk_s
