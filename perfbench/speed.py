"""The machine-speed reference behind the benchmark's end-to-end timings.

On a shared host the same pure-Python work runs up to twice as slow in one
minute as in the next: other tenants share the cores and caches.  Raw wall
times then spread more between two runs than any optimisation moves them.
So a run samples a fixed pure-Python reference loop every PERIOD_S seconds
from a SIGALRM handler, and each goal's wall time is divided by the mean
reference time sampled around it.  The mean, not the median: a goal's wall
time takes in every slow stretch of the host, and so does the mean.
Timings are reported in seconds (or ms) at reference speed: the speed at
which one reference loop takes NOMINAL_S.  The reference loop does not call
bmdl, so a change that makes bmdl slower shows in full.

The handler's own time is subtracted from the goal it interrupts, and the
handler also enforces each goal's wall-clock limit.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

NOMINAL_S = 0.001  # one reference loop at reference speed
PERIOD_S = 0.05  # time between samples
WINDOW_S = 2.5  # samples this far before a goal's start and after its end count for it


class GoalTimeout(BaseException):
    """Raised by the SIGALRM handler inside bmdl; a BaseException, so that
    no handler in the package can swallow it."""


@dataclass(frozen=True)
class _Leaf:
    name: str


@dataclass(frozen=True)
class _Node:
    op: str
    left: object
    right: object


def _tree(i: int, depth: int):
    if depth == 0:
        return _Leaf("abcdefgh"[i % 8])
    return _Node("&|>"[i % 3], _tree(i * 3 + 1, depth - 1), _tree(i * 5 + 2, depth - 1))


def _subterms(t, out: set) -> set:
    out.add(t)
    if isinstance(t, _Node):
        _subterms(t.left, out)
        _subterms(t.right, out)
    return out


def reference_loop(n: int = 3) -> int:
    """Fixed pure-Python work of the kind a prover does: build small trees
    of frozen dataclasses, collect their subterms into sets (dataclass
    hashing and equality), sort them, count them in a dict.  About
    NOMINAL_S on the host the benchmark was written on.  Of the loops tried,
    its time tracked bmdl's best through the host's speed changes."""
    seen: dict[tuple, int] = {}
    for i in range(n):
        subs = _subterms(_tree(i, 5), set())
        key = tuple(sorted(subs, key=repr)[:4])
        seen[key] = seen.get(key, 0) + len(subs)
    return sum(seen.values())


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def scale_of(reference_times: list[float]) -> float:
    """Factor that turns wall seconds into seconds at reference speed."""
    return NOMINAL_S / statistics.fmean(reference_times)


class Clock:
    """Goal timer: samples the reference loop while it runs (sample=True)
    and raises GoalTimeout in a goal that passes its deadline."""

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.times: list[float] = []  # when each reference sample was taken
        self.refs: list[float] = []  # how long it took
        self.paused = 0.0  # total time spent in the handler
        self.deadline = math.inf  # perf_counter() limit of the running goal

    def start(self) -> None:
        """Start ticking; also take a sample at once, so that even a run
        shorter than PERIOD_S has one on each side."""
        self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _sample(self) -> None:
        if self.sample:
            start = perf_counter()
            self.refs.append(time_reference())
            self.times.append(start)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        if start >= self.deadline:
            self.deadline = math.inf
            raise GoalTimeout()
        self._sample()
        self.paused += perf_counter() - start

    def scale(self, start: float, end: float) -> float:
        """scale_of() the samples taken from WINDOW_S before start to
        WINDOW_S after end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return scale_of(self.refs[lo:hi] or self.refs)
