"""Fixed reference kernels that gauge the host's speed during a run.

The benchmark shares a few cores of a busy host whose speed swings by
20-40%, often several times within one operation, and a pure CPU loop
swings with it.  ``Gauge`` times a short reference kernel every
``INTERVAL_S`` seconds, from a timer signal, so also in the middle of the
program's operations.  ``run.py`` takes an operation's time without the
gauge's own time and states it at nominal host speed: divided by the mean
slowdown (kernel seconds over the kernel's nominal seconds) sampled while
it ran.

The kernels are frozen here and never call the program, so a change to
the program changes only the program's side of that ratio.  Two do the
kind of work the program's hot path does in pure Python, unit
vertex-capacity augmenting-path max-flow on seeded graphs; the third does
small dense linear algebra in numpy, as the oracle does.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from collections import deque

# Seconds between samples.
INTERVAL_S = 0.05

_rng = random.Random("secindex-bench/reference")


def _graph(n: int) -> tuple[tuple[int, ...], ...]:
    """Successor lists of a seeded digraph with mean out-degree 3."""
    return tuple(tuple(w for w in range(n) if w != v and _rng.random() < 3 / n) for v in range(n))


_SMALL = _graph(60)
_WIDE = _graph(240)


def _max_flow(succ: tuple[tuple[int, ...], ...], sources: tuple[int, ...], targets: tuple[int, ...]) -> int:
    """Vertex-disjoint paths from ``sources`` to ``targets``."""
    n = len(succ)
    # Vertex v splits into 2v -> 2v+1; s and t are the last two nodes.
    s, t = 2 * n, 2 * n + 1
    adj: list[list[int]] = [[] for _ in range(2 * n + 2)]
    cap: dict[tuple[int, int], int] = {}

    def arc(u: int, v: int) -> None:
        adj[u].append(v)
        adj[v].append(u)
        cap[u, v] = cap.get((u, v), 0) + 1
        cap.setdefault((v, u), 0)

    for v in range(n):
        arc(2 * v, 2 * v + 1)
        for w in succ[v]:
            arc(2 * v + 1, 2 * w)
    for v in sources:
        arc(s, 2 * v)
    for v in targets:
        arc(2 * v + 1, t)
    flow = 0
    while True:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[u, v] > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while v != s:
            u = parent[v]
            cap[u, v] -= 1
            cap[v, u] += 1
            v = u
        flow += 1


def _subset_flows() -> int:
    """Max-flow on a small graph for every nonempty subset of three sources."""
    return sum(
        _max_flow(_SMALL, tuple(v for v in range(3) if mask >> v & 1), tuple(range(40, 52)))
        for mask in range(1, 8)
    )


def _wide_flow() -> int:
    """One max-flow on a larger graph, whose tables outgrow the small one's."""
    return _max_flow(_WIDE, tuple(range(8)), tuple(range(228, 240)))


# Kernels, each with its seconds per call on an unloaded host (x86_64,
# Python 3.11) and its result.  Samples take them in turn: no single kernel
# slows just as the program does when the host is busy, and their mean
# follows it more closely than any one of them.
KERNELS = ((_subset_flows, 0.001, 12), (_wide_flow, 0.0009, 6))


def with_numpy() -> tuple:
    """``KERNELS`` plus small dense complex linear algebra, as the oracle does.

    Call it once the program has imported numpy, so that the import still
    counts as the program's, and outside the timer signal: it builds the
    matrices and binds the numpy functions, so that a sample never starts
    an import.  Uses ``eigvalsh``, not ``svd``, which the tracer counts.
    """
    import numpy

    rng = random.Random("secindex-bench/reference/linalg")
    matrices = [
        numpy.array([[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(18)] for _ in range(18)])
        for _ in range(4)
    ]
    solve, eigvalsh = numpy.linalg.solve, numpy.linalg.eigvalsh

    def linalg() -> int:
        ranks = 0
        for m in matrices:
            a = solve(m, m.T)
            ranks += int((eigvalsh(a @ a.conj().T) > 1e-9).sum())
        return ranks

    if linalg() != 72:  # also makes any first-call set-up in numpy happen here
        raise AssertionError("reference kernel linalg gave another result")
    return (*KERNELS, (linalg, 0.00035, 72))


class Gauge:
    """Kernel samples taken every ``INTERVAL_S``, and a clock that skips them.

    Use as a context manager; ``clock`` readings taken inside it exclude
    the time spent sampling, and ``at_nominal`` scales the span between
    two readings by the samples taken around it.
    """

    def __init__(self, kernels: tuple = KERNELS) -> None:
        self.kernels = kernels
        self.spent = 0.0  # seconds spent sampling
        self.times: list[float] = []  # clock reading at each sample
        self.slowdown: list[float] = []  # each sample's seconds over its kernel's nominal
        self._previous = None
        self._sampling = False
        self._turn = 0

    def __enter__(self) -> Gauge:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:  # a slow sample can outlast the interval
            self.sample()

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def sample(self) -> None:
        """Time one call of the next kernel now."""
        self._sampling = True
        kernel, nominal, expected = self.kernels[self._turn % len(self.kernels)]
        self._turn += 1
        start = time.perf_counter()
        if kernel() != expected:
            raise AssertionError(f"reference kernel {kernel.__name__} gave another result")
        end = time.perf_counter()
        self.times.append(start - self.spent)
        self.slowdown.append((end - start) / nominal)
        self.spent += time.perf_counter() - start
        self._sampling = False

    def at_nominal(self, start: float, end: float) -> float:
        """Clock span ``start``..``end`` at nominal speed.

        Uses the samples taken inside the span and the nearest one on each
        side; take a sample after the span before calling this.
        """
        lo = max(bisect.bisect_left(self.times, start) - 1, 0)
        hi = bisect.bisect_right(self.times, end) + 1
        around = self.slowdown[lo:hi]
        return (end - start) * len(around) / sum(around)
