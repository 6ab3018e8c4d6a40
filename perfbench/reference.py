"""A fixed reference kernel that samples how fast the machine runs right now.

On a shared host, the same verdict pass can take anywhere between 1× and 2×
its best time, in phases lasting seconds to minutes, and all workloads slow
down together.  The kernel below is benchmark-owned code
of the same kind as treelts (frozen dataclass states, dict and set lookups,
list appends, frozensets): a breadth-first search over the product of two
fixed random rings.  Timed between units of work, its median tracks the
machine's speed over the same window, so a time multiplied by
``REFERENCE_S / median(kernel)`` reads as seconds on a machine that runs the
kernel in ``REFERENCE_S``.

Changing the kernel or ``REFERENCE_S`` rescales every normalised timing, so
both stay as they are.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass

#: Kernel time, in seconds, that normalised timings are expressed against.
REFERENCE_S = 0.05


@dataclass(frozen=True)
class _Pair:
    phase: int
    left: str
    right: str


def kernel() -> int:
    """Breadth-first search over a fixed 30 × 30 product; returns its edges."""
    rng = random.Random(1)
    n = 30
    moves = [
        {f"s{i}": [(f"a{rng.randrange(4)}", f"s{rng.randrange(n)}") for _ in range(3)]
         + [("t", f"s{(i + 1) % n}")] for i in range(n)}
        for _ in range(2)
    ]
    start = _Pair(0, "s0", "s0")
    seen = {start: 0}
    frontier = [start]
    edges = []
    while frontier:
        nxt = []
        for p in frontier:
            for act, dst in moves[0][p.left]:
                for act2, dst2 in moves[1][p.right]:
                    if act == act2 or act2 == "t":
                        q = _Pair((p.phase + 1) % 3, dst, dst2 if act2 != "t" else p.right)
                        if q not in seen:
                            seen[q] = len(seen)
                            nxt.append(q)
                        edges.append((seen[p], act, seen[q], frozenset((0, 1))))
        frontier = nxt
    return len(edges)


class SpeedProbe:
    """Times the kernel after every ``every_s`` seconds of measured work."""

    def __init__(self, every_s: float = 0.5) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self._since = 0.0
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def tick(self, worked_s: float) -> None:
        self._since += worked_s
        if self._since >= self.every_s:
            self._since = 0.0
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured in this window into seconds at
        the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
