"""A speed reference for the host, independent of the program measured.

The machines this benchmark runs on share their cores: for seconds or
minutes at a time every instruction takes up to half again as long,
whatever the code (a pure-Python loop and the simulator slowed by
x1.47 and x1.46 in the same 20 s window), and a whole run can fall
inside such a period.  A floor over the run's own rounds cannot see
that; a reference with a known quiet-host time can.

:func:`sample` times a fixed kernel of about half a millisecond, written in
the simulator's style (objects with slots ticking one another, a dict
and short lists) but sharing no code with it, so no change to ``repro``
can move it.  The timing loop takes one sample after every chunk; the
level of a run's samples over :data:`REFERENCE_S` is how slow the host
was during that run, and the run's times are divided by it.  Times are
therefore in seconds of a host on which the kernel takes
``REFERENCE_S``: the quiet state of the machine the benchmark was
written on.  On another machine every time scales alike, which leaves
comparisons between commits on one machine untouched.

The level is the samples' 10th percentile, not their minimum: over
synthetic contention patterns and quiet runs the minimum of a thousand
samples moved by 3.4% between quiet runs and the 10th percentile by
1.4%, where the unscaled floors themselves moved by 0.7%.
"""

import time

#: Level of :func:`sample` on the committing machine when quiet.
REFERENCE_S = 0.448e-3

_RING = 64
_CYCLES = 90


class _Cell:
    __slots__ = ("value", "next", "count")

    def __init__(self):
        self.value = 0
        self.next = None
        self.count = 0

    def tick(self, cycle):
        following = self.next
        if following.value is None or cycle & 3:
            self.count += 1
            following.value = self.count
        else:
            self.value = None


def _ring():
    cells = [_Cell() for _ in range(_RING)]
    for index, cell in enumerate(cells):
        cell.next = cells[(index + 1) % _RING]
    return cells


def _kernel():
    cells = _ring()
    table = {}
    start = time.perf_counter()
    for cycle in range(_CYCLES):
        for cell in cells:
            cell.tick(cycle)
        table[cycle & 63] = [cell.count for cell in cells[:8]]
    return time.perf_counter() - start


def sample():
    """Seconds the kernel takes right now: the better of two goes.

    The first go after a chunk that left this process waiting (a pooled
    sweep batch) runs some 3% slow on a core that has to wake up.
    """
    return min(_kernel(), _kernel())


def slowdown(samples):
    """How many times slower than the reference the host ran."""
    ordered = sorted(samples)
    return ordered[len(ordered) // 10] / REFERENCE_S
