"""A fixed unit of host work, timed next to the program to gauge host speed.

On a shared virtual machine the speed of a core drifts by 20% or more
over seconds to minutes as other tenants come and go, and a whole run of
the benchmark can sit in a slow or a fast spell.  The probe is frozen
code of this directory (nothing of ``repro``), so a change to the
program never moves it: a Python dictionary count and a NumPy gather and
sort over a table larger than the core's caches, the same mix of
interpreter and memory work the simulator does.  A time measured between
two probes is divided by their mean and multiplied by
:data:`REFERENCE_S`, which gives seconds at the probe's reference speed;
on a 2-core shared host this tracks a pair's time with a log-log slope
of about 1.0.  The cores of such a host drift apart too, so a probe
measures every core the process may run on (the sweep's pool uses both;
the other workloads hold the process on one).  A probe takes about 5 ms
per core; the table adds 16 MiB to the resident set.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence

import numpy as np

clock = time.perf_counter

#: Median probe time on an idle 2-core x86-64 virtual machine (Intel
#: Xeon, Python 3.11): normalized times are seconds at that speed.
REFERENCE_S = 0.005


class Probe:
    """The frozen probe; its inputs are built once, from a fixed seed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20170624)
        #: 16 MiB of int64: beyond a core's private caches.
        self.table = rng.integers(0, 1 << 30, size=1 << 21)
        self.index = rng.integers(0, self.table.size, size=1 << 16)
        self.keys = rng.integers(0, 1 << 12, size=1 << 14).tolist()
        #: The cores this process may run on; a probe measures each.
        self.cores = sorted(os.sched_getaffinity(0))
        #: Seconds of every probe so far, in order.
        self.taken: List[float] = []
        #: ``time.time()`` at the end of each probe, for matching probes
        #: to intervals another process stamped.
        self.stamps: List[float] = []

    def once(self) -> float:
        """Seconds for one probe: the mean over :attr:`cores`, one probe on each."""
        times = []
        for core in self.cores:
            os.sched_setaffinity(0, {core})
            times.append(self._time())
        os.sched_setaffinity(0, self.cores)
        seconds = sum(times) / len(times)
        self.taken.append(seconds)
        self.stamps.append(time.time())
        return seconds

    def _time(self) -> float:
        start = clock()
        counts: dict = {}
        for key in self.keys:
            counts[key] = counts.get(key, 0) + 1
        np.sort(self.table[self.index])
        return clock() - start

    def sample(self, count: int) -> List[float]:
        """Seconds for each of ``count`` probes in a row."""
        return [self.once() for _ in range(count)]

    def since(self, mark: int) -> float:
        """Scale to reference speed from the probes taken since ``len(taken)`` was ``mark``."""
        return factor(self.taken[mark:])

    def around(self, start: float, end: float, slack: float, mark: int = 0) -> float:
        """Scale for the ``time.time()`` interval ``start``..``end``.

        Uses the probes (since ``mark``) that ended within ``slack``
        seconds of the interval, or all since ``mark`` if none did.
        """
        near = [
            seconds
            for seconds, stamp in zip(self.taken[mark:], self.stamps[mark:])
            if start - slack <= stamp <= end + slack
        ]
        return factor(near or self.taken[mark:])


def factor(probes: Sequence[float]) -> float:
    """Scale from host seconds to reference seconds, given probes taken around them."""
    return REFERENCE_S * len(probes) / sum(probes)


def between(probes: Sequence[float]) -> List[float]:
    """Scale for each interval between consecutive probes (one fewer than probes)."""
    return [factor(probes[i:i + 2]) for i in range(len(probes) - 1)]
