"""In-memory span recording and the sample statistics the benchmark reports.

A span is ``(name, start, end, parent, pair)``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``pair`` ties every span of one
simulated (workload, config) pair together.  Spans are kept in a list and
written out when the run ends.  A span's self time is its duration minus
the part of its interval that its children cover.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence


class Spans:
    """Span recorder for one traced run (single-threaded by design)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent, pair]`` rows in opening order.
        self.rows: List[list] = []
        self._open: List[int] = []

    def open(self, name: str, pair: Optional[str] = None) -> int:
        """Start a span under the innermost open one; returns its index."""
        parent = self._open[-1] if self._open else -1
        if pair is None and parent >= 0:
            pair = self.rows[parent][4]
        self.rows.append([name, self.clock(), None, parent, pair])
        self._open.append(len(self.rows) - 1)
        return len(self.rows) - 1

    def close(self, index: int) -> float:
        """End span ``index`` (the innermost open one); returns its duration."""
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.rows[index][0]!r} closed out of order")
        self._open.pop()
        row = self.rows[index]
        row[2] = self.clock()
        return row[2] - row[1]

    def add(self, name: str, start: float, end: float) -> None:
        """Record an already-timed span under the innermost open one."""
        parent = self._open[-1] if self._open else -1
        pair = self.rows[parent][4] if parent >= 0 else None
        self.rows.append([name, start, end, parent, pair])

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(row[2] - row[1] for row in self.rows if row[0] == name)

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        return self_times(self.rows)

    def write(self, path) -> None:
        """Write the spans as JSON (one row per span)."""
        fields = ["name", "start", "end", "parent", "pair"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.rows}, handle)


def self_times(rows: Sequence[Sequence]) -> Dict[str, float]:
    """Self time per span name: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so self times never go negative and the
    self times of a tree sum to its root span's duration.
    """
    children: Dict[int, List[tuple]] = {}
    for row in rows:
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    totals: Dict[str, float] = {}
    for index, (name, start, end, _parent, _pair) in enumerate(rows):
        if end is None:
            raise ValueError(f"span {name!r} was never closed")
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def tail_percentile(count: int, beyond: int = 10) -> int:
    """Highest whole percentile (50-99) with at least ``beyond`` samples above it.

    Uses the nearest-rank percentile: ``p`` selects the sample at rank
    ``ceil(p * count / 100)``, leaving ``count`` minus that rank beyond it.
    48 samples give p79 and 96 give p89.
    """
    for pct in range(99, 49, -1):
        if count - _rank(pct, count) >= beyond:
            return pct
    raise ValueError(f"{count} samples leave fewer than {beyond} beyond the median")


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, _rank(pct, len(ordered))) - 1]


def _rank(pct: int, count: int) -> int:
    return -(-pct * count // 100)


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle two for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
