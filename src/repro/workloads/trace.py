"""Trace representation consumed by the simulation engine.

A workload is a sequence of kernel launches; a kernel launch is a CTA count
plus a function producing, for any CTA index, the memory/compute trace of
each of its warp groups.  Traces are generated lazily (at CTA dispatch
time) and deterministically (same CTA index -> same trace), which both
bounds memory use and gives iterative kernels their cross-kernel locality
for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np


class TraceRecord(NamedTuple):
    """One step of a warp group: a burst of compute then a memory batch.

    ``compute_cycles`` is the latency of the arithmetic section;
    ``reads``/``writes`` are line addresses issued together (the group's
    memory-level parallelism).
    """

    compute_cycles: float
    reads: Tuple[int, ...]
    writes: Tuple[int, ...]

    @property
    def n_accesses(self) -> int:
        """Loads plus stores in this record."""
        return len(self.reads) + len(self.writes)


#: The full trace of one CTA: one record list per warp group.  The engine
#: also accepts a :class:`ColumnarCTATrace`, which carries the same records
#: as numpy columns and materializes either view on demand.
CTATrace = List[List[TraceRecord]]


class WalkGeometry(NamedTuple):
    """The memory-system shape a trace's fast records are specialized against.

    Fast records carry each record's issue busy time pre-divided by the
    SM's ``issue_throughput``, the only system property they depend on.
    Set indices and homing keys are not precomputed: the generated walkers
    derive them from the line address, which costs the same as reading a
    precomputed entry back.
    """

    issue_throughput: float


class ColumnarCTATrace:
    """One CTA's trace as numpy columns plus record/group geometry.

    The generators in :mod:`repro.workloads.patterns` already produce flat
    int64 address arrays; this class keeps that vectorization instead of
    immediately exploding it into per-record Python tuples.  Three views
    are materialized on demand:

    * ``addrs`` / ``is_write`` — the columns themselves (addresses are a
      ``(n_groups, accesses_per_group)`` int64 array, reads-before-writes
      within each record; ``is_write`` marks the store positions and is
      shared by all groups, whose record structure is identical).
    * :meth:`base_groups` — classic ``List[List[TraceRecord]]`` records
      for the reference per-line path and any external consumer (cached).
    * :meth:`fast_groups` — records specialized for one
      :class:`WalkGeometry`: ``(compute_cycles, issue_busy, reads,
      writes)`` tuples whose ``reads``/``writes`` are the same plain line
      tuples :meth:`base_groups` holds.  Both memory paths (generated
      walkers and ``load_batch``/``store_batch``) consume them.  Cached per
      geometry (benchmark harnesses interleave several configurations over
      the same memoized traces, so a one-slot cache would thrash and
      repack on every config switch).
    """

    __slots__ = (
        "addrs",
        "is_write",
        "compute_cycles",
        "n_groups",
        "_spans",
        "_base",
        "_fast",
        "_unique_key",
    )

    def __init__(
        self,
        addrs: "np.ndarray",
        is_write: "np.ndarray",
        spans: List[Tuple[int, int, int]],
        compute_cycles: float,
    ) -> None:
        self.addrs = addrs
        self.is_write = is_write
        self.compute_cycles = compute_cycles
        self.n_groups = addrs.shape[0]
        #: Per-record ``(start, reads_end, end)`` column spans (identical
        #: for every group of this CTA).
        self._spans = spans
        self._base: list = None
        self._fast: dict = None
        #: Memo for the engine's kernel-wide address-uniqueness probe:
        #: ``(n_ctas, all_unique)`` for the launch this trace fronted.
        self._unique_key = None

    @classmethod
    def from_flat(
        cls,
        lines: "np.ndarray",
        n_groups: int,
        write_period: int,
        accesses_per_record: int,
        compute_cycles: float,
    ) -> "ColumnarCTATrace":
        """Build from a flat per-CTA address stream.

        Mirrors ``records_from_arrays`` applied to each equal-length group
        slice of ``lines``: every ``write_period``-th access (1-indexed
        within its group) is a store, records batch ``accesses_per_record``
        accesses with the partial tail kept, and loads keep their relative
        order ahead of stores within a record.
        """
        if accesses_per_record <= 0:
            raise ValueError(
                f"accesses_per_record must be positive, got {accesses_per_record}"
            )
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        flat = np.asarray(lines, dtype=np.int64)
        per_group, leftover = divmod(flat.size, n_groups)
        if leftover:
            raise ValueError(
                f"{flat.size} accesses do not divide into {n_groups} equal groups"
            )
        positions = np.arange(1, per_group + 1, dtype=np.int64)
        if write_period:
            mask = positions % write_period == 0
        else:
            mask = np.zeros(per_group, dtype=bool)
        # Stable reorder: group accesses by record, reads ahead of writes,
        # original order preserved within each class.  The permutation is
        # the same for every group, so it is computed once and applied to
        # the whole 2-D address block in one fancy-index.
        record_ids = (positions - 1) // accesses_per_record
        order = np.lexsort((positions, mask, record_ids))
        addrs = flat.reshape(n_groups, per_group)[:, order]
        is_write = mask[order]
        starts = list(range(0, per_group, accesses_per_record))
        if starts:
            read_counts = np.add.reduceat(
                (~mask).astype(np.int64), np.array(starts, dtype=np.int64)
            )
        else:
            read_counts = []
        spans = [
            (start, start + int(reads), min(start + accesses_per_record, per_group))
            for start, reads in zip(starts, read_counts)
        ]
        return cls(addrs, is_write, spans, compute_cycles)

    @property
    def spans(self) -> List[Tuple[int, int, int]]:
        """Per-record ``(start, reads_end, end)`` column spans.

        Together with ``addrs`` and ``compute_cycles`` this is the trace's
        complete semantic content: the engine derives everything else
        (including the read/write split — ``is_write`` is a convenience
        view) from these three.  Exporters serialize exactly this triple.
        """
        return self._spans

    def __len__(self) -> int:
        return self.n_groups

    def __iter__(self):
        return iter(self.base_groups())

    def __getitem__(self, index):
        return self.base_groups()[index]

    def base_groups(self) -> CTATrace:
        """The classic ``TraceRecord`` view (cached after first use)."""
        base = self._base
        if base is None:
            compute_cycles = self.compute_cycles
            spans = self._spans
            base = []
            for row_list in self.addrs.tolist():
                base.append(
                    [
                        TraceRecord(
                            compute_cycles,
                            tuple(row_list[start:mid]),
                            tuple(row_list[mid:end]),
                        )
                        for start, mid, end in spans
                    ]
                )
            self._base = base
        return base

    def fast_groups(self, geometry: WalkGeometry):
        """Records specialized for ``geometry`` (cached per geometry).

        Records are ``(compute_cycles, issue_busy, reads, writes)`` with
        plain line tuples.  ``issue_busy`` is accumulated with the same
        left-to-right float arithmetic as ``SM.charge_issue`` so the
        engine's timing is bit-identical.
        """
        cache = self._fast
        if cache is None:
            cache = self._fast = {}
        else:
            cached = cache.get(geometry)
            if cached is not None:
                return cached
        compute_cycles = self.compute_cycles
        throughput = geometry.issue_throughput
        spans = [
            (start, mid, end, (compute_cycles + (mid - start) + (end - mid)) / throughput)
            for start, mid, end in self._spans
        ]
        groups = [
            [
                (compute_cycles, busy, tuple(row[start:mid]), tuple(row[mid:end]))
                for start, mid, end, busy in spans
            ]
            for row in self.addrs.tolist()
        ]
        cache[geometry] = groups
        return groups


@dataclass(frozen=True)
class KernelLaunch:
    """One kernel invocation.

    Attributes
    ----------
    n_ctas:
        Grid size in CTAs.
    groups_per_cta:
        Warp groups per CTA (8 paper warps each).
    trace_fn:
        ``trace_fn(cta_index) -> CTATrace``; must be deterministic.
    label:
        Human-readable identifier ("kmeans.k2" etc.).
    """

    n_ctas: int
    groups_per_cta: int
    trace_fn: Callable[[int], CTATrace]
    label: str = "kernel"

    def __post_init__(self) -> None:
        if self.n_ctas <= 0:
            raise ValueError(f"n_ctas must be positive, got {self.n_ctas}")
        if self.groups_per_cta <= 0:
            raise ValueError(f"groups_per_cta must be positive, got {self.groups_per_cta}")


class TraceMemo:
    """Per-workload memo of materialized CTA traces.

    Trace functions are deterministic (same trace seed + CTA index -> same
    trace) and the engine treats traces as read-only, so one
    materialization can be handed out again and again: across kernel
    launches (iteration-structured kernels re-walk identical traces) and
    across runs (a suite simulates the same workload object on many
    systems back to back).  Trace generation — RNG streams, pattern
    synthesis, record packing — disappears from every walk but the first.

    Memory stays bounded by the workload itself: the memo holds at most
    one trace per (trace seed, CTA index) pair, i.e. the same volume of
    records the engine must materialize anyway for a single pass over the
    workload's distinct kernels.
    """

    __slots__ = ("_cache", "materializations", "reuses")

    def __init__(self) -> None:
        self._cache: dict = {}
        #: Builder invocations (cache misses) — tests assert reuse by
        #: checking this stays flat across repeated walks.
        self.materializations = 0
        #: Traces served from the memo without regeneration.
        self.reuses = 0

    def wrap(self, trace_seed: int, builder: Callable[[int], CTATrace]):
        """A memoizing ``trace_fn`` for the kernel variant ``trace_seed``."""
        cache = self._cache

        def trace_fn(cta_index: int) -> CTATrace:
            key = (trace_seed, cta_index)
            trace = cache.get(key)
            if trace is None:
                trace = builder(cta_index)
                cache[key] = trace
                self.materializations += 1
            else:
                self.reuses += 1
            return trace

        return trace_fn

    def __len__(self) -> int:
        return len(self._cache)

    def clear(self) -> None:
        """Drop all memoized traces (they regenerate on demand)."""
        self._cache.clear()


class Workload:
    """Base interface: a named, categorized sequence of kernel launches."""

    name: str = "workload"

    def kernels(self) -> Iterator[KernelLaunch]:
        """Yield kernel launches in program order."""
        raise NotImplementedError

    def digest(self) -> str:
        """Stable identity string for result caching."""
        raise NotImplementedError


def records_from_arrays(
    lines: Sequence[int],
    write_period: int,
    accesses_per_record: int,
    compute_cycles: float,
) -> List[TraceRecord]:
    """Pack a flat line-address sequence into :class:`TraceRecord` batches.

    Every ``write_period``-th access (1-indexed) becomes a store;
    ``write_period`` of zero means no stores.  The final partial record is
    kept (workloads rarely divide evenly).
    """
    if accesses_per_record <= 0:
        raise ValueError(f"accesses_per_record must be positive, got {accesses_per_record}")
    records: List[TraceRecord] = []
    total = len(lines)
    for start in range(0, total, accesses_per_record):
        batch = lines[start : start + accesses_per_record]
        reads: List[int] = []
        writes: List[int] = []
        for offset, line in enumerate(batch):
            position = start + offset + 1
            if write_period and position % write_period == 0:
                writes.append(int(line))
            else:
                reads.append(int(line))
        records.append(TraceRecord(compute_cycles, tuple(reads), tuple(writes)))
    return records


def write_period_from_fraction(write_fraction: float) -> int:
    """Convert a store fraction into the modular period used by traces."""
    if not 0.0 <= write_fraction < 1.0:
        raise ValueError(f"write_fraction must be in [0, 1), got {write_fraction}")
    if write_fraction == 0.0:
        return 0
    return max(1, round(1.0 / write_fraction))
