"""Event-driven simulation engine.

The engine advances a global min-heap of warp-group readiness events.
Executing one :class:`~repro.workloads.trace.TraceRecord` charges the SM's
issue ports, routes the record's loads and stores through the memory
system, and re-arms the group at ``issue_start + max(compute, memory)`` —
the classic GPU latency-hiding model where a group's arithmetic overlaps
its own memory batch and other groups fill the SM in the meantime.

CTA lifecycle: the configured scheduler places an initial wave of CTAs
breadth-first across SMs, then refills an SM whenever one of its resident
CTAs retires.  Kernels run back-to-back; every kernel boundary flushes the
software-coherent caches (L1, L1.5) exactly as Section 5.1.1 requires.
"""

from __future__ import annotations

import os
from heapq import heappop, heappush
from math import inf
from typing import List, Optional

import numpy as np

from ..core.gpu import GPUSystem
from ..memory.cache import CacheStats
from ..sched.distributed import make_scheduler
from ..workloads.trace import KernelLaunch, Workload
from .result import SimResult


def _perline_requested() -> bool:
    """True when ``REPRO_SIM_PERLINE`` forces the reference per-line path.

    Debug/verification knob: the batched memory path is the production
    default; the per-line path is kept as the executable specification the
    bit-identity suite diffs against (tests/test_perf_identity.py).
    """
    return os.environ.get("REPRO_SIM_PERLINE", "") not in ("", "0")


class _CTA:
    """Bookkeeping for one resident CTA."""

    __slots__ = ("index", "groups_left", "sm")

    def __init__(self, index: int, groups_left: int, sm) -> None:
        self.index = index
        self.groups_left = groups_left
        self.sm = sm


class _WarpGroup:
    """One schedulable warp group walking its record list.

    ``walk`` is the SM's generated memory walker when the walker fast path
    is active, or ``None``: the group's fast 4-tuple records then go
    through ``load_batch``/``store_batch``, or it carries classic
    :class:`TraceRecord` lists.
    """

    __slots__ = ("cta", "records", "position", "walk")

    def __init__(self, cta: _CTA, records, walk=None) -> None:
        self.cta = cta
        self.records = records
        self.position = 0
        self.walk = walk


def _pack_plain_trace(trace, geometry):
    """Fast records for a hand-built ``CTATrace`` and one :class:`WalkGeometry`.

    Synthetic workloads produce :class:`ColumnarCTATrace` objects that
    derive (and cache) their fast records themselves; plain record-list
    traces (tests, ad-hoc workloads) are small enough to pack per launch.
    """
    throughput = geometry.issue_throughput
    return [
        [
            (
                record.compute_cycles,
                (record.compute_cycles + len(record.reads) + len(record.writes))
                / throughput,
                record.reads,
                record.writes,
            )
            for record in records
        ]
        for records in trace
    ]


def _kernel_addrs_unique(kernel: KernelLaunch) -> bool:
    """True when no line address repeats anywhere in the kernel's traces.

    Such a kernel cannot hit in the write-through levels that are flushed
    at its boundaries (L1, L1.5) — a hit needs a second access to a line —
    so the walkers' ``walk_u`` flavor may skip those levels' dict work
    outright.  Only columnar traces are probed (their address columns make
    the check a few array ops); the verdict is memoized on the first CTA's
    trace, which the per-workload trace memo keeps alive across runs.
    """
    trace_fn = kernel.trace_fn
    trace0 = trace_fn(0)
    addrs0 = getattr(trace0, "addrs", None)
    if addrs0 is None:
        return False
    cached = trace0._unique_key
    if cached is not None and cached[0] == kernel.n_ctas:
        return cached[1]
    arrays = [addrs0.reshape(-1)]
    total = addrs0.size
    unique = True
    for cta in range(1, kernel.n_ctas):
        addrs = getattr(trace_fn(cta), "addrs", None)
        if addrs is None:
            unique = False
            break
        arrays.append(addrs.reshape(-1))
        total += addrs.size
    if unique:
        flat = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
        unique = int(np.unique(flat).size) == total
    trace0._unique_key = (kernel.n_ctas, unique)
    return unique


class SimulationEngine:
    """Runs workloads on a :class:`~repro.core.gpu.GPUSystem`."""

    def __init__(self, system: GPUSystem) -> None:
        self.system = system
        self.scheduler = make_scheduler(system.config.scheduler, system)
        self.records_executed = 0
        self.ctas_executed = 0
        self.kernels_executed = 0
        # Telemetry sampling state.  With no probe attached the boundary
        # stays at +inf, so the event loop's only telemetry residue is one
        # always-false float comparison per record — results are
        # bit-identical with or without the subsystem.
        self._telemetry = None
        self._next_sample = inf
        #: Batched memory path (load_batch/store_batch) vs the reference
        #: per-line path.  Both produce bit-identical results; the flag
        #: exists so the identity suite can diff them.
        self.batched = not _perline_requested()
        # Array-backed fast-path state: the geometry traces are
        # specialized against and the per-SM generated walkers (None outside
        # the fast path / for migrating placement).  ``_fast_cache``
        # holds the one-time (walkers, geometry) build for this system.
        self._geometry = None
        self._walkers = None
        self._fast_cache = None
        # True while the current kernel's addresses are globally unique
        # (selects the walkers' L1/L1.5-skipping flavor).
        self._kernel_unique = False

    # ------------------------------------------------------------------

    def run(self, workload: Workload) -> SimResult:
        """Simulate ``workload`` to completion and return its result."""
        self.system.reset()
        # Fresh scheduler per run: the centralized policy carries
        # cross-launch placement state (its fill rotation) that must not
        # leak between independent simulations.
        self.scheduler = make_scheduler(self.system.config.scheduler, self.system)
        self.records_executed = 0
        self.ctas_executed = 0
        self.kernels_executed = 0
        telemetry = self.system.telemetry
        self._telemetry = telemetry
        self._next_sample = (
            inf if telemetry is None else telemetry.begin_run(self.system, workload.name)
        )

        # Array-backed fast path: generated per-SM walkers over fast
        # records.  Built once per engine and reused across runs — every
        # object a walker binds (cache sets, stats, pipes, page maps,
        # routes) is reset in place by ``system.reset()``.
        # Migrating placement keeps the batch path (walkers None), and
        # the general loop (telemetry, per-line reference) keeps classic
        # TraceRecord lists.
        if telemetry is None and self.batched:
            cached = self._fast_cache
            if cached is None:
                memsys = self.system.memsys
                walkers = memsys.make_walkers()
                cached = (walkers, memsys.walk_geometry())
                self._fast_cache = cached
            self._walkers, self._geometry = cached
        else:
            self._walkers = None
            self._geometry = None

        # Live invariant checking is opt-in and read-only: with no validator
        # attached the loop pays one `is not None` test per kernel, and an
        # attached validator only *reads* structural state, so results are
        # bit-identical either way.
        validator = self.system.validator

        clock = 0.0
        first = True
        for kernel in workload.kernels():
            if not first:
                self.system.kernel_boundary_flush()
            first = False
            clock = self._run_kernel(kernel, clock)
            self.kernels_executed += 1
            if validator is not None:
                validator.after_kernel(self.system, clock)

        if telemetry is not None:
            telemetry.end_run(clock, self.system, self.records_executed)
        result = self._collect(workload, clock)
        if validator is not None:
            validator.after_run(self.system, result)
        return result

    # ------------------------------------------------------------------

    def _run_kernel(self, kernel: KernelLaunch, start_time: float) -> float:
        scheduler = self.scheduler
        scheduler.start_kernel(kernel.n_ctas)
        self._kernel_unique = (
            self._walkers is not None and _kernel_addrs_unique(kernel)
        )
        heap: List = []
        self._seq = 0
        telemetry = self._telemetry
        if telemetry is not None:
            phase_ctas = self.ctas_executed
            phase_records = self.records_executed

        # Breadth-first initial wave: one CTA per SM per round, in the
        # scheduler's preferred SM order, until slots or CTAs run out.
        fill_order = scheduler.initial_fill_order()
        placed = True
        while placed and not scheduler.exhausted:
            placed = False
            for sm in fill_order:
                if sm.free_cta_slots <= 0:
                    continue
                cta_index = scheduler.next_cta(sm)
                if cta_index is None:
                    continue
                self._launch(heap, kernel, cta_index, sm, start_time)
                placed = True

        if telemetry is None and self.batched:
            kernel_end = self._drain_fast(heap, kernel, start_time)
        else:
            kernel_end = self._drain_general(heap, kernel, start_time)

        if not scheduler.exhausted:  # pragma: no cover - engine invariant
            raise RuntimeError(
                f"kernel {kernel.label!r} drained with "
                f"{scheduler.remaining} CTAs undispatched"
            )
        # Kernel completion implies a memory fence: buffered store traffic
        # still queued at DRAM or on the ring must drain before the next
        # kernel (or the final makespan) begins.
        quiesce = self.system.quiesce_time()
        if telemetry is not None:
            telemetry.record_phase(
                kernel.label,
                self.kernels_executed,
                start_time,
                kernel_end,
                quiesce if quiesce > kernel_end else kernel_end,
                self.ctas_executed - phase_ctas,
                self.records_executed - phase_records,
            )
        return quiesce if quiesce > kernel_end else kernel_end

    # ------------------------------------------------------------------
    # event-heap drain loops
    # ------------------------------------------------------------------
    #
    # Two implementations of the same event semantics.  _drain_general is
    # the readable reference: it supports an attached telemetry probe and
    # the per-line memory path.  _drain_fast is the production hot loop
    # for the common case (no probe, batched memory path): per-pop
    # attribute lookups hoisted into locals, issue charging inlined, and
    # the record's memory batch routed through the bulk MemorySystem
    # paths.  Both are bit-identical (tests/test_perf_identity.py); any
    # change to one must be mirrored in the other.

    def _drain_general(self, heap: List, kernel: KernelLaunch, start_time: float) -> float:
        scheduler = self.scheduler
        telemetry = self._telemetry
        memsys = self.system.memsys
        batched = self.batched
        kernel_end = start_time
        while heap:
            ready, _, group = heappop(heap)
            # Heap pops are monotone in ready time (pushes always re-arm at
            # finish >= the current pop), so crossing a window boundary here
            # closes the window exactly once.  Dormant (+inf) without a probe.
            if ready >= self._next_sample:
                self._next_sample = telemetry.take_window(
                    ready, self.system, self.records_executed
                )
            sm = group.cta.sm
            issue_start = sm.clock if sm.clock > ready else ready
            record = group.records[group.position]
            group.position += 1
            reads = record.reads
            writes = record.writes
            sm.charge_issue(issue_start, record.compute_cycles + len(reads) + len(writes))

            if batched:
                mem_done = memsys.load_batch(issue_start, sm, reads) if reads else issue_start
                if writes:
                    memsys.store_batch(issue_start, sm, writes)
            else:
                mem_done = issue_start
                for line in reads:
                    done = memsys.load(issue_start, sm, line)
                    if done > mem_done:
                        mem_done = done
                for line in writes:
                    memsys.store(issue_start, sm, line)

            finish = issue_start + record.compute_cycles
            if mem_done > finish:
                finish = mem_done
            self.records_executed += 1

            if group.position < len(group.records):
                self._seq += 1
                heappush(heap, (finish, self._seq, group))
                continue

            if finish > kernel_end:
                kernel_end = finish
            cta = group.cta
            cta.groups_left -= 1
            if cta.groups_left == 0:
                self.ctas_executed += 1
                sm.release_slot()
                next_index = scheduler.next_cta(sm)
                if next_index is not None:
                    self._launch(heap, kernel, next_index, sm, finish)
        return kernel_end

    def _drain_fast(self, heap: List, kernel: KernelLaunch, start_time: float) -> float:
        scheduler = self.scheduler
        memsys = self.system.memsys
        load_batch = memsys.load_batch
        store_batch = memsys.store_batch
        pop = heappop
        push = heappush
        seq = self._seq
        records_executed = 0
        kernel_end = start_time
        while heap:
            ready, _, group = pop(heap)
            cta = group.cta
            sm = cta.sm
            clock = sm.clock
            issue_start = clock if clock > ready else ready
            position = group.position
            records = group.records
            # Fast records carry the issue busy time pre-divided (same
            # left-to-right arithmetic as SM.charge_issue) alongside the
            # plain read/write line tuples.
            compute_cycles, busy, reads, writes = records[position]
            position += 1
            group.position = position
            sm.clock = issue_start + busy
            sm.issue_busy_cycles += busy

            walk = group.walk
            if walk is not None:
                if reads or writes:
                    mem_done = walk(issue_start, reads, writes)
                else:
                    mem_done = issue_start
            else:
                mem_done = load_batch(issue_start, sm, reads) if reads else issue_start
                if writes:
                    store_batch(issue_start, sm, writes)

            finish = issue_start + compute_cycles
            if mem_done > finish:
                finish = mem_done
            records_executed += 1

            if position < len(records):
                seq += 1
                push(heap, (finish, seq, group))
                continue

            if finish > kernel_end:
                kernel_end = finish
            cta.groups_left -= 1
            if cta.groups_left == 0:
                self.ctas_executed += 1
                sm.release_slot()
                next_index = scheduler.next_cta(sm)
                if next_index is not None:
                    # _launch shares the sequence counter; sync around it.
                    self._seq = seq
                    self._launch(heap, kernel, next_index, sm, finish)
                    seq = self._seq
        self._seq = seq
        self.records_executed += records_executed
        # Fold the walkers' deferred counters into the real stats objects
        # before anything at the kernel boundary (live validation, cache
        # flush telemetry, result collection) reads them.
        memsys.flush_walk_counters()
        return kernel_end

    def _launch(self, heap: List, kernel: KernelLaunch, cta_index: int, sm, at: float) -> None:
        # Loop rather than recurse: a degenerate all-empty CTA retires
        # immediately, and its freed slot must pull the next CTA from the
        # scheduler — otherwise a refill-path chain of empty CTAs strands
        # undispatched work and the drain invariant below trips.
        while True:
            trace = kernel.trace_fn(cta_index)
            if len(trace) != kernel.groups_per_cta:
                raise ValueError(
                    f"kernel {kernel.label!r}: trace_fn returned {len(trace)} groups, "
                    f"expected {kernel.groups_per_cta}"
                )
            # Pick the record representation for the active drain loop:
            # fast records (derived and cached by columnar traces, packed
            # per launch for plain lists) or the classic TraceRecord view.
            geometry = self._geometry
            walk = None
            if geometry is not None:
                fast_groups = getattr(trace, "fast_groups", None)
                if fast_groups is not None:
                    groups = fast_groups(geometry)
                else:
                    groups = _pack_plain_trace(trace, geometry)
                walkers = self._walkers
                if walkers is not None:
                    walk = walkers[sm.sm_id][1 if self._kernel_unique else 0]
            else:
                base_groups = getattr(trace, "base_groups", None)
                groups = base_groups() if base_groups is not None else trace
            sm.occupy_slot()
            cta = _CTA(cta_index, len(trace), sm)
            for records in groups:
                if not records:
                    cta.groups_left -= 1
                    continue
                self._seq += 1
                heappush(heap, (at, self._seq, _WarpGroup(cta, records, walk)))
            if cta.groups_left > 0:
                return
            # Degenerate empty CTA: retire immediately and refill the slot.
            self.ctas_executed += 1
            sm.release_slot()
            next_index = self.scheduler.next_cta(sm)
            if next_index is None:
                return
            cta_index = next_index

    # ------------------------------------------------------------------

    def _collect(self, workload: Workload, cycles: float) -> SimResult:
        system = self.system
        l1 = CacheStats()
        l15 = CacheStats()
        l2 = CacheStats()
        dram_read = 0
        dram_written = 0
        for gpm in system.gpms:
            l1 = l1.merge(gpm.aggregate_l1_stats())
            if gpm.l15 is not None:
                l15 = l15.merge(gpm.l15.stats)
            l2 = l2.merge(gpm.l2.stats)
            dram_read += gpm.dram.bytes_read
            dram_written += gpm.dram.bytes_written
        memsys = system.memsys
        page_local = sum(gpm.xbar.local_requests for gpm in system.gpms)
        page_remote = sum(gpm.xbar.remote_requests for gpm in system.gpms)
        config = system.config
        digest = workload.digest() if hasattr(workload, "digest") else workload.name
        return SimResult(
            workload_name=workload.name,
            system_name=config.name,
            cycles=cycles,
            kernels=self.kernels_executed,
            ctas=self.ctas_executed,
            records=self.records_executed,
            loads=memsys.loads,
            stores=memsys.stores,
            remote_loads=memsys.remote_loads,
            remote_stores=memsys.remote_stores,
            l1=l1,
            l15=l15,
            l2=l2,
            dram_bytes_read=dram_read,
            dram_bytes_written=dram_written,
            link_bytes=system.ring.total_link_bytes,
            page_local=page_local,
            page_remote=page_remote,
            migration_bytes=memsys.migration_bytes,
            line_bytes=config.line_bytes,
            link_tier=config.link_tier,
            workload_digest=digest,
            system_digest=config.digest(),
        )
