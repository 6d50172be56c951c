"""The memory-system request path.

This module is the heart of the timing model: every load and store issued
by a warp group walks this path and comes back with a completion cycle.

Read path (Figure 5)::

    L1 (per SM, write-through)
      -> page table: which partition is home?
        local  -> xbar -> memory-side L2 slice -> DRAM partition
        remote -> [L1.5 GPM-side cache] -> ring hops -> remote L2 -> DRAM
                  <- ring hops (line response) ; fill L1.5

Stores are write-through/no-allocate at L1 and L1.5 and write-back with
write-allocate at the memory-side L2.  Store completion is decoupled from
the requester (write buffering): the warp group does not wait, but every
byte still consumes link and DRAM bandwidth, so heavy write traffic slows
the machine through contention — the effect behind the paper's
Streamcluster anomaly (Section 5.4).

All latencies are cycles; all bandwidth interactions go through the shared
:class:`~repro.memory.bandwidth.BandwidthPipe` instances so contention is
captured globally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..interconnect.link import REQUEST, RESPONSE
from ..memory.migration import MigratingFirstTouch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .gpu import GPUSystem
    from .sm import SM

#: Bytes of command/address/ECC/flow-control overhead per ring message
#: (GRS packetization; calibrated against the Figure 4 sensitivity curve).
REQUEST_HEADER_BYTES = 64
#: Cache line payload size on the ring.
LINE_BYTES = 128
#: Latency credited to a buffered store as seen by the issuing warp group.
STORE_ACK_LATENCY = 1.0


class MemorySystem:
    """Routes memory requests through caches, the ring, and DRAM."""

    def __init__(self, system: "GPUSystem") -> None:
        self.system = system
        self.loads = 0
        self.stores = 0
        self.remote_loads = 0
        self.remote_stores = 0
        # Hot-path bindings: resolved once so per-access work is attribute-
        # lookup free.  The set of GPMs and the ring never change after
        # construction.
        self._gpms = system.gpms
        self._ring = system.ring
        self._page_table = system.page_table
        self._migrating_policy = (
            system.page_table.policy
            if isinstance(system.page_table.policy, MigratingFirstTouch)
            else None
        )
        self.migration_bytes = 0
        # Deferred-counter flush hooks installed by make_walkers(); empty
        # whenever the walker fast path is not in use.
        self._walker_flushes: list = []
        self._walk_geometry = None

    # ------------------------------------------------------------------
    # public API used by the simulation engine
    # ------------------------------------------------------------------

    def load(self, now: float, sm: "SM", line_addr: int) -> float:
        """Issue a load; returns the cycle its data arrives at the SM."""
        self.loads += 1
        hit, _ = sm.l1.access(line_addr)
        l1_latency = sm.l1_hit_latency
        if hit:
            return now + l1_latency

        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        time = now + l1_latency + gpm.xbar_latency
        home = self._page_table.home_partition(line_addr, gpm_id)
        if self._migrating_policy is not None and self._migrating_policy.pending_migration:
            self._charge_migration(time)
        if gpm.xbar.classify(home):
            if gpm.l15_caches_local:
                l15_hit, _ = gpm.l15.access(line_addr)
                if l15_hit:
                    return time + gpm.l15_hit_latency
                time += gpm.l15_miss_penalty
            return self._partition_read(time, home, line_addr)

        self.remote_loads += 1
        if gpm.has_l15:
            l15_hit, _ = gpm.l15.access(line_addr)
            if l15_hit:
                return time + gpm.l15_hit_latency
            time += gpm.l15_miss_penalty

        ring = self._ring
        time = ring.transfer(time, gpm_id, home, REQUEST_HEADER_BYTES, REQUEST)
        time = self._partition_read(time, home, line_addr)
        return ring.transfer(time, home, gpm_id, LINE_BYTES + REQUEST_HEADER_BYTES, RESPONSE)

    def store(self, now: float, sm: "SM", line_addr: int) -> float:
        """Issue a store; returns the (buffered) ack cycle for the warp group.

        Bandwidth on the ring and at the home partition is charged at the
        store's natural times even though the requester does not wait.
        """
        self.stores += 1
        # Write-through, no-allocate: update the line if present, then
        # forward downstream unconditionally.  The fused touch counts a
        # write hit when the line is resident and a bypass when it is not,
        # so every store lands in exactly one counter (the probe-miss case
        # used to vanish from the stats entirely).
        sm.l1.touch_store(line_addr)

        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        time = now + gpm.xbar_latency
        home = self._page_table.home_partition(line_addr, gpm_id)
        if self._migrating_policy is not None and self._migrating_policy.pending_migration:
            self._charge_migration(time)
        if gpm.xbar.classify(home):
            if gpm.l15_caches_local:
                gpm.l15.touch_store(line_addr)
            self._partition_write(time, home, line_addr)
            return now + STORE_ACK_LATENCY

        self.remote_stores += 1
        if gpm.has_l15:
            # Keep the remote copy coherent-by-value; still write through.
            gpm.l15.touch_store(line_addr)
        time = self._ring.transfer(
            time, gpm_id, home, LINE_BYTES + REQUEST_HEADER_BYTES, REQUEST
        )
        self._partition_write(time, home, line_addr)
        return now + STORE_ACK_LATENCY

    # ------------------------------------------------------------------
    # bulk request paths (engine hot loop)
    # ------------------------------------------------------------------
    #
    # One TraceRecord issues its whole read list and write list together.
    # These bulk paths walk the lines in the same order and perform the
    # same state mutations as per-line load()/store() calls — results are
    # bit-identical (tests/test_perf_identity.py pins this) — but resolve
    # the overwhelmingly common L1 hit with inline dict operations and
    # hoist every per-request attribute lookup out of the line loop.

    def load_batch(self, now: float, sm: "SM", lines) -> float:
        """Issue a record's read list; returns the latest arrival cycle.

        Equivalent to ``max(load(now, sm, line) for line in lines)`` with
        ``now`` as the floor for an empty list.
        """
        self.loads += len(lines)
        l1 = sm.l1
        stats = l1.stats
        sets = l1._sets
        n_sets = l1.n_sets
        ways = l1.ways
        hit_time = now + sm.l1_hit_latency
        mem_done = now
        misses = None
        for line in lines:
            if n_sets:
                cache_set = sets[line % n_sets]
                if line in cache_set:
                    # Inline L1 read hit: refresh LRU, preserve dirty state.
                    stats.hits += 1
                    cache_set[line] = cache_set.pop(line)
                    if hit_time > mem_done:
                        mem_done = hit_time
                    continue
                stats.misses += 1
                if len(cache_set) >= ways:
                    if cache_set.pop(next(iter(cache_set))):
                        stats.writebacks += 1
                cache_set[line] = False
            else:
                stats.misses += 1
            if misses is None:
                misses = [line]
            else:
                misses.append(line)
        if misses is None:
            return mem_done

        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        base_time = hit_time + gpm.xbar_latency
        page_table = self._page_table
        # Inlined PageTable.home_partition / Crossbar.classify: the homing
        # arithmetic is done in-loop and the pure-count counters are
        # accumulated locally and flushed once per batch (their totals are
        # order-insensitive and nothing reads them mid-record).
        policy = page_table.policy
        line_interleaved = page_table._line_interleaved
        n_partitions = policy.n_partitions
        lines_per_page = page_table.address_map.lines_per_page
        partition_of_page = policy.partition_of_page
        migrating = self._migrating_policy
        # Mapped-page fast path: a plain dict hit skips the policy call.
        # Migrating policies do per-access work inside partition_of_page,
        # so the shortcut is disabled for them.
        page_map = None if migrating is not None else getattr(policy, "_page_map", None)
        local_homes = 0
        remote_homes = 0
        l15 = gpm.l15
        l15_caches_local = gpm.l15_caches_local
        has_l15 = gpm.has_l15
        l15_hit_latency = gpm.l15_hit_latency
        l15_miss_penalty = gpm.l15_miss_penalty
        partition_read = self._partition_read
        # Inlined GraphNetwork.transfer: the fabric's precomputed route
        # tuples, walked directly (same hop order, same pipe charges).
        routes = self._ring.routes
        request_routes = routes[gpm_id]
        remote_loads = 0
        for line in misses:
            if line_interleaved:
                home = line % n_partitions
            else:
                page = line // lines_per_page
                if page_map is None:
                    home = partition_of_page(page, gpm_id)
                else:
                    home = page_map.get(page)
                    if home is None:
                        home = partition_of_page(page, gpm_id)
            if migrating is not None and migrating.pending_migration:
                self._charge_migration(base_time)
            if home == gpm_id:
                local_homes += 1
                if l15_caches_local:
                    l15_hit, _ = l15.access(line)
                    if l15_hit:
                        done = base_time + l15_hit_latency
                        if done > mem_done:
                            mem_done = done
                        continue
                    done = partition_read(base_time + l15_miss_penalty, home, line)
                else:
                    done = partition_read(base_time, home, line)
            else:
                remote_homes += 1
                remote_loads += 1
                time = base_time
                if has_l15:
                    l15_hit, _ = l15.access(line)
                    if l15_hit:
                        done = base_time + l15_hit_latency
                        if done > mem_done:
                            mem_done = done
                        continue
                    time = base_time + l15_miss_penalty
                for link in request_routes[home]:
                    time = (
                        link.request_pipe.transfer(time, REQUEST_HEADER_BYTES)
                        + link.latency_cycles
                    )
                time = partition_read(time, home, line)
                for link in routes[home][gpm_id]:
                    time = (
                        link.response_pipe.transfer(time, LINE_BYTES + REQUEST_HEADER_BYTES)
                        + link.latency_cycles
                    )
                done = time
            if done > mem_done:
                mem_done = done
        self.remote_loads += remote_loads
        page_table.local_resolutions += local_homes
        page_table.remote_resolutions += remote_homes
        xbar = gpm.xbar
        xbar.local_requests += local_homes
        xbar.remote_requests += remote_homes
        return mem_done

    def store_batch(self, now: float, sm: "SM", lines) -> None:
        """Issue a record's write list (buffered; the caller never waits).

        Equivalent to calling :meth:`store` once per line, in order.
        """
        self.stores += len(lines)
        l1 = sm.l1
        stats = l1.stats
        sets = l1._sets
        n_sets = l1.n_sets
        track_dirty = l1._track_dirty
        gpm_id = sm.gpm_id
        gpm = self._gpms[gpm_id]
        time = now + gpm.xbar_latency
        page_table = self._page_table
        # Same inlining discipline as load_batch: homing arithmetic in-loop,
        # pure-count page-table/crossbar counters flushed once per batch.
        policy = page_table.policy
        line_interleaved = page_table._line_interleaved
        n_partitions = policy.n_partitions
        lines_per_page = page_table.address_map.lines_per_page
        partition_of_page = policy.partition_of_page
        migrating = self._migrating_policy
        page_map = None if migrating is not None else getattr(policy, "_page_map", None)
        local_homes = 0
        remote_homes = 0
        l15 = gpm.l15
        l15_caches_local = gpm.l15_caches_local
        has_l15 = gpm.has_l15
        partition_write = self._partition_write
        request_routes = self._ring.routes[gpm_id]
        store_bytes = LINE_BYTES + REQUEST_HEADER_BYTES
        remote_stores = 0
        for line in lines:
            # Inline write-through no-allocate touch (see touch_store).
            if n_sets:
                cache_set = sets[line % n_sets]
                if line in cache_set:
                    stats.hits += 1
                    stats.write_hits += 1
                    cache_set[line] = cache_set.pop(line) or track_dirty
                else:
                    stats.bypasses += 1
            else:
                stats.bypasses += 1
            if line_interleaved:
                home = line % n_partitions
            else:
                page = line // lines_per_page
                if page_map is None:
                    home = partition_of_page(page, gpm_id)
                else:
                    home = page_map.get(page)
                    if home is None:
                        home = partition_of_page(page, gpm_id)
            if migrating is not None and migrating.pending_migration:
                self._charge_migration(time)
            if home == gpm_id:
                local_homes += 1
                if l15_caches_local:
                    l15.touch_store(line)
                partition_write(time, home, line)
            else:
                remote_homes += 1
                remote_stores += 1
                if has_l15:
                    l15.touch_store(line)
                arrival = time
                for link in request_routes[home]:
                    arrival = (
                        link.request_pipe.transfer(arrival, store_bytes)
                        + link.latency_cycles
                    )
                partition_write(arrival, home, line)
        self.remote_stores += remote_stores
        page_table.local_resolutions += local_homes
        page_table.remote_resolutions += remote_homes
        xbar = gpm.xbar
        xbar.local_requests += local_homes
        xbar.remote_requests += remote_homes

    # ------------------------------------------------------------------
    # array-backed fast path (per-SM generated walkers)
    # ------------------------------------------------------------------
    #
    # A walker consumes fast records — plain read/write line tuples with
    # the issue busy time pre-divided (ColumnarCTATrace.fast_groups) — and
    # walks one record's memory batch in a single closure generated by
    # repro.core.walkgen: L1/L1.5/L2 dict mutations, homing resolution, and
    # pipe charges along the fabric's routes, with set indices and homes
    # derived from each line inline.  Same line order, same state
    # mutations, same charge times as per-line load()/store();
    # the only reorderings are (a) pure-count counters accumulated in cells
    # and flushed at kernel boundaries (nothing reads them mid-kernel) and
    # (b) a record's *local* DRAM line charges collapsed into one
    # BandwidthPipe.transfer_run — all local lines in a record charge the
    # same pipe at the same cycle with the same byte count, so the greedy
    # bucket fill is associative and only the last finish is observable.
    # tests/test_perf_identity.py pins bit-identity across the matrix.

    def walk_geometry(self, packed: bool = True) -> "WalkGeometry":
        """The :class:`WalkGeometry` traces are specialized against.

        Built once per memory system.  ``packed`` (walker vs
        ``load_batch``/``store_batch`` path) no longer changes the result:
        both paths consume the same fast records.
        """
        geometry = self._walk_geometry
        if geometry is None:
            from ..workloads.trace import WalkGeometry

            geometry = self._walk_geometry = WalkGeometry(
                self._gpms[0].sms[0].issue_throughput
            )
        return geometry

    def make_walkers(self):
        """Build per-SM ``(walk, walk_unique)`` pairs, or ``None``.

        The pairs come from the per-GPM code generator in
        :mod:`repro.core.walkgen`; ``walk_unique`` is the flavor the engine
        selects for kernels with globally unique address columns.
        Migrating placement policies interleave page-copy charges with line
        charges and do per-access work inside homing, so they keep the
        ``load_batch``/``store_batch`` path entirely (``None``).  Must be
        called after ``system.reset()`` — walkers bind the current stats
        objects.
        """
        self._walker_flushes = []
        if self._migrating_policy is not None:
            return None
        from .walkgen import build_walkers

        return build_walkers(self)

    def flush_walk_counters(self) -> None:
        """Fold the walkers' deferred counters into the real stats objects.

        Called at the end of every kernel drain (before live validation
        and cache flushes read the counters) and is idempotent — cells are
        zeroed as they are flushed.
        """
        for flush in self._walker_flushes:
            flush()

    # ------------------------------------------------------------------
    # page migration (MigratingFirstTouch extension)
    # ------------------------------------------------------------------

    def _charge_migration(self, now: float) -> None:
        """Charge the bandwidth cost of a page copy between partitions.

        The copy runs asynchronously (the triggering access is served from
        the new home immediately), but its DRAM read, ring transfer, and
        DRAM write consume real bandwidth at ``now`` — over-eager
        migration therefore costs measurable throughput.
        """
        policy = self._migrating_policy
        page_addr, old_home, new_home = policy.pending_migration
        policy.pending_migration = None
        address_map = self.system.address_map
        page_bytes = address_map.page_bytes
        lines = address_map.lines_per_page
        source = self._gpms[old_home]
        destination = self._gpms[new_home]
        source.dram.pipe.transfer(now, page_bytes)
        source.dram.reads += lines
        arrival = self._ring.transfer(now, old_home, new_home, page_bytes, REQUEST)
        destination.dram.pipe.transfer(arrival, page_bytes)
        destination.dram.writes += lines
        self.migration_bytes += page_bytes

    # ------------------------------------------------------------------
    # home-partition access (memory-side L2 in front of local DRAM)
    # ------------------------------------------------------------------

    # Both partition paths inline the L2 lookup and the DRAM pipe charge:
    # they mirror ``SetAssocCache.access`` / ``DRAMPartition`` line for
    # line (same counters, same LRU dict operations, same pipe-charge
    # order: write-back before fill), trading the two hottest remaining
    # call chains for direct dict work.  (``reset_stats`` now zeroes the
    # stats object in place, so binding it per call is a convenience, not
    # a correctness requirement.)

    def _partition_read(self, now: float, home: int, line_addr: int) -> float:
        gpm = self._gpms[home]
        l2 = gpm.l2
        stats = l2.stats
        time = now + gpm.l2_hit_latency
        n_sets = l2.n_sets
        dram = gpm.dram
        if n_sets:
            cache_set = l2._sets[line_addr % n_sets]
            if line_addr in cache_set:
                stats.hits += 1
                cache_set[line_addr] = cache_set.pop(line_addr)
                return time
            stats.misses += 1
            if len(cache_set) >= l2.ways:
                if cache_set.pop(next(iter(cache_set))):
                    stats.writebacks += 1
                    dram.writes += 1
                    dram.pipe.transfer(time, dram.line_bytes)
            cache_set[line_addr] = False
        else:
            stats.misses += 1
        dram.reads += 1
        return dram.pipe.transfer(time, dram.line_bytes) + dram.latency_cycles

    def _partition_write(self, now: float, home: int, line_addr: int) -> float:
        gpm = self._gpms[home]
        l2 = gpm.l2
        stats = l2.stats
        time = now + gpm.l2_hit_latency
        n_sets = l2.n_sets
        dram = gpm.dram
        track_dirty = l2._track_dirty
        if n_sets:
            cache_set = l2._sets[line_addr % n_sets]
            if line_addr in cache_set:
                stats.hits += 1
                stats.write_hits += 1
                cache_set[line_addr] = cache_set.pop(line_addr) or track_dirty
                return time
            stats.misses += 1
            stats.write_misses += 1
            if len(cache_set) >= l2.ways:
                if cache_set.pop(next(iter(cache_set))):
                    stats.writebacks += 1
                    dram.writes += 1
                    dram.pipe.transfer(time, dram.line_bytes)
            cache_set[line_addr] = track_dirty
        else:
            stats.misses += 1
            stats.write_misses += 1
        # Write-allocate: the line is fetched into the L2 before the merge.
        dram.reads += 1
        return dram.pipe.transfer(time, dram.line_bytes) + dram.latency_cycles

    # ------------------------------------------------------------------

    @property
    def accesses(self) -> int:
        """Total loads and stores observed."""
        return self.loads + self.stores

    def counter_snapshot(self):
        """``(loads, stores, remote_loads, remote_stores)`` right now.

        Telemetry samples this at window boundaries to form per-window
        deltas; it is read-only and never touches timing state.
        """
        return (self.loads, self.stores, self.remote_loads, self.remote_stores)

    @property
    def remote_fraction(self) -> float:
        """Fraction of L1-missing traffic whose home partition was remote."""
        routed = sum(gpm.xbar.total_requests for gpm in self.system.gpms)
        if not routed:
            return 0.0
        remote = sum(gpm.xbar.remote_requests for gpm in self.system.gpms)
        return remote / routed

    def reset(self) -> None:
        """Clear counters for a fresh simulation."""
        self.loads = 0
        self.stores = 0
        self.remote_loads = 0
        self.remote_stores = 0
        self.migration_bytes = 0
