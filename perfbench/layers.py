"""Timing around the program's layers, from outside, through public calls.

* :class:`PathGuard` wraps one simulator's ``MemorySystem.make_walkers``
  to learn which memory path its engine takes (generated walkers, the
  ``load_batch``/``store_batch`` path, or the per-line reference path
  when ``make_walkers`` is never called).
* :class:`TraceTally` times trace generation (``KernelLaunch.trace_fn``)
  and packing (``ColumnarCTATrace.fast_groups``) once per materialized
  trace; :class:`TracedWorkload` routes an engine's ``trace_fn`` calls
  through it.
* :func:`timed_cache_get` spans every ``ResultCache.get`` on one instance.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, Optional, Sequence

from repro.sim.simulator import Simulator
from repro.workloads.trace import Workload

clock = time.perf_counter


class PathGuard:
    """Records which memory path a simulator's engine takes."""

    def __init__(self, simulator: Simulator, spans=None) -> None:
        memsys = simulator.system.memsys
        build = memsys.make_walkers
        self.path: Optional[str] = None

        def make_walkers():
            index = spans.open("core.walkers") if spans is not None else None
            walkers = build()
            if spans is not None:
                spans.close(index)
            self.path = "walker" if walkers is not None else "batch"
            return walkers

        memsys.make_walkers = make_walkers

    @property
    def taken(self) -> str:
        """The path of the runs so far; ``reference`` if walkers were never built."""
        return self.path or "reference"


def build_simulator(config, spans=None):
    """``(Simulator(config), PathGuard)`` with the build spanned as ``core.build``."""
    index = spans.open("core.build") if spans is not None else None
    simulator = Simulator(config)
    if spans is not None:
        spans.close(index)
    return simulator, PathGuard(simulator, spans)


def geometry_for(simulator: Simulator, path: str):
    """The trace geometry the engine specializes against on ``path``."""
    return simulator.system.memsys.walk_geometry(packed=path == "walker")


class TraceTally:
    """Generation and packing cost, counted once per materialized trace.

    A trace counts as new the first time its object is seen; traces are
    held here so object ids stay unique for the tally's lifetime (the
    workloads' own trace memos hold them anyway).
    """

    def __init__(self, spans=None) -> None:
        self.spans = spans
        self.seen: dict = {}
        self.gen_s = 0.0
        self.pack_s = 0.0
        self.lines = 0
        self.records = 0

    def fetch(self, trace_fn, cta_index: int, geometries: Sequence):
        """``trace_fn(cta_index)``, generating and packing it if new."""
        start = clock()
        trace = trace_fn(cta_index)
        end = clock()
        if id(trace) in self.seen:
            return trace
        self.seen[id(trace)] = trace
        self.gen_s += end - start
        self.lines += trace.addrs.size
        if self.spans is not None:
            self.spans.add("workloads.gen", start, end)
        for geometry in geometries:
            start = clock()
            groups = trace.fast_groups(geometry)
            end = clock()
            self.pack_s += end - start
            self.records += sum(len(records) for records in groups)
            if self.spans is not None:
                self.spans.add("trace.pack", start, end)
        return trace

    def pregenerate(self, workloads: Iterable[Workload], geometries: Sequence) -> None:
        """Generate and pack every trace of ``workloads`` ahead of simulation."""
        for workload in workloads:
            for kernel in workload.kernels():
                for cta_index in range(kernel.n_ctas):
                    self.fetch(kernel.trace_fn, cta_index, geometries)


class TracedWorkload(Workload):
    """A workload whose ``trace_fn`` calls go through a :class:`TraceTally`."""

    def __init__(self, inner: Workload, tally: TraceTally, geometry) -> None:
        self.inner = inner
        self.name = inner.name
        self.tally = tally
        self.geometries = (geometry,)

    def digest(self) -> str:
        return self.inner.digest()

    def kernels(self):
        fetch = self.tally.fetch
        geometries = self.geometries
        for kernel in self.inner.kernels():
            trace_fn = kernel.trace_fn
            yield replace(
                kernel, trace_fn=lambda cta, fn=trace_fn: fetch(fn, cta, geometries)
            )


def timed_cache_get(cache, spans) -> None:
    """Span every ``get`` on this :class:`ResultCache` instance."""
    get = cache.get

    def timed(workload_digest, system_digest):
        index = spans.open("experiments.cache_get")
        try:
            return get(workload_digest, system_digest)
        finally:
            spans.close(index)

    cache.get = timed


def cache_layers(run, cache) -> None:
    """``experiments.*`` for a cache whose ``get`` :func:`timed_cache_get` spans."""
    lookups = cache.hits + cache.misses
    run.metric("experiments.cache_get_s", run.spans.total("experiments.cache_get"), lookups)
    run.metric("experiments.cache_lookups", lookups)
    run.metric("experiments.cache_hit_ratio", cache.hits / lookups if lookups else 0.0)


def replay_layers(run, configs, workloads) -> None:
    """Measure generation, packing and system builds in this process.

    On workloads whose simulations run in worker processes these layers
    are out of the benchmark's reach, so the traced run replays them on
    the same inputs: build every config (and its walkers), then generate
    every trace and pack it once for the first config's geometry.
    ``trace.cold_share`` relates the replayed cost to the traced wall.
    """
    spans = run.spans
    root = spans.open("bench.replay")
    geometry = None
    for config in configs:
        simulator, guard = build_simulator(config, spans)
        simulator.system.reset()
        simulator.system.memsys.make_walkers()
        if geometry is None:
            geometry = geometry_for(simulator, guard.taken)
    tally = TraceTally(spans)
    tally.pregenerate(workloads, (geometry,))
    spans.close(root)
    trace_layers(run, tally)
    selfs = spans.self_times()
    gen_s = selfs.get("workloads.gen", 0.0)
    pack_s = selfs.get("trace.pack", 0.0)
    run.metric("workloads.gen_s", gen_s)
    run.metric("trace.pack_s", pack_s)
    run.metric("trace.cold_share", (gen_s + pack_s) / spans.total("bench.wall"))
    run.metric("core.build_s", selfs.get("core.build", 0.0))
    run.metric("core.walkers_s", selfs.get("core.walkers", 0.0))


def trace_layers(run, tally: TraceTally) -> None:
    """``workloads.*`` and ``trace.*`` counts from a tally."""
    run.metric("workloads.lines", tally.lines)
    run.metric("trace.records", tally.records)
    if tally.lines:
        run.metric("workloads.ns_per_line", tally.gen_s / tally.lines * 1e9)
    if tally.records:
        run.metric("trace.ns_per_record", tally.pack_s / tally.records * 1e9)
