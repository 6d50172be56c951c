"""``paper-cold`` and ``paper-warm``: the paper suite, serial.

``paper-cold`` is a user's first experiment: all 48 workloads on
``mcm-baseline-768`` with no result cache, every trace generated and
packed inside the timed region.  ``paper-warm`` generates and packs every
trace during set-up and times the engine alone on ``mcm-optimized-8mb``
(generated walkers) and ``mcm-optimized-migrating`` (the
``load_batch``/``store_batch`` path).

Workloads run at a quarter of their size, so one pass over them takes a
few seconds and a run repeats it for ``--seconds``.  A host-speed probe
(:mod:`perfbench.probe`) runs before every pair and after the last; each
pair's time is scaled by the probes on either side of it, and the
metrics are medians over the passes.  ``paper-cold`` builds fresh workload objects for every
pass, so every pass generates and packs every trace again.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from repro.sim.simulator import Simulator
from repro.validate.golden import GOLDEN_WORKLOADS
from repro.workloads.suite import all_specs
from repro.workloads.synthetic import SyntheticWorkload

from .common import (
    Checker,
    SETUP_PROBES,
    Rerequests,
    import_seconds,
    median,
    median_pairs,
    repeat,
    result_layers,
    span_layers,
)
from .layers import (
    TraceTally,
    TracedWorkload,
    build_simulator,
    cache_layers,
    geometry_for,
    timed_cache_get,
    trace_layers,
)
from .probe import Probe, between

clock = time.perf_counter


def migrating_config():
    """Optimized MCM-GPU with migrating first touch (the migration ablation)."""
    return replace(
        optimized_mcm_gpu(name="mcm-optimized-migrating"),
        placement="migrating_first_touch",
    )


def expected_path(config) -> str:
    """Memory path each config must take: migrating placement keeps the batch path."""
    return "batch" if config.placement.startswith("migrating") else "walker"


#: Size of every paper workload relative to the suite's.
SCALE = 0.25
#: ``paper-warm`` simulates every other paper workload (24 of 48, all
#: three categories) on each of its two configs: 48 pairs, as cold.
WARM_STRIDE = 2


def suite(seed: int, stride: int = 1):
    """Every ``stride``-th paper workload at :data:`SCALE`, re-seeded."""
    return [
        SyntheticWorkload(replace(spec.scaled_down(SCALE), seed=seed))
        for spec in all_specs()[::stride]
    ]


def run_paper(run, cold: bool) -> None:
    configs = [baseline_mcm_gpu()] if cold else [optimized_mcm_gpu(), migrating_config()]
    checker = Checker(run)
    stride = 1 if cold else WARM_STRIDE
    probe = Probe()

    mark = len(probe.taken)
    probe.sample(SETUP_PROBES)
    start = clock()
    sims = [build_simulator(config) for config in configs]
    builds = clock() - start
    workloads = tally = None
    generation = 0.0
    if not cold:
        workloads = suite(run.seed, stride)
        geometries = [
            geometry_for(simulator, expected_path(config))
            for (simulator, _), config in zip(sims, configs)
        ]
        tally = TraceTally(run.spans)
        root = run.spans.open("bench.setup") if run.trace else None
        generation = pregenerate(tally, workloads, geometries, probe)
        if run.trace:
            run.spans.close(root)
            trace_layers(run, tally)
    imports = import_seconds(run.root)
    probe.sample(SETUP_PROBES)
    setup = (builds + imports) * probe.since(mark) + generation

    hits = Rerequests(run)

    def unit():
        ws = suite(run.seed) if cold else workloads
        wall, timed, probes = timed_pass(sims, configs, ws, None, probe)
        ws = None
        if not hits.pairs:
            # Fresh workload objects when cold: the pass's own hold their traces.
            hits.add(
                (workload, config, timed[f"{workload.name}@@{config.name}"][1])
                for config in configs
                for workload in (suite(run.seed) if cold else workloads)
            )
        hits.measure(probe)
        scaled = {
            key: entry[0] * scale for (key, entry), scale in zip(timed.items(), between(probes))
        }
        # The wall scaled by the pairs' time-weighted scale.
        scaled_wall = wall * sum(scaled.values()) / sum(entry[0] for entry in timed.values())
        return wall, timed, scaled, scaled_wall

    passes = repeat(unit, run.seconds)
    sims = None
    check_pairs(run, checker, [(wall, timed) for wall, timed, _, _ in passes])
    walls = [wall for wall, *_ in passes]
    scaled_walls = [scaled_wall for *_, scaled_wall in passes]
    pair_s = median_pairs(scaled for _, _, scaled, _ in passes)
    accesses = {key: entry[1].accesses for key, entry in passes[0][1].items()}
    run.detail["passes"] = len(passes)
    run.detail["pass_walls_s"] = walls
    run.detail["pass_scaled_walls_s"] = scaled_walls
    passes = None
    hit_rounds = list(hits.rounds)

    if run.trace:
        # Fresh simulators (and, cold, fresh workloads) so the traced
        # pass pays the same first-run costs as an untraced one.
        spans = run.spans
        root = spans.open("bench.build")
        traced_sims = [build_simulator(config, spans) for config in configs]
        if cold:
            tally = TraceTally(spans)
            traced = [
                TracedWorkload(w, tally, geometry_for(traced_sims[0][0], "walker"))
                for w in suite(run.seed)
            ]
        else:
            traced = workloads
        spans.close(root)
        timed_cache_get(hits.cache, spans)
        traced_wall, traced_pairs, _ = timed_pass(traced_sims, configs, traced, spans)
        if cold:
            trace_layers(run, tally)
        check_pairs(run, checker, [(traced_wall, traced_pairs)])
        # Re-request once more, so the cache layer is spanned.
        hits.measure(rounds=1)
        cache_layers(run, hits.cache)
        traced = traced_sims = None
    workloads = tally = hits = None

    if not run.trace:
        run.metric("setup_s", setup)
        run.metric("wall_s", median(scaled_walls), len(walls))
        run.pair_timing([(seconds, accesses[key]) for key, seconds in pair_s.items()])
        run.rounds_timing("hit_ms", hit_rounds, scale=1e3)
        run.peak_rss()
    else:
        paper_layers(run, configs, median(walls), traced_wall, traced_pairs)
    golden_anchor(checker, configs)
    checker.save()


def paper_layers(run, configs, wall, traced_wall, traced_pairs) -> None:
    """Per-layer metrics of the traced pass."""
    selfs = span_layers(run, wall, traced_wall)
    rows = list(traced_pairs.values())
    result_layers(run, [result for _, result, _, _ in rows])
    gen_s = selfs.get("workloads.gen", 0.0)
    pack_s = selfs.get("trace.pack", 0.0)
    run.metric("workloads.gen_s", gen_s)
    run.metric("trace.pack_s", pack_s)
    run.metric("trace.cold_share", (gen_s + pack_s) / run.spans.total("bench.wall"))
    run.metric("core.build_s", selfs.get("core.build", 0.0))
    run.metric("core.walkers_s", selfs.get("core.walkers", 0.0))
    run.metric("sim.run_s", selfs["sim.run"], len(rows))
    accesses = sum(result.accesses for _, result, _, _ in rows)
    run.metric("sim.ns_per_access", selfs["sim.run"] / accesses * 1e9)
    paths = [path for *_, path in rows]
    run.metric("sim.walker_pairs", paths.count("walker"))
    run.metric("sim.batch_pairs", paths.count("batch"))
    per_config = {}
    for config in configs:
        mine = [(r, s) for s, r, c, _ in rows if c.name == config.name]
        pair_s = sum(s for _, s in mine)
        n = sum(r.accesses for r, _ in mine)
        per_config[config.name] = {
            "pair_s": pair_s, "accesses": n, "ns_per_access": pair_s / n * 1e9
        }
    run.detail["pairs_per_config"] = per_config


def pregenerate(tally, workloads, geometries, probe) -> float:
    """Generate and pack every trace of ``workloads``; returns reference seconds.

    A probe runs before each workload and after the last, and each
    workload's time is scaled by the probes on either side of it.
    """
    probes = [probe.once()]
    seconds = []
    for workload in workloads:
        began = clock()
        tally.pregenerate([workload], geometries)
        seconds.append(clock() - began)
        probes.append(probe.once())
    return sum(took * scale for took, scale in zip(seconds, between(probes)))


def golden_anchor(checker, configs) -> None:
    """At the default seed, full-size golden pairs must equal ``golden/metrics.json``.

    The benchmark's own pairs are quarter-size, so ``golden/metrics.json``
    pins none of them; this simulates the golden paper workloads at full
    size on every config of the workload that the golden matrix holds.
    It runs after every metric is taken (peak memory included).
    """
    if not checker.pinned:
        return
    workloads = [
        SyntheticWorkload(spec) for spec in all_specs() if spec.name in GOLDEN_WORKLOADS
    ]
    for config in configs:
        if any(key.endswith(f"@@{config.name}") for key in checker.golden):
            simulator = Simulator(config)
            for workload in workloads:
                checker.golden_pair(simulator.run(workload), config)


def timed_pass(sims, configs, workloads, spans, probe=None):
    """Simulate every (workload, config) pair once: the timed unit of both workloads.

    With a ``probe``, one probe runs before every pair and one after the
    last, outside the timed pairs and left out of the wall.  Returns
    ``(wall seconds, {pair key: (seconds, result, config, path)}, [probe
    seconds])``.
    """
    pairs = {}
    probes = []
    root = spans.open("bench.wall") if spans is not None else None
    start = clock()
    if probe is not None:
        probes.append(probe.once())
    for (simulator, guard), config in zip(sims, configs):
        for workload in workloads:
            key = f"{workload.name}@@{config.name}"
            index = spans.open("sim.run", key) if spans else None
            began = clock()
            result = simulator.run(workload)
            seconds = clock() - began
            if spans is not None:
                spans.close(index)
            pairs[key] = (seconds, result, config, guard.taken)
            if probe is not None:
                probes.append(probe.once())
    wall = clock() - start - sum(probes)
    if spans is not None:
        spans.close(root)
    return wall, pairs, probes


def check_pairs(run, checker, passes) -> None:
    """The first pass against the reference, later ones against the first.

    Every pair must also take the memory path its config implies.
    """
    first = passes[0][1]
    for _, result, config, path in first.values():
        checker.pair(result, config)
    for _, timed in passes:
        for key, (_, result, config, path) in timed.items():
            if timed is not first:
                run.op(result == first[key][1], f"{key}: a repeated pass differs")
            want = expected_path(config)
            run.op(
                path == want,
                f"{key}: took the {path} path, expected {want}",
            )
