"""``sweep-pool``: the ``link_l15`` explore sweep through a process pool.

The ``--fast`` plan, restricted to every fourth suite workload (12 of 48)
so one run fits the benchmark's time budget; the pairs keep their
``--fast`` sizes.  That is hundreds of small pairs, where pool dispatch,
pickling, cache-shard I/O and the halving/sensitivity/crossover code
carry weight the paper workloads never put on them.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.experiments.common import ResultCache, run_suites
from repro.explore import build_plan, run_sweep, write_artifacts
from repro.parallel.metrics import SuiteMetrics
from repro.workloads.synthetic import SyntheticWorkload

from .common import (
    SETUP_PROBES,
    Checker,
    Rerequests,
    file_sha256,
    import_seconds,
    result_layers,
    span_layers,
)
from .layers import cache_layers, replay_layers, timed_cache_get
from .probe import Probe, factor

clock = time.perf_counter

SWEEP = "link_l15"
#: Every fourth suite workload (12 of 48, all three categories).
SUBSET_STRIDE = 4


class PairTimes(SuiteMetrics):
    """A ``run_suites`` metrics sink that also keeps ``(sim seconds, accesses)``.

    ``run_suites`` reports each simulated pair's seconds through
    ``record_sim`` and then hands its result to the ``progress`` callback,
    which supplies the access count.
    """

    def reset(self) -> None:
        super().reset()
        self.pair_samples = []
        self._seconds = None

    def record_sim(self, config_name: str, sim_seconds: float) -> None:
        super().record_sim(config_name, sim_seconds)
        self._seconds = sim_seconds

    def progress(self, done: int, total: int, result) -> None:
        self.pair_samples.append((self._seconds, result.accesses))


def make_plan(seed: int):
    """The ``--fast`` plan over the workload subset, re-seeded."""
    plan = build_plan(SWEEP, fast=True, seed=seed)
    rungs = [
        (
            label,
            [
                SyntheticWorkload(replace(workload.spec, seed=seed))
                for workload in workloads[::SUBSET_STRIDE]
            ],
        )
        for label, workloads in plan.rungs
    ]
    return replace(plan, rungs=rungs, probe_workloads=list(rungs[0][1]))


def sweep_pass(run, workers: int, spans, probe=None):
    """One timed sweep with a fresh cache: ``run_sweep`` plus its artifacts.

    After each ``run_suites`` batch the pairs finished so far are
    re-requested (``hit_ms``); that time is not part of the wall.  With a
    ``probe``, the re-requests run between host-speed probes; each batch
    and its pairs are scaled to reference speed by the probes on either
    side of it, and the rest of the wall by every probe of the sweep.
    """
    plan = make_plan(run.seed)
    cache = ResultCache(run.fresh_dir("sweep-cache"))
    hits = Rerequests(run)
    if spans is not None:
        timed_cache_get(cache, spans)
    sink = PairTimes()
    calls = []
    #: ``(seconds, scale, first pair, end pair)`` per batch, with a probe.
    scaled_calls = []
    seen = set()

    def runner(configs, workloads):
        index = spans.open("parallel.batch") if spans is not None else None
        before = probe.taken[-1] if probe is not None else None
        first = len(sink.pair_samples)
        start = clock()
        out = run_suites(
            configs,
            workloads=workloads,
            cache=cache,
            max_workers=workers,
            progress=sink.progress,
            metrics=sink,
        )
        seconds = clock() - start
        calls.append((configs, workloads, out, seconds))
        if spans is not None:
            spans.close(index)
        fresh = []
        for triple in call_pairs(configs, workloads, out):
            key = (triple[2].workload_digest, triple[2].system_digest)
            if key not in seen:
                seen.add(key)
                fresh.append(triple)
        hits.add(fresh)
        after = len(probe.taken) if probe is not None else None
        hits.measure(probe)
        if probe is not None:
            local = factor([before, probe.taken[after]])
            scaled_calls.append((seconds, local, first, len(sink.pair_samples)))
        return out

    out_root = run.fresh_dir("sweep-out")
    if probe is not None:
        mark = len(probe.taken)
        probe.sample(SETUP_PROBES)
    root = spans.open("bench.wall") if spans is not None else None
    start = clock()
    report = run_sweep(plan, runner=runner)
    report_start = clock()
    index = spans.open("explore.report") if spans is not None else None
    paths = write_artifacts(report, out_root, cache=cache)
    if spans is not None:
        spans.close(index)
    end = clock()
    if spans is not None:
        spans.close(root)
    wall = end - start - hits.spent
    scaled_wall = wall
    pair_scale = [1.0] * len(sink.pair_samples)
    if probe is not None:
        probe.sample(SETUP_PROBES)
        scaled_wall = (wall - sum(call[0] for call in scaled_calls)) * probe.since(mark)
        for seconds, local, first, end_pair in scaled_calls:
            scaled_wall += seconds * local
            pair_scale[first:end_pair] = [local] * (end_pair - first)
    return {
        "wall": wall,
        "scaled_wall": scaled_wall,
        "scaled_pairs": [
            (seconds * local, accesses)
            for (seconds, accesses), local in zip(sink.pair_samples, pair_scale)
        ],
        "report_s": end - report_start,
        "report_sha256": file_sha256(paths["report.json"]),
        "cache": cache,
        "sink": sink,
        "calls": calls,
        "hits": hits.rounds,
        "pairs": hits.pairs,
    }


def call_pairs(configs, workloads, out):
    """``(workload, config, result)`` for every slot of one ``run_suites`` call."""
    for config, per_config in zip(configs, out):
        for workload in workloads:
            yield workload, config, per_config[workload.name]


def run_sweep_pool(run, workers: int) -> None:
    checker = Checker(run)
    probe = Probe()
    mark = len(probe.taken)
    probe.sample(SETUP_PROBES)
    start = clock()
    make_plan(run.seed)
    setup = clock() - start + import_seconds(run.root)
    probe.sample(SETUP_PROBES)
    setup *= probe.since(mark)

    passes = [sweep_pass(run, workers, None, probe)]
    if run.trace:
        passes.append(sweep_pass(run, workers, run.spans))
    for sweep in passes:
        checker.digest("report_sha256", sweep["report_sha256"])
        for _, config, result in sweep["pairs"]:
            checker.invariants(result, config)
    checker.save()
    untraced = passes[0]

    if not run.trace:
        run.metric("setup_s", setup)
        run.metric("wall_s", untraced["scaled_wall"])
        run.pair_timing(untraced["scaled_pairs"])
        run.rounds_timing("hit_ms", untraced["hits"], scale=1e3)
        run.peak_rss()
        return

    traced = passes[1]
    selfs = span_layers(run, untraced["wall"], traced["wall"])
    sink = traced["sink"]
    batch_s = sum(seconds for *_, seconds in traced["calls"])
    sim_s = sum(seconds for seconds, _ in sink.pair_samples)
    run.metric("parallel.batch_s", batch_s, len(traced["calls"]))
    run.metric("parallel.sim_s", sim_s, len(sink.pair_samples))
    run.metric("parallel.pairs_executed", sink.executed_pairs)
    run.metric("parallel.pairs_cached", sink.cached_pairs)
    run.metric("parallel.efficiency", sim_s / (workers * batch_s))
    run.metric("sim.run_s", sim_s, len(sink.pair_samples))
    run.metric("explore.self_s", selfs["bench.wall"])
    run.metric("explore.runner_calls", len(traced["calls"]))
    run.metric("explore.report_s", traced["report_s"])
    cache_layers(run, traced["cache"])
    results = [result for _, _, result in traced["pairs"]]
    result_layers(run, results)
    run.metric("sim.ns_per_access", sim_s / sum(r.accesses for r in results) * 1e9)

    configs = {}
    workloads = {}
    for workload, config, _ in traced["pairs"]:
        configs.setdefault(config.digest(), config)
        workloads.setdefault(workload.digest(), workload)
    replay_layers(run, list(configs.values()), list(workloads.values()))
