"""``serve-dedup``: ``scripts/serve.py`` driven by one closed-loop client.

Phase 1 submits one batch of every other paper workload at 0.25 scale on
the baseline and the optimized MCM-GPU, every pair listed twice, so half
the slots simulate and half coalesce onto in-flight jobs.  Phase 2 asks for
finished pairs one at a time; every one is served from the result cache,
so it exercises wire, job store, dedup and cache lookups with no
simulation.  A run repeats the whole (a fresh server with an empty cache,
both phases, drain) for ``--seconds`` and reports medians over the
repetitions, with times scaled to reference host speed by the probes of
:mod:`perfbench.probe`.  The client, the server and its worker run on
one core, the core the probes measure.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

from repro.core.presets import baseline_mcm_gpu, optimized_mcm_gpu
from repro.experiments.common import ResultCache
from repro.serve import ServeClient
from repro.sim.result import SimResult
from repro.workloads.suite import all_specs
from repro.workloads.synthetic import SyntheticWorkload

from .common import (
    SETUP_PROBES,
    Checker,
    median,
    median_pairs,
    repeat,
    result_layers,
    span_layers,
)
from .layers import cache_layers, replay_layers, timed_cache_get
from .probe import Probe, factor

clock = time.perf_counter

#: Rounds of cache-served re-requests in each phase 2; each round asks
#: for every pair once (48 requests of about 3 ms).
HIT_ROUNDS = 8
SCALE = 0.25
#: Every other paper workload (24 of 48) keeps phase 1 near 7 s.
STRIDE = 2
#: Seconds any one server start, batch or drain may take.
LIMIT_S = 120.0
#: Seconds between the client's batch-status polls in phase 1.
POLL_S = 0.02
#: Seconds between host-speed probes in phase 1.  Client, server and
#: worker share one core (see ``run.py``), so a probe delays the worker:
#: 5 ms in 100 ms.
PROBE_EVERY_S = 0.1


class Server:
    """One ``scripts/serve.py`` process on an ephemeral port."""

    def __init__(self, run, workers: int) -> None:
        self.cache_dir = run.fresh_dir("serve-cache")
        env = dict(os.environ, PYTHONPATH=str(run.root / "src"))
        start = clock()
        self.log = open(self.cache_dir.parent / f"{self.cache_dir.name}.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable,
                "scripts/serve.py",
                "--port", "0",
                "--workers", str(workers),
                "--cache-dir", str(self.cache_dir),
            ],
            cwd=run.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.log,
            # Its own process group, so a kill also reaches the pool workers.
            start_new_session=True,
        )
        # A server that never prints its address is killed, which ends
        # the readline below with EOF.
        watchdog = threading.Timer(LIMIT_S, self.process.kill)
        watchdog.start()
        try:
            line = self.process.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        match = re.search(r"http://[^\s]+", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.client = ServeClient(match.group(0), timeout=LIMIT_S)
        self.client.health()
        #: Seconds from spawning the server to its first healthy answer.
        self.start_s = clock() - start

    def stop(self) -> None:
        """Drain the server and wait for it (and its pool) to exit."""
        try:
            if self.process.poll() is None and hasattr(self, "client"):
                self.client.drain(grace=10.0)
            self.process.wait(timeout=LIMIT_S)
        except Exception:  # noqa: BLE001 - fall back to killing it
            try:
                os.killpg(self.process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
        finally:
            self.process.stdout.close()
            self.log.close()


def pairs_for(seed: int):
    """Every (workload, config) pair of phase 1, in submission order."""
    workloads = [
        SyntheticWorkload(replace(spec.scaled_down(SCALE), seed=seed))
        for spec in all_specs()[::STRIDE]
    ]
    configs = [baseline_mcm_gpu(), optimized_mcm_gpu()]
    return [(workload, config) for config in configs for workload in workloads]


def serve_pass(run, server, checker, spans, probe=None):
    """Phase 1 (the timed batch) and phase 2 (cache-served re-requests).

    With a ``probe``, host-speed probes run before, during and after
    phase 1: ``scale`` takes the phase's times to reference speed, and
    each pair's time is scaled by the probes nearest to it.  Probes also
    run around every round of phase 2, whose latencies are kept scaled.
    """
    client = server.client
    pairs = pairs_for(run.seed)
    slots = [pair for pair in pairs for _ in (0, 1)]

    if probe is not None:
        mark = len(probe.taken)
        probe.sample(SETUP_PROBES)
    root = spans.open("bench.wall") if spans is not None else None
    start = clock()
    index = spans.open("serve.submit") if spans is not None else None
    batch = client.submit_pairs(slots)
    submit_s = clock() - start
    if spans is not None:
        spans.close(index)
        index = spans.open("serve.wait")
    outcome = wait_batch(client, batch["id"], probe)
    if spans is not None:
        spans.close(index)
        index = spans.open("serve.decode")
    decode_start = clock()
    rows = outcome["jobs"]
    results = [
        SimResult.from_dict(row["result"]) if row.get("result") else None for row in rows
    ]
    decode_s = clock() - decode_start
    wall = clock() - start
    if spans is not None:
        spans.close(index)
        spans.close(root)
    scale = 1.0
    if probe is not None:
        probe.sample(SETUP_PROBES)
        scale = probe.since(mark)

    by_key = {}
    for (workload, config), row, result in zip(slots, rows, results):
        key = f"{workload.name}@@{config.name}"
        ok = run.op(
            row["state"] in ("done", "cached") and result is not None,
            f"{key}: job {row['state']} {row.get('error')}",
        )
        if not ok:
            continue
        first = by_key.get(key)
        if first is None:
            by_key[key] = (row, result)
            checker.pair(result, config, what="serve ")
        else:
            run.op(row["result"] == first[0]["result"], f"{key}: duplicate slot differs")

    root = spans.open("bench.hits") if spans is not None else None
    hits = hit_rounds(run, client, pairs, by_key, spans, probe)
    if spans is not None:
        spans.close(root)
    queued = []
    pair_s = {}
    accesses = {}
    for (workload, config), row in zip(slots, rows):
        if row.get("how") != "queued":
            continue
        queued.append(row)
        key = f"{workload.name}@@{config.name}"
        local = 1.0
        if probe is not None:
            local = probe.around(row["started_at"], row["finished_at"], PROBE_EVERY_S, mark)
        pair_s[key] = row["sim_seconds"] * local
        accesses[key] = row["result"]["loads"] + row["result"]["stores"]
    return {
        "scale": scale,
        "wall": wall,
        "pair_s": pair_s,
        "accesses": accesses,
        "submit_s": submit_s,
        "decode_s": decode_s,
        "rows": rows,
        "queued": queued,
        "by_key": by_key,
        "hits": hits,
        "metrics": client.metrics(),
    }


def hit_rounds(run, client, pairs, by_key, spans, probe):
    """Phase 2: :data:`HIT_ROUNDS` rounds, each asking for every pair once.

    Returns the per-request seconds of each round (scaled by the probes
    on either side of the round when there is a ``probe``).
    """
    hits = []
    before = probe.once() if probe is not None else None
    for _ in range(HIT_ROUNDS):
        times = []
        for workload, config in pairs:
            key = f"{workload.name}@@{config.name}"
            index = spans.open("serve.hit", key) if spans is not None else None
            began = clock()
            view = client.submit(workload, config)
            job = client.job(view["id"], result=True)
            times.append(clock() - began)
            if spans is not None:
                spans.close(index)
            first = by_key.get(key)
            run.op(
                view.get("how") == "cached"
                and first is not None
                and job.get("result") == first[0]["result"],
                f"{key}: re-request was {view.get('how')}, not a matching cache hit",
            )
        if probe is not None:
            after = probe.once()
            times = [seconds * factor([before, after]) for seconds in times]
            before = after
        hits.append(times)
    return hits


def wait_batch(client, batch_id: str, probe=None):
    """Poll the batch every :data:`POLL_S` until it is done; returns its results.

    With a ``probe``, a host-speed probe runs every :data:`PROBE_EVERY_S`.
    """
    deadline = clock() + LIMIT_S
    probed = clock()
    while not client.batch(batch_id).get("done"):
        if clock() > deadline:
            raise RuntimeError(f"batch {batch_id} not done in {LIMIT_S} s")
        if probe is not None and clock() - probed >= PROBE_EVERY_S:
            probe.once()
            probed = clock()
        time.sleep(POLL_S)
    return client.batch_results(batch_id)


def check_persisted(run, server, served, spans) -> ResultCache:
    """Every served result must be in the server's cache directory.

    Reads the shards with the benchmark's own :class:`ResultCache` after
    the server has exited; returns that cache.
    """
    cache = ResultCache(server.cache_dir)
    if spans is not None:
        timed_cache_get(cache, spans)
        root = spans.open("bench.persisted")
    for key, (_, result) in served["by_key"].items():
        got = cache.get(result.workload_digest, result.system_digest)
        run.op(got == result, f"{key}: missing from the server's result cache")
    if spans is not None:
        spans.close(root)
    return cache


def run_serve(run, workers: int) -> None:
    checker = Checker(run)
    probe = Probe()
    servers = []

    def unit():
        """A fresh server: start (set-up), phase 1 and phase 2, drain."""
        mark = len(probe.taken)
        probe.sample(SETUP_PROBES)
        servers.append(Server(run, workers))
        probe.sample(SETUP_PROBES)
        start_s = servers[-1].start_s * probe.since(mark)
        served = serve_pass(run, servers[-1], checker, None, probe)
        servers[-1].stop()
        check_persisted(run, servers[-1], served, None)
        del served["by_key"], served["rows"], served["queued"]
        return start_s, served

    try:
        reps = repeat(unit, run.seconds)
        if run.trace:
            servers.append(Server(run, workers))
            traced = serve_pass(run, servers[-1], checker, run.spans)
            servers[-1].stop()
            cache = check_persisted(run, servers[-1], traced, run.spans)
    finally:
        for server in servers:
            if server.process.poll() is None:
                server.stop()
    checker.save()
    run.detail["passes"] = len(reps)
    run.detail["pass_walls_s"] = [served["wall"] for _, served in reps]

    if not run.trace:
        run.metric("setup_s", median([start_s for start_s, _ in reps]), len(reps))
        walls = [served["wall"] * served["scale"] for _, served in reps]
        run.metric("wall_s", median(walls), len(reps))
        pair_s = median_pairs(served["pair_s"] for _, served in reps)
        accesses = reps[0][1]["accesses"]
        run.pair_timing([(seconds, accesses[key]) for key, seconds in pair_s.items()])
        run.rounds_timing(
            "hit_ms", [times for _, served in reps for times in served["hits"]], scale=1e3
        )
        run.peak_rss()
        return

    selfs = span_layers(run, median(run.detail["pass_walls_s"]), traced["wall"])
    rows = traced["rows"]
    queued = traced["queued"]
    sim_s = sum(row["sim_seconds"] for row in queued)
    metrics = traced["metrics"]
    slots = len(rows) + sum(len(times) for times in traced["hits"])
    coalesced = metrics["coalesced"]
    cache_served = metrics["cache_served"]
    run.metric("serve.submit_ms", traced["submit_s"] * 1e3)
    run.metric("serve.sim_s", sim_s, len(queued))
    run.metric("serve.efficiency", sim_s / (workers * traced["wall"]))
    run.metric("serve.decode_ms", traced["decode_s"] * 1e3, len(rows))
    run.metric("serve.queued", metrics["sims_executed"])
    run.metric("serve.coalesced", coalesced)
    run.metric("serve.cache_served", cache_served)
    run.metric("serve.dedup_ratio", (coalesced + cache_served) / slots, slots)
    run.metric("sim.run_s", sim_s, len(queued))
    results = [result for _, result in traced["by_key"].values()]
    result_layers(run, results)
    run.metric("sim.ns_per_access", sim_s / sum(r.accesses for r in results) * 1e9)
    cache_layers(run, cache)

    pairs = pairs_for(run.seed)
    configs = list({config.name: config for _, config in pairs}.values())
    workloads = list({workload.name: workload for workload, _ in pairs}.values())
    replay_layers(run, configs, workloads)
