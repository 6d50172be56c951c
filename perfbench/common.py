"""Run context shared by every workload: metrics, operations, checks, scratch.

Nothing here imports :mod:`repro` at module level: ``run.py`` scrubs and
sets the ``REPRO_*`` environment first, because the package reads it on
import.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .spans import Spans, median, percentile, tail_percentile

clock = time.perf_counter

#: The seed whose outputs are pinned in ``reference.json``.
DEFAULT_SEED = 0

#: End-to-end metrics, printed with ``--trace 0`` (name -> unit).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "pair_us_per_access_p50": "us",
    "pair_us_per_access_tail": "us",
    "hit_ms_mean": "ms",
    "hit_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics, printed with ``--trace 1`` (name -> unit).  A layer
#: a workload never reaches reports 0.
PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.lines": "count",
    "workloads.ns_per_line": "ns",
    "trace.pack_s": "s",
    "trace.records": "count",
    "trace.ns_per_record": "ns",
    "trace.cold_share": "ratio",
    "core.build_s": "s",
    "core.walkers_s": "s",
    "sim.run_s": "s",
    "sim.accesses": "count",
    "sim.ns_per_access": "ns",
    "sim.walker_pairs": "count",
    "sim.batch_pairs": "count",
    "sim.cycles": "cycles",
    "memory.l1_hit_rate": "ratio",
    "memory.l15_hit_rate": "ratio",
    "memory.l2_hit_rate": "ratio",
    "memory.dram_bytes": "bytes",
    "memory.remote_fraction": "ratio",
    "memory.migration_bytes": "bytes",
    "interconnect.link_bytes": "bytes",
    "sched.ctas": "count",
    "experiments.cache_get_s": "s",
    "experiments.cache_lookups": "count",
    "experiments.cache_hit_ratio": "ratio",
    "parallel.batch_s": "s",
    "parallel.sim_s": "s",
    "parallel.pairs_executed": "count",
    "parallel.pairs_cached": "count",
    "parallel.efficiency": "ratio",
    "explore.self_s": "s",
    "explore.runner_calls": "count",
    "explore.report_s": "s",
    "serve.submit_ms": "ms",
    "serve.sim_s": "s",
    "serve.efficiency": "ratio",
    "serve.decode_ms": "ms",
    "serve.queued": "count",
    "serve.coalesced": "count",
    "serve.cache_served": "count",
    "serve.dedup_ratio": "ratio",
    "bench.tracing_overhead": "ratio",
    "bench.unattributed_share": "ratio",
}

#: Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Environment knobs that switch the program's paths or its cache.  They
#: are scrubbed from the inherited environment and set per workload, so
#: a stray setting cannot change what is measured.
SCRUBBED_ENV = (
    "REPRO_SIM_PERLINE",
    "REPRO_PROFILE",
    "REPRO_WORKERS",
    "REPRO_CACHE_DIR",
    "REPRO_NO_CACHE",
)

#: Re-request rounds behind ``hit_ms`` after each unit of timed work,
#: and calls per round.
HIT_ROUNDS = 20
HIT_ROUND_CALLS = 96

#: Timed units a run repeats at least, whatever ``--seconds`` allows.
MIN_REPS = 3

#: Host-speed probes taken before and after set-up, which ``setup_s`` is
#: scaled by (see :mod:`perfbench.probe`).
SETUP_PROBES = 5

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"


def isolate_environment(workers: int, cache_dir: Path, cache: bool) -> None:
    """Scrub the inherited ``REPRO_*`` knobs and set them explicitly."""
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_SIM_PERLINE"] = "0"
    os.environ["REPRO_PROFILE"] = "0"
    os.environ["REPRO_WORKERS"] = str(workers)
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ["REPRO_NO_CACHE"] = "0" if cache else "1"


class Run:
    """One benchmark invocation: operations, metrics, spans and scratch."""

    def __init__(
        self,
        workload: str,
        seed: int,
        trace: bool,
        root: Path,
        record: bool = False,
        seconds: float = 10.0,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        #: Seconds the untraced units repeat for (half of ``--seconds``
        #: when traced, so a traced run takes no longer).
        self.seconds = seconds / 2 if trace else seconds
        self.root = root
        self.record = record
        self.scratch = root / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: name -> (value, samples) for the metrics this mode prints.
        self.values: Dict[str, tuple] = {}
        #: Extra facts for the result file (percentiles used, per config).
        self.detail: Dict[str, object] = {}
        self.spans: Optional[Spans] = Spans() if trace else None
        self._dirs = 0

    # -- scratch -------------------------------------------------------

    def fresh_dir(self, label: str) -> Path:
        """A new empty directory under this run's scratch root."""
        self._dirs += 1
        path = self.scratch / f"{self._dirs:02d}-{label}"
        path.mkdir(parents=True)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        parent = self.scratch.parent
        if parent.is_dir() and not any(parent.iterdir()):
            parent.rmdir()

    # -- operations ----------------------------------------------------

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one attempted operation; a falsy ``ok`` counts it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    # -- metrics -------------------------------------------------------

    def metric(self, name: str, value: float, samples: int = 1) -> None:
        self.values[name] = (float(value), samples)

    def rounds_timing(self, prefix: str, rounds: Sequence[Sequence[float]], scale: float) -> None:
        """``<prefix>_mean`` and ``<prefix>_tail`` from rounds of request latencies.

        Each round gets its mean and its tail percentile (the highest
        with at least ten calls beyond it); the metrics are the medians
        of those over the rounds.  A burst from another tenant of the
        host lands in some rounds and not others, and moves these medians
        less than statistics of all calls pooled.  The mean stands in for
        the median because single calls fall in two clusters (about 9
        and 13 us for a library hit), and the median of such a mix jumps
        between them from run to run.
        """
        pct = tail_percentile(len(rounds[0]))
        means = [sum(r) / len(r) for r in rounds]
        self.detail[f"{prefix}_round_means"] = [mean * scale for mean in means]
        self.metric(f"{prefix}_mean", median(means) * scale, len(rounds))
        self.metric(
            f"{prefix}_tail", median([percentile(r, pct) for r in rounds]) * scale, len(rounds)
        )
        self.detail[f"{prefix}_tail_percentile"] = pct

    def pair_timing(self, pairs) -> None:
        """Pair metrics from ``(seconds, accesses)``: host time per simulated access.

        Pair times spread over two orders of magnitude, so their median
        falls on a steep part of the distribution and jumps between runs;
        time per access is nearly flat there.  Where a pair was timed
        more than once the caller passes its median time.  Pair-second
        percentiles go to the result file.
        """
        per_access = [s / n * 1e6 for s, n in pairs]
        pct = tail_percentile(len(per_access))
        self.metric("pair_us_per_access_p50", median(per_access), len(per_access))
        self.metric("pair_us_per_access_tail", percentile(per_access, pct), len(per_access))
        self.detail["pair_us_per_access_tail_percentile"] = pct
        seconds = [s for s, _ in pairs]
        self.detail["pair_s"] = {
            "p50": median(seconds), f"p{pct}": percentile(seconds, pct), "n": len(seconds)
        }

    def peak_rss(self) -> None:
        """Peak resident set of this process and its waited-for children."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.metric("peak_rss_mb", max(own, children) / 1024.0)

    def layer_defaults(self) -> None:
        """Zero every per-layer metric this workload does not reach."""
        for name in PER_LAYER:
            self.values.setdefault(name, (0.0, 0))


def unique_results(results) -> list:
    """Results deduplicated by (workload digest, system digest), in order."""
    seen = {}
    for result in results:
        seen.setdefault((result.workload_digest, result.system_digest), result)
    return list(seen.values())


def result_layers(run: Run, results) -> None:
    """Simulated-count layers (identical under simulator-only changes)."""
    results = unique_results(results)

    def rate(level: str) -> float:
        hits = sum(getattr(r, level).hits for r in results)
        total = hits + sum(getattr(r, level).misses for r in results)
        return hits / total if total else 0.0

    routed = sum(r.page_local + r.page_remote for r in results)
    n = len(results)
    run.metric("sim.accesses", sum(r.accesses for r in results), n)
    run.metric("sim.cycles", sum(r.cycles for r in results), n)
    run.metric("memory.l1_hit_rate", rate("l1"), n)
    run.metric("memory.l15_hit_rate", rate("l15"), n)
    run.metric("memory.l2_hit_rate", rate("l2"), n)
    run.metric("memory.dram_bytes", sum(r.dram_bytes for r in results), n)
    run.metric(
        "memory.remote_fraction",
        sum(r.page_remote for r in results) / routed if routed else 0.0,
        n,
    )
    run.metric("memory.migration_bytes", sum(r.migration_bytes for r in results), n)
    run.metric("interconnect.link_bytes", sum(r.link_bytes for r in results), n)
    run.metric("sched.ctas", sum(r.ctas for r in results), n)


def span_layers(run: Run, wall_untraced: float, wall_traced: float) -> Dict[str, float]:
    """Tracing overhead and the traced wall's share in no layer span."""
    selfs = run.spans.self_times()
    run.metric("bench.tracing_overhead", wall_traced / wall_untraced - 1.0)
    run.metric(
        "bench.unattributed_share",
        selfs.get("bench.wall", 0.0) / run.spans.total("bench.wall"),
    )
    run.detail["self_seconds"] = {name: selfs[name] for name in sorted(selfs)}
    run.detail["wall_untraced_s"] = wall_untraced
    run.detail["wall_traced_s"] = wall_traced
    return selfs


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


class Checker:
    """Checks simulated outputs: reference at the default seed, else invariants.

    At :data:`DEFAULT_SEED` every pair's ``metrics_of`` must equal the
    entry recorded in ``reference.json`` (and the ``golden/metrics.json``
    entry where one exists for the same digests).  At any other seed the
    conservation laws of ``validate.invariants.check_result`` must hold.
    With ``record`` set, pairs are collected into the reference instead.
    """

    def __init__(self, run: Run) -> None:
        from repro.core.config import MODEL_REV
        from repro.sim.result import RESULT_SCHEMA

        self.run = run
        self.model_rev = MODEL_REV
        self.result_schema = RESULT_SCHEMA
        self.pinned = run.seed == DEFAULT_SEED
        self.recorded: Dict[str, object] = {}
        #: ``metrics_of`` key order of the recorded value lists.
        self.metric_names: List[str] = []
        self.reference = load_reference()
        self.stale = (
            self.reference.get("model_rev") != MODEL_REV
            or self.reference.get("result_schema") != RESULT_SCHEMA
        )
        golden_path = run.root / "golden" / "metrics.json"
        self.golden = json.loads(golden_path.read_text()).get("entries", {})

    def _expected(self) -> Dict[str, object]:
        return self.reference.get("workloads", {}).get(self.run.workload, {})

    def pair(self, result, config, what: str = "") -> bool:
        """Check one simulated pair; counts one operation."""
        from repro.validate.golden import metrics_of

        key = f"{result.workload_name}@@{config.name}"
        label = f"{what}{key}"
        if not self.pinned or self.run.record:
            if self.run.record and self.pinned:
                metrics = metrics_of(result)
                self.metric_names = list(metrics)
                self.recorded.setdefault("pairs", {})[key] = list(metrics.values())
            return self.invariants(result, config, what)
        if self.stale:
            return self.run.op(False, f"{label}: reference is for another MODEL_REV")
        values = list(metrics_of(result).values())
        expected = self._expected().get("pairs", {}).get(key)
        ok = expected == values
        golden = self.golden.get(key)
        if (
            golden is not None
            and golden["workload_digest"] == result.workload_digest
            and golden["system_digest"] == result.system_digest
        ):
            ok = ok and golden["metrics"] == metrics_of(result)
        return self.run.op(ok, f"{label}: differs from the reference")

    def golden_pair(self, result, config) -> bool:
        """Check one pair against its ``golden/metrics.json`` entry; counts one operation."""
        from repro.validate.golden import metrics_of

        key = f"{result.workload_name}@@{config.name}"
        golden = self.golden.get(key)
        ok = (
            golden is not None
            and golden["workload_digest"] == result.workload_digest
            and golden["system_digest"] == result.system_digest
            and golden["metrics"] == metrics_of(result)
        )
        return self.run.op(ok, f"{key}: differs from golden/metrics.json")

    def invariants(self, result, config, what: str = "") -> bool:
        """Check one pair's conservation laws; counts one operation."""
        from repro.validate.invariants import check_result

        violations = check_result(result, config)
        return self.run.op(
            not violations,
            f"{what}{result.workload_name}@@{config.name}: {violations[:2]}",
        )

    def digest(self, name: str, value: str) -> bool:
        """Check one recorded digest (e.g. a report file's sha256)."""
        if not self.pinned:
            return True
        if self.run.record:
            self.recorded[name] = value
            return True
        if self.stale:
            return self.run.op(False, f"{name}: reference is for another MODEL_REV")
        return self.run.op(
            self._expected().get(name) == value, f"{name}: {value} differs"
        )

    def save(self) -> None:
        """Merge this run's recorded entries into ``reference.json``."""
        if not (self.run.record and self.pinned):
            return
        reference = load_reference()
        if reference.get("model_rev") != self.model_rev:
            reference = {"workloads": {}}
        reference["model_rev"] = self.model_rev
        reference["result_schema"] = self.result_schema
        if self.metric_names:
            reference["metric_names"] = self.metric_names
        reference.setdefault("workloads", {})[self.run.workload] = self.recorded
        REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def load_reference() -> Dict[str, object]:
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# provenance and set-up probes
# ----------------------------------------------------------------------


def provenance(root: Path) -> Dict[str, object]:
    """What a result was measured with; results compare only at one MODEL_REV."""
    from repro.core.config import MODEL_REV
    from repro.sim.result import RESULT_SCHEMA

    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "model_rev": MODEL_REV,
        "result_schema": RESULT_SCHEMA,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


#: Fresh-interpreter imports per run; the median is reported.
IMPORT_REPEATS = 5
#: Modules a fresh interpreter imports before it can simulate anything.
IMPORT_PROBE = (
    "import repro.sim.simulator, repro.workloads.suite, "
    "repro.core.presets, repro.experiments.common"
)


def import_seconds(root: Path, repeats: int = IMPORT_REPEATS) -> float:
    """Median time for a fresh interpreter to import the simulator."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    samples = []
    for _ in range(repeats):
        start = clock()
        subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root,
            env=env,
            check=True,
            timeout=120,
        )
        samples.append(clock() - start)
    return median(samples)


def repeat(unit, seconds: float, min_reps: int = MIN_REPS) -> list:
    """Call ``unit()`` at least ``min_reps`` times, and again while another fits in ``seconds``.

    A further call is made only if it should end by the deadline, judged
    by the last call's duration.  Returns the calls' results in order.
    """
    results = []
    deadline = clock() + seconds
    last = 0.0
    while len(results) < min_reps or clock() + last <= deadline:
        began = clock()
        results.append(unit())
        last = clock() - began
    return results


def median_pairs(passes) -> Dict[str, float]:
    """Per pair key, the median of its seconds over repeated passes.

    ``passes`` holds one ``{key: seconds}`` mapping per pass.
    """
    passes = list(passes)
    return {key: median([timed[key] for timed in passes]) for key in passes[0]}


class Rerequests:
    """Re-requests finished pairs through ``experiments.common.run_one`` (``hit_ms``).

    Finished ``(workload, config, result)`` triples go into this object's
    own :class:`ResultCache`; :meth:`measure` then asks for them again in
    :data:`HIT_ROUNDS` rounds of :data:`HIT_ROUND_CALLS` calls, cycling
    through the pairs, and checks every answer is the cached result.
    Callers measure after every unit of timed work, so the rounds spread
    over the whole run; ``spent`` is the time taken here, for callers
    that must leave it out of a wall time.
    """

    def __init__(self, run) -> None:
        from repro.experiments.common import ResultCache

        self.run = run
        self.cache = ResultCache(run.fresh_dir("hits"))
        self.pairs: list = []
        #: Per-call seconds, one list per round.
        self.rounds: List[List[float]] = []
        self.spent = 0.0

    def add(self, finished) -> None:
        """Add ``(workload, config, result)`` triples to the cache."""
        for triple in finished:
            self.cache.absorb(triple[2])
            self.pairs.append(triple)

    def measure(self, probe=None, rounds: int = HIT_ROUNDS, calls: int = HIT_ROUND_CALLS) -> None:
        """Time ``rounds`` rounds of re-requests.

        With a ``probe`` (:class:`perfbench.probe.Probe`), one runs before
        the first round and after every round, and each round's seconds
        are kept scaled to reference speed by the probes on either side.
        """
        from repro.experiments.common import run_one

        from .probe import factor

        spans = self.run.spans
        index = spans.open("bench.hits") if spans is not None else None
        start = clock()
        missed = 0
        before = probe.once() if probe is not None else None
        for _ in range(rounds):
            times = []
            for number in range(calls):
                workload, config, result = self.pairs[number % len(self.pairs)]
                began = clock()
                got = run_one(workload, config, cache=self.cache)
                times.append(clock() - began)
                missed += got is not result
            if probe is not None:
                after = probe.once()
                scale = factor([before, after])
                times = [seconds * scale for seconds in times]
                before = after
            self.rounds.append(times)
        self.spent += clock() - start
        if spans is not None:
            spans.close(index)
        self.run.op(not missed, f"{missed} re-requested pairs missed the cache")
