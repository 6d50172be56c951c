"""Shared experiment infrastructure: suite runs and a persistent cache.

Every figure/table reproduction runs some subset of the 48-workload suite
on some set of system configurations.  Simulations are deterministic, so
results are cached on disk keyed by ``(workload digest, system digest)``;
re-running a bench (or several benches that share the baseline) costs only
the first run.  Set the ``REPRO_CACHE_DIR`` environment variable to move
the cache, or ``REPRO_NO_CACHE=1`` to disable it.

Suite runs fan out over a process pool when more than one worker is
available (``REPRO_WORKERS``, defaulting to the machine's core count; see
:mod:`repro.parallel`).  ``REPRO_WORKERS=1`` forces the classic serial
path, which is useful when bisecting determinism issues.  The cache file
format is concurrency-safe: every entry is appended as a single
``O_APPEND`` write under an advisory lock, and loads merge every
``results*.jsonl`` shard in the cache directory, tolerating duplicate and
truncated lines — so any number of processes may share one cache
directory.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

try:  # advisory file locking; absent on some exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - POSIX always has fcntl
    fcntl = None  # type: ignore[assignment]

from ..core.config import MODEL_REV, SystemConfig
from ..sim.result import RESULT_SCHEMA, SimResult
from ..sim.simulator import Simulator
from ..workloads.suite import suite_workloads
from ..workloads.synthetic import Category, SyntheticWorkload
from ..workloads.trace import Workload


def _default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[3] / ".repro_cache"


@dataclass(frozen=True)
class CacheStoreStats:
    """Snapshot of a :class:`ResultCache`'s contents (see ``stats()``).

    ``stale_entries`` counts entries whose system digest carries a
    ``r<N>|`` model-revision prefix different from the current
    :data:`~repro.core.config.MODEL_REV` — dead weight that can never be
    served again and that :meth:`ResultCache.prune` reclaims.
    ``corrupt_lines`` counts complete shard lines that do not parse into
    an entry (never served; prune drops them too).
    """

    entries: int
    bytes_on_disk: int
    stale_entries: int
    entries_by_rev: Dict[int, int]
    corrupt_lines: int = 0


def _key_model_rev(key: str) -> Optional[int]:
    """Model revision parsed from a cache key's ``r<N>|`` digest prefix.

    Keys are ``<workload digest>##<system digest>`` and system digests
    lead with ``r<MODEL_REV>|``; returns None for keys that do not parse
    (foreign or hand-edited entries).
    """
    _, sep, system_digest = key.partition("##")
    if not sep or not system_digest.startswith("r"):
        return None
    rev, sep, _ = system_digest[1:].partition("|")
    if not sep:
        return None
    try:
        return int(rev)
    except ValueError:
        return None


class ResultCache:
    """Append-only JSONL cache of simulation results.

    Safe for concurrent writers: entries are appended as single
    ``O_APPEND`` writes (additionally serialized by an advisory ``flock``
    where available), so lines from different processes never interleave.
    A cache may also be opened with a ``shard`` suffix, giving each writer
    its own ``results-<shard>.jsonl`` file; :meth:`_load` merges every
    ``results*.jsonl`` in the directory, so shard and non-shard writers
    share one namespace.  Duplicate keys are tolerated (last parsed entry
    wins — entries for one key are identical anyway because simulations
    are deterministic).

    ``hits``/``misses`` count :meth:`get` outcomes, so ``hits / (hits +
    misses)`` is the true lookup hit rate regardless of whether a miss is
    later followed by a :meth:`put`.
    """

    def __init__(self, directory: Optional[Path] = None, shard: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory is not None else _default_cache_dir()
        self.shard = shard
        name = "results.jsonl" if shard is None else f"results-{shard}.jsonl"
        self.path = self.directory / name
        self._memory: Dict[str, SimResult] = {}
        #: Keys of on-disk entries written under an older RESULT_SCHEMA —
        #: never served, but reported by :meth:`stats` and reclaimed by
        #: :meth:`prune` like rev-stale entries.
        self._stale_schema_keys: List[str] = []
        #: Per-shard read progress: path -> (inode, size, mtime_ns,
        #: consumed bytes, corrupt lines among them).  ``refresh`` compares
        #: a fresh ``stat`` against this to skip untouched shards and to
        #: resume appending shards from the last complete line instead of
        #: re-reading them.
        self._shard_state: Dict[str, Tuple[int, int, int, int, int]] = {}
        self._loaded = False
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(workload_digest: str, system_digest: str) -> str:
        """Cache key for one (workload, system) pair."""
        return f"{workload_digest}##{system_digest}"

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        self._scan()

    def _absorb_line(self, raw: bytes) -> bool:
        """Parse one JSONL entry into memory; False for a corrupt line.

        A corrupt line — not UTF-8 JSON, not an entry object, or a result
        that does not rebuild a :class:`SimResult` — is skipped, never
        served and never raised.
        """
        line = raw.strip()
        if not line:
            return True
        try:
            entry = json.loads(line)
            key = entry["key"]
            payload = entry["result"]
            # Entries written under an older result schema are
            # never served: their stats no longer match what
            # fresh simulations (and the invariant layer)
            # produce.  Absent marker == schema 1.
            stale = entry.get("schema", 1) != RESULT_SCHEMA
            result = None if stale else SimResult.from_dict(payload)
        except (ValueError, KeyError, TypeError, AttributeError):
            return False
        if not isinstance(key, str):
            return False
        if stale:
            if key not in self._stale_schema_keys:
                self._stale_schema_keys.append(key)
        else:
            self._memory[key] = result
        return True

    def _read_shard(self, path: Path, offset: int) -> Tuple[int, int]:
        """Absorb complete lines of ``path`` from ``offset``.

        Returns the new offset and the number of corrupt lines read.  Only
        whole lines are consumed: a torn trailing line (a concurrent
        writer caught mid-append) is left for the next refresh, when the
        grown file size forces another read that picks up the completed
        entry.
        """
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                data = handle.read()
        except OSError:  # pragma: no cover - shard deleted mid-scan
            return offset, 0
        complete, newline, _tail = data.rpartition(b"\n")
        if not newline:
            return offset, 0
        corrupt = 0
        for raw in complete.split(b"\n"):
            if not self._absorb_line(raw):
                corrupt += 1
        return offset + len(complete) + 1, corrupt

    def _scan(self) -> None:
        """Read every shard's unseen bytes, updating the per-shard state."""
        if not self.directory.is_dir():
            return
        for path in sorted(self.directory.glob("results*.jsonl")):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - shard deleted mid-scan
                continue
            signature = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
            state = self._shard_state.get(str(path))
            if state is not None and state[:3] == signature:
                continue  # untouched since the last scan
            consumed = corrupt = 0
            if state is not None and state[0] == signature[0] and stat.st_size >= state[3]:
                # Same inode, grown (or same-size touch): shards are
                # append-only, so resume from the last complete line.
                consumed, corrupt = state[3], state[4]
            # else: new shard, or replaced/truncated (prune rewrites via
            # rename, changing the inode) — read it from the top; entry
            # absorption is idempotent, so re-reads only cost time.
            consumed, more = self._read_shard(path, consumed)
            self._shard_state[str(path)] = (*signature, consumed, corrupt + more)

    def refresh(self) -> int:
        """Pick up entries appended by other processes since the last read.

        Stats every ``results*.jsonl`` shard and incrementally reads the
        ones whose (inode, size, mtime) changed — a long-running server
        polls this cheaply instead of reopening the cache.  Returns the
        number of entries that became visible (stale-schema entries
        included, since they affect :meth:`stats`/:meth:`prune`).
        """
        if not self._loaded:
            # First touch: the initial load IS the refresh, and every
            # entry it finds "became visible" to this process.
            self._load()
            return len(self._memory) + len(self._stale_schema_keys)
        before = len(self._memory) + len(self._stale_schema_keys)
        self._scan()
        return len(self._memory) + len(self._stale_schema_keys) - before

    def get(self, workload_digest: str, system_digest: str) -> Optional[SimResult]:
        """Cached result, or None.  Counts toward ``hits``/``misses``."""
        self._load()
        result = self._memory.get(self.key(workload_digest, system_digest))
        if result is not None:
            self.hits += 1
        else:
            self.misses += 1
        return result

    def put(self, result: SimResult) -> None:
        """Store a result in memory and append it to the cache file."""
        self._load()
        key = self.key(result.workload_digest, result.system_digest)
        self._memory[key] = result
        self.directory.mkdir(parents=True, exist_ok=True)
        line = json.dumps(
            {"key": key, "schema": RESULT_SCHEMA, "result": result.to_dict()}
        ) + "\n"
        # One O_APPEND write per entry: atomic on local POSIX filesystems,
        # belt-and-braces flock for NFS and very large entries.
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, line.encode("utf-8"))
        finally:
            if fcntl is not None:
                try:
                    fcntl.flock(fd, fcntl.LOCK_UN)
                except OSError:  # pragma: no cover
                    pass
            os.close(fd)

    def absorb(self, result: SimResult) -> None:
        """Record a result in memory only (it is already on disk elsewhere).

        The parallel runner's workers persist results to their own shard
        files; the coordinating process absorbs the returned results so
        later :meth:`get` calls hit without re-reading the directory.
        """
        self._load()
        self._memory[self.key(result.workload_digest, result.system_digest)] = result

    def __len__(self) -> int:
        self._load()
        return len(self._memory) + len(self._stale_schema_keys)

    def stats(self, model_rev: int = MODEL_REV) -> CacheStoreStats:
        """Entry count, disk footprint, and stale-revision census.

        ``model_rev`` is the revision considered *current*; entries with
        any other (or unparseable) ``r<N>|`` prefix count as stale, as do
        entries written under an older ``RESULT_SCHEMA`` (which are never
        served regardless of revision).  Unparseable keys are tallied
        under revision ``-1``.
        """
        self._load()
        by_rev: Dict[int, int] = {}
        for key in list(self._memory) + self._stale_schema_keys:
            rev = _key_model_rev(key)
            by_rev[rev if rev is not None else -1] = (
                by_rev.get(rev if rev is not None else -1, 0) + 1
            )
        stale = sum(
            1 for key in self._memory if _key_model_rev(key) != model_rev
        ) + len(self._stale_schema_keys)
        bytes_on_disk = 0
        if self.directory.is_dir():
            for path in self.directory.glob("results*.jsonl"):
                try:
                    bytes_on_disk += path.stat().st_size
                except OSError:  # pragma: no cover - shard deleted mid-scan
                    continue
        return CacheStoreStats(
            entries=len(self._memory) + len(self._stale_schema_keys),
            bytes_on_disk=bytes_on_disk,
            stale_entries=stale,
            entries_by_rev=by_rev,
            corrupt_lines=sum(state[4] for state in self._shard_state.values()),
        )

    def prune(self, model_rev: int = MODEL_REV) -> int:
        """Drop every entry not produced by ``model_rev``; compact shards.

        Long-lived caches accumulate dead entries across MODEL_REV bumps
        (old keys never match again, but their lines still cost disk and
        load time).  Rewrites the surviving entries into this cache's own
        file atomically (write-temp-then-rename) and removes every other
        ``results*.jsonl`` shard.  Not safe to run concurrently with
        writers — this is a maintenance operation, not a hot-path one.
        Returns the number of entries dropped.
        """
        self._load()
        keep = {
            key: result
            for key, result in self._memory.items()
            if _key_model_rev(key) == model_rev
        }
        dropped = len(self._memory) - len(keep) + len(self._stale_schema_keys)
        self._stale_schema_keys = []
        self.directory.mkdir(parents=True, exist_ok=True)
        temp = self.path.with_suffix(".tmp")
        with open(temp, "w") as handle:
            for key, result in keep.items():
                handle.write(
                    json.dumps(
                        {"key": key, "schema": RESULT_SCHEMA, "result": result.to_dict()}
                    )
                    + "\n"
                )
        os.replace(temp, self.path)
        for path in list(self.directory.glob("results*.jsonl")):
            if path != self.path:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
        self._memory = keep
        # The rewrite replaced our file (new inode) and removed the other
        # shards; drop the read-progress state so a later refresh re-stats
        # from scratch instead of trusting dead signatures.
        self._shard_state = {}
        try:
            stat = self.path.stat()
            self._shard_state[str(self.path)] = (
                stat.st_ino,
                stat.st_size,
                stat.st_mtime_ns,
                stat.st_size,
                0,
            )
        except OSError:  # pragma: no cover - file removed underneath us
            pass
        return dropped


#: Sentinel meaning "use the process-wide default cache, resolved at call
#: time" — a plain ``cache=DEFAULT_CACHE`` default would freeze whatever
#: the environment looked like at import time.
_USE_DEFAULT = object()

#: Process-wide default cache instance (kept in sync by :func:`default_cache`;
#: prefer calling that over reading this directly).
DEFAULT_CACHE: Optional[ResultCache] = None

#: Environment snapshot the current DEFAULT_CACHE was built from.
_DEFAULT_CACHE_ENV: Optional[tuple] = None


def default_cache() -> Optional[ResultCache]:
    """The process-wide default cache, honoring the current environment.

    Re-reads ``REPRO_NO_CACHE``/``REPRO_CACHE_DIR`` on every call and
    rebuilds :data:`DEFAULT_CACHE` when they changed, so tests and scripts
    can flip caching on, off, or elsewhere after import.  Monkeypatching
    :data:`DEFAULT_CACHE` directly also works: the patched instance is
    returned as long as the environment is unchanged.
    """
    global DEFAULT_CACHE, _DEFAULT_CACHE_ENV
    env = (os.environ.get("REPRO_NO_CACHE", ""), os.environ.get("REPRO_CACHE_DIR", ""))
    if env != _DEFAULT_CACHE_ENV:
        _DEFAULT_CACHE_ENV = env
        disabled = env[0] not in ("", "0")
        DEFAULT_CACHE = None if disabled else ResultCache()
    return DEFAULT_CACHE


def _resolve_cache(cache) -> Optional[ResultCache]:
    if cache is _USE_DEFAULT:
        return default_cache()
    return cache


def run_one(
    workload: Workload,
    config: SystemConfig,
    cache=_USE_DEFAULT,
) -> SimResult:
    """Simulate one workload on one configuration, using the cache."""
    cache = _resolve_cache(cache)
    digest = workload.digest()
    if cache is not None:
        cached = cache.get(digest, config.digest())
        if cached is not None:
            return cached
    result = Simulator(config).run(workload)
    if cache is not None:
        cache.put(result)
    return result


def run_suite(
    config: SystemConfig,
    workloads: Optional[Iterable[Workload]] = None,
    cache=_USE_DEFAULT,
) -> Dict[str, SimResult]:
    """Run (or fetch) the whole suite on ``config``; keyed by workload name.

    Transparently fans out over a process pool when more than one worker
    is configured (see :func:`repro.parallel.resolve_workers`); with
    ``REPRO_WORKERS=1`` this is the classic serial loop.
    """
    return run_suites([config], workloads=workloads, cache=cache)[0]


def run_suites(
    configs: Sequence[SystemConfig],
    workloads: Optional[Iterable[Workload]] = None,
    cache=_USE_DEFAULT,
    max_workers: Optional[int] = None,
    progress=None,
    metrics=None,
) -> List[Dict[str, SimResult]]:
    """Run the suite on several configurations in one (parallel) batch.

    Returns one ``{workload name: SimResult}`` dict per configuration, in
    input order — the exact shape :func:`run_suite` returns per config.
    Batching every configuration of an experiment into one call lets the
    parallel runner overlap *all* (workload, config) pairs instead of
    synchronizing at each configuration boundary.

    ``progress``, when given, is called as ``progress(done, total,
    result)`` after each simulated (non-cached) pair.

    ``metrics``, when given, is a private
    :class:`~repro.parallel.metrics.SuiteMetrics` sink that receives the
    same batch/sim records as the process-wide ``GLOBAL_METRICS`` — it
    lets a caller (e.g. the explore rung accounting) scope its cost
    deltas to its own runs, immune to concurrent suite activity.
    """
    from ..parallel import metrics as _metrics
    from ..parallel import runner as _runner

    cache = _resolve_cache(cache)
    configs = list(configs)
    workload_list = list(workloads) if workloads is not None else suite_workloads()
    workers = _runner.resolve_workers(max_workers)

    start = time.time()
    hits_before = cache.hits if cache is not None else 0
    results: List[Dict[str, SimResult]]
    total = len(configs) * len(workload_list)
    if workers > 1:
        # The parallel runner deduplicates (workload, config) pairs and
        # calls cache.get once per unique pair, so the hits delta would
        # undercount duplicated output slots; it reports the per-slot
        # count itself.
        stats: Dict[str, int] = {}
        results = _runner.run_suite_parallel(
            configs,
            workloads=workload_list,
            max_workers=workers,
            cache=cache,
            progress=progress,
            stats=stats,
            metrics=metrics,
        )
        cached = stats.get("cached_slots", 0)
    else:
        results = [
            _run_suite_serial(config, workload_list, cache, progress, metrics=metrics)
            for config in configs
        ]
        hits_after = cache.hits if cache is not None else 0
        cached = hits_after - hits_before
    for sink in (_metrics.GLOBAL_METRICS, metrics):
        if sink is None:
            continue
        sink.record_batch(
            configs=[config.name for config in configs],
            total=total,
            cached=cached,
            wall=time.time() - start,
            workers=workers,
        )
    return results


def _run_suite_serial(
    config: SystemConfig,
    workloads: Iterable[Workload],
    cache: Optional[ResultCache],
    progress=None,
    metrics=None,
) -> Dict[str, SimResult]:
    """The classic serial loop: one reused simulator, workloads in order.

    ``progress`` follows the parallel runner's convention: ``total``
    counts only the pairs actually simulated, so a cache-hit pass never
    reports ``done < total`` at completion.
    """
    from ..parallel import metrics as _metrics

    workload_list = list(workloads)
    config_digest = config.digest()
    results: Dict[str, SimResult] = {}
    misses: List[Workload] = []
    for workload in workload_list:
        cached = cache.get(workload.digest(), config_digest) if cache is not None else None
        if cached is not None:
            results[workload.name] = cached
        else:
            misses.append(workload)

    simulator: Optional[Simulator] = None
    done = 0
    for workload in misses:
        if simulator is None:
            from ..parallel.runner import profiling_enabled
            from ..telemetry import Telemetry

            telemetry = Telemetry() if profiling_enabled() else None
            simulator = Simulator(config, telemetry=telemetry)
        sim_start = time.time()
        result = simulator.run(workload)
        sim_seconds = time.time() - sim_start
        _metrics.GLOBAL_METRICS.record_sim(result.system_name, sim_seconds)
        if metrics is not None:
            metrics.record_sim(result.system_name, sim_seconds)
        if simulator.telemetry is not None:
            _metrics.GLOBAL_METRICS.record_telemetry(simulator.telemetry.summary())
        if cache is not None:
            cache.put(result)
        results[workload.name] = result
        done += 1
        if progress is not None:
            progress(done, len(misses), result)
    return {
        workload.name: results[workload.name]
        for workload in workload_list
        if workload.name in results
    }


def category_of(workloads: Iterable[SyntheticWorkload]) -> Dict[str, Category]:
    """Workload-name -> category mapping for grouping report rows."""
    return {workload.name: workload.category for workload in workloads}


def names_in_category(category: Category) -> List[str]:
    """Suite workload names belonging to ``category``."""
    return [workload.name for workload in suite_workloads(category)]


def filter_names(results: Mapping[str, SimResult], names: Iterable[str]) -> Dict[str, SimResult]:
    """Subset of ``results`` restricted to ``names`` (order preserved)."""
    return {name: results[name] for name in names if name in results}


# Materialize the default so ``from repro.experiments import DEFAULT_CACHE``
# keeps returning a live cache (or None under REPRO_NO_CACHE) at import time.
default_cache()
