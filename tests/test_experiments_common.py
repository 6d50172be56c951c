"""Unit tests for the experiment runner and result cache."""

import json

import pytest

from repro.core.config import MODEL_REV
from repro.core.presets import baseline_mcm_gpu
from repro.experiments import common
from repro.experiments.common import (
    ResultCache,
    default_cache,
    filter_names,
    names_in_category,
    run_one,
    run_suite,
)
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def tiny_workload(name="cache-wl"):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern="streaming",
            n_ctas=16,
            groups_per_cta=2,
            records_per_group=2,
            accesses_per_record=2,
            kernel_iterations=1,
            footprint_bytes=256 * 1024,
        )
    )


def tiny_config():
    return baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = tiny_workload()
        config = tiny_config()
        first = run_one(workload, config, cache)
        assert cache.misses == 1
        second = run_one(workload, config, cache)
        assert cache.hits == 1
        assert second == first

    def test_persists_across_instances(self, tmp_path):
        workload = tiny_workload()
        config = tiny_config()
        run_one(workload, config, ResultCache(tmp_path))
        fresh = ResultCache(tmp_path)
        cached = fresh.get(workload.digest(), config.digest())
        assert cached is not None
        assert cached.workload_name == "cache-wl"

    def test_distinguishes_configs(self, tmp_path):
        cache = ResultCache(tmp_path)
        workload = tiny_workload()
        run_one(workload, tiny_config(), cache)
        other = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, link_bandwidth=384.0)
        assert cache.get(workload.digest(), other.digest()) is None

    def test_tolerates_corrupt_lines(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_one(tiny_workload(), tiny_config(), cache)
        with open(cache.path, "a") as handle:
            handle.write("not json\n")
            handle.write(json.dumps({"unrelated": 1}) + "\n")
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 1
        assert fresh.stats().corrupt_lines == 2

    def test_no_cache_mode(self):
        result = run_one(tiny_workload(), tiny_config(), cache=None)
        assert result.ctas == 16

    def test_get_counts_misses_without_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("nope", "nada") is None
        assert cache.get("still", "nope") is None
        assert cache.misses == 2
        assert cache.hits == 0

    def test_put_does_not_count_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_one(tiny_workload(), tiny_config(), cache=None)
        cache.put(result)
        assert cache.misses == 0

    def test_merges_shard_files(self, tmp_path):
        workload = tiny_workload("shard-wl")
        config = tiny_config()
        result = run_one(workload, config, cache=None)
        ResultCache(tmp_path, shard="w123").put(result)
        merged = ResultCache(tmp_path)
        assert merged.get(workload.digest(), config.digest()) is not None

    def test_duplicate_keys_last_wins(self, tmp_path):
        workload = tiny_workload("dup-wl")
        config = tiny_config()
        result = run_one(workload, config, cache=None)
        cache = ResultCache(tmp_path)
        cache.put(result)
        cache.put(result)
        fresh = ResultCache(tmp_path)
        assert len(fresh) == 1


def _entry_line(sim, **overrides):
    entry = {
        "key": ResultCache.key(sim.workload_digest, sim.system_digest),
        "schema": common.RESULT_SCHEMA,
        "result": sim.to_dict(),
    }
    entry.update(overrides)
    return json.dumps(entry).encode() + b"\n"


class TestCorruptLines:
    """Malformed shard lines are counted, never served and never raised."""

    def _corrupt_lines(self, result):
        missing = result.to_dict()
        del missing["cycles"]
        keyless = json.loads(_entry_line(result))
        del keyless["key"]
        return [
            b"\xff\xfe not utf-8 \x80\n",
            json.dumps([1, 2, 3]).encode() + b"\n",
            _entry_line(result, result=5),
            _entry_line(result, result=missing),
            json.dumps(keyless).encode() + b"\n",
        ]

    @pytest.mark.parametrize("index", range(5))
    def test_each_corrupt_line_is_counted_not_served(self, tmp_path, index):
        result = run_one(tiny_workload(), tiny_config(), cache=None)
        (tmp_path / "results.jsonl").write_bytes(self._corrupt_lines(result)[index])
        cache = ResultCache(tmp_path)
        assert cache.get(result.workload_digest, result.system_digest) is None
        stats = cache.stats()
        assert stats.corrupt_lines == 1
        assert stats.entries == 0

    def test_good_entries_survive_among_corrupt_lines(self, tmp_path):
        result = run_one(tiny_workload(), tiny_config(), cache=None)
        corrupt = self._corrupt_lines(result)
        (tmp_path / "results.jsonl").write_bytes(
            b"".join(corrupt[:2]) + _entry_line(result) + b"".join(corrupt[2:])
        )
        cache = ResultCache(tmp_path)
        assert cache.get(result.workload_digest, result.system_digest) == result
        assert cache.stats().corrupt_lines == 5
        # A refresh of the untouched shard does not count them again.
        assert cache.refresh() == 0
        assert cache.stats().corrupt_lines == 5
        # Prune rewrites only the good entries.
        cache.prune()
        assert cache.stats().corrupt_lines == 0
        assert ResultCache(tmp_path).stats().corrupt_lines == 0

    def test_torn_trailing_line_is_not_counted(self, tmp_path):
        result = run_one(tiny_workload(), tiny_config(), cache=None)
        line = _entry_line(result)
        shard = tmp_path / "results-torn.jsonl"
        shard.write_bytes(line[: len(line) // 2])  # a writer caught mid-append
        cache = ResultCache(tmp_path)
        assert cache.refresh() == 0
        assert cache.stats().corrupt_lines == 0
        shard.write_bytes(line)  # the append completes
        assert cache.refresh() == 1
        assert cache.stats().corrupt_lines == 0
        assert cache.get(result.workload_digest, result.system_digest) == result


def _plant_stale_entry(cache, result, rev):
    """Append a cache line whose system digest claims model revision ``rev``."""
    line = json.dumps(
        {"key": f"{result.workload_digest}##r{rev}|stale-digest", "result": result.to_dict()}
    )
    with open(cache.path, "a") as handle:
        handle.write(line + "\n")


class TestCacheStatsAndPrune:
    def test_stats_empty_cache(self, tmp_path):
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 0
        assert stats.bytes_on_disk == 0
        assert stats.stale_entries == 0
        assert stats.entries_by_rev == {}
        assert stats.corrupt_lines == 0

    def test_stats_counts_current_and_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_one(tiny_workload(), tiny_config(), cache)
        _plant_stale_entry(cache, result, rev=1)
        _plant_stale_entry(cache, result, rev=2)
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 3
        assert stats.stale_entries == 2
        assert stats.bytes_on_disk == cache.path.stat().st_size
        assert stats.entries_by_rev[MODEL_REV] == 1
        assert stats.entries_by_rev[1] == 1
        assert stats.entries_by_rev[2] == 1

    def test_stats_unparseable_key_counts_as_stale(self, tmp_path):
        cache = ResultCache(tmp_path)
        result = run_one(tiny_workload(), tiny_config(), cache)
        line = json.dumps({"key": "weird##no-rev-prefix", "result": result.to_dict()})
        with open(cache.path, "a") as handle:
            handle.write(line + "\n")
        stats = ResultCache(tmp_path).stats()
        assert stats.stale_entries == 1
        assert stats.entries_by_rev[-1] == 1

    def test_stats_sums_every_shard(self, tmp_path):
        result = run_one(tiny_workload("shard-a"), tiny_config(), cache=None)
        ResultCache(tmp_path, shard="w0").put(result)
        other = run_one(tiny_workload("shard-b"), tiny_config(), cache=None)
        ResultCache(tmp_path).put(other)
        stats = ResultCache(tmp_path).stats()
        assert stats.entries == 2
        expected = sum(path.stat().st_size for path in tmp_path.glob("results*.jsonl"))
        assert stats.bytes_on_disk == expected

    def test_prune_drops_stale_and_compacts_shards(self, tmp_path):
        shard = ResultCache(tmp_path, shard="w9")
        shard_result = run_one(tiny_workload("prune-shard"), tiny_config(), cache=None)
        shard.put(shard_result)
        cache = ResultCache(tmp_path)
        result = run_one(tiny_workload("prune-main"), tiny_config(), cache)
        _plant_stale_entry(cache, result, rev=1)

        worker = ResultCache(tmp_path)
        assert len(worker) == 3
        dropped = worker.prune()
        assert dropped == 1
        # Stale entry gone, current entries (from every shard) survive.
        assert len(worker) == 2
        assert worker.stats().stale_entries == 0
        # Shards were folded into the main file.
        assert [path.name for path in tmp_path.glob("results*.jsonl")] == ["results.jsonl"]
        fresh = ResultCache(tmp_path)
        assert fresh.get(result.workload_digest, result.system_digest) is not None
        assert fresh.get(shard_result.workload_digest, shard_result.system_digest) is not None

    def test_prune_noop_when_all_current(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_one(tiny_workload(), tiny_config(), cache)
        assert cache.prune() == 0
        assert len(ResultCache(tmp_path)) == 1


class TestDefaultCacheResolution:
    def test_no_cache_env_after_import(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert default_cache() is None

    def test_cache_dir_env_change_rebuilds(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.directory == tmp_path

    def test_monkeypatched_default_cache_respected(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        default_cache()  # sync the env snapshot
        replacement = ResultCache(tmp_path / "patched")
        monkeypatch.setattr(common, "DEFAULT_CACHE", replacement)
        assert default_cache() is replacement

    def test_run_one_honors_env_flip(self, tmp_path, monkeypatch):
        # Enabling REPRO_NO_CACHE after import must stop run_one from
        # touching the default cache (the old def-time default could not).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        run_one(tiny_workload("env-wl"), tiny_config())
        assert not (tmp_path / "results.jsonl").exists()


class TestRunSuite:
    def test_run_suite_with_custom_workloads(self, tmp_path):
        cache = ResultCache(tmp_path)
        workloads = [tiny_workload("w1"), tiny_workload("w2")]
        results = run_suite(tiny_config(), workloads, cache)
        assert set(results) == {"w1", "w2"}
        # Second call is fully cached.
        again = run_suite(tiny_config(), workloads, cache)
        assert cache.hits == 2
        assert again["w1"] == results["w1"]


class TestHelpers:
    def test_names_in_category_counts(self):
        assert len(names_in_category(Category.M_INTENSIVE)) == 17
        assert len(names_in_category(Category.C_INTENSIVE)) == 16
        assert len(names_in_category(Category.LIMITED_PARALLELISM)) == 15

    def test_filter_names(self):
        results = {"a": 1, "b": 2, "c": 3}
        assert filter_names(results, ["c", "a", "zzz"]) == {"c": 3, "a": 1}
