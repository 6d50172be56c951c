"""Bit-identity and accounting tests for the hot-path performance pass.

Three contracts:

1. **Bit-identity** — the batched memory path (``MemorySystem.load_batch``
   / ``store_batch`` driven by the engine's ``_drain_fast`` loop) produces
   a ``SimResult`` identical *field for field* to the reference per-line
   path, on every behavioural regime in the matrix.  The per-line path is
   kept behind ``engine.batched`` / the ``REPRO_SIM_PERLINE`` env knob as
   the executable specification.
2. **Trace memoization** — materialized CTA traces are reused across
   kernel iterations and across runs (``materializations`` stays flat),
   and kernel-variant patterns still materialize per kernel.
3. **Store accounting** — every store lands in exactly one L1 counter
   (``write_hits`` or ``bypasses``; the probe-miss case used to vanish),
   and the reported hit *rates* are load-only (the Figure 6/7 quantity).
"""

from dataclasses import asdict, replace

import pytest

from repro.core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
)
from repro.core.walkgen import _CODE_CACHE
from repro.memory.cache import CacheStats, SetAssocCache
from repro.sim.simulator import Simulator
from repro.telemetry import Telemetry
from repro.validate.invariants import check_result
from repro.workloads.synthetic import Category, SyntheticWorkload, WorkloadSpec


def tiny_workload(
    name="pi-w",
    pattern="streaming",
    write_fraction=0.25,
    iterations=2,
    accesses_per_record=4,
    footprint_bytes=256 * 1024,
):
    return SyntheticWorkload(
        WorkloadSpec(
            name=name,
            category=Category.M_INTENSIVE,
            pattern=pattern,
            n_ctas=32,
            groups_per_cta=2,
            records_per_group=3,
            accesses_per_record=accesses_per_record,
            write_fraction=write_fraction,
            kernel_iterations=iterations,
            footprint_bytes=footprint_bytes,
        )
    )


def dense_stream():
    """Streaming over a small footprint: enough consecutive remote
    accesses per page to trigger migrating-first-touch page moves."""
    return tiny_workload(
        "pi-dense", "streaming", accesses_per_record=16, footprint_bytes=64 * 1024
    )


def simulate_with_path(workload, config, batched):
    """Run ``workload`` forcing the batched or the per-line memory path."""
    simulator = Simulator(config)
    simulator.engine.batched = batched
    return simulator.run(workload)


CONFIG_MAKERS = [
    pytest.param(lambda: baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2), id="mcm-baseline"),
    pytest.param(
        lambda: mcm_gpu_with_l15(
            8, remote_only=True, scheduler="distributed", n_gpms=4, sms_per_gpm=2
        ),
        id="mcm-l15",
    ),
    pytest.param(
        lambda: mcm_gpu_with_l15(8, remote_only=False, n_gpms=4, sms_per_gpm=2),
        id="mcm-l15-all",
    ),
    pytest.param(lambda: monolithic_gpu(n_sms=32), id="monolithic"),
    pytest.param(lambda: multi_gpu(optimized=False, sms_per_gpu=2), id="multi-gpu"),
    pytest.param(
        lambda: replace(
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2), topology="fully_connected"
        ),
        id="fully-connected-4",
    ),
    *(
        pytest.param(
            lambda topology=topology: replace(
                baseline_mcm_gpu(n_gpms=8, sms_per_gpm=2), topology=topology
            ),
            id=f"{topology}-8",
        )
        for topology in ("mesh", "torus", "hierarchical")
    ),
    # Paged homing: the walkers derive each line's page inline and look
    # it up in the policy's page map.
    *(
        pytest.param(
            lambda placement=placement: replace(
                baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
                placement=placement,
                page_bytes=4096,
            ),
            id=placement.replace("_", "-"),
        )
        for placement in ("first_touch", "round_robin_page")
    ),
    pytest.param(
        lambda: replace(
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
            placement="migrating_first_touch",
        ),
        id="migrating-first-touch",
    ),
]

WORKLOAD_MAKERS = [
    pytest.param(lambda: tiny_workload("pi-stream", "streaming"), id="streaming"),
    pytest.param(lambda: tiny_workload("pi-irr", "irregular"), id="irregular"),
    pytest.param(lambda: tiny_workload("pi-hot", "hotset"), id="hotset"),
    pytest.param(
        lambda: tiny_workload("pi-nostore", "streaming", write_fraction=0.0),
        id="no-stores",
    ),
    pytest.param(dense_stream, id="dense-stream"),
]


class TestBatchedPerLineIdentity:
    @pytest.mark.parametrize("make_config", CONFIG_MAKERS)
    @pytest.mark.parametrize("make_workload", WORKLOAD_MAKERS)
    def test_results_identical_field_for_field(self, make_config, make_workload):
        batched = simulate_with_path(make_workload(), make_config(), batched=True)
        perline = simulate_with_path(make_workload(), make_config(), batched=False)
        batched_fields = asdict(batched)
        perline_fields = asdict(perline)
        assert batched_fields.keys() == perline_fields.keys()
        for name in batched_fields:
            assert batched_fields[name] == perline_fields[name], (
                f"field {name!r} differs: batched={batched_fields[name]!r} "
                f"per-line={perline_fields[name]!r}"
            )

    @pytest.mark.parametrize("make_config", CONFIG_MAKERS)
    def test_fast_path_choice(self, make_config):
        # Every fabric takes the generated walkers; migrating placement
        # keeps load_batch/store_batch (no walkers).
        config = make_config()
        memsys = Simulator(config).system.memsys
        walkers = memsys.make_walkers()
        migrating = config.placement.startswith("migrating")
        assert (walkers is None) == migrating

    def test_migrating_row_moves_pages(self):
        # Keeps the migrating-placement identity rows honest: without
        # migrations they would never exercise the page-copy charges.
        config = replace(
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
            placement="migrating_first_touch",
        )
        simulator = Simulator(config)
        simulator.run(dense_stream())
        assert simulator.system.memsys.migration_bytes > 0

    def test_general_loop_with_probe_matches_fast_loop(self):
        # Telemetry forces the general drain loop; results must not move.
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        fast = simulate_with_path(tiny_workload(), config, batched=True)
        simulator = Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        simulator.system.attach_telemetry(Telemetry())
        probed = simulator.run(tiny_workload())
        assert fast == probed

    def test_both_paths_satisfy_invariants(self):
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        for batched in (True, False):
            result = simulate_with_path(tiny_workload(), config, batched=batched)
            assert check_result(result, config=config) == []

    def test_perline_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_PERLINE", "1")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is False
        monkeypatch.setenv("REPRO_SIM_PERLINE", "0")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is True
        monkeypatch.delenv("REPRO_SIM_PERLINE")
        assert Simulator(monolithic_gpu(n_sms=32)).engine.batched is True


def _with_cache_size(config, level, factor):
    gpm = config.gpm
    cache = getattr(gpm, level)
    resized = replace(cache, size_bytes=cache.size_bytes * factor)
    return replace(config, gpm=replace(gpm, **{level: resized}))


def _paged(page_bytes):
    return replace(
        baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
        placement="first_touch",
        page_bytes=page_bytes,
    )


class TestWalkerSourceStability:
    """Capacity and page-size sweeps reuse one compiled walker factory.

    Set counts and the homing divisor are bound into the walkers as
    closure values, so systems that differ only in those sizes generate
    identical source.  Inlining them as literals would compile (and keep)
    one walker per size, growing a sweep worker's memory with every point.
    """

    @pytest.mark.parametrize(
        "first, second",
        [
            pytest.param(
                lambda: mcm_gpu_with_l15(8, n_gpms=4, sms_per_gpm=2),
                lambda: _with_cache_size(
                    mcm_gpu_with_l15(8, n_gpms=4, sms_per_gpm=2), "l15", 2
                ),
                id="l15-capacity",
            ),
            pytest.param(
                lambda: baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2),
                lambda: _with_cache_size(
                    baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2), "l2", 2
                ),
                id="l2-capacity",
            ),
            pytest.param(
                lambda: _paged(4096), lambda: _paged(8192), id="page-bytes"
            ),
        ],
    )
    def test_size_change_compiles_no_new_walker(self, first, second):
        base = Simulator(first()).system
        variant = Simulator(second()).system
        # The pair must really differ in the swept size.
        assert (
            [gpm.l2.n_sets for gpm in base.gpms],
            [gpm.l15.n_sets for gpm in base.gpms if gpm.has_l15],
            base.address_map.lines_per_page,
        ) != (
            [gpm.l2.n_sets for gpm in variant.gpms],
            [gpm.l15.n_sets for gpm in variant.gpms if gpm.has_l15],
            variant.address_map.lines_per_page,
        )
        assert base.memsys.make_walkers() is not None
        compiled = len(_CODE_CACHE)
        assert variant.memsys.make_walkers() is not None
        assert len(_CODE_CACHE) == compiled


class TestTraceMemo:
    def test_iterative_kernels_materialize_once(self):
        workload = tiny_workload("memo-w", "streaming", iterations=3)
        config = monolithic_gpu(n_sms=32)
        simulator = Simulator(config)
        simulator.run(workload)
        memo = workload._trace_memo
        n_ctas = workload.spec.n_ctas
        iterations = 3
        # Streaming is not kernel-variant: all three launches share the
        # seed-0 materialization, one per CTA.
        assert memo.materializations == n_ctas
        if simulator.engine.batched:
            # The engine's address-uniqueness probe walks every CTA once
            # before the first launch (materializing them) and re-touches
            # only CTA 0 on later kernels (its memoized verdict
            # short-circuits the scan), so reuse counts every launch of
            # every kernel plus one probe per later kernel.
            assert memo.reuses == iterations * n_ctas + (iterations - 1)
        else:
            # Per-line reference path (REPRO_SIM_PERLINE=1): no probe; the
            # first kernel's launches are the materializations, later
            # kernels reuse.
            assert memo.reuses == (iterations - 1) * n_ctas

    def test_reuse_across_runs_and_configs(self):
        workload = tiny_workload("memo-x", "streaming", iterations=2)
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        after_first = workload._trace_memo.materializations
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)).run(workload)
        assert workload._trace_memo.materializations == after_first

    def test_kernel_variant_pattern_materializes_per_kernel(self):
        workload = tiny_workload("memo-v", "irregular", iterations=2)
        Simulator(monolithic_gpu(n_sms=32)).run(workload)
        # Irregular re-rolls its stream per kernel: distinct trace seeds.
        assert workload._trace_memo.materializations == 2 * workload.spec.n_ctas

    def test_memoized_results_identical_to_fresh(self):
        config = monolithic_gpu(n_sms=32)
        warm = tiny_workload("memo-id")
        first = Simulator(config).run(warm)
        second = Simulator(config).run(warm)  # memo-served traces
        cold = Simulator(config).run(tiny_workload("memo-id"))
        assert first == second == cold


class TestStoreAccounting:
    def test_every_store_is_write_hit_or_bypass(self):
        config = baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2)
        result = Simulator(config).run(tiny_workload())
        assert result.stores > 0
        assert result.l1.write_hits + result.l1.bypasses == result.stores
        # Regression: probe-miss stores used to touch no counter at all.
        assert result.l1.bypasses > 0
        assert result.l1.accesses == result.loads + result.l1.write_hits

    def test_touch_store_counters(self):
        cache = SetAssocCache(size_bytes=4 * 128, ways=4, name="t")
        assert cache.touch_store(7) is False
        assert cache.stats.bypasses == 1
        assert cache.stats.misses == 0  # a store probe-miss is not a lookup miss
        cache.access(7)
        assert cache.touch_store(7) is True
        assert cache.stats.hits == 1
        assert cache.stats.write_hits == 1

    def test_touch_store_refreshes_lru(self):
        cache = SetAssocCache(size_bytes=2 * 128, ways=2, name="t")  # 1 set
        cache.access(0)
        cache.access(1)
        cache.touch_store(0)  # line 0 becomes MRU
        cache.access(2)  # evicts LRU = line 1
        assert cache.probe(0)
        assert not cache.probe(1)

    def test_disabled_cache_store_is_bypass(self):
        cache = SetAssocCache(size_bytes=0, name="off")
        assert cache.touch_store(3) is False
        assert cache.stats.bypasses == 1
        assert cache.stats.accesses == 0


class TestLoadOnlyRates:
    def test_load_hit_rate_excludes_write_touches(self):
        stats = CacheStats(hits=10, misses=6, write_hits=4)
        assert stats.hit_rate == pytest.approx(10 / 16)
        assert stats.load_hit_rate == pytest.approx(6 / 12)
        assert stats.read_hits == 6
        assert stats.read_accesses == 12

    def test_simulated_l15_rate_is_load_only(self):
        # Pin the reported quantity: the L1.5 hit rate used for Figure 6/7
        # analysis must not be inflated by store touch-hits.
        config = mcm_gpu_with_l15(8, remote_only=False, n_gpms=4, sms_per_gpm=2)
        result = Simulator(config).run(tiny_workload("rate-w", "hotset"))
        stats = result.l15
        loads_seen = stats.accesses - stats.write_hits
        if loads_seen:
            expected = (stats.hits - stats.write_hits) / loads_seen
            assert stats.load_hit_rate == pytest.approx(expected)

    def test_telemetry_window_rates_are_load_only(self):
        simulator = Simulator(baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2))
        probe = Telemetry(window_cycles=256.0)
        simulator.system.attach_telemetry(probe)
        result = simulator.run(tiny_workload())
        # Window hit fields stay totals (they must sum to the result's
        # counters) while the derived rates subtract the write share.
        assert sum(w.l1_hits for w in probe.windows) == result.l1.hits
        assert sum(w.l1_write_hits for w in probe.windows) == result.l1.write_hits
        total = CacheStats(
            hits=sum(w.l1_hits for w in probe.windows),
            misses=sum(w.l1_misses for w in probe.windows),
            write_hits=sum(w.l1_write_hits for w in probe.windows),
        )
        assert probe.summary()["l1_hit_rate"] == pytest.approx(total.load_hit_rate)

    def test_merge_carries_write_split(self):
        merged = CacheStats(hits=2, write_hits=1, bypasses=3).merge(
            CacheStats(hits=4, write_hits=2, bypasses=1, write_misses=5)
        )
        assert merged.write_hits == 3
        assert merged.write_misses == 5
        assert merged.bypasses == 4
