"""Unit tests for configuration dataclasses and presets."""

import json
from dataclasses import replace

import pytest

from repro.core.config import (
    MEMORY_SCALE,
    CacheConfig,
    GPMConfig,
    SMConfig,
    SystemConfig,
    scaled_bytes,
)
from repro.core.presets import (
    baseline_mcm_gpu,
    mcm_gpu_with_l15,
    monolithic_gpu,
    multi_gpu,
    optimized_mcm_gpu,
)
from repro.memory.cache import AllocationPolicy


class TestScaledBytes:
    def test_applies_scale(self):
        assert scaled_bytes(32 << 20, 1 / 32) == 1 << 20

    def test_floor_is_one_line(self):
        assert scaled_bytes(1, 1 / 32) == 128


class TestCacheConfig:
    def test_scaled_copy(self):
        config = CacheConfig(size_bytes=16 << 20)
        scaled = config.scaled(1 / 32)
        assert scaled.size_bytes == 512 << 10
        assert scaled.ways == config.ways

    def test_zero_stays_zero(self):
        assert CacheConfig(size_bytes=0).scaled().size_bytes == 0


class TestSystemConfigValidation:
    def test_rejects_zero_gpms(self):
        config = baseline_mcm_gpu()
        with pytest.raises(ValueError, match="n_gpms"):
            SystemConfig(name="x", n_gpms=0, gpm=config.gpm)

    def test_rejects_zero_link_bandwidth_multi_module(self):
        config = baseline_mcm_gpu()
        with pytest.raises(ValueError, match="link bandwidth"):
            SystemConfig(name="x", n_gpms=4, gpm=config.gpm, link_bandwidth=0.0)

    def test_rejects_unknown_scheduler(self):
        config = baseline_mcm_gpu()
        with pytest.raises(ValueError, match="scheduler"):
            SystemConfig(name="x", n_gpms=4, gpm=config.gpm, scheduler="fifo")


    @pytest.mark.parametrize("n_gpms", [1.5, 4.0, True, "4"])
    def test_rejects_non_integer_gpms(self, n_gpms):
        with pytest.raises(ValueError, match="n_gpms must be an integer"):
            replace(baseline_mcm_gpu(), n_gpms=n_gpms)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("page_bytes", 0, "page_bytes must be a power of two"),
            ("page_bytes", 100, "page_bytes must be a power of two"),
            ("page_bytes", 64, "multiple of line_bytes"),
            ("line_bytes", 0, "line_bytes must be a power of two"),
            ("line_bytes", 96, "line_bytes must be a power of two"),
        ],
    )
    def test_rejects_unbuildable_address_sizes(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            replace(baseline_mcm_gpu(), **{field: value})

    def test_explore_config_replace_fails_fast(self):
        from repro.explore.spec import config_replace

        with pytest.raises(ValueError, match="page_bytes"):
            config_replace(baseline_mcm_gpu(), "page_bytes", 100)


class TestBaselinePreset:
    def test_table3_parameters(self):
        config = baseline_mcm_gpu()
        assert config.n_gpms == 4
        assert config.total_sms == 256
        assert config.gpm.sm.max_warps == 64
        assert config.total_dram_bandwidth == 3072.0
        assert config.link_bandwidth == 768.0
        assert config.hop_latency == 32.0
        assert config.scheduler == "centralized"
        assert config.placement == "interleave"
        assert config.gpm.l15 is None

    def test_l2_is_scaled_16mb(self):
        config = baseline_mcm_gpu()
        assert config.total_l2_bytes == int(16 * (1 << 20) * MEMORY_SCALE)

    def test_max_resident_ctas(self):
        assert baseline_mcm_gpu().max_resident_ctas == 1024


class TestL15Presets:
    def test_iso_transistor_16mb(self):
        """16 MB L1.5 leaves only the 32KB-per-GPM residual L2."""
        config = mcm_gpu_with_l15(16, remote_only=True)
        assert config.total_l15_bytes == int(16 * (1 << 20) * MEMORY_SCALE)
        assert config.total_l2_bytes < baseline_mcm_gpu().total_l2_bytes / 100
        assert config.gpm.l15.allocation is AllocationPolicy.REMOTE_ONLY

    def test_iso_transistor_8mb_keeps_half_l2(self):
        config = mcm_gpu_with_l15(8, remote_only=True)
        assert config.total_l15_bytes == int(8 * (1 << 20) * MEMORY_SCALE)
        assert config.total_l2_bytes == pytest.approx(
            baseline_mcm_gpu().total_l2_bytes / 2, rel=0.01
        )

    def test_total_cache_conserved_iso(self):
        """Iso-transistor: L1.5 + L2 equals the baseline L2 (plus residual)."""
        baseline_l2 = baseline_mcm_gpu().total_l2_bytes
        for mb in (8, 16):
            config = mcm_gpu_with_l15(mb)
            total = config.total_l15_bytes + config.total_l2_bytes
            assert total <= baseline_l2 * 1.01 + 4096

    def test_non_iso_32mb(self):
        config = mcm_gpu_with_l15(32)
        assert config.total_l15_bytes == int(32 * (1 << 20) * MEMORY_SCALE)

    def test_rejects_unlisted_capacity(self):
        with pytest.raises(ValueError, match="8/16/32"):
            mcm_gpu_with_l15(12)

    def test_all_allocation_variant(self):
        config = mcm_gpu_with_l15(16, remote_only=False)
        assert config.gpm.l15.allocation is AllocationPolicy.ALL


class TestOptimizedPreset:
    def test_all_three_optimizations(self):
        config = optimized_mcm_gpu()
        assert config.scheduler == "distributed"
        assert config.placement == "first_touch"
        assert config.gpm.l15 is not None
        assert config.gpm.l15.allocation is AllocationPolicy.REMOTE_ONLY

    def test_default_is_8mb_split(self):
        config = optimized_mcm_gpu()
        assert config.total_l15_bytes == int(8 * (1 << 20) * MEMORY_SCALE)


class TestMonolithicPreset:
    def test_proportional_scaling_rule(self):
        """Figure 2: 384 GB/s and 2 MB L2 per 32 SMs."""
        for n_sms in (32, 128, 256):
            config = monolithic_gpu(n_sms)
            assert config.total_sms == n_sms
            assert config.total_dram_bandwidth == 384.0 * (n_sms // 32)

    def test_structurally_sliced_with_on_die_fabric(self):
        """Monolithic dies keep the 4-slice structure behind a huge fabric."""
        config = monolithic_gpu(256)
        assert config.n_gpms == 4
        assert config.link_bandwidth > 10_000
        assert config.hop_latency < baseline_mcm_gpu().hop_latency
        assert config.link_tier == "chip"

    def test_256_sm_matches_mcm_memory_system(self):
        mono = monolithic_gpu(256)
        mcm = baseline_mcm_gpu()
        assert mono.total_dram_bandwidth == mcm.total_dram_bandwidth
        assert mono.total_l2_bytes == pytest.approx(mcm.total_l2_bytes, rel=0.01)

    def test_rejects_bad_sm_count(self):
        with pytest.raises(ValueError, match="multiple of 32"):
            monolithic_gpu(100)


class TestMultiGPUPreset:
    def test_baseline_flavor(self):
        config = multi_gpu(optimized=False)
        assert config.n_gpms == 2
        assert config.total_sms == 256
        assert config.total_dram_bandwidth == 3072.0
        assert config.link_bandwidth == 256.0
        assert config.link_tier == "board"
        assert config.scheduler == "distributed"
        assert config.placement == "first_touch"
        assert config.gpm.l15 is None

    def test_optimized_adds_remote_cache(self):
        config = multi_gpu(optimized=True)
        assert config.gpm.l15 is not None
        assert config.gpm.l15.allocation is AllocationPolicy.REMOTE_ONLY
        baseline = multi_gpu(optimized=False)
        assert config.total_l15_bytes + config.total_l2_bytes == pytest.approx(
            baseline.total_l2_bytes, rel=0.01
        )

    def test_board_latency_exceeds_package(self):
        assert multi_gpu().hop_latency > baseline_mcm_gpu().hop_latency


class TestDigest:
    def test_digest_distinguishes_configs(self):
        digests = {
            baseline_mcm_gpu().digest(),
            baseline_mcm_gpu(link_bandwidth=384.0).digest(),
            mcm_gpu_with_l15(16).digest(),
            mcm_gpu_with_l15(8).digest(),
            optimized_mcm_gpu().digest(),
            monolithic_gpu(128).digest(),
            multi_gpu().digest(),
        }
        assert len(digests) == 7

    def test_digest_stable(self):
        assert baseline_mcm_gpu().digest() == baseline_mcm_gpu().digest()

    def test_digest_covers_every_behavioral_knob(self):
        """Knobs that change simulation results must change the digest.

        These five were historically missing from the digest string and
        could silently serve stale cache entries."""
        base = baseline_mcm_gpu()
        variants = [
            replace(base, line_bytes=64),
            replace(base, gpm=replace(base.gpm, xbar_latency=base.gpm.xbar_latency + 10)),
            replace(
                base,
                gpm=replace(base.gpm, l15_miss_penalty=base.gpm.l15_miss_penalty + 10),
            ),
            replace(base, gpm=replace(base.gpm, sm=replace(base.gpm.sm, warp_groups=2))),
            replace(
                base,
                gpm=replace(base.gpm, sm=replace(base.gpm.sm, max_resident_ctas=8)),
            ),
        ]
        digests = {base.digest()} | {variant.digest() for variant in variants}
        assert len(digests) == len(variants) + 1

    def test_digest_includes_name(self):
        """Names stay in the digest: cached results carry ``system_name``
        and the golden store keys fidelity snapshots by it."""
        base = baseline_mcm_gpu()
        assert replace(base, name="renamed").digest() != base.digest()


class TestSerialization:
    def test_round_trip_all_presets(self):
        presets = [
            baseline_mcm_gpu(),
            mcm_gpu_with_l15(16, remote_only=True),
            optimized_mcm_gpu(),
            monolithic_gpu(128),
            multi_gpu(optimized=True),
        ]
        for config in presets:
            restored = SystemConfig.from_dict(config.to_dict())
            assert restored == config
            assert restored.digest() == config.digest()

    def test_round_trip_survives_json(self):
        config = optimized_mcm_gpu()
        payload = json.loads(json.dumps(config.to_dict()))
        assert SystemConfig.from_dict(payload) == config

    def test_l15_none_round_trips(self):
        config = baseline_mcm_gpu()
        data = config.to_dict()
        assert data["gpm"]["l15"] is None
        assert SystemConfig.from_dict(data).gpm.l15 is None

    def test_enums_serialized_as_strings(self):
        data = mcm_gpu_with_l15(16).to_dict()
        assert data["gpm"]["l15"]["write_policy"] == "write_through"
        assert isinstance(data["gpm"]["l15"]["allocation"], str)

    def test_unknown_keys_rejected(self):
        data = baseline_mcm_gpu().to_dict()
        data["no_such_field"] = 1
        with pytest.raises(ValueError, match="unknown"):
            SystemConfig.from_dict(data)


class TestPolicyValidation:
    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError, match="placement"):
            replace(baseline_mcm_gpu(), placement="best_effort")

    def test_rejects_unknown_link_tier(self):
        with pytest.raises(ValueError, match="link_tier"):
            replace(baseline_mcm_gpu(), link_tier="wafer")

    def test_all_valid_placements_accepted(self):
        for policy in ("interleave", "first_touch", "round_robin_page", "migrating_first_touch"):
            assert replace(baseline_mcm_gpu(), placement=policy).placement == policy
