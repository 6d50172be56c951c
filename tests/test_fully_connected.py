"""Unit tests for the fully-connected topology extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.fully_connected import iso_budget_link_bandwidth
from repro.interconnect.grid import GraphNetwork
from repro.interconnect.link import REQUEST, RESPONSE
from repro.interconnect.topology import build_network


def fully_connected(n_nodes, bandwidth=768.0, hop_latency=32.0):
    return build_network("fully_connected", n_nodes, bandwidth, hop_latency)


class TestTopology:
    def test_link_count(self):
        network = fully_connected(4)
        assert len(network.links) == 12  # n*(n-1) directed links

    def test_single_hop_everywhere(self):
        network = fully_connected(6)
        for src in range(6):
            for dst in range(6):
                expected = 0 if src == dst else 1
                assert network.hops_between(src, dst) == expected
                assert len(network.route(src, dst)) == expected

    def test_average_hops(self):
        assert fully_connected(4).average_hops_uniform() == 1.0
        assert fully_connected(1).average_hops_uniform() == 0.0

    def test_out_of_range(self):
        network = fully_connected(4)
        with pytest.raises(ValueError, match="out of range"):
            network.transfer(0.0, 0, 4, 128)


class TestTiming:
    def test_transfer_single_hop_latency(self):
        network = fully_connected(4)
        arrival = network.transfer(0.0, 0, 2, 128)
        # One hop even between "opposite" nodes: serialization + 32.
        assert 32.0 < arrival < 40.0

    def test_per_direction_bandwidth_is_half(self):
        network = fully_connected(4)
        assert network.links[0].request_pipe.bytes_per_cycle == pytest.approx(384.0)

    def test_channels_independent(self):
        network = fully_connected(2, 2.0, 0.0)
        network.transfer(0.0, 0, 1, 10_000, REQUEST)
        prompt = network.transfer(0.0, 0, 1, 1, RESPONSE)
        assert prompt < 100.0

    def test_accounting_and_reset(self):
        network = fully_connected(4)
        network.transfer(0.0, 0, 1, 100)
        network.transfer(0.0, 2, 3, 50)
        assert network.total_link_bytes == 150
        network.reset()
        assert network.total_link_bytes == 0

    def test_self_transfer_free(self):
        network = fully_connected(4)
        assert network.transfer(9.0, 1, 1, 4096) == 9.0


class TestIsoBudget:
    def test_four_nodes(self):
        # Ring node: 2 links x s -> escape 2s; all-to-all node: 3 links.
        assert iso_budget_link_bandwidth(768.0, 4) == pytest.approx(512.0)

    def test_two_nodes_degenerate(self):
        assert iso_budget_link_bandwidth(768.0, 2) == pytest.approx(1536.0)

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least two"):
            iso_budget_link_bandwidth(768.0, 1)


@settings(max_examples=30, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=6),
    transfers=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=1, max_value=512),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_fc_accounting_matches_bytes(n_nodes, transfers):
    """Property: total link bytes == sum of distinct-pair transfer sizes."""
    network = fully_connected(n_nodes)
    expected = 0
    for src, dst, size in transfers:
        src %= n_nodes
        dst %= n_nodes
        network.transfer(0.0, src, dst, size)
        if src != dst:
            expected += size
    assert network.total_link_bytes == expected


class TestSystemIntegration:
    def test_gpu_system_builds_fc_topology(self):
        from dataclasses import replace

        from repro.core.gpu import build_system
        from repro.core.presets import baseline_mcm_gpu

        config = replace(
            baseline_mcm_gpu(name="fc"), topology="fully_connected"
        )
        system = build_system(config)
        assert isinstance(system.ring, GraphNetwork)
        assert len(system.ring.links) == 12
        assert all(link.name.startswith("fc.") for link in system.ring.links)

    def test_config_rejects_unknown_topology(self):
        from dataclasses import replace

        from repro.core.presets import baseline_mcm_gpu

        # "torus" graduated into the registry; use a name that stays fake.
        with pytest.raises(ValueError, match="topology"):
            replace(baseline_mcm_gpu(name="bad"), topology="hypercube")

    def test_fc_topology_simulates_end_to_end(self):
        # Regression: the specialized walker generator once assumed a
        # ring's precomputed routes and crashed on all-to-all systems.
        from dataclasses import replace

        from repro.core.presets import baseline_mcm_gpu
        from repro.sim.simulator import Simulator
        from repro.workloads.synthetic import (
            Category,
            SyntheticWorkload,
            WorkloadSpec,
        )

        workload = SyntheticWorkload(
            WorkloadSpec(
                name="fc-e2e",
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
        config = replace(
            baseline_mcm_gpu(n_gpms=4, sms_per_gpm=2, name="fc-e2e"),
            topology="fully_connected",
        )
        result = Simulator(config).run(workload)
        assert result.cycles > 0
        assert result.link_bytes > 0
