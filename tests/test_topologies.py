"""Cross-topology tests: registry dispatch, conservation, and the 2-node fix."""

from dataclasses import replace

import pytest

from repro.core.presets import baseline_mcm_gpu
from repro.interconnect.grid import GraphNetwork
from repro.interconnect.hierarchical import PACKAGE_SIZE, make_hierarchical
from repro.interconnect.link import REQUEST, RESPONSE
from repro.interconnect.mesh import grid_dims
from repro.interconnect.topology import (
    average_hops,
    bisection_bandwidth,
    build_network,
    diameter,
    get_topology,
    link_count,
    mean_ports,
    topology_names,
)

ALL_TOPOLOGIES = topology_names()


class TestRegistry:
    def test_all_fabrics_registered(self):
        assert set(ALL_TOPOLOGIES) == {
            "fully_connected",
            "hierarchical",
            "mesh",
            "ring",
            "torus",
        }

    def test_unknown_name_fails_loudly_with_known_names(self):
        with pytest.raises(ValueError, match="hypercube.*ring"):
            get_topology("hypercube")

    def test_config_validates_topology_against_registry(self):
        with pytest.raises(ValueError, match="unknown topology"):
            replace(baseline_mcm_gpu(), topology="hypercube")

    def test_factories_build_graph_networks(self):
        for topology in ALL_TOPOLOGIES:
            network = build_network(topology, 8, 768.0, 32.0)
            assert isinstance(network, GraphNetwork)
            assert network.n_nodes == 8

    def test_analytical_queries_reject_unknown_topology(self):
        for query in (average_hops, link_count, mean_ports, diameter):
            with pytest.raises(ValueError, match="unknown topology"):
                query("hypercube", 8)


class TestTwoNodeRingRegression:
    """The headline bug: a 2-node ring built two parallel link pairs and
    the parity tie-break made one pair permanently idle, stranding half
    the modeled link bandwidth.  The degenerate ring now collapses to a
    single physical pair, consistent with its 2-port analytical claim."""

    def test_two_node_ring_has_exactly_one_link_pair(self):
        ring = build_network("ring", 2, 768.0, 32.0)
        assert len(ring.links) == 2  # one directional link each way

    def test_no_link_is_stranded_under_symmetric_load(self):
        # Pre-fix this failed: 4 directional links existed and the
        # route tables only ever used one per direction.
        ring = build_network("ring", 2, 768.0, 32.0)
        ring.transfer(0.0, 0, 1, 128, REQUEST)
        ring.transfer(0.0, 1, 0, 128, REQUEST)
        ring.transfer(0.0, 0, 1, 64, RESPONSE)
        ring.transfer(0.0, 1, 0, 64, RESPONSE)
        assert all(link.bytes_transferred > 0 for link in ring.links)
        assert ring.total_link_bytes == 2 * (128 + 64)

    def test_directions_do_not_share_a_pipe(self):
        # Each direction still gets its own physical link at half the
        # setting — the collapse removes idle hardware, not capacity.
        ring = build_network("ring", 2, 768.0, 32.0)
        assert ring.links[0].request_pipe.bytes_per_cycle == pytest.approx(384.0)
        ring.transfer(0.0, 0, 1, 1 << 20, REQUEST)
        prompt = ring.transfer(0.0, 1, 0, 128, REQUEST)
        assert prompt < 100.0  # reverse direction unaffected by the backlog

    def test_two_node_routes_are_single_hop(self):
        ring = build_network("ring", 2, 768.0, 32.0)
        assert ring.hops_between(0, 1) == 1
        assert ring.hops_between(1, 0) == 1
        assert ring.route(0, 1) != ring.route(1, 0)


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
@pytest.mark.parametrize("n_nodes", [4, 8])
class TestConservationAcrossRegistry:
    def test_link_bytes_equal_hop_weighted_traffic(self, topology, n_nodes):
        network = build_network(topology, n_nodes, 768.0, 32.0)
        n_bytes = 96
        expected = 0
        for src in range(n_nodes):
            for dst in range(n_nodes):
                if src != dst:
                    network.transfer(0.0, src, dst, n_bytes)
                    expected += network.hops_between(src, dst) * n_bytes
        assert network.total_link_bytes == expected

    def test_route_lengths_are_symmetric_and_match_hops(self, topology, n_nodes):
        network = build_network(topology, n_nodes, 768.0, 32.0)
        for src in range(n_nodes):
            for dst in range(n_nodes):
                route = network.route(src, dst)
                assert len(route) == network.hops_between(src, dst)
                assert len(route) == len(network.route(dst, src))

    def test_analytical_hops_match_network(self, topology, n_nodes):
        network = build_network(topology, n_nodes, 768.0, 32.0)
        assert network.average_hops_uniform() == pytest.approx(
            average_hops(topology, n_nodes)
        )

    def test_reset_clears_traffic(self, topology, n_nodes):
        network = build_network(topology, n_nodes, 768.0, 32.0)
        network.transfer(0.0, 0, n_nodes - 1, 128)
        network.reset()
        assert network.total_link_bytes == 0

    def test_out_of_range_node_ids_raise(self, topology, n_nodes):
        # A negative id must not wrap around to node n-1, and one past the
        # end must fail the same way instead of with an IndexError.
        network = build_network(topology, n_nodes, 768.0, 32.0)
        for src, dst in ((-1, 0), (0, -1), (n_nodes, 0), (0, n_nodes)):
            with pytest.raises(ValueError, match="out of range"):
                network.transfer(0.0, src, dst, 128)
            with pytest.raises(ValueError, match="out of range"):
                network.route(src, dst)
        assert network.total_link_bytes == 0


@pytest.mark.parametrize("topology", ALL_TOPOLOGIES)
class TestSingleGpmNeverRemote:
    def test_single_node_network_is_link_free(self, topology):
        network = build_network(topology, 1, 768.0, 32.0)
        assert network.transfer(3.0, 0, 0, 4096) == 3.0
        assert network.total_link_bytes == 0
        assert average_hops(topology, 1) == 0.0


class TestGridShapes:
    def test_grid_dims_most_square(self):
        assert grid_dims(4) == (2, 2)
        assert grid_dims(8) == (2, 4)
        assert grid_dims(16) == (4, 4)
        assert grid_dims(64) == (8, 8)

    def test_mesh_and_torus_diameters(self):
        assert diameter("mesh", 8) == 4  # 2x4 grid: (2-1) + (4-1)
        assert diameter("torus", 8) == 3
        assert diameter("mesh", 64) == 14
        assert diameter("torus", 64) == 8

    def test_wraparound_shortens_paths(self):
        for n_nodes in (8, 16, 64):
            assert average_hops("torus", n_nodes) < average_hops("mesh", n_nodes)
            assert average_hops("mesh", n_nodes) < average_hops("ring", n_nodes)

    def test_bisection_orders_as_expected(self):
        # 2x4 mesh cuts 2 column links; the torus doubles them with
        # wraparound; the ring always cuts exactly two edges.
        assert bisection_bandwidth("ring", 8, 768.0) == pytest.approx(1536.0)
        assert bisection_bandwidth("mesh", 8, 768.0) == pytest.approx(1536.0)
        assert bisection_bandwidth("torus", 8, 768.0) == pytest.approx(3072.0)
        assert bisection_bandwidth("fully_connected", 8, 768.0) == pytest.approx(
            4 * 4 * 768.0
        )


class TestHierarchical:
    def test_package_size_is_four(self):
        assert PACKAGE_SIZE == 4

    def test_cross_package_routes_go_through_gateways(self):
        network = make_hierarchical(8, 768.0, 32.0)
        # Gateways are nodes 0 and 4; 1 -> 5 must hop 1->0, board, 4->5.
        assert network.hops_between(0, 4) == 1
        assert network.hops_between(1, 5) == 3
        assert network.hops_between(1, 2) == 1

    def test_board_links_carry_board_latency(self):
        from repro.interconnect.board import (
            BOARD_AGGREGATE_GBPS,
            BOARD_HOP_LATENCY_CYCLES,
        )

        network = make_hierarchical(8, 768.0, 32.0)
        (board_link,) = network.route(0, 4)
        assert board_link.latency_cycles == BOARD_HOP_LATENCY_CYCLES
        assert board_link.request_pipe.bytes_per_cycle == pytest.approx(
            BOARD_AGGREGATE_GBPS / 2.0
        )

    def test_bisection_is_the_board_ring(self):
        # The half-split severs only board links: the fixed 256 GB/s is
        # the whole cross-package capacity regardless of the link setting.
        assert bisection_bandwidth("hierarchical", 8, 768.0) == pytest.approx(256.0)
        assert bisection_bandwidth("hierarchical", 8, 1536.0) == pytest.approx(256.0)

    def test_small_counts_degenerate_to_one_package(self):
        network = make_hierarchical(4, 768.0, 32.0)
        assert network.diameter() == 2  # plain 4-ring, no board links
        assert bisection_bandwidth("hierarchical", 4, 768.0) == pytest.approx(1536.0)


class TestSimulatedTopologyConservation:
    @pytest.mark.parametrize("topology", ["mesh", "torus", "hierarchical"])
    def test_micro_simulation_passes_invariants(self, topology):
        from repro.validate import check_result, validated_run
        from repro.validate.properties import micro_suite

        config = replace(
            baseline_mcm_gpu(n_gpms=8, name=f"micro-{topology}-8"),
            topology=topology,
        )
        workload = micro_suite(1)[0]
        result, validator = validated_run(workload, config, strict=False)
        violations = validator.violations + check_result(result, config=config)
        assert violations == []
        assert result.link_bytes > 0
