"""Unit and property tests for links, the ring network, and the crossbar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interconnect.board import make_board_interconnect
from repro.interconnect.crossbar import GPMCrossbar
from repro.interconnect.link import REQUEST, RESPONSE, Link
from repro.interconnect.ring import ring_paths
from repro.interconnect.topology import build_network


def build_ring(n_nodes):
    return build_network("ring", n_nodes, 768.0, 32.0)


def clockwise(link, n_nodes):
    """Whether a ``ring.i->j`` link runs clockwise (``j == i + 1 mod n``)."""
    src, dst = (int(node) for node in link.name.split(".")[1].split("->"))
    return dst == (src + 1) % n_nodes


class TestLink:
    def test_traverse_adds_latency(self):
        link = Link(128.0, latency_cycles=32.0)
        arrival = link.traverse(0.0, 128)
        assert arrival == pytest.approx(33.0)

    def test_channels_are_independent(self):
        link = Link(1.0, latency_cycles=0.0)
        link.traverse(0.0, 1000, REQUEST)
        prompt = link.traverse(0.0, 1, RESPONSE)
        assert prompt < 100.0  # response channel unaffected by request backlog

    def test_bytes_sum_channels(self):
        link = Link(128.0)
        link.traverse(0.0, 100, REQUEST)
        link.traverse(0.0, 50, RESPONSE)
        assert link.bytes_transferred == 150

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError, match="latency"):
            Link(100.0, latency_cycles=-5)


class TestRingTopology:
    def test_single_node_ring_has_no_links(self):
        ring = build_ring(1)
        assert ring.links == []
        assert ring.transfer(5.0, 0, 0, 128) == 5.0
        assert ring.total_link_bytes == 0

    def test_hop_counts_4_nodes(self):
        ring = build_ring(4)
        assert ring.hops_between(0, 0) == 0
        assert ring.hops_between(0, 1) == 1
        assert ring.hops_between(0, 2) == 2
        assert ring.hops_between(0, 3) == 1
        assert ring.hops_between(3, 0) == 1

    def test_average_hops_uniform_4_nodes(self):
        ring = build_ring(4)
        assert ring.average_hops_uniform() == pytest.approx(4.0 / 3.0)

    def test_route_lengths_match_hops(self):
        ring = build_ring(6)
        for src in range(6):
            for dst in range(6):
                assert len(ring.route(src, dst)) == ring.hops_between(src, dst)

    def test_rejects_out_of_range_nodes(self):
        ring = build_ring(4)
        with pytest.raises(ValueError, match="out of range"):
            ring.hops_between(0, 4)


class TestRingTiming:
    def test_per_direction_bandwidth_is_half_link_setting(self):
        ring = build_ring(4)
        assert ring.links[0].request_pipe.bytes_per_cycle == pytest.approx(384.0)

    def test_transfer_charges_every_hop(self):
        ring = build_ring(4)
        arrival = ring.transfer(0.0, 0, 2, 128)
        # Two hops: 2 x (serialization + 32)
        assert arrival >= 64.0
        assert ring.total_link_bytes == 256  # 128 bytes on each of 2 links

    def test_same_node_transfer_free(self):
        ring = build_ring(4)
        assert ring.transfer(7.0, 2, 2, 4096) == 7.0

    def test_reset_clears_traffic(self):
        ring = build_ring(4)
        ring.transfer(0.0, 0, 1, 128)
        ring.reset()
        assert ring.total_link_bytes == 0


class TestCrossbar:
    def test_classify_counts(self):
        xbar = GPMCrossbar(gpm_id=1)
        assert xbar.classify(1) is True
        assert xbar.classify(0) is False
        assert xbar.classify(2) is False
        assert xbar.local_requests == 1
        assert xbar.remote_requests == 2
        assert xbar.locality_fraction == pytest.approx(1 / 3)

    def test_empty_locality_fraction(self):
        assert GPMCrossbar(0).locality_fraction == 0.0

    def test_reset(self):
        xbar = GPMCrossbar(0)
        xbar.classify(0)
        xbar.reset()
        assert xbar.total_requests == 0


class TestBoard:
    def test_board_is_two_node_ring(self):
        board = make_board_interconnect()
        assert board.n_nodes == 2
        assert board.hops_between(0, 1) == 1

    def test_board_bandwidth_split(self):
        board = make_board_interconnect(aggregate_gbps=256.0)
        assert board.links[0].request_pipe.bytes_per_cycle == pytest.approx(128.0)

    def test_board_rejects_single_gpu(self):
        with pytest.raises(ValueError, match="at least 2"):
            make_board_interconnect(n_gpus=1)


@settings(max_examples=50, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=8),
    src=st.integers(min_value=0, max_value=7),
    dst=st.integers(min_value=0, max_value=7),
)
def test_hops_symmetric_and_bounded(n_nodes, src, dst):
    """Property: ring hops are symmetric and at most floor(n/2)."""
    src %= n_nodes
    dst %= n_nodes
    ring = build_ring(n_nodes)
    hops = ring.hops_between(src, dst)
    assert hops == ring.hops_between(dst, src)
    assert hops <= n_nodes // 2
    assert (hops == 0) == (src == dst)


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
        max_size=50,
    ),
)
def test_ring_accounting_matches_hops(n_nodes, transfers):
    """Property: total link bytes == sum(bytes * hops) over all transfers."""
    ring = build_ring(n_nodes)
    expected = 0
    for src, dst, size in transfers:
        src %= n_nodes
        dst %= n_nodes
        ring.transfer(0.0, src, dst, size)
        expected += size * ring.hops_between(src, dst)
    assert ring.total_link_bytes == expected


class TestAntipodalTieBreak:
    """Regression: opposite-corner routes on an even ring must spread over
    both directions (by source parity) instead of all going clockwise."""

    def test_even_ring_splits_antipodal_directions_by_source_parity(self):
        ring = build_ring(4)
        # Even sources go clockwise: first hop of 0->2 is the 0->1 link.
        assert ring.route(0, 2)[0] is ring.route(0, 1)[0]
        assert ring.route(0, 2)[0].name == "ring.0->1"
        # Odd sources go counter-clockwise: first hop of 1->3 is 1->0.
        assert ring.route(1, 3)[0] is ring.route(1, 0)[0]
        assert ring.route(1, 3)[0].name == "ring.1->0"

    def test_route_lengths_still_minimal_after_tie_break(self):
        for n_nodes in (2, 4, 6, 8):
            ring = build_ring(n_nodes)
            for src in range(n_nodes):
                for dst in range(n_nodes):
                    assert len(ring.route(src, dst)) == ring.hops_between(src, dst)

    def test_antipodal_traffic_from_two_sources_uses_both_directions(self):
        ring = build_ring(4)
        ring.transfer(0.0, 0, 2, 128)
        ring.transfer(0.0, 1, 3, 128)
        clockwise_bytes = sum(
            link.bytes_transferred for link in ring.links if clockwise(link, 4)
        )
        counter_bytes = sum(
            link.bytes_transferred for link in ring.links if not clockwise(link, 4)
        )
        assert clockwise_bytes > 0
        assert counter_bytes > 0

    def test_all_pairs_antipodal_traffic_balances_exactly(self):
        ring = build_ring(4)
        for src in range(4):
            ring.transfer(0.0, src, (src + 2) % 4, 128)
        clockwise_bytes = sum(
            link.bytes_transferred for link in ring.links if clockwise(link, 4)
        )
        counter_bytes = sum(
            link.bytes_transferred for link in ring.links if not clockwise(link, 4)
        )
        assert clockwise_bytes == counter_bytes

    def test_odd_ring_unaffected_by_tie_break(self):
        ring = build_ring(5)
        for src in range(5):
            for dst in range(5):
                if src == dst:
                    continue
                clockwise_hops = (dst - src) % 5
                expect_clockwise = clockwise_hops < 5 - clockwise_hops
                first = ring.route(src, dst)[0]
                assert clockwise(first, 5) == expect_clockwise


def parity_rule_path(n_nodes, src, dst):
    """The ring's documented route: the shorter way round, antipodal ties
    clockwise from even sources and counter-clockwise from odd ones."""
    forward = (dst - src) % n_nodes
    backward = (src - dst) % n_nodes
    step = 1 if forward < backward or (forward == backward and src % 2 == 0) else -1
    path = [src]
    while path[-1] != dst:
        path.append((path[-1] + step) % n_nodes)
    return path


class TestRingRouteTable:
    def test_node_paths_follow_parity_rule_up_to_16_nodes(self):
        for n_nodes in range(1, 17):
            ring = build_ring(n_nodes)
            table = ring_paths(n_nodes)
            for src in range(n_nodes):
                for dst in range(n_nodes):
                    expected = parity_rule_path(n_nodes, src, dst)
                    assert list(table[src][dst]) == expected
                    hops = [f"ring.{a}->{b}" for a, b in zip(expected, expected[1:])]
                    assert [link.name for link in ring.route(src, dst)] == hops
