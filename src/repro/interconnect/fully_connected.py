"""Fully-connected (all-to-all) inter-GPM topology.

Section 3.2 notes that "other network topologies are also possible
especially with growing number of GPMs, but a full exploration of
inter-GPM network topologies is outside the scope of this paper".  This
module provides the natural alternative to the ring for package-level
integration: a direct link between every GPM pair.

Trade-off captured by the model: all-to-all needs ``n*(n-1)/2`` links
instead of ``n``, so at a fixed per-GPM escape-bandwidth budget each link
is thinner — but every transfer is exactly one hop (no pass-through
traffic and half the worst-case latency of a 4-node ring).  The
``topology_study`` experiment runs the iso-budget comparison.
"""

from __future__ import annotations

from typing import List

from .grid import GraphNetwork, WeightedEdge


def fully_connected_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edge list of the all-to-all fabric (one edge per pair)."""
    return [
        (u, v, link_bandwidth, hop_latency)
        for u in range(n_nodes)
        for v in range(u + 1, n_nodes)
    ]


def make_fully_connected(
    n_nodes: int,
    link_bandwidth_bytes_per_cycle: float,
    hop_latency_cycles: float = 32.0,
    name: str = "fc",
) -> GraphNetwork:
    """Build the all-to-all network (each direction gets half a link's
    bandwidth, matching the ring's convention)."""
    return GraphNetwork(
        n_nodes,
        fully_connected_edges(
            n_nodes, link_bandwidth_bytes_per_cycle, hop_latency_cycles
        ),
        name=name,
    )


def iso_budget_link_bandwidth(ring_setting: float, n_nodes: int) -> float:
    """Per-link bandwidth giving all-to-all the ring's per-GPM escape budget.

    A ring node has ports on 2 links; an all-to-all node on ``n-1`` links.
    Holding the per-GPM escape bandwidth constant (2 x setting), each
    all-to-all link gets ``2 * ring_setting / (n - 1)``.
    """
    if n_nodes < 2:
        raise ValueError("iso-budget comparison needs at least two nodes")
    return 2.0 * ring_setting / (n_nodes - 1)
