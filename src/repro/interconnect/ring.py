"""On-package ring network connecting GPMs.

The baseline MCM-GPU connects its GPM crossbars into "a modular on-package
ring or mesh interconnect network" (Section 3.2).  The ring is a
:class:`~repro.interconnect.grid.GraphNetwork` over ``n`` nodes: one
undirected edge between each adjacent pair (a clockwise and a
counter-clockwise directional link) and minimal routing.  Each hop charges
the link's fixed latency plus serialization; multi-hop transfers occupy
every link on the path, so a message between opposite corners of a 4-GPM
ring consumes bandwidth on two links — exactly the pass-through pressure
the paper's Section 3.3.1 sizing analysis accounts for.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .grid import GraphNetwork, WeightedEdge


def ring_edges(
    nodes: Sequence[int], link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected edges of a ring over an ordered node sequence.

    One node has no edges.  Two nodes share a single physical link pair,
    not two parallel pairs of which routing could only ever use one
    (stranding half the modeled bandwidth).
    """
    count = len(nodes)
    if count < 2:
        return []
    if count == 2:
        return [(nodes[0], nodes[1], link_bandwidth, hop_latency)]
    return [
        (nodes[i], nodes[(i + 1) % count], link_bandwidth, hop_latency)
        for i in range(count)
    ]


def ring_paths(n_nodes: int) -> List[List[Tuple[int, ...]]]:
    """Minimal node paths of an ``n``-node ring, ``paths[src][dst]``.

    Antipodal pairs on an even ring have no shortest direction; the tie is
    broken by source parity (even sources go clockwise, odd ones
    counter-clockwise) so opposite-corner traffic from different sources
    spreads over both directions instead of piling onto the clockwise half
    while the counter-clockwise links idle.
    """
    paths = []
    for src in range(n_nodes):
        row = []
        for dst in range(n_nodes):
            clockwise_hops = (dst - src) % n_nodes
            counter_hops = (n_nodes - clockwise_hops) % n_nodes
            if clockwise_hops < counter_hops or (
                clockwise_hops == counter_hops and src % 2 == 0
            ):
                row.append(
                    tuple((src + i) % n_nodes for i in range(clockwise_hops + 1))
                )
            else:
                row.append(
                    tuple((src - i) % n_nodes for i in range(counter_hops + 1))
                )
        paths.append(row)
    return paths


def make_ring(
    n_nodes: int,
    link_bandwidth_bytes_per_cycle: float,
    hop_latency_cycles: float = 32.0,
    name: str = "ring",
) -> GraphNetwork:
    """Build the ring network.

    ``link_bandwidth_bytes_per_cycle`` is the bandwidth of one link, *total
    across both directions* — the quantity the paper sweeps ("768 GB/s per
    link"); each direction gets half.  This calibration reproduces the
    paper's Section 3.3.1 sizing: a 4-GPM ring at setting ``s`` offers each
    GPM ``2s`` of aggregate port bandwidth, so the 3 TB/s (``4b``) per-GPM
    demand is met exactly at the 1.5 TB/s setting and the 768 GB/s
    baseline runs ~2x short — the Figure 4 degradation regime.  A
    single-node ring is legal and carries no traffic (monolithic-GPU
    configurations).
    """
    return GraphNetwork(
        n_nodes,
        ring_edges(
            range(n_nodes), link_bandwidth_bytes_per_cycle, hop_latency_cycles
        ),
        name=name,
        paths=ring_paths(n_nodes),
    )
