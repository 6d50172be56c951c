"""Hierarchical package-ring x board topology.

Beyond one package's GPM budget, the natural scale-out unit is the
package itself: rings of :data:`PACKAGE_SIZE` GPMs on package (the
paper's baseline fabric), with one gateway GPM per package hanging on a
board-level ring at board-class parameters
(:data:`~repro.interconnect.board.BOARD_AGGREGATE_GBPS` aggregate,
:data:`~repro.interconnect.board.BOARD_HOP_LATENCY_CYCLES` per hop) —
Section 6's multi-GPU board generalized to many packages.

Modeling notes:

* Routing is minimal-hop, so the fixed 256 GB/s board ring becomes the
  fabric's bottleneck as soon as cross-package traffic exceeds it —
  the collapse point the scale-out study is built to expose.  Unlike
  the on-package tiers, board capacity does *not* scale with
  ``config.link_bandwidth``.
* The energy model charges all link traffic at the config's single
  ``link_tier``; the board hops' higher per-bit cost is approximated
  away.  This keeps the result comparable with the flat topologies and
  is documented in DESIGN.md.
* ``n <= PACKAGE_SIZE`` degenerates to a plain on-package ring, but
  routed lowest-index-greedy like the rest of this fabric rather than
  with the ring's parity tie-break.
"""

from __future__ import annotations

from typing import List

from .board import BOARD_AGGREGATE_GBPS, BOARD_HOP_LATENCY_CYCLES
from .grid import GraphNetwork, WeightedEdge
from .ring import ring_edges

#: GPMs per package — the paper's 4-GPM building block (Section 3).
PACKAGE_SIZE = 4


def hierarchical_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected weighted edge list of the package-ring x board fabric.

    GPMs ``[p*4, p*4+3]`` form package ``p``'s on-package ring at the
    config's link parameters; the first GPM of each package is its board
    gateway, and the gateways form a board ring at fixed board-class
    parameters.
    """
    packages = [
        list(range(start, min(start + PACKAGE_SIZE, n_nodes)))
        for start in range(0, n_nodes, PACKAGE_SIZE)
    ]
    edges: List[WeightedEdge] = []
    for members in packages:
        edges.extend(ring_edges(members, link_bandwidth, hop_latency))
    gateways = [members[0] for members in packages]
    edges.extend(
        ring_edges(gateways, BOARD_AGGREGATE_GBPS, BOARD_HOP_LATENCY_CYCLES)
    )
    return edges


def make_hierarchical(
    n_nodes: int,
    link_bandwidth_bytes_per_cycle: float,
    hop_latency_cycles: float = 32.0,
    name: str = "hier",
) -> GraphNetwork:
    """Build the hierarchical network."""
    return GraphNetwork(
        n_nodes,
        hierarchical_edges(
            n_nodes, link_bandwidth_bytes_per_cycle, hop_latency_cycles
        ),
        name=name,
    )
