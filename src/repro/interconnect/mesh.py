"""2-D mesh inter-GPM topology.

Section 3.2 names "a modular on-package ring or mesh interconnect
network"; the ring is the paper's baseline and this module supplies the
mesh for the scale-out study.  GPMs sit on an ``rows x cols`` grid (the
most-square factorization of ``n``) with a link between horizontal and
vertical neighbors — no wraparound.  Nodes are numbered column-major so
the canonical half-split used by bisection accounting cuts between the
middle columns, which for a grid with ``rows <= cols`` is a minimum
bisection: ``rows`` links for a mesh.

Meshes trade the ring's constant per-node port count for hop counts that
grow as ``sqrt(n)`` instead of ``n`` — the reason the study's 16- and
64-GPM points favor grids.
"""

from __future__ import annotations

from math import isqrt
from typing import List, Tuple

from .grid import GraphNetwork, WeightedEdge


def grid_dims(n_nodes: int) -> Tuple[int, int]:
    """Most-square ``(rows, cols)`` factorization with ``rows <= cols``.

    Picks the largest divisor of ``n`` not exceeding ``sqrt(n)``; a prime
    count degenerates to a ``1 x n`` line.
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    rows = 1
    for divisor in range(1, isqrt(n_nodes) + 1):
        if n_nodes % divisor == 0:
            rows = divisor
    return rows, n_nodes // rows


def grid_node(row: int, col: int, rows: int) -> int:
    """Column-major node id of grid position ``(row, col)``."""
    return col * rows + row


def mesh_edges(
    n_nodes: int, link_bandwidth: float, hop_latency: float
) -> List[WeightedEdge]:
    """Undirected weighted edge list of the ``n``-node 2-D mesh."""
    rows, cols = grid_dims(n_nodes)
    edges: List[WeightedEdge] = []
    for col in range(cols):
        for row in range(rows):
            here = grid_node(row, col, rows)
            if row + 1 < rows:
                edges.append(
                    (here, grid_node(row + 1, col, rows), link_bandwidth, hop_latency)
                )
            if col + 1 < cols:
                edges.append(
                    (here, grid_node(row, col + 1, rows), link_bandwidth, hop_latency)
                )
    return edges


def make_mesh(
    n_nodes: int,
    link_bandwidth_bytes_per_cycle: float,
    hop_latency_cycles: float = 32.0,
    name: str = "mesh",
) -> GraphNetwork:
    """Build the mesh network."""
    return GraphNetwork(
        n_nodes,
        mesh_edges(n_nodes, link_bandwidth_bytes_per_cycle, hop_latency_cycles),
        name=name,
    )
