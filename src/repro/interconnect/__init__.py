"""Interconnect substrate: links, topologies (ring/FC/mesh/torus/hier), board tier."""

from .board import (
    BOARD_AGGREGATE_GBPS,
    BOARD_HOP_LATENCY_CYCLES,
    make_board_interconnect,
)
from .crossbar import GPMCrossbar
from .fully_connected import iso_budget_link_bandwidth, make_fully_connected
from .grid import GraphNetwork
from .hierarchical import PACKAGE_SIZE, make_hierarchical
from .link import Link
from .mesh import grid_dims, make_mesh
from .ring import make_ring
from .topology import (
    TopologyDescriptor,
    build_network,
    get_topology,
    topology_names,
)
from .torus import make_torus

__all__ = [
    "BOARD_AGGREGATE_GBPS",
    "BOARD_HOP_LATENCY_CYCLES",
    "make_board_interconnect",
    "GPMCrossbar",
    "iso_budget_link_bandwidth",
    "make_fully_connected",
    "GraphNetwork",
    "PACKAGE_SIZE",
    "make_hierarchical",
    "Link",
    "grid_dims",
    "make_mesh",
    "make_ring",
    "TopologyDescriptor",
    "build_network",
    "get_topology",
    "topology_names",
    "make_torus",
]
