"""Board-level interconnect for multi-GPU systems (Section 6).

A two-GPU board is topologically a two-node ring, so we reuse
:func:`~repro.interconnect.ring.make_ring`; what distinguishes the board
tier is its parameters: far lower bandwidth (256 GB/s aggregate next-gen
NVLink-class vs 768 GB/s *per link* on package) and far higher per-traversal
latency.  Energy per bit is also ~20x worse (Table 2), which the energy
model charges separately by tier.
"""

from __future__ import annotations

from .grid import GraphNetwork
from .ring import make_ring

#: Aggregate next-generation board-level bandwidth assumed in Section 6.1
#: (GB/s).  Split across two directions.
BOARD_AGGREGATE_GBPS = 256.0

#: One-way latency of a board-level link traversal, in cycles at 1 GHz.
#: Board links cross connectors and longer traces; we charge ~10x the
#: on-package hop latency.
BOARD_HOP_LATENCY_CYCLES = 320.0


def make_board_interconnect(
    n_gpus: int = 2,
    aggregate_gbps: float = BOARD_AGGREGATE_GBPS,
    hop_latency_cycles: float = BOARD_HOP_LATENCY_CYCLES,
) -> GraphNetwork:
    """Build the board-level network connecting discrete GPUs.

    ``aggregate_gbps`` is the total bidirectional bandwidth between a GPU
    pair; the ring splits it across the two directions.  At the 1 GHz
    simulation clock, GB/s and bytes/cycle are numerically equal.
    """
    if n_gpus < 2:
        raise ValueError(f"a multi-GPU board needs at least 2 GPUs, got {n_gpus}")
    return make_ring(n_gpus, aggregate_gbps, hop_latency_cycles, name="board")
