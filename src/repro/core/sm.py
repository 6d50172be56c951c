"""Streaming multiprocessor (SM) runtime state.

The SM is modeled as an in-order issue engine shared by its resident warp
groups (Section 4: "SMs are modeled as in-order execution processors that
accurately model warp-level parallelism").  Timing is captured by a single
``clock`` — the cycle at which the SM's issue ports next become free — and
by each warp group's own readiness, managed by the simulation engine.
"""

from __future__ import annotations

from ..memory.cache import SetAssocCache
from .config import SMConfig


class SM:
    """Runtime state of one SM.

    Parameters
    ----------
    sm_id:
        Global SM index across the whole GPU.
    gpm_id:
        Index of the GPM (or discrete GPU) this SM lives on.
    config:
        Static SM parameters.
    """

    __slots__ = (
        "sm_id",
        "gpm_id",
        "config",
        "l1",
        "l1_hit_latency",
        "issue_throughput",
        "clock",
        "free_cta_slots",
        "ctas_launched",
        "issue_busy_cycles",
    )

    def __init__(self, sm_id: int, gpm_id: int, config: SMConfig) -> None:
        self.sm_id = sm_id
        self.gpm_id = gpm_id
        self.config = config
        self.l1_hit_latency = config.l1.hit_latency
        self.issue_throughput = config.issue_throughput
        self.l1 = SetAssocCache(
            size_bytes=config.l1.size_bytes,
            line_bytes=config.l1.line_bytes,
            ways=config.l1.ways,
            write_policy=config.l1.write_policy,
            name=f"sm{sm_id}.l1",
        )
        self.clock = 0.0
        self.free_cta_slots = config.max_resident_ctas
        self.ctas_launched = 0
        #: Cycles the issue ports have been occupied; ``busy / elapsed`` is
        #: the SM's issue utilization (sampled per window by telemetry).
        self.issue_busy_cycles = 0.0

    def occupy_slot(self) -> None:
        """Claim one CTA slot; the scheduler must check availability first."""
        if self.free_cta_slots <= 0:
            raise RuntimeError(f"SM {self.sm_id} has no free CTA slot")
        self.free_cta_slots -= 1
        self.ctas_launched += 1

    def release_slot(self) -> None:
        """Return a CTA slot when a resident CTA retires."""
        if self.free_cta_slots >= self.config.max_resident_ctas:
            raise RuntimeError(f"SM {self.sm_id} released more slots than it holds")
        self.free_cta_slots += 1

    def reset(self) -> None:
        """Clear timing state and the L1 between simulations."""
        self.clock = 0.0
        self.free_cta_slots = self.config.max_resident_ctas
        self.ctas_launched = 0
        self.issue_busy_cycles = 0.0
        self.l1.flush()
        self.l1.reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SM(sm_id={self.sm_id}, gpm={self.gpm_id}, clock={self.clock:.0f})"
