"""Configuration dataclasses for every simulated system.

All bandwidths are expressed in **bytes per cycle**.  The simulator runs at
the paper's 1 GHz GPU clock (Table 3), so a figure quoted in GB/s converts
numerically 1:1 (768 GB/s == 768 bytes/cycle), which keeps configurations
directly comparable against the paper's text.

Capacities honor a global :data:`MEMORY_SCALE` so the pure-Python simulator
can run workloads whose *footprint-to-capacity ratios* match the paper
without simulating multi-gigabyte traces; see DESIGN.md ("Substitutions").
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from ..memory.address import AddressMap
from ..memory.cache import AllocationPolicy, WritePolicy
from ..memory.placement import PLACEMENT_POLICIES
from .energy import IntegrationTier

#: Scale factor applied to cache capacities and workload footprints.  The
#: ratio between them — what drives hit rates — is preserved exactly.
MEMORY_SCALE = 1.0 / 32.0

#: Simulation clock in Hz; used only for unit conversions in reports.
CLOCK_HZ = 1.0e9

#: Bumped whenever a timing-model constant changes (packet overheads,
#: channel structure, ...) or engine scheduling order changes (rev 6:
#: ``_launch`` refills an empty CTA's slot greedily on the same SM, which
#: moves CTA placement for kernels whose initial wave has empty traces;
#: rev 7: antipodal ring routes tie-break by source parity instead of
#: always clockwise, which moves half the opposite-corner traffic onto the
#: previously idle direction on even-sized rings; rev 8: the degenerate
#: two-node ring collapses to a single physical link pair — the general
#: construction built two parallel pairs of which routing could only ever
#: use one, stranding half the modeled link bandwidth).  Included in
#: configuration digests so the disk result cache never serves results
#: from an older model.
MODEL_REV = 8


def scaled_bytes(full_size_bytes: int, scale: float = MEMORY_SCALE) -> int:
    """Apply the memory scale to a capacity, keeping at least one line."""
    return max(128, int(full_size_bytes * scale))


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policies of one cache level.

    ``size_bytes`` of zero disables the level (it misses on every access),
    which lets experiment code sweep a level out without restructuring the
    hierarchy.
    """

    size_bytes: int
    ways: int = 16
    line_bytes: int = 128
    hit_latency: float = 30.0
    write_policy: WritePolicy = WritePolicy.WRITE_BACK
    allocation: AllocationPolicy = AllocationPolicy.ALL

    def scaled(self, scale: float = MEMORY_SCALE) -> "CacheConfig":
        """Return a copy with capacity scaled by ``scale`` (zero stays zero)."""
        if self.size_bytes == 0:
            return self
        return replace(self, size_bytes=scaled_bytes(self.size_bytes, scale))

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (enums as their values) for JSON serialization."""
        return {
            "size_bytes": self.size_bytes,
            "ways": self.ways,
            "line_bytes": self.line_bytes,
            "hit_latency": self.hit_latency,
            "write_policy": self.write_policy.value,
            "allocation": self.allocation.value,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CacheConfig":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["write_policy"] = WritePolicy(payload["write_policy"])
        payload["allocation"] = AllocationPolicy(payload["allocation"])
        return cls(**payload)


@dataclass(frozen=True)
class SMConfig:
    """Streaming-multiprocessor parameters.

    The simulator executes *warp groups* rather than individual warps: one
    group stands for ``warps_per_group`` paper warps advancing together.
    Table 3's 64 warps/SM becomes 8 groups of 8.
    """

    l1: CacheConfig
    warp_groups: int = 8
    warps_per_group: int = 8
    issue_throughput: float = 4.0
    max_resident_ctas: int = 4

    @property
    def max_warps(self) -> int:
        """Paper-equivalent warp capacity of the SM."""
        return self.warp_groups * self.warps_per_group

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON serialization."""
        return {
            "l1": self.l1.to_dict(),
            "warp_groups": self.warp_groups,
            "warps_per_group": self.warps_per_group,
            "issue_throughput": self.issue_throughput,
            "max_resident_ctas": self.max_resident_ctas,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SMConfig":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["l1"] = CacheConfig.from_dict(payload["l1"])
        return cls(**payload)


@dataclass(frozen=True)
class GPMConfig:
    """One GPU module: SMs, GPM-side L1.5, memory-side L2, local DRAM."""

    n_sms: int
    sm: SMConfig
    l2: CacheConfig
    l15: Optional[CacheConfig] = None
    dram_bandwidth: float = 768.0
    dram_latency: float = 100.0
    xbar_latency: float = 5.0
    #: Extra lookup latency charged to remote requests that miss in the
    #: L1.5 (the tag check sits on the critical path before the ring).
    l15_miss_penalty: float = 8.0

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form for JSON serialization."""
        return {
            "n_sms": self.n_sms,
            "sm": self.sm.to_dict(),
            "l2": self.l2.to_dict(),
            "l15": None if self.l15 is None else self.l15.to_dict(),
            "dram_bandwidth": self.dram_bandwidth,
            "dram_latency": self.dram_latency,
            "xbar_latency": self.xbar_latency,
            "l15_miss_penalty": self.l15_miss_penalty,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GPMConfig":
        """Inverse of :meth:`to_dict`."""
        payload = dict(data)
        payload["sm"] = SMConfig.from_dict(payload["sm"])
        payload["l2"] = CacheConfig.from_dict(payload["l2"])
        if payload.get("l15") is not None:
            payload["l15"] = CacheConfig.from_dict(payload["l15"])
        return cls(**payload)


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated GPU: one or more GPMs behind a ring network.

    The same structure describes all four machine classes of the paper:

    * ``n_gpms=4`` with on-package link parameters — the MCM-GPU;
    * ``n_gpms=1`` — a monolithic GPU (links unused);
    * ``n_gpms=2`` with board-class link parameters — a multi-GPU system;
    * any of the above with ``scheduler``/``placement``/``l15`` toggled —
      the paper's optimization studies.
    """

    name: str
    n_gpms: int
    gpm: GPMConfig
    link_bandwidth: float = 768.0
    hop_latency: float = 32.0
    scheduler: str = "centralized"
    placement: str = "interleave"
    page_bytes: int = 1024
    line_bytes: int = 128
    #: Integration tier of the inter-module links ("package" for MCM rings,
    #: "board" for multi-GPU); selects the energy cost per bit (Table 2).
    link_tier: str = "package"
    #: Inter-GPM topology, validated against the
    #: :mod:`repro.interconnect.topology` registry: "ring" (the paper's
    #: baseline), "fully_connected", "mesh", "torus", or "hierarchical"
    #: (package rings bridged by a fixed board ring).
    topology: str = "ring"

    def __post_init__(self) -> None:
        if isinstance(self.n_gpms, bool) or not isinstance(self.n_gpms, int):
            raise ValueError(f"n_gpms must be an integer, got {self.n_gpms!r}")
        if self.n_gpms <= 0:
            raise ValueError(f"n_gpms must be positive, got {self.n_gpms}")
        if self.n_gpms > 1 and self.link_bandwidth <= 0:
            raise ValueError("multi-module systems need positive link bandwidth")
        if self.scheduler not in ("centralized", "distributed", "dynamic"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        # Imported here, not at module top: keeps config importable without
        # pulling the whole interconnect package in at definition time.
        from ..interconnect.topology import get_topology

        get_topology(self.topology)  # raises ValueError with known names
        AddressMap(self.line_bytes, self.page_bytes)  # raises on unbuildable sizes
        if self.placement not in PLACEMENT_POLICIES:
            known = ", ".join(sorted(PLACEMENT_POLICIES))
            raise ValueError(
                f"unknown placement {self.placement!r}; expected one of: {known}"
            )
        valid_tiers = tuple(tier.value for tier in IntegrationTier)
        if self.link_tier not in valid_tiers:
            raise ValueError(
                f"unknown link_tier {self.link_tier!r}; "
                f"expected one of: {', '.join(valid_tiers)}"
            )

    @property
    def total_sms(self) -> int:
        """SM count across all GPMs."""
        return self.n_gpms * self.gpm.n_sms

    @property
    def total_dram_bandwidth(self) -> float:
        """Aggregate DRAM bandwidth in bytes/cycle (== GB/s at 1 GHz)."""
        return self.n_gpms * self.gpm.dram_bandwidth

    @property
    def total_l2_bytes(self) -> int:
        """Aggregate memory-side L2 capacity."""
        return self.n_gpms * self.gpm.l2.size_bytes

    @property
    def total_l15_bytes(self) -> int:
        """Aggregate GPM-side L1.5 capacity (zero when the level is absent)."""
        if self.gpm.l15 is None:
            return 0
        return self.n_gpms * self.gpm.l15.size_bytes

    @property
    def max_resident_ctas(self) -> int:
        """CTAs the whole machine can hold concurrently."""
        return self.total_sms * self.gpm.sm.max_resident_ctas

    def digest(self) -> str:
        """Stable string identifying this configuration (for result caches).

        Every field that can change a simulation's outcome (or a cached
        result's derived metrics, e.g. ``link_tier`` selecting the energy
        cost per bit) must appear here: the disk result cache is keyed by
        this string, so an omission makes distinct configurations collide.
        Changing the digest format self-invalidates old cache entries —
        stale keys simply never match again (see ``ResultCache.prune``).
        """
        l15 = self.gpm.l15
        l15_part = (
            "none"
            if l15 is None or l15.size_bytes == 0
            else f"{l15.size_bytes}x{l15.ways}:{l15.allocation.value}"
        )
        l15_lat = 0.0 if l15 is None else l15.hit_latency
        sm = self.gpm.sm
        return (
            f"r{MODEL_REV}|{self.name}|g{self.n_gpms}x{self.gpm.n_sms}"
            f"|sm:{sm.warp_groups}x{sm.warps_per_group}"
            f"@{sm.issue_throughput}:{sm.max_resident_ctas}"
            f"|l1:{sm.l1.size_bytes}x{sm.l1.ways}|l15:{l15_part}"
            f"|l2:{self.gpm.l2.size_bytes}x{self.gpm.l2.ways}"
            f"|lat:{sm.l1.hit_latency}:{l15_lat}:{self.gpm.l2.hit_latency}"
            f"|xbar:{self.gpm.xbar_latency}:{self.gpm.l15_miss_penalty}"
            f"|dram:{self.gpm.dram_bandwidth}@{self.gpm.dram_latency}"
            f"|link:{self.link_bandwidth}@{self.hop_latency}:{self.topology}"
            f":{self.link_tier}"
            f"|sched:{self.scheduler}|place:{self.placement}|pg:{self.page_bytes}"
            f"|ln:{self.line_bytes}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-serializable) of the whole configuration.

        Round-trips through :meth:`from_dict`; used to serialize sweep
        candidates into ``explore/`` artifacts.
        """
        return {
            "name": self.name,
            "n_gpms": self.n_gpms,
            "gpm": self.gpm.to_dict(),
            "link_bandwidth": self.link_bandwidth,
            "hop_latency": self.hop_latency,
            "scheduler": self.scheduler,
            "placement": self.placement,
            "page_bytes": self.page_bytes,
            "line_bytes": self.line_bytes,
            "link_tier": self.link_tier,
            "topology": self.topology,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SystemConfig":
        """Inverse of :meth:`to_dict` (unknown keys rejected loudly)."""
        payload = dict(data)
        known = {spec.name for spec in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown SystemConfig fields: {unknown}")
        payload["gpm"] = GPMConfig.from_dict(payload["gpm"])
        return cls(**payload)
