"""Configuration dataclasses for the simulator and the deadlock schemes.

The defaults mirror Table II of the paper: virtual cut-through with a single
packet per VC, 1-cycle routers, 2 VCs per virtual network, 3 virtual
networks for the proactive/reactive baselines and 1 for DRAIN, and a 64K
cycle drain epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

__all__ = [
    "Scheme",
    "NetworkConfig",
    "DrainConfig",
    "SpinConfig",
    "ProtocolConfig",
    "PfcConfig",
    "SimConfig",
    "FLOW_CONTROL_MODES",
]

#: Fabric flow-control modes: "credit" is the paper's credit-based VCT
#: fabric; "pause_resume" is the PFC-style lossless-Ethernet model
#: (per-(port,vn) XOFF/XON with hysteresis thresholds and headroom);
#: "wormhole" is the flit-based fabric with drain truncation (Section
#: III-C3), ``NetworkConfig.packet_size_flits`` flits per packet.
FLOW_CONTROL_MODES = ("credit", "pause_resume", "wormhole")


class Scheme(str, Enum):
    """Deadlock-freedom scheme under evaluation.

    - ``ESCAPE_VC``: proactive baseline — fully adaptive non-escape VCs plus
      one escape VC per VN routed with a restricted (deadlock-free)
      algorithm: DOR on a fault-free complete grid, up*/down* otherwise.
      A torus is such a grid, but XY never takes its wrap links, so the
      escape routes there are not minimal.
    - ``SPIN``: reactive baseline — fully adaptive everywhere; timeout
      probes detect a deadlock cycle, then a coordinated spin moves it.
    - ``DRAIN``: the paper's subactive scheme — fully adaptive everywhere;
      escape VCs are periodically drained along a precomputed drain path.
    - ``NONE``: no deadlock handling at all (used for the Figure 3
      deadlock-likelihood study).
    - ``IDEAL``: oracle — deadlocks are resolved instantly at zero cost
      (the "ideal fully adaptive" upper bound of Figure 5).
    - ``UPDOWN``: all packets restricted to up*/down* routes (the
      turn-restriction baseline of Figure 5).
    - ``STATIC_BUBBLE``: reactive related-work baseline [7] — timeout
      detection plus one normally-off extra buffer per router for local
      recovery (no coordinated movement).
    """

    ESCAPE_VC = "escape_vc"
    SPIN = "spin"
    STATIC_BUBBLE = "static_bubble"
    DRAIN = "drain"
    NONE = "none"
    IDEAL = "ideal"
    UPDOWN = "updown"


@dataclass(frozen=True)
class NetworkConfig:
    """Structural parameters of the network (Table II)."""

    num_vns: int = 3  # virtual networks (one per message class)
    vcs_per_vn: int = 2  # VCs within each virtual network
    router_latency: int = 1  # cycles per router traversal
    link_latency: int = 1  # cycles per link traversal
    link_bandwidth_bits: int = 128  # bits per cycle (Table II)
    packet_size_bits: int = 128  # single-flit packets under VCT
    #: Link-serialisation length of a packet in flits. 1 (the evaluated
    #: Table II configuration: 128-bit packets on 128-bit links) transfers
    #: a packet in one cycle; larger values keep the link busy for that
    #: many cycles per packet — which is exactly why the pre-drain window
    #: must be "statically determined by the maximum packet size"
    #: (Section III-C2): in-flight transfers must complete before a drain.
    #: On the wormhole fabric it is the number of flits per packet.
    packet_size_flits: int = 1
    injection_queue_depth: int = 16  # NI source queue per message class
    ejection_queue_depth: int = 4  # NI sink queue per message class
    ejections_per_cycle: int = 1  # ejection-port bandwidth per router

    def __post_init__(self) -> None:
        if self.num_vns < 1:
            raise ValueError("need at least one virtual network")
        if self.vcs_per_vn < 1:
            raise ValueError("need at least one VC per virtual network")
        if self.vcs_per_vn > 8:
            raise ValueError("at most 8 VCs per virtual network (a row's "
                             f"free VCs live in one byte), got {self.vcs_per_vn}")
        if self.ejection_queue_depth < 1:
            raise ValueError("ejection queues must hold at least one packet")
        if self.packet_size_flits < 1:
            raise ValueError("packets must be at least one flit long")

    @property
    def total_vcs(self) -> int:
        return self.num_vns * self.vcs_per_vn


@dataclass(frozen=True)
class DrainConfig:
    """Parameters of the DRAIN controller (Section III-C)."""

    epoch: int = 64 * 1024  # cycles between drain windows
    pre_drain_window: int = 5  # credit-freeze cycles before each drain
    drain_window: int = 5  # cycles reserved for the one-hop drain
    full_drain_period: int = 1000  # full drain once every N drain windows
    hops_per_drain: int = 1  # paper footnote: >1 always performs worse
    #: Strict paper semantics: once a packet enters an escape VC it may
    #: never move to a non-escape VC (Section III-A, "Draining Only Escape
    #: VCs"). In this simulator's single-packet-per-VC fabric that
    #: stickiness adds head-of-line blocking the paper's system does not
    #: exhibit (DRAIN matches SPIN's throughput there, Figure 10), so the
    #: default is the relaxed variant: deadlock freedom is unaffected —
    #: every drain still rotates the escape VCs, escape packets still
    #: eventually pass their destination and eject, and freed escape VCs
    #: remain reachable by any blocked packet. The strict variant is kept
    #: for the paper-semantics ablation (benchmarks/test_ablations.py).
    escape_sticky: bool = False

    def __post_init__(self) -> None:
        if self.epoch < 1:
            raise ValueError("epoch must be positive")
        if self.pre_drain_window < 0 or self.drain_window < 1:
            raise ValueError("invalid drain window lengths")
        if self.full_drain_period < 1:
            raise ValueError("full_drain_period must be positive")
        if self.hops_per_drain < 1:
            raise ValueError("must drain at least one hop")


@dataclass(frozen=True)
class SpinConfig:
    """Parameters of the SPIN baseline (Section II-C / [5])."""

    timeout: int = 1024  # blocked-head-packet cycles before probing
    probe_hop_latency: int = 1  # cycles charged per probe hop
    spin_interval: int = 64  # min cycles between spins of the same cycle

    def __post_init__(self) -> None:
        if self.timeout < 1:
            raise ValueError("timeout must be positive")


@dataclass(frozen=True)
class ProtocolConfig:
    """Parameters of the coherence-protocol traffic model (Ruby stand-in)."""

    mshrs_per_node: int = 8  # bounds in-flight transactions per node
    forward_probability: float = 0.4  # REQ that needs a 3-hop fwd chain
    directory_latency: int = 2  # cycles to process a request
    cache_latency: int = 1  # cycles to process a forward

    def __post_init__(self) -> None:
        if self.mshrs_per_node < 1:
            raise ValueError("need at least one MSHR per node")
        if not 0.0 <= self.forward_probability <= 1.0:
            raise ValueError("forward_probability must be a probability")


@dataclass(frozen=True)
class PfcConfig:
    """Parameters of the PFC pause/resume flow-control mode.

    A buffer *row* is the ``vcs_per_vn`` VC slots of one (link port, VN)
    pair.  A row asserts XOFF once its occupancy reaches
    ``pause_threshold`` and releases it (XON) once occupancy falls back
    to ``resume_threshold`` — strict hysteresis requires
    ``resume_threshold < pause_threshold``.  ``headroom`` is the slot
    margin that must remain above the pause threshold so in-flight
    packets granted before the pause took effect still land losslessly:
    ``pause_threshold + headroom`` may not exceed the row depth
    (``vcs_per_vn``), which :class:`SimConfig` enforces.
    """

    pause_threshold: int = 1
    resume_threshold: int = 0
    headroom: int = 1

    def __post_init__(self) -> None:
        if self.pause_threshold < 1:
            raise ValueError("pfc pause_threshold must be at least 1")
        if self.resume_threshold < 0:
            raise ValueError("pfc resume_threshold must be non-negative")
        if self.resume_threshold >= self.pause_threshold:
            raise ValueError(
                f"pfc resume_threshold ({self.resume_threshold}) must be "
                f"strictly below pause_threshold ({self.pause_threshold})"
            )
        if self.headroom < 0:
            raise ValueError("pfc headroom must be non-negative")

    def feasibility_error(self, vcs_per_vn: int) -> Optional[str]:
        """Why this config cannot stay lossless at *vcs_per_vn* row depth.

        Returns ``None`` when the thresholds fit the row, otherwise the
        exact message every enforcement point (``SimConfig``, the
        pause-resume fabric, the static certifier, the CLI) reports, so a
        rejected configuration reads identically everywhere.
        """
        if self.headroom > vcs_per_vn:
            return (
                f"pfc headroom ({self.headroom}) exceeds the buffer "
                f"depth ({vcs_per_vn} VCs per VN)"
            )
        if self.pause_threshold + self.headroom > vcs_per_vn:
            return (
                f"pfc pause_threshold ({self.pause_threshold}) + "
                f"headroom ({self.headroom}) exceeds the buffer "
                f"depth ({vcs_per_vn} VCs per VN); pausing would fire too "
                "late to stay lossless"
            )
        return None


@dataclass(frozen=True)
class SimConfig:
    """Complete configuration of one simulation run."""

    scheme: Scheme = Scheme.DRAIN
    network: NetworkConfig = field(default_factory=NetworkConfig)
    drain: DrainConfig = field(default_factory=DrainConfig)
    spin: SpinConfig = field(default_factory=SpinConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    pfc: PfcConfig = field(default_factory=PfcConfig)
    #: Fabric flow control: "credit" (default; the reference semantics
    #: every golden snapshot is pinned to), "pause_resume" (the PFC
    #: lossless mode, simulated by :class:`repro.network.PauseResumeFabric`)
    #: or "wormhole" (:class:`repro.network.WormholeFabric`).
    flow_control: str = "credit"
    seed: int = 1
    deadlock_check_interval: int = 128  # oracle cadence (measurement only)
    deadlock_grace: int = 64  # min blocked cycles before oracle counts it

    def __post_init__(self) -> None:
        if self.deadlock_check_interval < 1 or self.deadlock_grace < 0:
            raise ValueError("deadlock_check_interval must be >= 1 and deadlock_grace >= 0, "
                             f"not {self.deadlock_check_interval} and {self.deadlock_grace}")
        if self.flow_control not in FLOW_CONTROL_MODES:
            raise ValueError(
                f"unknown flow_control {self.flow_control!r}: "
                f"expected one of {', '.join(FLOW_CONTROL_MODES)}"
            )
        if self.flow_control == "wormhole" and self.scheme not in (
            Scheme.DRAIN, Scheme.NONE
        ):
            raise ValueError(
                "the wormhole fabric models the DRAIN and NONE schemes only "
                "(the paper evaluates the baselines under virtual cut-through)"
            )
        if self.flow_control == "pause_resume":
            err = self.pfc.feasibility_error(self.network.vcs_per_vn)
            if err is not None:
                raise ValueError(err)

    def with_scheme(self, scheme: Scheme) -> "SimConfig":
        return replace(self, scheme=scheme)

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)


def drain_default(epoch: Optional[int] = None, **kwargs) -> SimConfig:
    """The paper's default DRAIN configuration: VN-1, VC-2, 64K epoch."""
    drain = DrainConfig() if epoch is None else DrainConfig(epoch=epoch)
    return SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=2),
        drain=drain,
        **kwargs,
    )
