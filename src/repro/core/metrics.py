"""Statistics collection for simulation runs.

``RunningStats`` keeps O(1) summary statistics; ``SampleStats`` additionally
retains raw samples so that percentiles (e.g. the paper's 99th-percentile
tail latency, Figure 15) can be computed exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

__all__ = ["RunningStats", "SampleStats", "NetworkStats", "percentile"]


def percentile(samples: List[float], pct: float) -> float:
    """Return the *pct* percentile (0-100) of *samples* by linear interpolation.

    Raises ``ValueError`` on an empty sample list.
    """
    if not samples:
        raise ValueError("cannot take a percentile of no samples")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1.0 - frac) + ordered[high] * frac
    # The two rounded weight products can overshoot the bracket by one
    # ulp (e.g. x*0.02 + x*0.98 > x for some subnormal-scale x); a
    # percentile must stay within [min, max] of its samples.
    if value < ordered[low]:
        return ordered[low]
    if value > ordered[high]:
        return ordered[high]
    return value


class RunningStats:
    """Constant-space mean/variance/min/max accumulator (Welford)."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Fold *other* into this accumulator (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class SampleStats(RunningStats):
    """RunningStats that also retains raw samples for percentile queries."""

    __slots__ = ("samples",)

    def __init__(self) -> None:
        super().__init__()
        self.samples: List[float] = []

    def add(self, value: float) -> None:
        super().add(value)
        self.samples.append(value)

    def percentile(self, pct: float) -> float:
        return percentile(self.samples, pct)


@dataclass
class NetworkStats:
    """Aggregate counters for one simulation run.

    All latency figures are in cycles; throughput is packets received per
    node per cycle, matching the units used throughout the paper's
    evaluation section.
    """

    packets_injected: int = 0
    packets_ejected: int = 0
    packets_ejected_measured: int = 0  # ejections within the measured window
    flits_traversed: int = 0  # link traversals (hop events)
    misroutes: int = 0  # hops that moved a packet away from its destination
    drain_windows: int = 0
    full_drains: int = 0
    drained_packets: int = 0  # packet-moves forced by draining
    deadlocks_detected: int = 0
    deadlock_events: int = 0  # distinct detector firings (SPIN / oracle)
    probes_sent: int = 0  # SPIN probe traffic
    spins_performed: int = 0
    buffer_reads: int = 0
    buffer_writes: int = 0
    xbar_traversals: int = 0
    cycles: int = 0
    measured_cycles: int = 0
    # Allocated link traversals per VN: one per packet move (per flit
    # under wormhole). Forced moves (drain, SPIN, ideal, bubble) are not
    # counted; flits_traversed counts both kinds.
    vn_hops: Dict[int, int] = field(default_factory=dict)
    latency: SampleStats = field(default_factory=SampleStats)
    network_latency: SampleStats = field(default_factory=SampleStats)
    hops: RunningStats = field(default_factory=RunningStats)
    transactions_completed: int = 0
    # Runtime fault injection (repro.faults). Kept out of as_dict() so the
    # fault-free experiment artefacts and their golden snapshots are
    # untouched; the fault runner reports them explicitly.
    faults_applied: int = 0  # fault events that took effect
    faults_revived: int = 0  # transient faults that healed
    packets_lost: int = 0  # dropped by a fault (wire, router, no route)
    packets_retransmitted: int = 0  # re-offered at the source NI
    packets_unroutable: int = 0  # swallowed at injection: dst unreachable/dead
    drain_recomputes: int = 0  # online drain-path reconstructions

    def throughput(self, num_nodes: int) -> float:
        """Received packets per node per cycle over the measured window."""
        if self.measured_cycles == 0 or num_nodes == 0:
            return 0.0
        return self.packets_ejected_measured / (num_nodes * self.measured_cycles)

    @property
    def avg_latency(self) -> float:
        return self.latency.mean

    @property
    def p99_latency(self) -> float:
        return self.latency.percentile(99.0)

    def as_dict(self) -> Dict[str, float]:
        """Flatten headline metrics for report tables."""
        return {
            "packets_injected": self.packets_injected,
            "packets_ejected": self.packets_ejected,
            "avg_latency": self.avg_latency,
            "avg_hops": self.hops.mean,
            "misroutes": self.misroutes,
            "drain_windows": self.drain_windows,
            "deadlock_events": self.deadlock_events,
            "probes_sent": self.probes_sent,
            "cycles": self.cycles,
        }
