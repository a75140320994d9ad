"""Static analysis of drain paths and drain-overhead accounting.

The offline algorithm has freedom in *which* covering cycle it returns;
this module quantifies what a given choice costs at runtime:

- :func:`misroute_expectation` — probability that a drain hop moves a
  uniformly random in-flight packet away from its destination (the paper's
  misroutes, Figure 14's mechanism);
- :func:`router_visit_counts` — how often the path passes through each
  router (bounds how long a full drain holds any packet);
- :func:`drain_overhead_fraction` — fraction of cycles the network spends
  frozen in pre-drain/drain windows for a given epoch setting, including
  the amortised full-drain cost.

These feed the ablation benchmarks and let users pick epochs analytically
instead of by sweep.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

from ..core.config import DrainConfig
from ..structcache import distance_matrix
from .path import DrainPath

__all__ = [
    "misroute_expectation",
    "router_visit_counts",
    "drain_overhead_fraction",
    "path_report",
]


def misroute_expectation(path: DrainPath) -> float:
    """Expected misroute probability of one drain hop.

    Averaged over every (occupied link, destination) pair with uniform
    destinations: the fraction of forced turns that strictly increase the
    hop distance to the destination. Distances come from the structure
    store's memo (:func:`~repro.structcache.distance_matrix`), so the BFS
    is never repeated for a topology whose matrix this process already
    computed.
    """
    links = path.links
    if not links:
        return 0.0
    dist = distance_matrix(path.topology)
    here = [link.dst for link in links]
    there = [path.next_link(link).dst for link in links]
    worse = dist[there] > dist[here]
    # An ejectable packet is not drained away: skip dst == here.
    worse[range(len(here)), here] = False
    return int(worse.sum()) / (len(links) * (dist.shape[0] - 1))


def router_visit_counts(path: DrainPath) -> Dict[int, int]:
    """Number of times the drain path enters each router."""
    counts: Counter = Counter(link.dst for link in path.links)
    return dict(counts)


def drain_overhead_fraction(config: DrainConfig, path_length: int) -> float:
    """Fraction of wall-clock cycles spent frozen by draining.

    A regular window costs ``pre_drain_window + drain_window`` frozen
    cycles every ``epoch`` normal cycles; once every ``full_drain_period``
    windows the drain window is replaced by a full drain of
    ``path_length`` cycles.
    """
    if path_length < 1:
        raise ValueError("path_length must be positive")
    period = config.full_drain_period
    regular_windows = period - 1
    frozen = (
        regular_windows * (config.pre_drain_window + config.drain_window)
        + (config.pre_drain_window + path_length)
    )
    total = period * config.epoch + frozen
    return frozen / total


def path_report(path: DrainPath, config: DrainConfig) -> Dict[str, float]:
    """Headline numbers for one drain path under one configuration."""
    visits = router_visit_counts(path)
    return {
        "path_length": float(len(path)),
        "misroute_expectation": misroute_expectation(path),
        "max_router_visits": float(max(visits.values())),
        "min_router_visits": float(min(visits.values())),
        "overhead_fraction": drain_overhead_fraction(config, len(path)),
    }
