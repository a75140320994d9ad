"""Routing functions: adaptive, dimension-order and up*/down*."""

from .adaptive import AdaptiveMinimalRouting
from .base import RoutingFunction
from .dor import DimensionOrderRouting
from .updown import UpDownRouting

__all__ = [
    "RoutingFunction",
    "AdaptiveMinimalRouting",
    "DimensionOrderRouting",
    "UpDownRouting",
    "select_escape_routing",
]


def select_escape_routing(index) -> RoutingFunction:
    """ESCAPE_VC's escape routing, for the simulator and the certifier alike:
    DOR when it builds, else up*/down* (Section V-B).

    DOR builds on any fault-free complete grid, a torus included. On a
    torus XY never takes the wrap links, so its escape routes are longer
    than the hop distance: that DOR is not ``minimal`` and the engine
    keeps its misroute test on."""
    try:
        return DimensionOrderRouting(index)
    except ValueError:
        return UpDownRouting(index)
