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
    DOR when it builds (a complete mesh), else up*/down* (Section V-B)."""
    try:
        return DimensionOrderRouting(index)
    except ValueError:
        return UpDownRouting(index)
