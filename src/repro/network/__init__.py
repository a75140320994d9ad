"""Network fabric, indexing, deadlock analysis and the SPIN baseline."""

from .deadlock import (
    deadlock_cycle_payload,
    extract_cycle,
    find_deadlocked_slots,
    has_deadlock,
    rotate_cycle,
)
from .fabric import EJECT, Fabric
from .index import FabricIndex
from .pause import PauseResumeFabric
from .spin import SpinController
from .staticbubble import StaticBubbleController
from .wormhole import WormholeFabric

__all__ = [
    "Fabric",
    "FabricIndex",
    "WormholeFabric",
    "EJECT",
    "SpinController",
    "StaticBubbleController",
    "PauseResumeFabric",
    "find_deadlocked_slots",
    "extract_cycle",
    "rotate_cycle",
    "has_deadlock",
    "deadlock_cycle_payload",
]
