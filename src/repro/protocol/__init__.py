"""Coherence-protocol traffic models (Ruby stand-ins): MESI and MOESI.

Both are closed-loop transaction generators on one base,
:class:`~repro.protocol.source.ClosedLoopSource`, which owns their
per-node issue loop and the fast-forward contract every traffic source
keeps (``next_event_cycle`` / ``skip_cycles``).
"""

from .coherence import CoherenceTraffic
from .moesi import MoesiTraffic

__all__ = ["CoherenceTraffic", "MoesiTraffic"]
