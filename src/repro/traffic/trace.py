"""Packet-trace recording and replay.

Deterministic replay is how NoC studies compare schemes apples-to-apples:
record the injection stream of one run (or synthesise one offline), then
replay the identical stream against different network configurations. The
trace format is a plain text file, one record per line::

    cycle src dst msg_class

sorted by cycle, so traces are diffable and versionable.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet
from .synthetic import SyntheticTraffic, TrafficPattern

__all__ = ["TraceRecord", "TraceRecorder", "TraceTraffic", "record_synthetic"]


@dataclass(frozen=True, order=True)
class TraceRecord:
    """One packet-generation event."""

    cycle: int
    src: int
    dst: int
    msg_class: int = int(MessageClass.REQ)

    def to_line(self) -> str:
        return f"{self.cycle} {self.src} {self.dst} {self.msg_class}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"malformed trace line: {line!r}")
        cycle, src, dst, msg_class = (int(p) for p in parts)
        return cls(cycle, src, dst, msg_class)


class TraceRecorder(SyntheticTraffic):
    """A synthetic traffic source that also logs every generated packet.

    Recording rides the generator's ``_record_hook``, so every packet is
    captured at creation time — before it is offered to the NI. (The
    previous implementation scanned the backlog *after* the offer sweep
    and missed every packet the NI accepted immediately — i.e. nearly
    all of them.)
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: List[TraceRecord] = []
        self._record_hook = self._record

    def _record(self, packet: Packet) -> None:
        self.records.append(
            TraceRecord(packet.gen_cycle, packet.src, packet.dst,
                        int(packet.msg_class))
        )

    def save(self, target: Union[str, Path, io.TextIOBase]) -> None:
        save_trace(self.records, target)


def save_trace(records: Iterable[TraceRecord],
               target: Union[str, Path, io.TextIOBase]) -> None:
    """Write records (sorted by cycle) to a file or file-like object."""
    ordered = sorted(records)
    if isinstance(target, (str, Path)):
        with open(target, "w") as fh:
            for record in ordered:
                fh.write(record.to_line() + "\n")
    else:
        for record in ordered:
            target.write(record.to_line() + "\n")


def load_trace(source: Union[str, Path, io.TextIOBase]) -> List[TraceRecord]:
    """Read a trace file; blank lines and ``#`` comments are skipped."""
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            lines = fh.readlines()
    else:
        lines = source.readlines()
    records = []
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(TraceRecord.from_line(stripped))
    return sorted(records)


class TraceTraffic:
    """Replays a recorded trace as a traffic source.

    Packets are offered at their recorded cycles; if the NI queue is full
    they wait in a per-node backlog (latency then includes that queueing,
    exactly as with the live generator).
    """

    def __init__(self, records: Iterable[TraceRecord], num_nodes: int) -> None:
        self.records = sorted(records)
        self.num_nodes = num_nodes
        for record in self.records:
            if not (0 <= record.src < num_nodes and 0 <= record.dst < num_nodes):
                raise ValueError(f"trace record out of range: {record}")
        self._cursor = 0
        self._backlog: List[List[Packet]] = [[] for _ in range(num_nodes)]
        self._next_pid = 0
        self.generated = 0
        self.delivered = 0

    @classmethod
    def from_file(cls, source, num_nodes: int) -> "TraceTraffic":
        return cls(load_trace(source), num_nodes)

    def generate(self, fabric: Fabric, cycle: int) -> None:
        while (
            self._cursor < len(self.records)
            and self.records[self._cursor].cycle <= cycle
        ):
            record = self.records[self._cursor]
            self._cursor += 1
            packet = Packet(
                self._next_pid, record.src, record.dst,
                MessageClass(record.msg_class), gen_cycle=cycle,
            )
            self._next_pid += 1
            self.generated += 1
            self._backlog[record.src].append(packet)
        for node in range(self.num_nodes):
            backlog = self._backlog[node]
            while backlog and fabric.offer_packet(backlog[0]):
                backlog.pop(0)

    def consume(self, fabric: Fabric, cycle: int) -> None:
        if not hasattr(fabric, "pop_ejection"):
            return
        if not getattr(fabric, "ej_pending_total", 1):
            return  # nothing ejected anywhere this cycle
        ej_pending = getattr(fabric, "ej_pending", None)
        for node in range(self.num_nodes):
            if ej_pending is not None and not ej_pending[node]:
                continue
            queues = fabric.ej_queues[node]
            for cls in range(len(queues)):
                while queues[cls]:
                    fabric.pop_ejection(node, MessageClass(cls))
                    self.delivered += 1

    def done(self) -> bool:
        """Finished once every trace packet has been delivered."""
        return (
            self._cursor >= len(self.records)
            and not any(self._backlog)
            and self.delivered >= self.generated
        )

    def next_event_cycle(self, now: int) -> Optional[int]:
        """First cycle >= *now* at which :meth:`generate` may act.

        Trace replay has no per-cycle RNG, so idle gaps between recorded
        arrivals are skippable in O(1): the next event is simply the next
        unreplayed record's cycle. A non-empty backlog (an NI queue was
        full) pins the horizon to *now*; exhausted traces report None.
        """
        if any(self._backlog):
            return now
        if self._cursor < len(self.records):
            return max(now, self.records[self._cursor].cycle)
        return None

    def backlog_size(self) -> int:
        return sum(len(b) for b in self._backlog)


def record_synthetic(
    pattern: TrafficPattern,
    injection_rate: float,
    cycles: int,
    seed: int = 1,
) -> List[TraceRecord]:
    """Synthesise a trace offline (no network needed)."""
    rng = random.Random(seed)
    records = []
    for cycle in range(cycles):
        for node in range(pattern.num_nodes):
            if rng.random() < injection_rate:
                dst = pattern.destination(node, rng)
                if dst is not None:
                    records.append(TraceRecord(cycle, node, dst))
    return records
