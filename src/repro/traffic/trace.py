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
from types import SimpleNamespace
from typing import Iterable, List, Union

from ..network.fabric import Fabric
from ..router.packet import MessageClass
from .backlog import OpenLoopSource
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

    Recording rides the generator's ``_record_hook``, which receives each
    packet's fields at generation — before it is offered to the NI, and
    whether or not it is ever built as a :class:`Packet`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: List[TraceRecord] = []
        self._record_hook = self._record

    def _record(self, pid: int, src: int, dst: int, msg_class: int,
                gen_cycle: int) -> None:
        self.records.append(TraceRecord(gen_cycle, src, dst, int(msg_class)))

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


class TraceTraffic(OpenLoopSource):
    """Replays a recorded trace as a traffic source.

    Packets are generated at their recorded cycles as records in a
    :class:`~repro.traffic.backlog.Backlog` and offered in node order;
    if the NI queue is full they wait there (latency then includes that
    queueing, exactly as with the live generator).
    """

    def __init__(self, records: Iterable[TraceRecord], num_nodes: int) -> None:
        super().__init__()
        self.records = sorted(records)
        self.num_nodes = num_nodes
        classes = len(MessageClass)
        for record in self.records:
            if not (0 <= record.src < num_nodes and 0 <= record.dst < num_nodes):
                problem = "out of range"
            elif record.src == record.dst:
                problem = "addressed to its own source"
            elif not 0 <= record.msg_class < classes:
                problem = "has an unknown message class"
            elif record.cycle < 0:
                problem = "has a negative cycle"
            else:
                continue
            raise ValueError(f"trace record {problem}: {record.to_line()!r}")
        self._cursor = 0

    @classmethod
    def from_file(cls, source, num_nodes: int) -> "TraceTraffic":
        return cls(load_trace(source), num_nodes)

    def generate(self, fabric: Fabric, cycle: int, count: int = 1) -> None:
        """Replay the records of cycles up to ``cycle + count - 1`` — one
        behind *cycle* is generated at *cycle* — then offer the backlogs
        (one cycle unless a span asks for more)."""
        records = self.records
        end = cycle + count
        while self._cursor < len(records) and records[self._cursor].cycle < end:
            record = records[self._cursor]
            self._cursor += 1
            self._push(record.src, record.dst, max(record.cycle, cycle),
                       record.msg_class)
        self._offer(fabric)

    def done(self) -> bool:
        """Finished once every trace packet has been delivered."""
        return (
            self._cursor >= len(self.records)
            and not self.backlog.size
            and self.delivered >= self.generated
        )

    def next_event_cycle(self, now: int, limit: int) -> int:
        """First cycle in [*now*, *limit*] at which :meth:`generate` may act.

        Trace replay has no per-cycle RNG, so idle gaps between recorded
        arrivals are skippable in O(1): the next event is simply the next
        unreplayed record's cycle. A waiting backlog (an NI queue was
        full) pins it to *now*; an exhausted trace has none before *limit*.
        """
        if self.backlog.waiting:
            return now
        if self._cursor < len(self.records):
            return min(max(now, self.records[self._cursor].cycle), limit)
        return limit


def record_synthetic(
    pattern: TrafficPattern,
    injection_rate: float,
    cycles: int,
    seed: int = 1,
) -> List[TraceRecord]:
    """Synthesise a trace offline: what a :class:`TraceRecorder` seeded
    with *seed* records over *cycles* cycles, every packet accepted."""
    recorder = TraceRecorder(pattern, injection_rate, random.Random(seed))
    recorder.skip_cycles(SimpleNamespace(offer_packet=lambda packet: True),
                         0, cycles)
    return recorder.records
