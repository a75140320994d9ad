"""Synthetic traffic patterns and the open-loop Bernoulli injector.

These are the standard NoC evaluation patterns used in the paper's
Figures 10, 11 and 14: uniform random and transpose (plus the usual
bit-complement / shuffle / hotspot companions for completeness). The
injector is open-loop: each node generates a packet with probability
``injection_rate`` per cycle; generated packets wait in an unbounded
source backlog (:mod:`repro.traffic.backlog`) until the NI injection
queue accepts them, so measured latency includes source queueing.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import List, Optional, Sequence

import numpy as _np

from ..network.fabric import Fabric
from ..router.packet import MessageClass, Packet
from .backlog import OpenLoopSource

__all__ = [
    "TrafficPattern",
    "UniformRandom",
    "Transpose",
    "BitComplement",
    "BitShuffle",
    "BitReverse",
    "Tornado",
    "NearestNeighbor",
    "Hotspot",
    "WordStream",
    "MirroredRandom",
    "SyntheticTraffic",
    "pattern_by_name",
]


class TrafficPattern(ABC):
    """Maps a source node to a destination node."""

    name = "abstract"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        if num_nodes < 2:
            raise ValueError("patterns need at least two nodes")
        self.num_nodes = num_nodes
        self.mesh_width = mesh_width

    @abstractmethod
    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        """Destination for a packet from *src*; None when *src* never sends."""


class UniformRandom(TrafficPattern):
    """Every node sends to a uniformly random other node."""

    name = "uniform_random"

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = rng.randrange(self.num_nodes - 1)
        return dst if dst < src else dst + 1


class Transpose(TrafficPattern):
    """Mesh transpose: (x, y) sends to (y, x); diagonal nodes stay silent."""

    name = "transpose"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if mesh_width is None or num_nodes % mesh_width:
            raise ValueError("transpose requires a rectangular mesh width")
        height = num_nodes // mesh_width
        if height != mesh_width:
            raise ValueError("transpose requires a square mesh")

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        width = self.mesh_width
        x, y = src % width, src // width
        dst = x * width + y
        return None if dst == src else dst


class BitComplement(TrafficPattern):
    """Node i sends to (~i) within the address space (power-of-two sizes)."""

    name = "bit_complement"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if num_nodes & (num_nodes - 1):
            raise ValueError("bit-complement requires a power-of-two node count")

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = src ^ (self.num_nodes - 1)
        return None if dst == src else dst


class BitShuffle(TrafficPattern):
    """Perfect shuffle: rotate the address bits left by one."""

    name = "shuffle"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if num_nodes & (num_nodes - 1):
            raise ValueError("shuffle requires a power-of-two node count")
        self._bits = num_nodes.bit_length() - 1

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        bits = self._bits
        dst = ((src << 1) | (src >> (bits - 1))) & (self.num_nodes - 1)
        return None if dst == src else dst


class Hotspot(TrafficPattern):
    """Uniform random with extra probability mass on hotspot nodes."""

    name = "hotspot"

    def __init__(
        self,
        num_nodes: int,
        mesh_width: Optional[int] = None,
        hotspots: Sequence[int] = (0,),
        hotspot_fraction: float = 0.3,
    ) -> None:
        super().__init__(num_nodes, mesh_width)
        if not hotspots:
            raise ValueError("need at least one hotspot node")
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must be a probability")
        self.hotspots = list(hotspots)
        self.hotspot_fraction = hotspot_fraction
        self._uniform = UniformRandom(num_nodes, mesh_width)

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        if rng.random() < self.hotspot_fraction:
            dst = self.hotspots[rng.randrange(len(self.hotspots))]
            if dst != src:
                return dst
        return self._uniform.destination(src, rng)


class BitReverse(TrafficPattern):
    """Node i sends to the bit-reversal of its address."""

    name = "bit_reverse"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if num_nodes & (num_nodes - 1):
            raise ValueError("bit-reverse requires a power-of-two node count")
        self._bits = num_nodes.bit_length() - 1

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        dst = 0
        value = src
        for _ in range(self._bits):
            dst = (dst << 1) | (value & 1)
            value >>= 1
        return None if dst == src else dst


class Tornado(TrafficPattern):
    """Mesh tornado: (x, y) sends halfway across its row.

    The classic adversarial pattern for ring/mesh load balance: every
    packet travels ~width/2 hops in the same direction.
    """

    name = "tornado"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if mesh_width is None or num_nodes % mesh_width:
            raise ValueError("tornado requires a rectangular mesh width")

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        width = self.mesh_width
        x, y = src % width, src // width
        shift = (width - 1) // 2
        dst = y * width + (x + shift) % width
        return None if dst == src else dst


class NearestNeighbor(TrafficPattern):
    """Each node sends to a uniformly random direct neighbour of a mesh."""

    name = "nearest_neighbor"

    def __init__(self, num_nodes: int, mesh_width: Optional[int] = None) -> None:
        super().__init__(num_nodes, mesh_width)
        if mesh_width is None or num_nodes % mesh_width:
            raise ValueError("nearest-neighbour requires a mesh width")
        self._height = num_nodes // mesh_width

    def destination(self, src: int, rng: random.Random) -> Optional[int]:
        width = self.mesh_width
        x, y = src % width, src // width
        options = []
        if x + 1 < width:
            options.append(src + 1)
        if x > 0:
            options.append(src - 1)
        if y + 1 < self._height:
            options.append(src + width)
        if y > 0:
            options.append(src - width)
        return rng.choice(options) if options else None


_PATTERNS = {
    cls.name: cls
    for cls in (UniformRandom, Transpose, BitComplement, BitShuffle, Hotspot,
                BitReverse, Tornado, NearestNeighbor)
}


def pattern_by_name(
    name: str, num_nodes: int, mesh_width: Optional[int] = None
) -> TrafficPattern:
    """Instantiate a pattern from its canonical name."""
    try:
        cls = _PATTERNS[name]
    except KeyError:
        raise ValueError(
            f"unknown pattern {name!r}; choose from {sorted(_PATTERNS)}"
        ) from None
    return cls(num_nodes, mesh_width)


# ----------------------------------------------------------------------
# The traffic stream: one ``random.Random``, read ahead in blocks
# ----------------------------------------------------------------------
#: Hit-list terminator: above any buffer position, so scans stop on it
#: without a length check.
_NO_HIT = 1 << 62
_TWO_POW_53 = 9007199254740992.0


class WordStream:
    """The 32-bit output words of one ``random.Random``, read in blocks.

    ``Random.randbytes(4 * n)`` returns exactly the generator's next *n*
    MT19937 output words, little-endian, produced in C; the stream reads
    the caller's generator that way and serves its words in order through
    a cursor. Whoever hands a generator to a stream gives it up: it is
    consumed ahead of the cursor.

    ``pos`` is the cursor in word units, relative to the current buffer;
    consumers advance it directly (the Bernoulli scan) or through
    :meth:`take_word`/:meth:`take_double` (the :class:`MirroredRandom`
    facade). Both views share one cursor, so the scan and the destination
    draws interleave exactly like draws on the generator itself.

    With :meth:`set_scan_rate` installed, every refill also computes
    ``hits`` — the ascending word positions at which ``random()`` would
    return a value below the rate, closed by :data:`_NO_HIT`. Positions
    are alignment-agnostic (a destination draw shifts the cursor's
    parity), so scans filter by parity as they go. ``random()`` at word
    ``i`` is ``((w[i] >> 5) * 2**26 + (w[i+1] >> 6)) * 2**-53``, exact in
    float64, so ``random() < rate`` is the integer test
    ``(w[i] >> 5 << 26) + (w[i+1] >> 6) < ceil(rate * 2**53)``: one
    ``uint32`` compare on ``w[i]`` finds the candidates and the integer
    test settles them, with no per-word array of doubles.
    """

    __slots__ = ("_rng", "_block", "words", "view", "size", "pos", "offset",
                 "_threshold", "_coarse", "hits", "hit_idx")

    #: Words in the first refill, doubling up to MAX_BLOCK: short sweep
    #: trials consume a few thousand words, long runs tens of millions.
    FIRST_BLOCK = 4096
    MAX_BLOCK = 16384

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._block = self.FIRST_BLOCK
        self.words = _np.empty(0, dtype=_np.uint32)
        self.view = memoryview(self.words)
        self.size = 0
        self.pos = 0
        #: Words consumed before the current buffer: ``offset + pos`` is
        #: the cursor's absolute position in the generator's output.
        self.offset = 0
        self._threshold: Optional[int] = None
        self._coarse = 0
        self.hits: List[int] = [_NO_HIT]
        self.hit_idx = 0

    def _refill(self, count: int) -> None:
        """Read at least *count* more words, dropping the consumed ones."""
        count = max(count, self._block)
        self._block = min(2 * self._block, self.MAX_BLOCK)
        fresh = _np.frombuffer(self._rng.randbytes(4 * count), dtype="<u4")
        self.words = words = _np.concatenate(
            (self.words[self.pos:], fresh.astype(_np.uint32, copy=False))
        )
        self.offset += self.pos
        # Per-word reads go through the memoryview (native byte order, so
        # it indexes): plain ints, a quarter of the cost of numpy scalars.
        self.view = memoryview(words)
        self.size = len(words)
        self.pos = 0
        self._find_hits()

    def _find_hits(self) -> None:
        threshold = self._threshold
        if threshold is None:
            return
        words = self.words
        candidates = _np.flatnonzero(words[:-1] <= self._coarse)
        value = ((words[candidates].astype(_np.uint64) >> 5) << 26) + (
            words[candidates + 1] >> 6
        )
        self.hits = candidates[value < threshold].tolist()
        self.hits.append(_NO_HIT)
        self.hit_idx = 0

    def set_scan_rate(self, rate: float) -> None:
        """List the Bernoulli hit positions for *rate*, now and on refills."""
        self._threshold = threshold = math.ceil(rate * _TWO_POW_53)
        # w[i] >> 5 <= threshold >> 26 is necessary for a hit; at rate 1.0
        # that bound passes 2**32, so it is clamped to "every word".
        self._coarse = min((((threshold >> 26) + 1) << 5) - 1, 0xFFFFFFFF)
        self._find_hits()

    def ensure(self, count: int) -> None:
        """Guarantee words ``pos .. pos + count`` are buffered, so every
        position below ``pos + count`` is classified in ``hits``."""
        short = self.pos + count + 1 - self.size
        if short > 0:
            self._refill(short)

    def take_word(self) -> int:
        if self.pos >= self.size:
            self._refill(1)
        pos = self.pos
        self.pos = pos + 1
        return self.view[pos]

    def take_double(self) -> float:
        if self.pos + 1 >= self.size:
            self._refill(2)
        pos = self.pos
        self.pos = pos + 2
        view = self.view
        return ((view[pos] >> 5) * 67108864 + (view[pos + 1] >> 6)) / _TWO_POW_53


class MirroredRandom(random.Random):
    """``random.Random`` facade over a :class:`WordStream` cursor.

    Overrides the two generator primitives; every derived method
    (``randrange``, ``choice``, ``shuffle``, ...) then consumes words in
    exactly CPython's order. Defining ``getrandbits`` makes
    ``Random.__init_subclass__`` select ``_randbelow_with_getrandbits``,
    the same rejection loop the base class uses — the stream tests pin
    the full equivalence against ``random.Random`` itself.
    """

    def __init__(self, stream: WordStream) -> None:
        self._stream = stream
        super().__init__()

    def random(self) -> float:
        return self._stream.take_double()

    def getrandbits(self, k: int) -> int:
        if k <= 32:
            if k <= 0:
                raise ValueError("number of bits must be greater than zero")
            return self._stream.take_word() >> (32 - k)
        # CPython accumulates 32-bit words little-endian for wide draws.
        result = 0
        shift = 0
        while k > 0:
            word = self._stream.take_word()
            if k < 32:
                word >>= 32 - k
            result |= word << shift
            shift += 32
            k -= 32
        return result

    def seed(self, *args, **kwargs) -> None:
        """The stream owns the state; ``Random.__init__``'s seed is a no-op."""

    def getstate(self):
        raise NotImplementedError("MirroredRandom state lives in its stream")

    def setstate(self, state):
        raise NotImplementedError("MirroredRandom state lives in its stream")


class SyntheticTraffic(OpenLoopSource):
    """Open-loop Bernoulli injector over a :class:`TrafficPattern`.

    Synthetic packets all travel in message class REQ / virtual network 0
    so that every scheme competes with identical buffer resources on the
    VN actually carrying traffic (the paper's synthetic studies exercise
    routing-level behaviour only).

    Draw-order contract: each cycle makes one ``random()`` per node in
    ascending node order, and a node whose draw falls below the rate
    makes its pattern's destination draws immediately after. The injector
    does not make those draws one by one: it takes ownership of *rng*,
    reads it through a :class:`WordStream` and walks the stream's hit
    list, so a cycle costs O(hits). ``self.rng`` is the facade over the
    same cursor that patterns draw destinations from.

    A packet is built as a :class:`Packet` when its node has no backlog
    and offered at once; behind a backlog it is a record in
    ``self.backlog``, built when the backlog offers it. Backlogs are
    offered in ``backlog.waiting``'s own order.
    """

    def __init__(
        self,
        pattern: TrafficPattern,
        injection_rate: float,
        rng: random.Random,
        msg_class: MessageClass = MessageClass.REQ,
    ) -> None:
        super().__init__()
        self.pattern = pattern
        self._stream = WordStream(rng)
        self.rng = MirroredRandom(self._stream)
        self.injection_rate = injection_rate
        self.msg_class = msg_class
        nodes = pattern.num_nodes
        self._nodes = nodes
        #: Words one cycle's Bernoulli scan covers (a double per node).
        self._span = 2 * nodes
        # Inline fast path for the dominant pattern: UniformRandom's
        # destination is randrange(n - 1), whose rejection loop reduces to
        # whole-word shifts. Exact class only — a subclass may override
        # destination. Every other pattern draws through the facade.
        self._uniform_n = nodes - 1 if type(pattern) is UniformRandom else 0
        self._uniform_shift = 32 - self._uniform_n.bit_length()
        #: Per-packet observer, ``hook(pid, src, dst, msg_class,
        #: gen_cycle)``; the trace recorder sets it so generation events
        #: are captured at the source.
        self._record_hook = None

    @property
    def injection_rate(self) -> float:
        """Packets per node per cycle; assignable mid-run."""
        return self._injection_rate

    @injection_rate.setter
    def injection_rate(self, rate: float) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1] packets/node/cycle")
        self._injection_rate = rate
        self._stream.set_scan_rate(rate)

    def generate(self, fabric: Fabric, cycle: int, count: int = 1) -> None:
        """Make the packets of cycles ``cycle .. cycle + count - 1``, then
        offer the backlogs (one cycle unless a span asks for more; see
        :meth:`~repro.traffic.backlog.OpenLoopSource.skip_cycles`).

        The one copy of the draw-order code. Each packet gets its pid,
        destination and gen cycle, goes to the record hook, and is
        appended to its node's backlog as a record — or built and offered,
        when that backlog is empty. Cycles without a hit cost nothing per
        cycle: the walk jumps from one hit's cycle to the next.
        """
        # Hot path. Scan state is (pos, limit): the cursor and the end of
        # the current cycle's scan; a hit at p belongs to node
        # nodes - (limit - p) / 2, and the d words its destination draws
        # consume move both the cursor and limit along by d.
        stream = self._stream
        nodes = self._nodes
        span = self._span
        end = cycle + count
        pos = stream.pos
        hi = stream.hit_idx
        pid = -1  # until the first hit binds the per-packet locals
        while True:
            limit = pos + span
            # One ensure per cycle covers the scan plus a first destination
            # word per node; only the rare longer draws re-ensure below.
            if limit + nodes >= stream.size:
                stream.pos = pos
                stream.hit_idx = hi
                stream.ensure(span + nodes)
                pos = stream.pos
                limit = pos + span
                hi = stream.hit_idx
            hits = stream.hits
            p = hits[hi]
            if p >= limit:
                # No hit this cycle. Over a longer walk, jump to the cycle
                # of the next hit (no destination draw intervenes, so hits
                # keep their parity against the cursor) or to the end of
                # the classified read-ahead, whichever comes first.
                jump = end - cycle
                if jump == 1:
                    pos = limit
                    break
                while p < _NO_HIT and (p - pos) & 1:
                    hi += 1
                    p = hits[hi]
                if p == _NO_HIT:
                    p = stream.size - 1  # first unclassified position
                jump = min(jump, (p - pos) // span)
                pos += jump * span
                cycle += jump
                if cycle >= end:
                    break
                continue
            if pid < 0:
                un = self._uniform_n
                shift = self._uniform_shift
                destination = self.pattern.destination
                rng = self.rng
                waiting = self.backlog.waiting
                push = self.backlog.push
                hold = self.backlog.hold
                offer = fabric.offer_packet
                msg_class = self.msg_class
                hook = self._record_hook
                pid = first_pid = self._next_pid
            view = stream.view
            while p < limit:
                hi += 1
                # Entries behind the cursor are spent; entries at odd
                # distance are second halves of doubles or destination
                # words, and no earlier hit is left to realign them.
                if p >= pos and not (limit - p) & 1:
                    node = nodes - ((limit - p) >> 1)
                    # UniformRandom: randrange(nodes - 1) with its first
                    # draw inlined. Every other pattern has un == 0, which
                    # no draw is below.
                    dst = view[p + 2] >> shift
                    if dst < un:
                        pos = p + 3
                        limit += 1
                        if dst >= node:
                            dst += 1
                    else:
                        # A rejected first draw, or a pattern with draws of
                        # its own: the facade serves them from the stream,
                        # which may refill and rebase every position.
                        stream.pos = p + 2
                        stream.hit_idx = hi
                        dst = destination(node, rng)
                        left = limit - p - 2
                        stream.ensure(left + nodes)
                        pos = stream.pos
                        limit = pos + left
                        hits = stream.hits
                        hi = stream.hit_idx
                        view = stream.view
                    if dst is not None:
                        if hook is not None:
                            hook(pid, node, dst, msg_class, cycle)
                        # Offers draw no RNG and touch per-node state only,
                        # so their order against the scan is unobservable.
                        if node in waiting:
                            push(node, pid, dst, cycle, msg_class)
                        else:
                            packet = Packet(pid, node, dst, msg_class, cycle)
                            if not offer(packet):
                                hold(node, packet)
                        pid += 1
                p = hits[hi]
            pos = limit
            cycle += 1
            if cycle >= end:
                break
        stream.pos = pos
        stream.hit_idx = hi
        if pid >= 0:
            self.generated += pid - first_pid
            self._next_pid = pid
        waiting = self.backlog.waiting
        if waiting:
            # Per-node state only: the set's order is unobservable too.
            self.backlog.sweep(fabric.offer_packet, waiting)

    def next_event_cycle(self, now: int, limit: int) -> int:
        """First cycle in [*now*, *limit*] whose :meth:`generate` may act.

        The cycle of the next Bernoulli hit, read off the stream's hit
        list (no destination draw precedes it, so every scan position up
        to it is at even distance from the cursor); *now* while a backlog
        waits on a full NI queue. When the read-ahead holds no hit the
        answer is the first cycle it does not fully cover — an early
        wake-up, never a late one.
        """
        if self.backlog.waiting:
            return now
        stream = self._stream
        span = self._span
        if stream.pos + span >= stream.size:
            stream.ensure(span)
        pos = stream.pos
        hits = stream.hits
        hi = stream.hit_idx
        p = hits[hi]
        while p < _NO_HIT and (p < pos or (p - pos) & 1):
            hi += 1
            p = hits[hi]
        stream.hit_idx = hi
        if p == _NO_HIT:
            p = stream.size - 1  # first unclassified position
        return min(now + (p - pos) // span, limit)

    def done(self) -> bool:
        """Open-loop traffic never self-terminates."""
        return False
