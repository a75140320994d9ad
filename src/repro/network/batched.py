"""Cross-trial lockstep batching: amortize setup and per-cycle overhead
across independent sweep trials (see DESIGN.md, "Cross-trial lockstep
batching").

PR 6 established why lockstep numpy *within one trial* loses: the
RNG-draw-parity contract makes conflict resolution sequential inside a
cycle. Independent trials have no such coupling — each trial's internal
draw order is untouched by running N of them side by side — so batching
across trials is the one axis where array work amortizes without touching
the parity contract at all.

The batch runner steps N compatible simulations cycle-by-cycle in one
process:

- **Shared construction** (done by the harness layer,
  :func:`repro.harness.trials.execute_batch`): one topology, one
  :class:`~repro.network.index.FabricIndex` (the all-pairs BFS), one
  routing build, one drain path and one compiled vectorized-engine table
  set serve every fault-free member.
- **Vectorized source draws**: each trial's ``random.Random(seed)``
  stream is replicated word-exactly with a numpy MT19937
  (:class:`WordStream`), so the per-cycle Bernoulli scan over all nodes
  is one array compare instead of ``num_nodes`` Python calls — while a
  :class:`MirroredRandom` facade over the same cursor serves the
  pattern's destination draws bit-identically.
- **Per-trial idle skip**: after the generate scan, a quiescent member
  replays the cycle in O(1) via ``Fabric.skip_cycles(1)`` — the same
  replay the solo fast-forward performs, applied per trial per cycle, so
  members idle and retire independently (the live-mask) without any
  cross-trial horizon coupling.
- **Due-gated drain controller**: in the normal state the controller's
  only per-cycle effect is the epoch countdown, which
  ``DrainController.skip_cycles`` replays in O(1); the batch loop
  accumulates those skips and steps the controller densely exactly at
  its event horizon (and on every in-window cycle).

Every member's result dict is bit-identical to its solo run — the
batched parity-fuzz lane pins that against all three solo engines.
"""

from __future__ import annotations

import random
from typing import List, Optional

import numpy as _np

from ..router.packet import Packet

__all__ = [
    "WordStream",
    "MirroredRandom",
    "SharedParts",
    "BatchMember",
    "BatchedEngine",
]

# ----------------------------------------------------------------------
# Exact MT19937 word-stream replication
# ----------------------------------------------------------------------
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF
_T_B = _np.uint32(0x9D2C5680)
_T_C = _np.uint32(0xEFC60000)


def _mt_twist(mt):
    """One MT19937 state twist, vectorized: (624,) uint32 -> (624,) uint32.

    CPython's genrand_uint32 regenerates mt[i] from mt[(i+1) % 624] and
    mt[(i+397) % 624]; split at the wrap points the recurrence vectorizes
    into three slices plus the final element (which reads the *new*
    mt[0]).
    """
    out = _np.empty_like(mt)
    y = (mt[0:227] & _UPPER) | (mt[1:228] & _LOWER)
    out[0:227] = mt[397:624] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
    y = (mt[227:454] & _UPPER) | (mt[228:455] & _LOWER)
    out[227:454] = out[0:227] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
    y = (mt[454:623] & _UPPER) | (mt[455:624] & _LOWER)
    out[454:623] = out[227:396] ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
    y = (int(mt[623]) & _UPPER) | (int(out[0]) & _LOWER)
    out[623] = int(out[396]) ^ (y >> 1) ^ ((y & 1) * _MATRIX_A)
    return out


def _mt_temper(y):
    """MT19937 output tempering, vectorized over a uint32 array."""
    y = y ^ (y >> 11)
    y = y ^ ((y << 7) & _T_B)
    y = y ^ ((y << 15) & _T_C)
    return y ^ (y >> 18)


class WordStream:
    """The exact 32-bit output word stream of one ``random.Random(seed)``.

    Seeding captures the freshly initialised Mersenne state via
    ``Random.getstate()`` (index 624, so the first output twists — exactly
    CPython's behaviour), then regenerates outputs block-wise with the
    vectorized twist. Alongside the raw words the stream precomputes
    ``doubles[i]`` = the value ``random()`` would return were the cursor
    at word ``i`` — which is what makes the batched Bernoulli scan a
    single array compare.

    ``pos`` is the cursor in word units; consumers advance it directly
    (the scan) or through :meth:`take_word`/:meth:`take_double` (the
    :class:`MirroredRandom` facade). Both views share one cursor, so the
    scan and the destination draws interleave exactly like the solo
    stream.

    With :meth:`set_scan_rate` installed, every refill also precomputes
    ``hits`` — the ascending word positions whose double is below the
    Bernoulli rate. The generate scan then walks that (short) list with
    plain integer arithmetic instead of running array compares per
    cycle; positions are alignment-agnostic (destination draws shift the
    cursor's parity), so the scan filters by parity as it goes.
    """

    __slots__ = ("_mt", "words", "doubles", "pos", "scan_rate", "hits",
                 "hit_idx")

    #: Twists per on-demand refill: 32 blocks ≈ 20k words. Refills carry
    #: fixed numpy dispatch overhead per twist, so bigger blocks keep the
    #: amortized per-word cost low without hoarding memory.
    REFILL_BLOCKS = 32
    #: Twists at construction. Deliberately small: short sweep trials
    #: (the batching sweet spot) may consume only a few thousand words,
    #: and an eager 20k-word buffer was measured at ~25% of a short
    #: batch's wall time. ensure() grows by REFILL_BLOCKS once demand
    #: proves the stream is long-lived.
    INIT_BLOCKS = 4

    def __init__(self, seed) -> None:
        state = random.Random(seed).getstate()[1]
        self._mt = _np.array(state[:624], dtype=_np.uint32)
        self.words = _np.empty(0, dtype=_np.uint32)
        self.doubles = _np.empty(0, dtype=_np.float64)
        self.pos = 0
        self.scan_rate: Optional[float] = None
        self.hits: Optional[List[int]] = None
        self.hit_idx = 0
        self._refill(self.INIT_BLOCKS)

    def _refill(self, blocks: int) -> None:
        """Extend the buffer by *blocks* twists, dropping consumed words."""
        chunks = [self.words[self.pos:]]
        mt = self._mt
        for _ in range(blocks):
            mt = _mt_twist(mt)
            chunks.append(_mt_temper(mt))
        self._mt = mt
        words = _np.concatenate(chunks)
        self.words = words
        self.pos = 0
        # doubles[i] = (words[i] >> 5) * 2**26 + (words[i+1] >> 6), scaled
        # by 2**-53 — every operation exact in float64, so each entry is
        # bit-identical to CPython's random_random() at that cursor.
        a = (words[:-1] >> 5).astype(_np.float64)
        b = (words[1:] >> 6).astype(_np.float64)
        self.doubles = (a * 67108864.0 + b) * 1.1102230246251565e-16  # 2**-53
        if self.scan_rate is not None:
            self.hits = _np.flatnonzero(
                self.doubles < self.scan_rate
            ).tolist()
            self.hit_idx = 0

    def set_scan_rate(self, rate: float) -> None:
        """Precompute Bernoulli hit positions for *rate* on every refill."""
        self.scan_rate = rate
        self.hits = _np.flatnonzero(self.doubles < rate).tolist()
        self.hit_idx = 0

    def ensure(self, count: int) -> None:
        """Guarantee *count* words (and their doubles) past the cursor."""
        need = self.pos + count - len(self.words) + 1
        if need > 0:
            self._refill(max(self.REFILL_BLOCKS, -(-need // 624)))

    def take_word(self) -> int:
        self.ensure(1)
        pos = self.pos
        self.pos = pos + 1
        return int(self.words[pos])

    def take_double(self) -> float:
        self.ensure(2)
        pos = self.pos
        self.pos = pos + 2
        return float(self.doubles[pos])


class MirroredRandom(random.Random):
    """``random.Random`` facade over a :class:`WordStream` cursor.

    Overrides the two generator primitives; every derived method
    (``randrange``, ``choice``, ``shuffle``, ...) then consumes words in
    exactly CPython's order. Defining ``getrandbits`` makes
    ``Random.__init_subclass__`` select ``_randbelow_with_getrandbits``,
    the same rejection loop the base class uses — the parity tests pin
    the full stream equivalence.
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


# ----------------------------------------------------------------------
# Shared construction
# ----------------------------------------------------------------------
class SharedParts:
    """Construction artefacts shared across a batch's fault-free members.

    Built once from the group's common (topology, config-sans-seed)
    shape; :class:`~repro.core.simulator.Simulation` adopts the index and
    routing functions when handed an instance whose ``topology`` is the
    one it was given (the guard that keeps accidental cross-topology
    reuse impossible). All shared pieces are read-only on the hot path:
    the index is only mutated by fault application (fault members build
    private parts), and the routing functions are stateless by the
    vectorized-engine support gate.
    """

    __slots__ = ("topology", "scheme", "index", "routing",
                 "escape_routing", "drain_path", "drain_ctrl")

    def __init__(self, topology, scheme, index, routing, escape_routing,
                 drain_path, drain_ctrl=None) -> None:
        self.topology = topology
        self.scheme = scheme
        self.index = index
        self.routing = routing
        self.escape_routing = escape_routing
        self.drain_path = drain_path
        #: Donor drain controller — members adopt its compiled turn
        #: tables (read-only until a recovery reinstall replaces them).
        self.drain_ctrl = drain_ctrl

    @classmethod
    def from_simulation(cls, sim) -> "SharedParts":
        """Capture a donor simulation's shareable construction artefacts."""
        ctrl = sim.drain_controller
        return cls(
            sim.topology,
            sim.config.scheme,
            sim.index,
            sim.fabric.routing,
            sim.fabric.escape_routing,
            ctrl.path if ctrl is not None and ctrl.paths else None,
            ctrl,
        )


def adopt_engine_tables(donor_fabric, fabrics) -> int:
    """Share the donor's compiled vectorized-engine rows with *fabrics*.

    The rows are immutable tuples keyed by (index, routing, escape mode);
    adoption is gated on all three being the donor's own objects, which
    holds exactly for the fault-free members of one batch group. Members
    whose fault epoch later moves rebuild privately (the engine's normal
    invalidation path). Returns the number of adopters.
    """
    donor = getattr(donor_fabric, "_engine", None)
    if donor is None:
        return 0
    if donor._rows is None or donor._epoch != donor_fabric.index.fault_epoch:
        donor._build_tables()
    adopted = 0
    for fabric in fabrics:
        eng = getattr(fabric, "_engine", None)
        if (
            eng is None
            or eng is donor
            or eng._rows is not None
            or fabric.index is not donor_fabric.index
            or fabric.routing is not donor_fabric.routing
            or fabric.escape_routing is not donor_fabric.escape_routing
            or fabric.escape_mode != donor_fabric.escape_mode
            or fabric.escape_sticky != donor_fabric.escape_sticky
        ):
            continue
        eng._rows = donor._rows
        eng._esc_rows = donor._esc_rows
        eng._epoch = donor._epoch
        eng._used0 = donor._used0  # same index, same epoch; copied per cycle
        eng.tables = donor.tables
        eng.escape_tables = donor.escape_tables
        eng.rebuilds += 1  # counts as this engine's initial build
        adopted += 1
    return adopted


# ----------------------------------------------------------------------
# The lockstep batch runner
# ----------------------------------------------------------------------

class BatchMember:
    """One trial inside a lockstep batch: the simulation plus loop state."""

    __slots__ = (
        "sim", "traffic", "stream", "cycles", "warmup", "end",
        "uniform_shift", "uniform_n", "backlog_nodes",
        "ctrl_gated", "ctrl_due", "ctrl_skips", "retired",
    )

    def __init__(self, sim, stream: WordStream, cycles: int,
                 warmup: int = 0) -> None:
        if warmup >= cycles:
            raise ValueError("warmup must be shorter than the run")
        self.sim = sim
        self.traffic = sim.traffic
        self.stream = stream
        self.cycles = cycles
        self.warmup = warmup
        self.end = sim.fabric.cycle + cycles
        stream.set_scan_rate(self.traffic.injection_rate)
        pattern = self.traffic.pattern
        # Inline fast path for the dominant pattern: UniformRandom's
        # destination is randrange(n - 1), whose _randbelow rejection loop
        # reduces to whole-word shifts. Exact subclasses only — a derived
        # pattern may override destination.
        from ..traffic.synthetic import UniformRandom

        if type(pattern) is UniformRandom:
            self.uniform_n = pattern.num_nodes - 1
            self.uniform_shift = 32 - self.uniform_n.bit_length()
        else:
            self.uniform_n = None
            self.uniform_shift = 0
        self.backlog_nodes = set()
        # Drain-controller due-gating is only sound while nothing else can
        # shrink the countdown mid-flight: the degradation ladder and the
        # fault injector both may, so their members step the controller
        # densely (they are the parity lane's concern, not the perf path).
        self.ctrl_gated = (
            sim.drain_controller is not None
            and sim.fault_injector is None
            and sim.degradation_ladder is None
        )
        self.ctrl_due: Optional[int] = None
        self.ctrl_skips = 0
        self.retired = False


class BatchedEngine:
    """Step N independent same-shape simulations as one batch.

    Members advance in bounded quanta under a live-mask: each scheduling
    round grants every live member up to ``quantum`` cycles, members
    retire independently (traffic completion, watchdog halt, or their own
    end cycle), and the round-robin repeats until the mask empties. Every
    member cycle applies the exact :meth:`Simulation.step` phase order;
    at retirement ``measured_cycles`` is sealed exactly as
    :meth:`Simulation.run` seals it. The per-member quiescent skip and
    the due-gated drain controller replay precisely the state a dense
    cycle would touch, so results are bit-identical to solo runs.

    Why quanta instead of cycle-granularity lockstep: batch members are
    fully independent, so any interleaving is parity-exact — but
    switching fabrics every cycle was measured ~40% slower than solo on
    8x64-router members (the interleaved working sets thrash the cache,
    see DESIGN.md "Cross-trial lockstep batching"). A bounded quantum
    keeps one member's buffers hot while still bounding how far members
    skew apart (memory high-water and fair progress under eviction).
    """

    #: Default scheduling quantum (cycles per member per round).
    QUANTUM = 512

    def __init__(self, members: List[BatchMember],
                 quantum: int = QUANTUM) -> None:
        if not members:
            raise ValueError("a batch needs at least one member")
        if quantum < 1:
            raise ValueError("quantum must be at least 1 cycle")
        for m in members:
            if m.sim.fabric.cycle != 0:
                raise ValueError("batch members must join before cycle 0")
        self.members = list(members)
        self.quantum = quantum

    def run(self) -> None:
        for m in self.members:
            fabric = m.sim.fabric
            fabric.measure_from = fabric.cycle + m.warmup
            if m.ctrl_gated:
                m.ctrl_due = m.sim.drain_controller.next_event_cycle(
                    fabric.cycle
                )
        live = list(self.members)
        quantum = self.quantum
        step = self._step_member
        while live:
            nxt = []
            for m in live:
                grant = quantum
                while grant and not m.retired:
                    step(m)
                    grant -= 1
                if not m.retired:
                    nxt.append(m)
            live = nxt

    # ------------------------------------------------------------------
    def _step_member(self, m: BatchMember) -> None:
        """One cycle of one member: Simulation.step order, then the
        run-loop's retirement checks."""
        sim = m.sim
        fabric = sim.fabric
        cycle = fabric.cycle
        if sim.fault_injector is not None:
            sim.fault_injector.step()
        self._generate(m, cycle)
        if sim.degradation_ladder is not None:
            sim.degradation_ladder.step()
        ctrl = sim.drain_controller
        if ctrl is not None:
            if not m.ctrl_gated:
                ctrl.step()
            elif cycle >= m.ctrl_due:
                if m.ctrl_skips:
                    ctrl.skip_cycles(m.ctrl_skips)
                    m.ctrl_skips = 0
                ctrl.step()
                if ctrl.state != "normal":
                    m.ctrl_due = cycle + 1
                else:
                    m.ctrl_due = ctrl.next_event_cycle(cycle + 1)
            else:
                m.ctrl_skips += 1
        if sim.spin_controller is not None:
            sim.spin_controller.step()
        if sim.bubble_controller is not None:
            sim.bubble_controller.step()
        if sim.ideal_resolver is not None:
            sim.ideal_resolver.step()
        if sim.watchdog is not None:
            sim.watchdog.step()
        if fabric.quiescent:
            # A dense step on a quiescent fabric touches exactly the
            # counters skip_cycles replays, and consume is a no-op.
            fabric.skip_cycles(1)
        else:
            fabric.step()
            m.traffic.consume(fabric, fabric.cycle)
        if m.traffic.done():
            self._retire(m)
        elif sim.halt_on_deadlock and sim.deadlocked:
            self._retire(m)
        elif fabric.cycle >= m.end:
            self._retire(m)

    def _retire(self, m: BatchMember) -> None:
        fabric = m.sim.fabric
        m.sim.stats.measured_cycles = max(
            0, fabric.cycle - fabric.measure_from
        )
        m.retired = True

    # ------------------------------------------------------------------
    def _generate(self, m: BatchMember, cycle: int) -> None:
        """The member's generate phase with vectorized Bernoulli draws.

        Draw-order contract (the solo ``SyntheticTraffic.generate``): one
        ``random()`` per node in ascending node order, destination draws
        immediately after a hit. The scan reads those same draws from the
        stream's precomputed doubles; a hit hands the cursor to the
        pattern via the member's :class:`MirroredRandom`, then the scan
        resumes after the shifted position. Offers draw no RNG, so
        running the offer sweep after the node loop is observationally
        identical to the dense interleaving (the established
        ``idle_generate`` argument).
        """
        traffic = m.traffic
        stream = m.stream
        fabric = m.sim.fabric
        pattern = traffic.pattern
        num_nodes = pattern.num_nodes
        backlog = traffic._backlog
        backlog_nodes = m.backlog_nodes
        msg_class = traffic.msg_class
        hook = traffic._record_hook

        stream.ensure(2 * num_nodes)
        hits = stream.hits
        nhits = len(hits)
        hi = stream.hit_idx
        pos = stream.pos
        while hi < nhits and hits[hi] < pos:
            hi += 1
        stream.hit_idx = hi
        node = 0
        while node < num_nodes:
            limit = pos + 2 * (num_nodes - node)
            # First Bernoulli hit of the remaining scan: a word position
            # at even distance from the cursor (odd-distance entries are
            # second halves of doubles or destination words — skipped but
            # not consumed, since a destination draw can flip the
            # alignment and make them relevant later).
            j = hi
            found = -1
            while j < nhits:
                p = hits[j]
                if p >= limit:
                    break
                if not ((p - pos) & 1):
                    found = p
                    break
                j += 1
            if found < 0:
                stream.pos = limit
                break
            hit_node = node + ((found - pos) >> 1)
            stream.pos = found + 2
            if m.uniform_n is not None:
                # randrange(num_nodes - 1), rejection loop inlined.
                un = m.uniform_n
                shift = m.uniform_shift
                dst = stream.take_word() >> shift
                while dst >= un:
                    dst = stream.take_word() >> shift
                if dst >= hit_node:
                    dst += 1
            else:
                dst = pattern.destination(hit_node, traffic.rng)
            if dst is not None:
                packet = Packet(traffic._next_pid, hit_node, dst,
                                msg_class, gen_cycle=cycle)
                traffic._next_pid += 1
                traffic.generated += 1
                backlog[hit_node].append(packet)
                if hook is not None:
                    hook(packet)
                backlog_nodes.add(hit_node)
            node = hit_node + 1
            # The destination draws moved the cursor (and may have
            # refilled the buffer, replacing the hit list wholesale).
            stream.ensure(2 * (num_nodes - node))
            hits = stream.hits
            nhits = len(hits)
            pos = stream.pos
            hi = stream.hit_idx
            while hi < nhits and hits[hi] < pos:
                hi += 1
            stream.hit_idx = hi

        if backlog_nodes:
            offer = fabric.offer_packet
            drained = None
            for n in sorted(backlog_nodes):
                queue = backlog[n]
                while queue and offer(queue[0]):
                    queue.popleft()
                if not queue:
                    if drained is None:
                        drained = [n]
                    else:
                        drained.append(n)
            if drained is not None:
                backlog_nodes.difference_update(drained)
