"""Edge cases of the event-horizon fast-forward engine.

The parity suite (test_parity_dense.py) pins fast-forward-on vs -off to
bit-identical statistics; these tests target the horizon computation's
boundary behaviour directly — the places where an off-by-one would not
necessarily show up in end-of-run aggregates:

- a skip span never straddles the warmup/measurement boundary or the end
  of the run;
- the watchdog (and halt-on-deadlock) never sleeps past a check tick;
- a fault whose onset lands exactly on the horizon interrupts the skip
  and applies on its scheduled cycle;
- the drain-epoch countdown is never jumped over (freeze cycles match a
  dense run exactly);
- a trace source that completes mid-run stops the fast run on the same
  cycle as the dense run.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import Scheme
from repro.core.rng import derive_seed
from repro.core.simulator import Simulation
from repro.experiments.common import Scale, scheme_config
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.topology.mesh import make_mesh
from repro.traffic.synthetic import SyntheticTraffic, pattern_by_name
from repro.traffic.trace import TraceRecorder, TraceTraffic
from tests.conftest import on_wormhole

TINY = Scale(
    warmup=100,
    measure=300,
    fault_patterns=1,
    sweep_rates=(0.05,),
    epoch=128,
    spin_timeout=64,
)

#: Low enough that an 8x8 mesh spends most cycles quiescent.
IDLE_RATE = 0.0005


def _make_sim(rate: float = IDLE_RATE, scheme: Scheme = Scheme.DRAIN,
              scale: Scale = TINY, dense: bool = False, seed: int = 1,
              wormhole: bool = False, **kwargs) -> Simulation:
    topology = make_mesh(8, 8)
    config = scheme_config(scheme, scale, seed=seed)
    if wormhole:
        config = on_wormhole(config)
    traffic = SyntheticTraffic(
        pattern_by_name("uniform_random", topology.num_nodes, 8),
        rate,
        random.Random(derive_seed(seed, "traffic", "uniform_random", rate)),
    )
    return Simulation(topology, config, traffic, dense=dense, **kwargs)


def _record_spans(sim: Simulation):
    """Shadow ``fabric.skip_cycles`` to log every (start, count) span."""
    spans = []
    fabric = sim.fabric
    original = fabric.skip_cycles

    def recording(count: int) -> None:
        spans.append((fabric.cycle, count))
        original(count)

    fabric.skip_cycles = recording
    return spans


class TestHorizonBoundaries:
    def test_span_never_straddles_measurement_boundary(self):
        sim = _make_sim()
        spans = _record_spans(sim)
        sim.run(TINY.total_cycles, warmup=TINY.warmup)
        assert spans, "fast-forward never engaged at idle rate"
        boundary = sim.fabric.measure_from
        for start, count in spans:
            assert start + count <= boundary or start >= boundary, (
                f"span [{start}, {start + count}) straddles the "
                f"measurement boundary at {boundary}"
            )

    def test_span_never_overshoots_end_of_run(self):
        # Rate zero: the entire run is one idle stretch; the skip must
        # land exactly on the end cycle, not past it.
        sim = _make_sim(rate=0.0)
        sim.run(TINY.total_cycles, warmup=TINY.warmup)
        assert sim.fabric.cycle == TINY.total_cycles
        assert sim.stats.cycles == TINY.total_cycles
        assert sim.stats.measured_cycles == TINY.measure
        assert sim.ff_cycles > 0

    def test_zero_budget_runs_dense(self):
        # A horizon one cycle out (budget < 2) must fall back to a dense
        # step rather than skipping: _fast_forward returns 0.
        sim = _make_sim()
        sim._horizon_hooks.append(lambda now: now + 1)
        sim.run(TINY.total_cycles, warmup=TINY.warmup)
        assert sim.ff_spans == 0
        assert sim.fabric.cycle == TINY.total_cycles


class TestWatchdogTicks:
    @pytest.mark.parametrize("halt", [False, True])
    def test_never_sleeps_past_a_check_tick(self, halt):
        # Scheme NONE wires the watchdog; its hook pins the horizon to the
        # next check_interval multiple, so every span must end on or
        # before that tick — and can never *start* on an unexecuted tick.
        sim = _make_sim(scheme=Scheme.NONE, halt_on_deadlock=halt)
        assert sim.watchdog is not None
        interval = sim.watchdog.check_interval
        spans = _record_spans(sim)
        sim.run(TINY.total_cycles, warmup=TINY.warmup)
        assert spans
        for start, count in spans:
            assert start % interval != 0 or count == 0
            next_tick = (start // interval + 1) * interval
            assert start + count <= next_tick, (
                f"span [{start}, {start + count}) slept past the "
                f"watchdog tick at {next_tick}"
            )

    def test_check_cycles_match_dense_run(self):
        # The oracle must fire on exactly the same cycles either way.
        checks = {}
        for dense in (False, True):
            sim = _make_sim(scheme=Scheme.NONE, dense=dense)
            watchdog = sim.watchdog
            fired = []
            original = watchdog.step

            def recording(w=watchdog, out=fired, orig=original):
                before = w.fabric.cycle
                if before % w.check_interval == 0 and not w.deadlocked:
                    out.append(before)
                orig()

            watchdog.step = recording
            sim.run(TINY.total_cycles, warmup=TINY.warmup)
            checks[dense] = fired
        assert checks[False] == checks[True]
        assert checks[False]


class TestFaultOnset:
    def test_fault_exactly_on_horizon_applies_on_schedule(self):
        # The fault cycle sits deep inside what would otherwise be one
        # long idle span: the injector's hook must clamp the horizon so
        # the skip lands exactly on the onset cycle and the event applies
        # there — bit-identically to the dense run.
        onset = 217  # not a multiple of anything else in the horizon set
        events = (FaultEvent(cycle=onset, kind="link", target=(5, 6)),)
        schedule = FaultSchedule(events=events, seed=7, onset="uniform")

        results = {}
        for dense in (False, True):
            sim = _make_sim(dense=dense, fault_schedule=schedule)
            spans = _record_spans(sim)
            sim.run(TINY.total_cycles, warmup=TINY.warmup)
            results[dense] = sim.stats.as_dict()
            if not dense:
                assert spans
                for start, count in spans:
                    assert start + count <= onset or start >= onset, (
                        f"span [{start}, {start + count}) jumped the "
                        f"fault onset at {onset}"
                    )
                assert sim.stats.faults_applied >= 1
        assert results[False] == results[True]


class TestDrainCountdown:
    def test_freeze_cycles_match_dense_run(self):
        # TINY's 128-cycle epoch forces several drain windows inside the
        # run; every freeze must fire on the same cycle as in dense mode
        # (a skip crossing the countdown would delay the whole schedule).
        freezes = {}
        for dense in (False, True):
            sim = _make_sim(dense=dense)
            controller = sim.drain_controller
            fired = []
            original = controller._enter_drain

            def recording(c=controller, out=fired, orig=original):
                out.append(c.fabric.cycle)
                orig()

            controller._enter_drain = recording
            sim.run(TINY.total_cycles, warmup=TINY.warmup)
            freezes[dense] = fired
            if not dense:
                assert sim.ff_cycles > 0
        assert freezes[False] == freezes[True]
        assert freezes[False], "epoch=128 run produced no drain windows"

    def test_skip_cycles_refuses_to_cross_the_countdown(self):
        sim = _make_sim()
        controller = sim.drain_controller
        countdown = controller._countdown
        with pytest.raises(RuntimeError):
            controller.skip_cycles(countdown)
        # One short of the horizon is fine.
        controller.skip_cycles(countdown - 1)
        assert controller._countdown == 1

    def test_fabric_skip_refuses_non_quiescent_state(self):
        from repro.router.packet import Packet

        # An awake occupied router: a packet just injected will move.
        sim = _make_sim(rate=0.0)
        fabric = sim.fabric
        assert fabric.offer_packet(Packet(0, 0, 5, gen_cycle=0))
        sim.step()  # packet leaves the NI queue into a VC
        assert not fabric.quiescent and not fabric.inert
        with pytest.raises(RuntimeError):
            fabric.skip_cycles(10)

        # A wedged mesh skips (the control), then refuses three states: an
        # occupied router awake, ...
        def stuck():
            sim = _make_sim(rate=0.30, scale=Scale(warmup=0, measure=2000,
                                                   epoch=2048))
            while not sim.fabric.inert or sim.fabric.quiescent:
                sim.step()
            return sim.fabric

        fabric = stuck()
        fabric.skip_cycles(10)
        assert fabric.inert
        awake = next(r for r in range(64) if fabric._router_occ[r])
        fabric._engine.asleep[awake] = 0  # as any wake source does
        assert not fabric.inert
        with pytest.raises(RuntimeError):
            fabric.skip_cycles(10)

        # ...a node whose injection port has room while its NI queue holds
        # packets, ...
        fabric = stuck()
        node = next(n for n in range(64) if fabric._inj_pending[n])
        port = fabric.index.injection_port(node)
        fabric.fault_drop_slot(port, 0, 0)
        fabric._engine.asleep[node] = 1  # the router is not what refuses
        assert not fabric.inert
        with pytest.raises(RuntimeError):
            fabric.skip_cycles(10)

        # ...and once a drain window freezes it.
        fabric = stuck()
        fabric.frozen = True
        assert not fabric.inert
        with pytest.raises(RuntimeError):
            fabric.skip_cycles(10)

    @pytest.mark.parametrize("flow_control", ["credit", "wormhole"])
    def test_fabric_skip_refuses_ni_content_on_an_empty_fabric(
            self, flow_control):
        from repro.router.packet import Packet

        # A packet queued at an NI of an otherwise empty fabric injects
        # next cycle: no source may leave one behind its skip.
        sim = _make_sim(rate=0.0, wormhole=flow_control == "wormhole")
        fabric = sim.fabric
        assert fabric.offer_packet(Packet(0, 0, 5, gen_cycle=0))
        assert not fabric.quiescent and not fabric.inert
        with pytest.raises(RuntimeError, match="non-quiescent"):
            fabric.skip_cycles(10)


class TestTraceCompletion:
    def _trace(self):
        recorder = TraceRecorder(
            pattern_by_name("uniform_random", 64, 8),
            IDLE_RATE,
            random.Random(derive_seed(1, "traffic", "uniform_random",
                                      IDLE_RATE)),
        )
        topology = make_mesh(8, 8)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        sim = Simulation(topology, config, recorder)
        sim.run(200)
        assert recorder.records, "recording window produced no packets"
        return recorder.records

    def test_done_mid_run_stops_fast_and_dense_on_same_cycle(self):
        # The trace exhausts long before the end of the run: the fast run
        # must notice completion on the same cycle as the dense run (never
        # inside a span — deliveries cannot happen while skipping) and
        # must not skip past the stop point.
        records = self._trace()
        ends = {}
        for dense in (False, True):
            topology = make_mesh(8, 8)
            config = scheme_config(Scheme.DRAIN, TINY, seed=1)
            traffic = TraceTraffic(records, topology.num_nodes)
            sim = Simulation(topology, config, traffic, dense=dense)
            sim.run(TINY.total_cycles, warmup=TINY.warmup)
            assert traffic.done()
            assert traffic.delivered == len(records)
            ends[dense] = (sim.fabric.cycle, sim.stats.as_dict())
            if not dense:
                assert sim.ff_cycles > 0, "gap skipping never engaged"
        assert ends[False] == ends[True]

    def test_recorder_captures_every_generated_packet(self):
        # Regression: the recorder used to scan the backlog after the
        # offer sweep had drained it, recording nothing at low load.
        recorder = TraceRecorder(
            pattern_by_name("uniform_random", 64, 8),
            IDLE_RATE,
            random.Random(3),
        )
        topology = make_mesh(8, 8)
        config = scheme_config(Scheme.DRAIN, TINY, seed=1)
        sim = Simulation(topology, config, recorder)
        sim.run(400)
        assert recorder.generated > 0
        assert len(recorder.records) == recorder.generated
