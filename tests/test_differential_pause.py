"""Differential validation: static certifier vs the live pause oracle.

Two directions, mirroring :mod:`repro.analysis.differential`:

- the pinned dynamic wedge from ``tests/test_lossless.py`` must be
  statically REFUTED at every feasible pause threshold, and the static
  counterexample must equal the watchdog's halt payload cycle — plain
  ``==`` on the ``links`` field, both sides emitting the canonical
  (lexicographically-minimal) rotation;
- every CERTIFIED configuration must survive a seeded pause-storm sweep
  without a watchdog halt and without losing packets.
"""

import random

import pytest

from repro.analysis import (
    canonical_cycle_links,
    certify_configuration,
    refutation_matches,
    storm_survival_sweep,
)
from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.core.simulator import Simulation
from repro.topology.datacenter import make_leaf_spine
from repro.traffic import Flow, FlowTraffic

RING_FLOWS = [(i, (i + 2) % 8) for i in range(8)]


def pfc_config(scheme=Scheme.NONE, pause=2):
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=2048),
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause, resume_threshold=0, headroom=1),
    )


def ring_flow_objs(packets=None, rate=0.9):
    return [Flow(s, d, rate, packets=packets) for s, d in RING_FLOWS]


def scenario_topology():
    return make_leaf_spine(8, 4, uplinks=1, east_west=True)


def static_refutation(pause):
    return certify_configuration(
        scenario_topology(), pfc_config(pause=pause), flows=RING_FLOWS,
    )


@pytest.fixture(scope="module")
def wedge_payload():
    """Run the pinned CBD scenario to its watchdog halt, once."""
    sim = Simulation(
        scenario_topology(), pfc_config(),
        FlowTraffic(ring_flow_objs(), random.Random(7)),
        halt_on_deadlock=True,
    )
    sim.run(cycles=20_000)
    assert sim.deadlocked
    payload = sim.watchdog.cycle_payload
    assert payload is not None
    return payload


class TestRefutationMatching:
    def test_dynamic_payload_is_already_canonical(self, wedge_payload):
        links = [list(pair) for pair in wedge_payload["links"]]
        assert links == canonical_cycle_links(wedge_payload)

    @pytest.mark.parametrize("pause", [1, 2, 3])
    def test_every_feasible_threshold_matches_the_wedge(
        self, wedge_payload, pause,
    ):
        cert = static_refutation(pause)
        assert not cert.certified
        assert refutation_matches(cert, wedge_payload)
        # Canonicalisation on both sides makes this plain equality.
        assert cert.counterexample["links"] == [
            list(pair) for pair in wedge_payload["links"]
        ]

    def test_certified_configuration_never_matches(self, wedge_payload):
        cert = certify_configuration(
            scenario_topology(), pfc_config(scheme=Scheme.DRAIN, pause=2),
            flows=RING_FLOWS,
        )
        assert cert.certified
        assert not refutation_matches(cert, wedge_payload)

    def test_missing_or_different_payloads_do_not_match(self, wedge_payload):
        cert = static_refutation(2)
        assert not refutation_matches(cert, None)
        other = dict(wedge_payload)
        other["links"] = [[0, 8], [8, 4], [4, 0]]
        assert not refutation_matches(cert, other)
        assert not refutation_matches(
            cert, {"kind": "ejection-wedge", "links": []}
        )


class TestStormSurvival:
    def test_drain_certificate_survives_storms(self):
        report = storm_survival_sweep(
            scenario_topology(), pfc_config(scheme=Scheme.DRAIN),
            ring_flow_objs(packets=50), seeds=(1, 2), cycles=60_000,
        )
        assert report["survived"] is True
        assert report["halts"] == 0
        assert report["mode"] == "degradation-ladder"
        assert all(r["lost_forever"] == 0 for r in report["runs"])

    @pytest.mark.parametrize("scheme", [Scheme.ESCAPE_VC, Scheme.UPDOWN])
    def test_acyclicity_certificates_survive_with_watchdog_armed(self, scheme):
        report = storm_survival_sweep(
            scenario_topology(), pfc_config(scheme=scheme),
            ring_flow_objs(packets=20, rate=0.5), seeds=(3,), cycles=30_000,
        )
        assert report["survived"] is True
        assert report["mode"] == "halt-on-deadlock"

    def test_credit_config_is_rejected(self):
        config = SimConfig(scheme=Scheme.DRAIN,
                           network=NetworkConfig(num_vns=1, vcs_per_vn=4),
                           drain=DrainConfig(epoch=2048))
        with pytest.raises(ValueError, match="pause/resume"):
            storm_survival_sweep(scenario_topology(), config,
                                 ring_flow_objs(packets=5),
                                 seeds=(1,), cycles=1000)

    def test_uncertified_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="no pause certificate"):
            storm_survival_sweep(scenario_topology(), pfc_config(),
                                 ring_flow_objs(packets=5),
                                 seeds=(1,), cycles=1000)
