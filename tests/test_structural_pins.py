"""Pinned end states of the shipped single-VC and multi-flit configurations.

Fig. 1's planted ring wedge runs at one VC per VN under each scheme, and
``sensitivity`` sweeps one VC per VN and 2-, 4- and 8-flit packets. Each
case below records one BLAKE2b digest, taken when these configurations
still ran on a movement kernel of their own; whichever kernel moves them
must keep reproducing it.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.config import Scheme
from repro.drain.controller import DrainController
from repro.experiments import sensitivity
from repro.experiments.common import Scale
from repro.experiments.fig1_fig2_scenarios import _drive, _wedged_ring_fabric
from repro.harness import Harness
from repro.network.spin import SpinController

#: Fig. 1's ring wedge, driven for the scenario's horizon under each scheme.
RING_PINS = {
    "none": "c7ad17fdd42a819b024bec7cd0d2e40d",
    "spin": "a7b79869e7e9b4c69cde605a34032d94",
    "drain": "27c95eea54f55287ca016186736230e7",
}

#: ``sensitivity``'s rows at a reduced scale: ``vcs_per_vn=1`` and the
#: 2/4/8-flit packet sizes on the 8x8 mesh.
SENSITIVITY_SCALE = Scale(warmup=100, measure=500, epoch=128)
SENSITIVITY_PINS = {
    "vcs": "2b59896471b034d3ce3aa8e45ff0fffc",
    "packet_size": "4566c13dd10b7ac12d81d50806e1fd20",
}


def _digest(state) -> str:
    text = json.dumps(state, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


@pytest.mark.parametrize("scheme", sorted(RING_PINS))
def test_ring_wedge_matches_its_pin(scheme):
    _topo, config, fabric = _wedged_ring_fabric(Scheme(scheme))
    controller = None
    if scheme == "spin":
        controller = SpinController(fabric, config.spin, check_interval=4)
    elif scheme == "drain":
        controller = DrainController(fabric, config.drain)
    _drive(fabric, controller, 400)
    state = {
        "stats": fabric.stats.as_dict(),
        "lcg": fabric._lcg,
        "cycle": fabric.cycle,
        "in_network": fabric.packets_in_network,
        "slots": [(port, vn, vc, packet.pid)
                  for port, vn, vc, packet in fabric.occupied_slots()],
    }
    assert _digest(state) == RING_PINS[scheme], scheme


def test_sensitivity_rows_match_their_pins():
    harness = Harness(workers=1)
    rows = {
        "vcs": sensitivity.vc_sensitivity(
            vcs_options=(1,), scale=SENSITIVITY_SCALE, harness=harness),
        "packet_size": sensitivity.packet_size_sensitivity(
            sizes=(2, 4, 8), scale=SENSITIVITY_SCALE, harness=harness),
    }
    assert all(row["throughput"] > 0 for study in rows.values()
               for row in study)
    assert {study: _digest(r) for study, r in rows.items()} == (
        SENSITIVITY_PINS)
