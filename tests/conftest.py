"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import dataclasses
import json
import os
import random
from pathlib import Path

import pytest

from repro.core.config import DrainConfig, NetworkConfig, Scheme, SimConfig
from repro.experiments.common import Scale
from repro.topology.irregular import inject_link_faults
from repro.topology.mesh import make_mesh


GOLDEN_DIR = Path(__file__).parent / "golden"

# The suite must never read or write the user's persistent compiled-
# structure store: CLI-driving tests would otherwise activate it at its
# default location and leak artefacts (certificates especially) across
# unrelated tests *and* pytest runs. Tests that want the store activate
# a tmp-path one explicitly (see tests/test_structcache.py).
os.environ.setdefault("REPRO_STRUCT_CACHE", "off")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite tests/golden/*.json snapshots from the current outputs "
        "instead of comparing against them",
    )


def _golden_diff(name, expected, actual):
    """Human-readable per-key diff between a snapshot and a fresh result."""
    lines = [f"golden snapshot mismatch for {name!r}:"]
    for key in sorted(set(expected) | set(actual)):
        if key not in expected:
            lines.append(f"  + {key}: {actual[key]!r} (not in snapshot)")
        elif key not in actual:
            lines.append(f"  - {key}: {expected[key]!r} (missing from result)")
        elif expected[key] != actual[key]:
            lines.append(
                f"  ~ {key}: snapshot {expected[key]!r} != actual {actual[key]!r}"
            )
    lines.append(
        "If the change is intentional, refresh with: "
        "PYTHONPATH=src python -m pytest tests/test_golden.py --update-golden"
    )
    return "\n".join(lines)


@pytest.fixture
def golden_check(request):
    """Compare a JSON-able dict against ``tests/golden/<name>.json``.

    With ``--update-golden`` the snapshot is (re)written instead and the
    test passes; without it, a missing snapshot is a failure that tells
    the developer how to generate one.
    """
    update = request.config.getoption("--update-golden")

    def check(name, actual):
        actual = json.loads(json.dumps(actual))  # normalise to JSON types
        path = GOLDEN_DIR / f"{name}.json"
        if update:
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
            return
        if not path.exists():
            pytest.fail(
                f"no golden snapshot at {path}; generate it with "
                "PYTHONPATH=src python -m pytest tests/test_golden.py "
                "--update-golden"
            )
        expected = json.loads(path.read_text())
        if expected != actual:
            pytest.fail(_golden_diff(name, expected, actual))

    return check


@pytest.fixture
def mesh4() :
    return make_mesh(4, 4)


@pytest.fixture
def mesh8():
    return make_mesh(8, 8)


@pytest.fixture
def faulty8():
    """8x8 mesh with 8 random link faults (fixed seed)."""
    return inject_link_faults(make_mesh(8, 8), 8, random.Random(7))


@pytest.fixture
def faulty4():
    """4x4 mesh with 4 random link faults (fixed seed)."""
    return inject_link_faults(make_mesh(4, 4), 4, random.Random(3))


@pytest.fixture
def tiny_scale():
    """A very small Scale for experiment smoke tests."""
    return Scale(
        warmup=200,
        measure=600,
        fault_patterns=1,
        sweep_rates=(0.04, 0.10),
        low_load_rate=0.02,
        epoch=512,
        spin_timeout=96,
        app_transactions_per_node=10,
        app_max_cycles=20_000,
        seeds=1,
    )


def make_config(
    scheme: Scheme,
    num_vns: int = 1,
    vcs_per_vn: int = 2,
    epoch: int = 512,
    **kwargs,
) -> SimConfig:
    """Compact SimConfig builder used across test modules."""
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=num_vns, vcs_per_vn=vcs_per_vn),
        drain=DrainConfig(epoch=epoch, **kwargs.pop("drain_kwargs", {})),
        **kwargs,
    )


def on_wormhole(config: SimConfig, flits: int = 4) -> SimConfig:
    """*config* on the wormhole fabric with *flits*-flit packets."""
    return dataclasses.replace(
        config,
        flow_control="wormhole",
        network=dataclasses.replace(config.network, packet_size_flits=flits),
    )


class OfferLog:
    """A stand-in fabric for source-level tests: every NI has room and
    takes every packet, and the offered packets are logged."""

    def __init__(self):
        self.offered = []

    def offer_packet(self, packet):
        self.offered.append((packet.pid, packet.src, packet.dst,
                             int(packet.msg_class), packet.gen_cycle))
        return True

    def injection_space(self, node, msg_class):
        return 1


def drive_source(source, fabric, cycles, limits=None, every=0, event=None):
    """Run *source* for *cycles* cycles against *fabric*.

    Without *limits* every cycle is generated. With them the source is
    driven the way the fast-forward drives it on an empty fabric: read
    ahead to a limit ``limits()`` cycles away, skip to the cycle its
    ``next_event_cycle`` names, step that cycle. ``event(source, cycle)``
    runs before the cycles that are multiples of *every*, and no read-ahead
    crosses one (they stand for what ends an idle span: a delivery, a
    storm burst).
    """
    cycle = 0
    while cycle < cycles:
        if every and cycle % every == 0:
            event(source, cycle)
        elif limits is not None:
            limit = min(cycle + limits(), cycles)
            if every:
                limit = min(limit, (cycle // every + 1) * every)
            arrival = source.next_event_cycle(cycle, limit)
            assert cycle <= arrival <= limit
            if arrival > cycle:
                source.skip_cycles(fabric, cycle, arrival - cycle)
                cycle = arrival
            if arrival == limit:
                continue
        source.generate(fabric, cycle)
        cycle += 1
