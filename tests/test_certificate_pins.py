"""Pinned certificates: the static certifier's output, byte for byte.

Each case records the BLAKE2b digest of one :meth:`Certificate.to_json`
(sorted keys, fixed indent), so any change to the dependency graph the
certifier builds, to the cycle it picks or to the rotation it emits
shows up as a changed digest. The cases cover every emission path:

- routing acyclicity, certified and refuted (``turn-cycle``), on meshes,
  a torus and seeded random irregular topologies;
- a fault schedule that splits the mesh in two, so certification runs
  per component and relabels router ids (``node_labels``);
- the pause-aware certifier, certified and refuted (``buffer-cycle``),
  including the per-component relabelled buffer cycle.

Two refutations are also written out in full, and one digest covers the
two cycle searches over seeded random graphs.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.analysis import (
    certify_configuration,
    certify_pause_configuration,
    find_turn_cycle,
    minimal_cycles,
)
from repro.core.config import PfcConfig, Scheme
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.topology.datacenter import make_fat_tree, make_leaf_spine
from repro.topology.irregular import random_connected_topology
from repro.topology.mesh import make_mesh, make_torus


def _digest(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


#: Cuts the 4x4 mesh into two 2x4 halves (columns 0-1 and 2-3).
SPLIT = FaultSchedule(tuple(
    FaultEvent(cycle=10, kind="link", target=(y * 4 + 1, y * 4 + 2))
    for y in range(4)
))

#: The leaf-spine CBD flow set of tests/test_lossless.py's ring_flows.
RING_FLOWS = [(i, (i + 2) % 8) for i in range(8)]


def _pfc(pause: int) -> PfcConfig:
    return PfcConfig(pause_threshold=pause, resume_threshold=0, headroom=1)


def _certificate(case: str):
    if case.startswith("mesh"):
        dim, scheme = case[len("mesh"):].split("-", 1)
        return certify_configuration(make_mesh(int(dim), int(dim)),
                                     Scheme(scheme))
    if case == "torus4-none":
        return certify_configuration(make_torus(4, 4), Scheme.NONE)
    if case.startswith("random"):
        seed = int(case[len("random"):].split("-")[0])
        topology = random_connected_topology(12, 6, random.Random(seed))
        return certify_configuration(topology, Scheme.UPDOWN)
    if case.startswith("split-"):
        return certify_configuration(make_mesh(4, 4), Scheme(case[6:]),
                                     schedule=SPLIT)
    if case == "pause-ring-none":
        return certify_pause_configuration(
            make_leaf_spine(8, 4, uplinks=1, east_west=True), Scheme.NONE,
            pfc=_pfc(2), vcs_per_vn=4, flows=RING_FLOWS,
        )
    if case == "pause-fattree-updown":
        return certify_pause_configuration(
            make_fat_tree(4), Scheme.UPDOWN, pfc=_pfc(1), vcs_per_vn=2,
        )
    if case == "pause-split-none":
        return certify_pause_configuration(
            make_mesh(4, 4), Scheme.NONE, pfc=_pfc(2), vcs_per_vn=4,
            schedule=SPLIT,
        )
    raise KeyError(case)


#: case -> digest of the certificate's JSON.
PINNED = {
    "mesh4-updown": "8d3cdeac516b5d454449fb7d02913f22",
    "mesh4-escape_vc": "cea529bb6cca2fc60f8c4098c3b1ee6d",
    "mesh4-none": "08f01e1ab06165f37ff96ecd4f78c698",
    "mesh8-updown": "3d6ebf721ebe0c8c7db46e790ef060fd",
    "mesh8-escape_vc": "6000556f46f535a191d400a36281bb4b",
    "mesh8-none": "91e4f28c0abb74aac7312cf9d8dd01ad",
    "torus4-none": "de014761f392d23951ec75b93b486809",
    "random3-updown": "4e9c7e92174b9695c30b79002d3b9762",
    "random11-updown": "26797536ab2bd58c8f48401e77f7fbf3",
    "split-updown": "9ccd64257de4732c04f1a1c2b50bed57",
    "split-none": "1e81dfaf8a3b8006abe7734e13c86878",
    "pause-ring-none": "54c04bdd4e9b66a41df2dfd370be3c37",
    "pause-fattree-updown": "77c975b5ad9e4d26154f7102b231249f",
    "pause-split-none": "e7a5211f338e5518e1cf72a10947ed6f",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_certificate_digest(case):
    assert _digest(_certificate(case).to_json()) == PINNED[case]


def test_turn_cycle_refutation_in_full():
    cert = certify_configuration(make_torus(4, 4), Scheme.NONE)
    assert cert.counterexample == {
        "kind": "turn-cycle",
        "length": 4,
        "links": ["0->1", "1->2", "2->3", "3->0"],
        "routers": [0, 1, 2, 3],
    }


def test_buffer_cycle_refutation_in_full():
    cert = _certificate("pause-ring-none")
    ports = [0, 6, 10, 14, 18, 22, 26, 3]
    assert cert.counterexample == {
        "kind": "buffer-cycle",
        "length": 8,
        "routers": [1, 2, 3, 4, 5, 6, 7, 0],
        "links": [[i, (i + 1) % 8] for i in range(8)],
        "cycle": [
            {"router": (i + 1) % 8, "port": ports[i], "vn": 0, "vc": None,
             "link": [i, (i + 1) % 8], "packet": None}
            for i in range(8)
        ],
        "distinct_minimal_cycles": 1,
    }


def _random_adjacency(seed: int):
    """A random digraph without self-loops; successor lists unsorted."""
    rng = random.Random(seed)
    n = rng.randint(2, 12)
    density = rng.choice((0.1, 0.2, 0.35))
    adjacency = []
    for node in range(n):
        succ = [m for m in range(n) if m != node and rng.random() < density]
        rng.shuffle(succ)
        adjacency.append(succ)
    return adjacency


def test_cycle_searches_over_random_graphs():
    out = []
    for seed in range(50, 100):
        adjacency = _random_adjacency(seed)
        out.append([find_turn_cycle(adjacency), minimal_cycles(adjacency)])
    # On a tie the first cycle found and the least canonical one differ,
    # so the two searches are pinned separately.
    assert any(first is not None and first != cycles[0]
               for first, cycles in out)
    text = json.dumps(out, sort_keys=True)
    assert _digest(text) == "4e27d66670ce088fe84f0ddced3bedc1"
