"""The set-up structures of a mid-size pause/resume leaf-spine.

A 256-switch leaf-spine (240 leaves, 16 spines, two uplinks) is the
scale tier in miniature: large enough that the routing tables, the
distance rows and the network-interface queues dominate what a build
allocates, small enough for the tier-1 suite. The cell digests below pin
every candidate-table cell, whatever dtype the arrays are held in.
"""

import gc
import hashlib
import random
import sys
import tracemalloc

import numpy as np
import pytest

from repro import structcache
from repro.core.config import (
    DrainConfig, NetworkConfig, PfcConfig, Scheme, SimConfig,
)
from repro.core.simulator import Simulation
from repro.network.index import DenseCandidateTables, FabricIndex
from repro.router.packet import MessageClass, Packet
from repro.routing.adaptive import AdaptiveMinimalRouting
from repro.routing.updown import UpDownRouting
from repro.topology.datacenter import make_leaf_spine
from repro.traffic.flows import Flow, FlowTraffic

LEAVES, SPINES, UPLINKS = 240, 16, 2


def cells_digest(tables):
    """Every (router, dst) cell of *tables*, independent of the dtypes."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(tables.offsets, dtype=np.int64).tobytes())
    h.update(np.asarray(tables.links, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def topology():
    return make_leaf_spine(LEAVES, SPINES, uplinks=UPLINKS)


def pause_resume_sim(topology):
    """The lossless scale row's shape: DRAIN under pause/resume, one
    line-rate flow per 16 leaves, degradation ladder on."""
    config = SimConfig(
        scheme=Scheme.DRAIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=256),
        seed=1,
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=2, resume_threshold=1, headroom=1),
    )
    flows = [Flow(i, (i + LEAVES // 2) % LEAVES, 1.0, packets=20)
             for i in range(0, LEAVES, 16)]
    return Simulation(topology, config, FlowTraffic(flows, random.Random(1)),
                      degradation_ladder=True)


class TestHeldOnce:
    def test_unused_message_classes_allocate_no_queue_storage(self, topology):
        sim = pause_resume_sim(topology)
        fabric = sim.fabric
        queues = [queue for side in (fabric.inj_queues, fabric.ej_queues)
                  for per_node in side for queue in per_node]
        assert len(queues) == 2 * topology.num_nodes * len(MessageClass)
        empty = sys.getsizeof([])
        # At build no queue holds item storage: each is a bare header.
        assert all(sys.getsizeof(queue) == empty for queue in queues)
        # The flows run through their one class; the queues they used
        # hand their storage back once drained.
        sim.run(2000)
        assert sim.traffic.done() and sim.traffic.delivered == 15 * 20
        assert all(sys.getsizeof(queue) == empty for queue in queues)
        # A queued packet allocates storage in its own class's queue only.
        assert fabric.offer_packet(Packet(10**6, 0, 1, MessageClass.FWD))
        grown = [queue for queue in queues if sys.getsizeof(queue) != empty]
        assert grown == [fabric.inj_queues[0][MessageClass.FWD]]

    def test_tables_hold_int32_offsets_and_no_counts(self, topology,
                                                     tmp_path):
        n = topology.num_nodes
        tables = AdaptiveMinimalRouting(FabricIndex(topology)).compiled_tables
        assert tables.offsets.dtype == np.int32
        assert tables.offsets.shape == (n * n + 1,)
        held = [name for name in DenseCandidateTables.__slots__
                if isinstance(getattr(tables, name), np.ndarray)]
        assert held == ["offsets", "links"]
        assert np.array_equal(tables.counts(), np.diff(tables.offsets))
        # The store persists the same pair, nothing per cell count.
        structcache.clear_memos()
        store = structcache.activate(tmp_path)
        try:
            AdaptiveMinimalRouting(FabricIndex(topology))
        finally:
            structcache.deactivate()
            structcache.clear_memos()
        [entry] = (tmp_path / "routing").glob("*/*")
        assert sorted(p.name for p in entry.iterdir()) == [
            "links.npy", "meta.json", "offsets.npy"]
        assert store.events["routing"]["compiles"] == 1

    def test_build_traced_peak_is_bounded(self, topology):
        # Traced (Python-heap) peak of one cold Simulation(...) build,
        # memo cleared so the distance matrix and the routing compile are
        # inside it: 2.4-2.5 MB measured, 5.2-5.3 MB with per-class
        # deques and held counts.
        structcache.clear_memos()
        gc.collect()
        tracemalloc.start()
        try:
            sim = pause_resume_sim(topology)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            structcache.clear_memos()
        assert sim.fabric.engine_name == "vectorized"
        assert peak < 2.9 * 2**20, peak


class TestTableCellPins:
    def test_adaptive_cells(self, topology):
        tables = AdaptiveMinimalRouting(FabricIndex(topology)).compiled_tables
        assert cells_digest(tables) == "3ecb6cc3bd089d89717bb992ab664d32"

    @pytest.mark.parametrize("deterministic, pins", [
        (False, ["43ad5f776878184836231346d12e02d3",
                 "a8b5d2f04c3e2a9fc141d14bae4e89f3"]),
        (True, ["f35b11fe71b2c1dca49962bee3fd86a8",
                "dc1c3787de67d427457ccb56a0a1e38f"]),
    ])
    def test_updown_cells(self, topology, deterministic, pins):
        routing = UpDownRouting(FabricIndex(topology),
                                deterministic=deterministic)
        assert [cells_digest(t) for t in routing.compiled_tables] == pins

    def test_escape_vc_merged_cells(self, topology):
        config = SimConfig(scheme=Scheme.ESCAPE_VC,
                           network=NetworkConfig(num_vns=1, vcs_per_vn=4),
                           seed=1)
        sim = Simulation(topology, config, FlowTraffic(
            [Flow(0, LEAVES // 2, 1.0, packets=5)], random.Random(1)))
        merged = sim.fabric._engine._merge_tables()
        assert [cells_digest(t) for t, _ in merged] == [
            "1e4cb6a49852907e6c7a88fdf157ba6c",
            "794c4110086a4e1d6f9a53f79be8b990"]
        assert [hashlib.blake2b(bytes(modes), digest_size=8).hexdigest()
                for _, modes in merged] == [
            "2717e4d3c8adaac0", "53526c2fd9b6d935"]
