"""Pause-aware static certifier + engine-parity lint rules (DET007-012).

Known-answer coverage for the lossless certification matrix on the pinned
leaf-spine CBD scenario and the fat-tree up*/down* fabric, unit coverage
for the cycle canonicalisation helpers, the preflight pause gate, the
``repro-drain check --flow-control pause_resume`` CLI, and the four
engine-parity lint rules.
"""

import json

import pytest

from repro.analysis import (
    CERTIFIED,
    REFUTED,
    build_restricted_cdg,
    canonical_rotation,
    certify_configuration,
    is_kernel_path,
    lint_source,
    minimal_cycles,
    validate_spec,
)
from repro.analysis.certifier import routing_for
from repro.analysis.preflight import PreflightError, clear_preflight_cache
from repro.cli import main
from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    PfcConfig,
    Scheme,
    SimConfig,
)
from repro.harness.trials import lossless_trial
from repro.network.index import FabricIndex
from repro.topology.datacenter import make_fat_tree, make_leaf_spine
from repro.traffic.flows import Flow


def scenario_topology():
    return make_leaf_spine(8, 4, uplinks=1, east_west=True)


#: The pinned CBD flow set: leaf i -> leaf (i+2) % 8 over the east-west
#: ring (matching tests/test_lossless.py's ring_flows).
RING_FLOWS = [(i, (i + 2) % 8) for i in range(8)]

#: The buffer cycle those flows close, already in canonical rotation.
RING_LINKS = [[i, (i + 1) % 8] for i in range(8)]


def pfc(pause=2, resume=0, headroom=1):
    return PfcConfig(pause_threshold=pause, resume_threshold=resume,
                     headroom=headroom)


# ---------------------------------------------------------------------------
# Cycle canonicalisation helpers
# ---------------------------------------------------------------------------
class TestCanonicalRotation:
    def test_rotations_collapse_to_one_representative(self):
        cycle = [[3, 4], [4, 5], [1, 2], [2, 3]]
        want = canonical_rotation(cycle)
        for k in range(len(cycle)):
            assert canonical_rotation(cycle[k:] + cycle[:k]) == want
        assert want[0] == [1, 2]

    def test_short_sequences_unchanged(self):
        assert canonical_rotation([]) == []
        assert canonical_rotation([7]) == [7]

    def test_ties_resolved_by_subsequent_elements(self):
        assert canonical_rotation([1, 9, 1, 2]) == [1, 2, 1, 9]


class TestMinimalCycles:
    def test_single_triangle(self):
        assert minimal_cycles([[1], [2], [0]]) == [[0, 1, 2]]

    def test_acyclic_graph_is_empty(self):
        assert minimal_cycles([[1], [2], []]) == []

    def test_shorter_cycle_wins(self):
        # A 2-cycle (3<->4) beats the 3-cycle (0->1->2->0).
        adjacency = [[1], [2], [0], [4], [3]]
        assert minimal_cycles(adjacency) == [[3, 4]]

    def test_distinct_minimal_cycles_all_reported(self):
        adjacency = [[1], [0], [3], [2]]
        assert minimal_cycles(adjacency) == [[0, 1], [2, 3]]

    def test_rotational_duplicates_collapse(self):
        # One triangle found from each of its three nodes: one cycle out.
        assert len(minimal_cycles([[1], [2], [0]])) == 1


# ---------------------------------------------------------------------------
# Known answers (satellite: leaf-spine ring + fat-tree up*/down*)
# ---------------------------------------------------------------------------
class TestKnownAnswers:
    @pytest.mark.parametrize("pause", [1, 2, 3])
    def test_ring_flows_refuted_at_every_feasible_threshold(self, pause):
        cert = certify_configuration(
            scenario_topology(), pause_config(Scheme.NONE, pause),
            flows=RING_FLOWS,
        )
        assert cert.verdict == REFUTED
        counter = cert.counterexample
        assert counter["kind"] == "buffer-cycle"
        assert counter["length"] == 8
        # Canonical rotation at emission: plain equality, no rotation math.
        assert counter["links"] == RING_LINKS
        # First-seen hop order: each hop's router is its link's dst.
        assert counter["routers"] == [1, 2, 3, 4, 5, 6, 7, 0]
        for hop in counter["cycle"]:
            assert hop["vc"] is None and hop["packet"] is None
            assert hop["router"] == hop["link"][1]

    @pytest.mark.parametrize("pause", [1, 2, 3])
    def test_drain_certified_via_pause_exempt_cover(self, pause):
        cert = certify_configuration(
            scenario_topology(), pause_config(Scheme.DRAIN, pause),
            flows=RING_FLOWS,
        )
        assert cert.verdict == CERTIFIED
        assert cert.proof["method"] == "pause-exempt-drain-cover"
        assert cert.proof["exemption"]["pause_exempt_escape"] is True
        assert cert.proof["pfc"]["row_depth"] == 4

    def test_escape_vc_certified_via_exempt_acyclicity(self):
        cert = certify_configuration(
            scenario_topology(), pause_config(Scheme.ESCAPE_VC),
            flows=RING_FLOWS,
        )
        assert cert.verdict == CERTIFIED
        assert cert.proof["method"] == "pause-exempt-escape-acyclicity"

    def test_fat_tree_updown_certified_with_pause(self):
        cert = certify_configuration(make_fat_tree(4), SimConfig(
            scheme=Scheme.UPDOWN,
            network=NetworkConfig(num_vns=1, vcs_per_vn=2),
            flow_control="pause_resume", pfc=pfc(pause=1),
        ))
        assert cert.verdict == CERTIFIED
        proof = cert.proof
        assert proof["method"] == "pause-augmented-topological-link-order"
        assert len(proof["link_order"]) == proof["links"]
        assert cert.subject["routing"] == "updown"

    def test_summary_renders_buffer_cycle(self):
        cert = certify_configuration(
            scenario_topology(), pause_config(Scheme.NONE), flows=RING_FLOWS,
        )
        assert "buffer-cycle of length 8" in cert.summary()
        assert "0->1" in cert.summary()

    def test_malformed_flows_are_rejected(self):
        with pytest.raises(ValueError, match="outside the topology"):
            certify_configuration(scenario_topology(),
                                  pause_config(Scheme.NONE), flows=[(0, 99)])
        with pytest.raises(ValueError, match="identical endpoints"):
            certify_configuration(scenario_topology(),
                                  pause_config(Scheme.NONE), flows=[(3, 3)])


class TestBuildPauseBdg:
    """The restricted CDG over a flow set is the pause-augmented BDG."""

    def test_all_pairs_superset_of_flow_restricted(self):
        index = FabricIndex(scenario_topology())
        routing = routing_for("adaptive", index)
        full = build_restricted_cdg(index, routing)
        restricted = build_restricted_cdg(index, routing, flows=RING_FLOWS)
        for link, succ in enumerate(restricted):
            assert set(succ) <= set(full[link])

    def test_one_hop_flows_add_no_dependencies(self):
        # A packet that ejects after its first link holds no buffer while
        # requesting another: adjacent-leaf flows build an empty BDG.
        index = FabricIndex(scenario_topology())
        routing = routing_for("adaptive", index)
        adjacency = build_restricted_cdg(
            index, routing, flows=[(i, (i + 1) % 8) for i in range(8)]
        )
        assert all(not succ for succ in adjacency)

    def test_ring_flows_close_the_ring(self):
        index = FabricIndex(scenario_topology())
        routing = routing_for("adaptive", index)
        adjacency = build_restricted_cdg(index, routing, flows=RING_FLOWS)
        by_pair = {
            (index.link_src[l], index.link_dst[l]): l
            for l in range(index.num_links)
        }
        for i in range(8):
            held = by_pair[(i, (i + 1) % 8)]
            wanted = by_pair[((i + 1) % 8, (i + 2) % 8)]
            assert wanted in adjacency[held]


# ---------------------------------------------------------------------------
# Engine-parity lint rules
# ---------------------------------------------------------------------------
KERNEL = "src/repro/network/demo.py"


def codes(source, path):
    return [f.code for f in lint_source(source, path)]


class TestIsKernelPath:
    def test_network_directory_is_kernel(self):
        assert is_kernel_path("src/repro/network/vectorized.py")
        assert is_kernel_path("repro/network/pause.py")

    def test_filename_alone_does_not_count(self):
        assert not is_kernel_path("src/repro/analysis/network.py")
        assert not is_kernel_path("src/repro/harness/pool.py")


class TestDet007RngInKernelLoop:
    def test_draw_inside_loop_fires(self):
        src = "for i in range(4):\n    x = rng.random()\n"
        assert codes(src, KERNEL) == ["DET007"]

    def test_draw_inside_while_fires(self):
        src = "while busy:\n    rng.shuffle(items)\n"
        assert codes(src, KERNEL) == ["DET007"]

    def test_draw_outside_loop_is_fine(self):
        assert codes("x = rng.random()\n", KERNEL) == []

    def test_non_kernel_path_is_exempt(self):
        src = "for i in range(4):\n    x = rng.random()\n"
        assert codes(src, "src/repro/harness/demo.py") == []


class TestDet008TablesMutation:
    def test_attribute_write_fires(self):
        src = ("tables = index.export_tables()\n"
               "tables.epoch = 2\n")
        assert codes(src, KERNEL) == ["DET008"]

    def test_subscript_write_into_field_fires(self):
        src = ("tables = DenseCandidateTables(index)\n"
               "tables.counts[0] = 1\n")
        assert codes(src, KERNEL) == ["DET008"]

    def test_augmented_write_fires(self):
        src = ("tables = index.export_tables()\n"
               "tables.epoch += 1\n")
        assert codes(src, KERNEL) == ["DET008"]

    def test_reads_are_fine(self):
        src = ("tables = index.export_tables()\n"
               "n = tables.counts[0]\n")
        assert codes(src, KERNEL) == []

    def test_non_kernel_path_is_exempt(self):
        src = ("tables = index.export_tables()\n"
               "tables.epoch = 2\n")
        assert codes(src, "src/repro/analysis/demo.py") == []


class TestDet009UnorderedIteration:
    def test_set_literal_fires(self):
        assert codes("for x in {1, 2}:\n    pass\n", KERNEL) == ["DET009"]

    def test_index_dead_links_fires(self):
        src = "for link in index.dead_links:\n    pass\n"
        assert codes(src, KERNEL) == ["DET009"]

    def test_tracked_set_variable_fires(self):
        src = "live = set(links)\nfor x in live:\n    pass\n"
        assert codes(src, KERNEL) == ["DET009"]

    def test_sorted_iteration_is_fine(self):
        src = "for link in sorted(index.dead_links):\n    pass\n"
        assert codes(src, KERNEL) == []

    def test_non_kernel_path_is_exempt(self):
        src = "for x in {1, 2}:\n    pass\n"
        assert codes(src, "src/repro/experiments/demo.py") == []


class TestDet010WallClockFromImport:
    def test_from_import_fires_anywhere(self):
        src = "from time import perf_counter\n"
        assert codes(src, "src/repro/experiments/demo.py") == ["DET010"]

    def test_alias_reported_too(self):
        src = "from time import monotonic as clock\n"
        findings = lint_source(src, "src/repro/core/demo.py")
        assert [f.code for f in findings] == ["DET010"]
        assert "'clock'" in findings[0].message

    def test_module_import_is_fine(self):
        # DET003 sees attribute reads through the module; only the bare
        # binding evades it.
        assert codes("import time\n", "src/repro/core/demo.py") == []

    def test_allowlisted_boundary_file_is_exempt(self):
        src = "from time import perf_counter\n"
        assert codes(src, "src/repro/harness/pool.py") == []

    def test_pragma_suppresses(self):
        src = "from time import perf_counter  # det: allow\n"
        assert codes(src, "src/repro/core/demo.py") == []


def test_nested_member_loop_branch_is_not_a_finding():
    # No rule polices loops over batch members: a batch is sequential
    # Simulation.run() calls, so kernel code has no dispatch loop to guard.
    src = ("while live:\n"
           "    for m in live:\n"
           "        if m.backlog:\n"
           "            pass\n")
    assert codes(src, KERNEL) == []


class TestDet012DirectAllPairs:
    SRC = "d = topology.all_pairs_distances()\n"

    def test_direct_call_fires_anywhere(self):
        assert codes(self.SRC, "src/repro/drain/demo.py") == ["DET012"]
        assert codes(self.SRC, KERNEL) == ["DET012"]

    def test_message_points_at_the_memo_layer(self):
        [finding] = lint_source(self.SRC, "src/repro/faults/demo.py")
        assert "repro.structcache.distances" in finding.message

    def test_entry_points_are_allowlisted(self):
        # The topology method itself and the store's compile path are the
        # only sanctioned callers of the raw all-pairs BFS.
        assert codes(self.SRC, "src/repro/topology/graph.py") == []
        assert codes(self.SRC, "src/repro/structcache/memo.py") == []

    def test_pragma_suppresses(self):
        src = "d = topology.all_pairs_distances()  # det: allow\n"
        assert codes(src, "src/repro/drain/demo.py") == []


# ---------------------------------------------------------------------------
# Preflight pause gate
# ---------------------------------------------------------------------------
def pause_config(scheme=Scheme.DRAIN, pause=2, headroom=1):
    return SimConfig(
        scheme=scheme,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=2048),
        flow_control="pause_resume",
        pfc=PfcConfig(pause_threshold=pause, resume_threshold=0,
                      headroom=headroom),
    )


def ring_flow_objs(packets=20):
    return [Flow(s, d, 0.9, packets=packets) for s, d in RING_FLOWS]


class TestPreflightPause:
    def setup_method(self):
        clear_preflight_cache()

    def test_drain_pause_spec_certifies_and_memoizes(self):
        spec = lossless_trial(scenario_topology(), pause_config(),
                              ring_flow_objs(), cycles=1000)
        cert = validate_spec(spec)
        assert cert is not None and cert.certified
        assert cert.proof["method"] == "pause-exempt-drain-cover"
        assert validate_spec(spec) is cert

    def test_flow_set_enters_the_memo_key(self):
        topo = scenario_topology()
        a = validate_spec(lossless_trial(topo, pause_config(),
                                         ring_flow_objs(), cycles=1000))
        b = validate_spec(lossless_trial(
            topo, pause_config(),
            [Flow(0, 4, 0.5, packets=5)], cycles=1000,
        ))
        assert a is not b

    def test_reactive_scheme_is_not_gated(self):
        # The lossless experiment deliberately wedges scheme-none rows;
        # preflight must keep letting them through.
        spec = lossless_trial(scenario_topology(),
                              pause_config(scheme=Scheme.NONE),
                              ring_flow_objs(), cycles=1000)
        assert validate_spec(spec) is None

    def test_infeasible_pfc_rejected_with_detail(self):
        spec = lossless_trial(scenario_topology(), pause_config(),
                              ring_flow_objs(), cycles=1000)
        spec.params["config"]["pfc"]["headroom"] = 9
        with pytest.raises(PreflightError, match="infeasible"):
            validate_spec(spec)


# ---------------------------------------------------------------------------
# CLI: repro-drain check --flow-control pause_resume
# ---------------------------------------------------------------------------
RING_ARGS = [arg for s, d in RING_FLOWS for arg in ("--flow", f"{s}-{d}")]


class TestCheckCli:
    def test_refuted_ring_exits_1_with_payload(self, capsys):
        code = main([
            "check", "--topology", "leafspine:8x4u1ew", "--scheme", "none",
            "--flow-control", "pause_resume", "--pfc-threshold", "2",
            "--vcs", "4", "--json", *RING_ARGS,
        ])
        assert code == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "REFUTED"
        assert cert["counterexample"]["links"] == RING_LINKS

    def test_certified_drain_exits_0(self, capsys):
        code = main([
            "check", "--topology", "leafspine:8x4u1ew", "--scheme", "drain",
            "--flow-control", "pause_resume", "--pfc-threshold", "2",
            "--vcs", "4",
        ])
        assert code == 0
        assert "pause-exempt-drain-cover" in capsys.readouterr().out

    def test_certified_fat_tree_updown_exits_0(self, capsys):
        code = main([
            "check", "--topology", "fattree:4", "--scheme", "updown",
            "--flow-control", "pause_resume",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "pause-augmented-topological-link-order" in out

    def test_infeasible_pfc_exits_2_one_line(self, capsys):
        code = main([
            "check", "--topology", "leafspine:8x4u1ew", "--scheme", "drain",
            "--flow-control", "pause_resume", "--pfc-headroom", "9",
            "--vcs", "4",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "exceeds the buffer depth" in err
        assert len(err.strip().splitlines()) == 1

    def test_omit_link_disallowed_under_pause(self, capsys):
        code = main([
            "check", "--topology", "leafspine:8x4u1ew", "--scheme", "drain",
            "--flow-control", "pause_resume", "--omit-link", "0-1",
        ])
        assert code == 2
        assert "--omit-link" in capsys.readouterr().err

    def test_bad_flow_spec_exits_2(self, capsys):
        code = main([
            "check", "--topology", "leafspine:8x4u1ew", "--scheme", "none",
            "--flow-control", "pause_resume", "--flow", "nonsense",
        ])
        assert code == 2
        assert "--flow" in capsys.readouterr().err
