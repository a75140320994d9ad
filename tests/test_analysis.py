"""Static analysis subsystem: certifier, determinism lint, preflight gate."""

import json

import pytest

from repro.analysis import (
    CERTIFIED,
    REFUTED,
    Certificate,
    PreflightError,
    certify_configuration,
    certify_drain_cover,
    certify_routing,
    find_turn_cycle,
    lint_source,
    topological_link_order,
    validate_spec,
)
from repro.analysis.preflight import clear_preflight_cache
from repro.cli import main
from repro.core.config import Scheme, SimConfig
from repro.core.configio import config_to_dict
from repro.drain.path import DrainPathError, find_drain_path
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.harness import Harness
from repro.harness.trials import TrialSpec, synthetic_trial, topology_to_spec
from repro.topology.dependency import build_dependency_graph
from repro.topology.graph import Link, Topology
from repro.topology.mesh import make_mesh, make_torus


# ----------------------------------------------------------------------
# Graph primitives
# ----------------------------------------------------------------------
def test_topological_order_on_dag():
    adjacency = [[1, 2], [3], [3], []]
    order = topological_link_order(adjacency)
    assert sorted(order) == [0, 1, 2, 3]
    position = {node: i for i, node in enumerate(order)}
    for node, succs in enumerate(adjacency):
        for m in succs:
            assert position[node] < position[m]


def test_topological_order_detects_cycle():
    assert topological_link_order([[1], [2], [0]]) is None
    assert find_turn_cycle([[1], [2], [0]]) == [0, 1, 2]


def test_find_turn_cycle_minimal_and_rotated():
    # Two cycles: a 4-cycle 0-1-2-3 and a 2-cycle 4-5. Minimal wins, and
    # the result starts at its smallest member.
    adjacency = [[1], [2], [3], [0], [5], [4]]
    assert find_turn_cycle(adjacency) == [4, 5]
    assert find_turn_cycle([[1], [2], [3], [0]]) == [0, 1, 2, 3]
    assert find_turn_cycle([[], []]) is None


def test_certificate_invariants():
    with pytest.raises(ValueError):
        Certificate("MAYBE", {})
    with pytest.raises(ValueError):
        Certificate(CERTIFIED, {}, counterexample={"kind": "turn-cycle"})
    with pytest.raises(ValueError):
        Certificate(REFUTED, {}, proof={"method": "x"})


# ----------------------------------------------------------------------
# Known-answer certification cases
# ----------------------------------------------------------------------
def test_dor_on_mesh_certifies():
    cert = certify_routing(make_mesh(8, 8), "dor")
    assert cert.certified
    proof = cert.proof
    assert proof["method"] == "topological-link-order"
    assert proof["links"] == len(proof["link_order"]) == 2 * make_mesh(8, 8).num_edges


def test_adaptive_on_torus_refuted_with_minimal_turn_cycle():
    cert = certify_routing(make_torus(4, 4), "adaptive")
    assert not cert.certified
    counter = cert.counterexample
    assert counter["kind"] == "turn-cycle"
    # The minimal cycle on a 4-ary torus ring is the 4-link wraparound.
    assert counter["length"] == 4
    assert len(counter["links"]) == 4
    # The witness is a real closed walk of links.
    hops = [tuple(map(int, s.split("->"))) for s in counter["links"]]
    for (_src, dst), (nxt_src, _dst) in zip(hops, hops[1:] + hops[:1]):
        assert dst == nxt_src


def test_updown_certifies_any_connected_topology():
    for topo in (make_torus(4, 4), make_mesh(3, 5)):
        cert = certify_routing(topo, "updown")
        assert cert.certified, cert.summary()


def test_dor_mesh_certificate_json_deterministic():
    a = certify_routing(make_mesh(4, 4), "dor").to_json()
    b = certify_routing(make_mesh(4, 4), "dor").to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["verdict"] == CERTIFIED


def test_drain_cover_certifies_and_refutes():
    topo = make_mesh(4, 4)
    path = find_drain_path(topo)
    cert = certify_drain_cover(topo, [path])
    assert cert.certified
    assert cert.proof["covered_links"] == 2 * topo.num_edges

    # Drop the cover's last link: broken cycle.
    broken = certify_drain_cover(topo, [path.links[:-1]])
    assert not broken.certified
    assert broken.counterexample["kind"] == "broken-cycle"

    # Cover built on a weakened topology misses the removed link.
    weakened = topo.copy()
    weakened.remove_edge(0, 1)
    partial = certify_drain_cover(topo, [find_drain_path(weakened)])
    assert not partial.certified
    counter = partial.counterexample
    assert counter["kind"] == "uncovered-links"
    assert counter["missing"] == [[0, 1], [1, 0]]
    assert counter["extra"] == []


def test_post_fault_split_components_certify_per_component():
    # Cut the 4x4 mesh into two 2x4 halves; both claims must still certify,
    # now per connected component.
    events = tuple(
        FaultEvent(cycle=10, kind="link", target=(y * 4 + 1, y * 4 + 2))
        for y in range(4)
    )
    schedule = FaultSchedule(events)
    mesh = make_mesh(4, 4)

    drain = certify_configuration(mesh, SimConfig(scheme=Scheme.DRAIN),
                                  schedule=schedule)
    assert drain.certified
    assert drain.proof["cycles"] == 2
    assert drain.proof["covered_links"] == 2 * (mesh.num_edges - 4)

    updown = certify_configuration(mesh, SimConfig(scheme=Scheme.UPDOWN),
                                   schedule=schedule)
    assert updown.certified
    assert updown.proof["method"] == "per-component-topological-link-order"
    assert updown.proof["components"] == 2


def test_scheme_claims():
    mesh = make_mesh(4, 4)
    assert certify_configuration(mesh, SimConfig(scheme=Scheme.DRAIN)).certified
    assert certify_configuration(mesh, SimConfig(scheme=Scheme.UPDOWN)).certified
    assert certify_configuration(
        mesh, SimConfig(scheme=Scheme.ESCAPE_VC)).certified
    # Reactive schemes make no static claim; fully adaptive routing is
    # correctly refuted.
    cert = certify_configuration(make_torus(4, 4),
                                 SimConfig(scheme=Scheme.NONE))
    assert not cert.certified
    assert cert.counterexample["kind"] == "turn-cycle"


def test_dependency_graph_feeds_acyclicity_checkers():
    # No-U-turn mesh dependency graph is still cyclic (4-turn rings)…
    topo = make_mesh(3, 3)
    graph = build_dependency_graph(topo, allow_u_turns=False)
    full = graph.adjacency_indices()
    assert topological_link_order(full) is None
    assert len(find_turn_cycle(full)) == 4
    # …but keeping only the turns to higher link ids is acyclic.
    ascending = [[m for m in succ if m > link]
                 for link, succ in enumerate(full)]
    assert topological_link_order(ascending) is not None


# ----------------------------------------------------------------------
# DrainPathError payload
# ----------------------------------------------------------------------
def test_drain_path_error_payload_sorted_tuples():
    err = DrainPathError(
        "boom",
        missing=[Link(3, 2), Link(0, 1)],
        extra=[Link(2, 3)],
    )
    assert isinstance(err.missing, tuple)
    assert err.missing == (Link(0, 1), Link(3, 2))
    payload = err.as_dict()
    assert payload == {
        "message": "boom",
        "missing": [[0, 1], [3, 2]],
        "extra": [[2, 3]],
    }
    # Byte-stable serialization.
    assert json.dumps(payload, sort_keys=True) == json.dumps(
        DrainPathError("boom", missing=[Link(0, 1), Link(3, 2)],
                       extra=[Link(2, 3)]).as_dict(),
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Determinism lint
# ----------------------------------------------------------------------
def test_lint_rules_fire():
    source = (
        "import random, time\n"
        "def f(x=[]):\n"
        "    h = hash('abc')\n"
        "    random.shuffle(x)\n"
        "    t = time.time()\n"
        "    d = obj.as_dict()\n"
        "    d.pop('k')\n"
        "    del d['j']\n"
        "    return TrialSpec('r', {'s': {1, 2}})\n"
    )
    findings = lint_source(source, "demo.py")
    positions = [(f.line, f.col) for f in findings]
    assert positions == sorted(positions)  # deterministic positional order
    assert {f.code for f in findings} == {
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET006"
    }


def test_lint_pragma_and_allowlist():
    clock = "import time\nt = time.time()  # det: allow\n"
    assert lint_source(clock, "x.py") == []
    clock = "import time\nt = time.time()\n"
    assert [f.code for f in lint_source(clock, "x.py")] == ["DET003"]
    # Harness bookkeeping files may read the clock.
    assert lint_source(clock, "src/repro/harness/pool.py") == []


def test_lint_allows_seeded_random_instances():
    source = "import random\nrng = random.Random(42)\nrng.shuffle([1, 2])\n"
    assert lint_source(source, "x.py") == []


def test_lint_src_tree_clean():
    from repro.analysis import lint_paths

    assert lint_paths(["src"]) == []


# ----------------------------------------------------------------------
# Preflight gate
# ----------------------------------------------------------------------
def _good_spec():
    config = SimConfig(scheme=Scheme.DRAIN, seed=1)
    return synthetic_trial(make_mesh(4, 4), config, rate=0.05, cycles=50,
                           warmup=10)


def test_preflight_accepts_and_memoizes():
    clear_preflight_cache()
    spec = _good_spec()
    cert = validate_spec(spec)
    assert cert is not None and cert.certified
    assert validate_spec(spec) is cert  # memoized per (topology, scheme)


def test_preflight_rejects_unknown_runner():
    with pytest.raises(PreflightError, match="unknown trial runner"):
        validate_spec(TrialSpec("nope", {}))


def test_preflight_rejects_unjsonable_params():
    with pytest.raises(PreflightError, match="JSON"):
        validate_spec(TrialSpec("synthetic", {"x": {1, 2}}))


def test_preflight_rejects_disconnected_topology():
    config = SimConfig(scheme=Scheme.DRAIN, seed=1)
    split = Topology(4, [(0, 1), (2, 3)], name="split")
    spec = TrialSpec("synthetic", {
        "topology": topology_to_spec(split),
        "config": config_to_dict(config),
    })
    with pytest.raises(PreflightError, match="not connected"):
        validate_spec(spec)


def test_preflight_checks_each_topology_once(monkeypatch):
    clear_preflight_cache()
    checks = []
    real = Topology.is_connected
    monkeypatch.setattr(Topology, "is_connected",
                        lambda self: checks.append(1) or real(self))
    split = topology_to_spec(Topology(4, [(0, 1), (2, 3)], name="split"))
    specs = [
        TrialSpec("synthetic", {
            "topology": split,
            "config": config_to_dict(SimConfig(scheme=Scheme.DRAIN, seed=seed)),
        })
        for seed in (1, 2)
    ]
    for spec in specs:
        # The memoized verdict still refuses every spec on the topology,
        # with the same text and that spec's own digest.
        with pytest.raises(PreflightError) as info:
            validate_spec(spec)
        assert str(info.value) == (
            "topology 'split' is not connected; every trial assumes "
            "all-pairs reachability at boot"
        )
        assert info.value.digest == spec.digest()
    assert len(checks) == 1
    for seed in (1, 2, 3):
        validate_spec(synthetic_trial(
            make_mesh(4, 4), SimConfig(scheme=Scheme.SPIN, seed=seed),
            rate=0.05, cycles=50, warmup=10))
    assert len(checks) == 2
    clear_preflight_cache()
    with pytest.raises(PreflightError):
        validate_spec(specs[0])
    assert len(checks) == 3


def test_harness_runs_gate_before_submission():
    harness = Harness(workers=1)
    with pytest.raises(PreflightError):
        harness.run([TrialSpec("nope", {})])
    assert harness.records == []  # nothing executed, nothing recorded
    # Opt-out reaches execution (and fails there instead).
    ungated = Harness(workers=1, preflight=False)
    with pytest.raises(ValueError, match="unknown trial runner"):
        ungated.run([TrialSpec("nope", {})])


def test_harness_preflight_passes_valid_sweep():
    harness = Harness(workers=1)
    (result,) = harness.run([_good_spec()])
    assert result["throughput"] >= 0.0


# ----------------------------------------------------------------------
# CLI: check / lint exit codes
# ----------------------------------------------------------------------
def test_cli_check_certifies_mesh_drain(capsys):
    assert main(["check", "--topology", "mesh:8x8", "--scheme", "drain"]) == 0
    out = capsys.readouterr().out
    assert "CERTIFIED" in out and "drain-coverage" in out


def test_cli_check_refutes_broken_configuration(capsys):
    code = main(["check", "--topology", "torus:4x4", "--scheme", "none",
                 "--json"])
    assert code == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == REFUTED
    assert cert["counterexample"]["kind"] == "turn-cycle"
    assert len(cert["counterexample"]["links"]) == cert["counterexample"]["length"]


def test_cli_check_omit_link_counterexample(capsys):
    code = main(["check", "--topology", "mesh:4x4", "--omit-link", "0-1",
                 "--json"])
    assert code == 1
    cert = json.loads(capsys.readouterr().out)
    assert cert["counterexample"]["kind"] == "uncovered-links"
    assert cert["counterexample"]["missing"] == [[0, 1], [1, 0]]


def test_cli_check_post_fault(capsys):
    assert main(["check", "--topology", "mesh:4x4", "--num-faults", "2",
                 "--scheme", "drain"]) == 0
    assert "post-fault" in capsys.readouterr().out


def test_cli_check_bad_topology_exit_2(capsys):
    assert main(["check", "--topology", "blob:9"]) == 2


def test_cli_lint_exit_codes(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n")
    assert main(["lint", str(clean)]) == 0
    dirty = tmp_path / "dirty.py"
    dirty.write_text("h = hash('x')\n")
    assert main(["lint", str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out


def test_escape_vc_certification_builds_its_routing_once(monkeypatch):
    # The escape routing is chosen by building it (DOR if it builds, else
    # up*/down*); the certificate reuses that build and its index.
    from repro.network.index import FabricIndex
    from repro.routing.dor import DimensionOrderRouting

    built = []
    for cls in (FabricIndex, DimensionOrderRouting):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cert = certify_configuration(make_mesh(8, 8),
                                 SimConfig(scheme=Scheme.ESCAPE_VC))
    assert cert.certified and cert.subject["routing"] == "dor"
    assert sorted(built) == ["DimensionOrderRouting", "FabricIndex"]
