"""Tests for the one content-addressed store and the one digest.

Covers the pinned key of each entry kind, killed writers' leftovers,
numpy-free loading, two processes sharing one root, and the one cache
policy as the CLI applies it (``repro-drain cache``, ``REPRO_NO_CACHE``).
The pinned hex values were computed before trial results, compiled
structures and certificates moved onto one store primitive: a key that
moves here orphans every entry written under the old one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.store
from repro import structcache
from repro.analysis.certificate import certificate_key
from repro.analysis.preflight import clear_preflight_cache, validate_spec
from repro.core.config import Scheme, SimConfig
from repro.cli import main
from repro.experiments.common import Scale, synthetic_trial_for
from repro.harness import TrialSpec
from repro.store import Store, digest
from repro.topology.mesh import make_mesh

TINY = Scale(warmup=100, measure=300, fault_patterns=1,
             sweep_rates=(0.04,), epoch=256, spin_timeout=64)


def tiny_spec():
    return synthetic_trial_for(
        make_mesh(4, 4), Scheme.DRAIN, 0.05, TINY, mesh_width=4, seed=1
    )


class TestPinnedDigests:
    def test_trial_spec_digest(self):
        assert (TrialSpec("synthetic", {"x": 1, "y": [2, 3]}).digest()
                == "b038854bbee09d333fc6a9cd44f6f04c")
        assert tiny_spec().digest() == "ac211e9e3a163374a58c8f365fe2e14c"

    def test_topology_digest(self):
        # The payload carries STRUCT_FORMAT_VERSION (3 since the routing
        # entry became an int32 offsets/links pair), so a format bump
        # moves this pin and the certificate key below by design.
        assert (structcache.topology_digest(make_mesh(4, 4))
                == "41de0b3502b4e4eb2c33d10d7491974f")

    def test_certificate_digest(self, tmp_path):
        # The key preflight builds for the spec, through to the file name
        # the persisted certificate lands under.
        key = "69cfacfe4b5f1e4d76257c9739468e75"
        store = structcache.activate(tmp_path)
        try:
            clear_preflight_cache()
            validate_spec(tiny_spec())
        finally:
            structcache.deactivate()
            clear_preflight_cache()
        assert [p.name for p in store.root.glob("certs/*/*.json")] == [
            f"{key}.json"]
        assert certificate_key(structcache.topology_payload(
            make_mesh(4, 4)), SimConfig(scheme=Scheme.DRAIN), None) == key


# ----------------------------------------------------------------------
# The primitive
# ----------------------------------------------------------------------
class TestStore:
    def test_clear_and_size_cover_killed_writers_leftovers(self, tmp_path):
        store = Store(tmp_path)
        store.put_json("results", "ab" * 16, {"result": 1})
        store.put_arrays("dist", "cd" * 16,
                         {"dist": np.zeros((2, 2), dtype=np.int32)})
        kinds = ("results", "dist")
        committed = store.size_bytes(kinds)
        # What a SIGKILL between create and rename leaves: a .tmp-* beside
        # the entries, from the JSON path and from the array path.
        torn = tmp_path / "results" / "ab" / ".tmp-killed"
        torn.mkdir()
        (torn / "entry.json").write_text('{"result"')
        arrays = tmp_path / "dist" / "cd" / ".tmp-killed"
        arrays.mkdir()
        (arrays / "dist.npy").write_bytes(bytes(4096))
        assert store.counts(kinds) == {"results": 1, "dist": 1}
        assert store.size_bytes(kinds) == committed + 9 + 4096
        assert store.clear(kinds) == 2
        assert list(tmp_path.rglob("*")) == []
        assert store.size_bytes(kinds) == 0

    def test_module_loads_without_numpy(self, tmp_path):
        code = (
            "import importlib.util, sys\n"
            "spec = importlib.util.spec_from_file_location('store', sys.argv[1])\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "store = module.Store(sys.argv[2])\n"
            "store.put_json('results', 'ab' * 16, {'result': 1})\n"
            "assert store.get_json('results', 'ab' * 16, bool) == {'result': 1}\n"
            "assert 'numpy' not in sys.modules, sorted(sys.modules)\n"
        )
        subprocess.run(
            [sys.executable, "-c", code, repro.store.__file__, str(tmp_path)],
            check=True, timeout=60,
        )

    def test_two_processes_share_one_root(self, tmp_path):
        # Both write and read the same keys at once; every entry must end
        # up whole: a hit with the content either would write, and no
        # read on either side ever saw a torn entry.
        go = tmp_path / "go"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _RACER, str(tmp_path / "root"),
                 str(go), str(KEYS)],
                env=env, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        go.touch()
        for proc in procs:
            out, _ = proc.communicate(timeout=120)
            assert proc.returncode == 0
            assert json.loads(out)["corrupt"] == 0
        store = Store(tmp_path / "root")
        for i in range(KEYS):
            key = digest(i)
            assert store.get_json("results", key, bool) == {"result": i}
            [array] = store.get_arrays("dist", key, {"a": (i + 1,)}).values()
            assert array.tolist() == list(range(i + 1))
        assert (store.hits, store.misses, store.corrupt) == (2 * KEYS, 0, 0)
        assert not list((tmp_path / "root").rglob(".tmp-*"))


KEYS = 200
SRC = Path(repro.store.__file__).resolve().parent.parent

#: One racer: wait for the start file, then get-or-put every key twice.
_RACER = """
import json, os, sys, time
import numpy as np
from repro.store import Store, digest
root, go, keys = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = Store(root)
while not os.path.exists(go):
    time.sleep(0.001)
for _ in range(2):
    for i in range(keys):
        key = digest(i)
        if store.get_json("results", key, bool) is None:
            store.put_json("results", key, {"result": i})
        if store.get_arrays("dist", key, {"a": (i + 1,)}) is None:
            store.put_arrays("dist", key, {"a": np.arange(i + 1, dtype=np.int32)})
print(json.dumps(store.stats()))
"""


# ----------------------------------------------------------------------
# The one cache policy, through the CLI
# ----------------------------------------------------------------------
@pytest.fixture()
def cli_env(tmp_path, monkeypatch):
    """The CLI's default policy over a temp cache dir, store-off after."""
    for name in ("REPRO_STRUCT_CACHE", "REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
        monkeypatch.delenv(name, raising=False)
    yield tmp_path / "cache"
    structcache.deactivate()
    structcache.clear_memos()


def sweep(root, out_dir):
    assert main(["sweep", "--topology", "mesh:3x3", "--schemes", "drain",
                 "--rates", "0.05", "--cache-dir", str(root),
                 "--out-dir", str(out_dir)]) == 0


def cache(capsys, *args):
    assert main(["cache", *args]) == 0
    return capsys.readouterr().out.splitlines()


class TestCacheCommand:
    def test_info_and_clear_over_a_populated_root(self, cli_env, tmp_path,
                                                  capsys):
        sweep(cli_env, tmp_path / "out")
        capsys.readouterr()
        root = ["--cache-dir", str(cli_env)]
        results, structs = cache(capsys, *root)
        assert results.startswith("results: 1 entries (results=1) at ")
        assert structs.startswith(
            "structs: 4 entries (certs=1, dist=1, drain=1, routing=1) at ")
        assert cache(capsys, "clear", "--structs-only", *root) == [
            f"structs: removed 4 entries from {cli_env}"]
        [results] = cache(capsys, "--results-only", *root)
        assert results.startswith("results: 1 entries")
        [structs] = cache(capsys, "--structs-only", *root)
        assert structs.startswith("structs: 0 entries")
        assert cache(capsys, "clear", "--results-only", *root) == [
            f"results: removed 1 entries from {cli_env}"]
        assert [line.split(" (")[0] for line in cache(capsys, *root)] == [
            "results: 0 entries", "structs: 0 entries"]
        with pytest.raises(SystemExit) as exit_info:
            main(["cache", "--structs-only", "--results-only"])
        assert exit_info.value.code == 2

    def test_no_cache_env_turns_the_result_cache_off(self, cli_env, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        sweep(cli_env, tmp_path / "out")
        assert not (cli_env / "results").exists()
        [manifest] = (tmp_path / "out").glob("*.manifest.json")
        data = json.loads(manifest.read_text())
        assert data["cache_dir"] is None and data["cache_misses"] == 1
        assert data["struct_cache"]["root"] == str(cli_env)
        capsys.readouterr()
        assert cache(capsys, "--results-only", "--cache-dir",
                     str(cli_env)) == ["results: off"]
