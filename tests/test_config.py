"""Unit tests for configuration dataclasses and the RNG discipline."""

import pytest

from repro.core import rng as rng_mod
from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    ProtocolConfig,
    Scheme,
    SimConfig,
    SpinConfig,
    drain_default,
)


class TestNetworkConfig:
    def test_defaults_match_table2(self):
        net = NetworkConfig()
        assert net.num_vns == 3
        assert net.vcs_per_vn == 2
        assert net.link_bandwidth_bits == 128
        assert net.router_latency == 1

    def test_total_vcs(self):
        assert NetworkConfig(num_vns=3, vcs_per_vn=2).total_vcs == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(num_vns=0)
        with pytest.raises(ValueError):
            NetworkConfig(vcs_per_vn=0)
        with pytest.raises(ValueError):
            NetworkConfig(ejection_queue_depth=0)


class TestDrainConfig:
    def test_default_epoch_is_64k(self):
        assert DrainConfig().epoch == 64 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            DrainConfig(epoch=0)
        with pytest.raises(ValueError):
            DrainConfig(drain_window=0)
        with pytest.raises(ValueError):
            DrainConfig(full_drain_period=0)
        with pytest.raises(ValueError):
            DrainConfig(hops_per_drain=0)

    def test_pre_drain_window_may_be_zero(self):
        assert DrainConfig(pre_drain_window=0).pre_drain_window == 0


class TestSpinConfig:
    def test_default_timeout_is_1024(self):
        assert SpinConfig().timeout == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            SpinConfig(timeout=0)


class TestProtocolConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(mshrs_per_node=0)
        with pytest.raises(ValueError):
            ProtocolConfig(forward_probability=1.2)


class TestSimConfig:
    def test_with_scheme_copies(self):
        cfg = SimConfig()
        other = cfg.with_scheme(Scheme.SPIN)
        assert other.scheme is Scheme.SPIN
        assert cfg.scheme is Scheme.DRAIN

    def test_with_seed_copies(self):
        assert SimConfig().with_seed(9).seed == 9

    def test_drain_default_shape(self):
        cfg = drain_default()
        assert cfg.scheme is Scheme.DRAIN
        assert cfg.network.num_vns == 1
        assert cfg.network.vcs_per_vn == 2
        assert drain_default(epoch=128).drain.epoch == 128

    @pytest.mark.parametrize("kwargs", [
        {"deadlock_check_interval": 0},
        {"deadlock_check_interval": -4},
        {"deadlock_grace": -1},
    ])
    def test_bad_check_settings_rejected(self, kwargs):
        with pytest.raises(ValueError, match="deadlock_check_interval"):
            SimConfig(**kwargs)

    def test_edge_check_settings_accepted(self):
        cfg = SimConfig(deadlock_check_interval=1, deadlock_grace=0)
        assert (cfg.deadlock_check_interval, cfg.deadlock_grace) == (1, 0)


class TestRng:
    def test_derive_seed_deterministic(self):
        assert rng_mod.derive_seed(1, "a", 2) == rng_mod.derive_seed(1, "a", 2)

    def test_labels_change_stream(self):
        assert rng_mod.derive_seed(1, "a") != rng_mod.derive_seed(1, "b")

    def test_spawn_streams_independent(self):
        a = rng_mod.spawn(7, "x")
        b = rng_mod.spawn(7, "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_spawn_reproducible(self):
        a = rng_mod.spawn(7, "x")
        b = rng_mod.spawn(7, "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]
