"""Tests for SimConfig JSON (de)serialisation."""

import dataclasses

import pytest

from repro.core.config import (
    DrainConfig,
    NetworkConfig,
    Scheme,
    SimConfig,
)
from repro.core.configio import (
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)


def sample_config():
    return SimConfig(
        scheme=Scheme.SPIN,
        network=NetworkConfig(num_vns=1, vcs_per_vn=4),
        drain=DrainConfig(epoch=123, escape_sticky=True),
        seed=77,
    )


class TestRoundtrip:
    def test_dict_roundtrip(self):
        config = sample_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_file_roundtrip(self, tmp_path):
        config = sample_config()
        path = tmp_path / "config.json"
        save_config(config, path)
        assert load_config(path) == config

    def test_default_roundtrip(self):
        assert config_from_dict(config_to_dict(SimConfig())) == SimConfig()


class TestValidation:
    @pytest.mark.parametrize("key, value", [
        ("deadlock_check_interval", 0),
        ("deadlock_grace", -1),
    ])
    def test_bad_check_settings_rejected(self, key, value):
        data = config_to_dict(SimConfig())
        data[key] = value
        with pytest.raises(ValueError, match="deadlock_check_interval"):
            config_from_dict(data)

    def test_unknown_section_key_rejected(self):
        data = config_to_dict(SimConfig())
        data["drain"]["magic"] = 3
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_unknown_top_level_key_rejected(self):
        data = config_to_dict(SimConfig())
        data["extra"] = {}
        with pytest.raises(ValueError):
            config_from_dict(data)

    def test_retired_batch_key_rejected(self):
        assert "batch" not in {f.name for f in dataclasses.fields(SimConfig)}
        with pytest.raises(ValueError, match="unknown top-level keys"):
            config_from_dict({"scheme": "drain", "batch": "auto"})

    def test_partial_sections_use_defaults(self):
        config = config_from_dict({"scheme": "drain"})
        assert config.scheme is Scheme.DRAIN
        assert config.network == NetworkConfig()

    def test_invalid_values_still_validated(self):
        with pytest.raises(ValueError):
            config_from_dict({"scheme": "drain", "drain": {"epoch": 0}})

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"scheme": "quantum"})
