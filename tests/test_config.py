"""Config validation, coercion, presets, and file parsing."""

import dataclasses

import numpy as np
import pytest

from d2moe.config import (
    PRESETS,
    CompressionConfig,
    apply_overrides,
    apply_preset,
    parse_config_file,
)
from d2moe.errors import ConfigError


class TestValidation:
    def test_defaults_valid(self):
        cfg = CompressionConfig()
        assert cfg.validate() is cfg
        assert cfg.merge_method == "fisher"
        assert cfg.delta_ratio == 0.5

    @pytest.mark.parametrize("overrides", [
        {"merge_method": "average"},
        {"fisher_mode": "exact"},
        {"seed": -1},
        {"calib_samples": 0},
        {"batch_size": 0},
        {"rank_mode": "auto"},
        {"delta_ratio": 0.0},
        {"delta_ratio": 1.5},
        {"rank_mode": "fixed", "delta_rank": 0},
        {"rank_mode": "fixed", "per_layer_ratios": (0.5,)},
        {"per_layer_ratios": (0.5, 2.0)},
        {"sparsity": 1.0},
        {"sparsity": -0.1},
        {"trim": -1},
        {"damping": 0.0},
        {"epsilon": -1e-9},
        {"damping": float("nan")},
        {"damping": float("inf")},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
        {"delta_ratio": float("nan")},
        {"rank_mode": "fixed", "delta_rank": 4, "delta_ratio": float("nan")},
        {"rank_mode": "fixed", "delta_rank": 4, "delta_ratio": float("inf")},
        {"rank_mode": "lossless", "delta_ratio": float("nan")},
    ])
    def test_each_field_checked(self, overrides):
        import dataclasses
        cfg = dataclasses.replace(CompressionConfig(), **overrides)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("overrides", [
        {"batch_size": 1.5},
        {"calib_samples": 2.5},
        {"trim": 1.5},
        {"rank_mode": "fixed", "delta_rank": 2.5},
        {"delta_rank": 2.0},
        {"batch_size": True},
        {"seed": True},
        {"trim": True},
        {"calib_samples": np.int64(64)},
        {"sparsity": "0.4"},
    ], ids=repr)
    def test_integer_fields_take_python_ints_and_sparsity_a_number(self, overrides):
        cfg = dataclasses.replace(CompressionConfig(), **overrides)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("ratios", [
        ("0.5",), 0.5, "0.5", (True,), (0.5, None), (float("nan"),), (float("inf"),),
        np.array([0.5]), {0.5},
    ], ids=repr)
    def test_per_layer_ratios_are_a_sequence_of_numbers(self, ratios):
        with pytest.raises(ConfigError, match="per.layer.ratio"):
            CompressionConfig(per_layer_ratios=ratios).validate()

    def test_per_layer_ratios_take_ints_and_floats(self):
        for ratios in ((0.5, 1), [0.25, 1.0], (np.float64(0.5),)):
            CompressionConfig(per_layer_ratios=ratios).validate()

    def test_fixed_mode_ignores_ratio_bounds(self):
        cfg = CompressionConfig(rank_mode="fixed", delta_rank=3, delta_ratio=0.0)
        cfg.validate()


class TestRankPolicy:
    """`rank_for` and `delta_ratio_for`: the rank and the booked ratio."""

    def test_mode_dispatch(self):
        assert CompressionConfig(delta_ratio=0.25).delta_ratio_for(0, 100, 100) == 0.25
        assert CompressionConfig(delta_ratio=0.25).rank_for(0, 100, 100) == 12
        fixed = CompressionConfig(rank_mode="fixed", delta_rank=4)
        assert fixed.rank_for(0, 100, 100) == 4
        assert fixed.delta_ratio_for(0, 100, 100) == 4 * 200 / 10000
        assert fixed.delta_ratio_for(0, 4, 4) == 2.0  # rank 4 books 4*(4+4)/(4*4), as stored
        lossless = CompressionConfig(rank_mode="lossless")
        assert lossless.rank_for(0, 10, 20) == 10
        assert lossless.delta_ratio_for(0, 10, 20) == 1.5  # rank 10 books 10*(10+20)/(10*20)

    def test_per_layer_override(self):
        cfg = CompressionConfig(per_layer_ratios=(0.3, 0.7))
        assert cfg.delta_ratio_for(0, 100, 100) == 0.3
        assert cfg.delta_ratio_for(1, 100, 100) == 0.7
        assert cfg.rank_for(1, 100, 100) == 35
        with pytest.raises(ConfigError):
            cfg.delta_ratio_for(2, 100, 100)
        with pytest.raises(ConfigError):
            cfg.rank_for(2, 100, 100)


class TestOverrides:
    def test_string_coercion(self):
        cfg = apply_overrides(CompressionConfig(), {
            "seed": "42", "delta_ratio": "0.25", "merge_method": "mean",
            "per_layer_ratios": "0.3,0.7"})
        assert cfg.seed == 42
        assert cfg.delta_ratio == 0.25
        assert cfg.merge_method == "mean"
        assert cfg.per_layer_ratios == (0.3, 0.7)

    def test_none_clears_per_layer_ratios(self):
        cfg = CompressionConfig(per_layer_ratios=(0.5,))
        assert apply_overrides(cfg, {"per_layer_ratios": "none"}).per_layer_ratios is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(CompressionConfig(), {"sparseness": 0.5})

    def test_unparseable_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(CompressionConfig(), {"seed": "many"})

    def test_non_string_values_pass_through(self):
        cfg = apply_overrides(CompressionConfig(), {"sparsity": 0.4})
        assert cfg.sparsity == 0.4


class TestPresets:
    def test_known_presets(self):
        assert PRESETS["performance"] == {"sparsity": 0.1}
        assert PRESETS["throughput"] == {"sparsity": 0.6}
        assert apply_preset(CompressionConfig(), "performance").sparsity == 0.1
        assert apply_preset(CompressionConfig(), "throughput").sparsity == 0.6

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            apply_preset(CompressionConfig(), "turbo")


class TestConfigFile:
    def test_parse_with_comments_and_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# compression settings\n"
            "preset=throughput\n"
            "\n"
            "merge_method = mean   # no fisher pass\n"
            "delta_ratio=0.4\n"
            "trim=2\n")
        cfg = parse_config_file(path)
        assert cfg.sparsity == 0.6
        assert cfg.merge_method == "mean"
        assert cfg.delta_ratio == 0.4
        assert cfg.trim == 2

    def test_later_keys_override_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset=throughput\nsparsity=0.2\n")
        assert parse_config_file(path).sparsity == 0.2

    def test_missing_equals_sign(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("sparsity 0.4\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")


class TestToDict:
    def test_round_trips_through_overrides(self):
        cfg = CompressionConfig(merge_method="frequency", sparsity=0.3,
                                per_layer_ratios=(0.2, 0.9))
        d = cfg.to_dict()
        assert d["per_layer_ratios"] == [0.2, 0.9]
        rebuilt = apply_overrides(CompressionConfig(),
                                  {k: tuple(v) if isinstance(v, list) else v
                                   for k, v in d.items()})
        assert rebuilt == cfg
