import dataclasses
import json

import pytest

from dstlab import data
from dstlab.config import (
    BENCHMARK_DATA_SEED,
    BENCHMARK_MASTER_SEED,
    LR_DECAY_FACTOR,
    LR_DECAY_PERIOD,
    ExperimentConfig,
    benchmark_config,
    config_from_dict,
    config_to_dict,
    load_config,
)
from dstlab.errors import ConfigError

FIELDS = dataclasses.fields(ExperimentConfig)
FLOAT_FIELDS = {f.name for f in FIELDS if f.type == "float"}
CHOICE_FIELDS = [f for f in FIELDS if "options" in f.metadata]


class TestDefaults:
    def test_benchmark_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_classes == 4
        assert cfg.noise_kind == "sym-c1"
        assert cfg.noise_rate == 0.5
        assert cfg.total_epochs == 120
        assert cfg.warmup_epochs == 15
        assert cfg.batch_size == 128
        assert cfg.learning_rate == 0.02
        assert (LR_DECAY_FACTOR, LR_DECAY_PERIOD) == (0.2, 80)
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 5e-4
        assert (cfg.tau_r, cfg.tau_prd) == (0.5, 0.5)
        assert cfg.temperature == 0.5
        assert cfg.alpha == 4.0
        assert cfg.lambda_reg == 1.0
        assert not (cfg.ce_only or cfg.no_mixup or cfg.single_network)
        assert cfg.disable_branch is None
        assert data.SPREAD == 0.5

    def test_layer_sizes_wrap_hidden_widths(self):
        cfg = ExperimentConfig(n_features=3, hidden_sizes=[16, 8], n_classes=5)
        assert cfg.layer_sizes() == [3, 16, 8, 5]


class TestBenchmarkConfig:
    @pytest.mark.parametrize(
        "field, value", [("master_seed", 9), ("data_seed", 12), ("scatter_every", 5)]
    )
    def test_fixed_values_can_be_overridden(self, field, value):
        cfg = benchmark_config(**{field: value})
        assert getattr(cfg, field) == value
        fixed = {
            "master_seed": BENCHMARK_MASTER_SEED,
            "data_seed": BENCHMARK_DATA_SEED,
            "scatter_every": 0,
        }
        del fixed[field]
        assert all(getattr(cfg, name) == kept for name, kept in fixed.items())



class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"noise_kind": "salt-and-pepper"},
            {"noise_rate": -0.1},
            {"noise_rate": 1.5},
            {"n_classes": 1},
            {"per_class": 0},
            {"test_per_class": 0},
            {"n_features": 0},
            {"temperature": -1.0},
            {"hidden_sizes": []},
            {"hidden_sizes": [0]},
            {"scatter_every": -1},
            {"warmup_epochs": -1},
            {"warmup_epochs": 0},
            {"total_epochs": 15, "warmup_epochs": 15},
            {"batch_size": 1},
            {"temperature": 0.0},
            {"tau_r": 0.0},
            {"tau_r": 1.0},
            {"tau_prd": 1.5},
            {"alpha": 0.0},
            {"lambda_reg": -0.5},
            {"disable_branch": "everything"},
        ],
    )
    def test_out_of_range_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
            ({"data_seed": -3}, "data_seed must be >= 0, got -3"),
            ({"warmup_epochs": 0}, "warmup_epochs must be >= 1, got 0"),
            ({"weight_decay": -1}, "weight_decay must be >= 0, got -1.0"),
            ({"alpha": 0}, "alpha must be > 0, got 0.0"),
        ],
    )
    def test_ranges_a_run_would_fail_on_later(self, kwargs, message):
        # Past the config, each of these would stop a run part-way: the
        # seeds and the warmup length once the run directory exists, the
        # weight decay (on the default schedule) and alpha a few epochs in.
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"master_seed": 0, "data_seed": 0}, {"weight_decay": 0.0, "warmup_epochs": 1}]
    )
    def test_range_edges_accepted(self, kwargs):
        cfg = ExperimentConfig(**kwargs)
        assert all(getattr(cfg, key) == value for key, value in kwargs.items())

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"momentum": 1.0}, r"momentum must be in \[0, 1\), got 1.0"),
            ({"momentum": 1.5}, r"momentum must be in \[0, 1\), got 1.5"),
            ({"momentum": -0.1}, r"momentum must be in \[0, 1\)"),
            ({"weight_decay": -1e-4}, "weight_decay must be >= 0, got -0.0001"),
            ({"learning_rate": 0.0}, "learning_rate must be > 0, got 0.0"),
        ],
    )
    def test_optimizer_ranges_rejected_with_the_optimizer_messages(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    @pytest.mark.parametrize("name", [f.name for f in FIELDS])
    def test_every_field_rejects_an_ill_typed_value(self, name):
        with pytest.raises(ConfigError, match=f"^{name} must be"):
            ExperimentConfig(**{name: object()})

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"per_class": "3"}, "per_class must be an integer, got '3'"),
            ({"ce_only": 1}, "ce_only must be a boolean, got 1"),
            ({"total_epochs": 120.0}, "total_epochs must be an integer, got 120.0"),
            ({"alpha": "4"}, "alpha must be a number, got '4'"),
            ({"alpha": 10**400}, "alpha must be finite"),
        ],
    )
    def test_python_and_json_configs_fail_alike(self, kwargs, message):
        for build in (lambda: ExperimentConfig(**kwargs), lambda: config_from_dict(kwargs)):
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value).startswith(message)

    def test_every_number_but_total_epochs_declares_its_range(self):
        # total_epochs is bounded by warmup_epochs, which declares its range.
        numbers = {f.name for f in FIELDS if f.type in ("int", "float")}
        ranged = {f.name for f in FIELDS if "rule" in f.metadata}
        assert numbers - ranged == {"total_epochs"}
        assert ranged <= numbers

    def test_the_noise_kind_and_the_disabled_branch_declare_their_options(self):
        assert {"noise_kind", "disable_branch"} <= {f.name for f in CHOICE_FIELDS}

    # Values a field once took, beside the ones every field must reject.
    FORMER_OPTIONS = {"noise_kind": ["sym-c2"], "disable_branch": ["labeled"]}

    @pytest.mark.parametrize("field", CHOICE_FIELDS, ids=lambda f: f.name)
    def test_every_choice_setting_takes_its_options_and_nothing_else(self, field):
        options = field.metadata["options"]
        for option in options:
            assert getattr(ExperimentConfig(**{field.name: option}), field.name) == option
        outside = ["no-such-option", list(options)] + ([] if None in options else [None])
        outside += self.FORMER_OPTIONS.get(field.name, [])
        for value in outside:
            with pytest.raises(ConfigError) as info:
                ExperimentConfig(**{field.name: value})
            assert str(info.value) == f"{field.name} must be one of {options}, got {value!r}"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"per_class": 0}, "per_class must be >= 1, got 0"),
            ({"test_per_class": 0}, "test_per_class must be >= 1, got 0"),
            ({"tau_r": 0}, r"tau_r must be in \(0, 1\), got 0.0"),
            ({"noise_rate": 2}, r"noise_rate must be in \[0, 1\], got 2.0"),
        ],
    )
    def test_range_message_quotes_the_declared_rule(self, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**kwargs)

    def test_checked_fields_cannot_be_reassigned(self):
        cfg = ExperimentConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.warmup_epochs = 0

    def test_interior_thresholds_accepted(self):
        cfg = ExperimentConfig(tau_r=0.9, tau_prd=0.1)
        assert (cfg.tau_r, cfg.tau_prd) == (0.9, 0.1)


class TestDictRoundTrip:
    def test_round_trip_preserves_every_field(self):
        cfg = ExperimentConfig(n_classes=3, noise_rate=0.8, hidden_sizes=[32], master_seed=9)
        again = config_from_dict(config_to_dict(cfg))
        assert config_to_dict(again) == config_to_dict(cfg)

    def test_dict_is_key_sorted_and_json_ready(self):
        out = config_to_dict(ExperimentConfig())
        assert list(out) == sorted(out)
        json.dumps(out)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys: noise_rat"):
            config_from_dict({"noise_rat": 0.5})

    def test_bool_disguised_as_int_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"batch_size": True})

    def test_int_field_rejects_float(self):
        with pytest.raises(ConfigError):
            config_from_dict({"total_epochs": 20.5})

    def test_bool_field_rejects_int(self):
        with pytest.raises(ConfigError):
            config_from_dict({"ce_only": 1})

    def test_float_field_accepts_int_literal(self):
        cfg = config_from_dict({"alpha": 4})
        assert cfg.alpha == 4.0
        assert isinstance(cfg.alpha, float)

    def test_python_int_for_a_float_serializes_as_json_does(self):
        from_python = ExperimentConfig(noise_rate=1, alpha=4, weight_decay=0)
        from_json = config_from_dict({"noise_rate": 1, "alpha": 4, "weight_decay": 0})
        assert isinstance(from_python.noise_rate, float)
        assert json.dumps(config_to_dict(from_python)) == json.dumps(config_to_dict(from_json))
        assert '"noise_rate": 1.0' in json.dumps(config_to_dict(from_python))

    @pytest.mark.parametrize(
        "raw",
        [
            {"hidden_sizes": [1.5]},
            {"hidden_sizes": [True]},
            {"hidden_sizes": ["a"]},
            {"hidden_sizes": 64},
            {"hidden_sizes": "64"},
            {"hidden_sizes": [16, None]},
            {"hidden_sizes": [[16]]},
            {"output_dir": ["a"]},
            {"output_dir": 5},
        ],
    )
    def test_ill_typed_lists_and_paths_rejected(self, raw):
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", sorted(FLOAT_FIELDS))
    def test_non_finite_numbers_rejected(self, key, text):
        raw = json.loads(f'{{"{key}": {text}}}')
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            config_from_dict(raw)

    def test_null_output_dir_accepted(self):
        assert config_from_dict({"output_dir": None}).output_dir is None

    @pytest.mark.parametrize("output_dir", ["", ".", "./", "a/.."])
    def test_output_dir_naming_the_output_root_rejected(self, output_dir):
        # The run directory would be the output root, and later runs would
        # land inside it.
        message = f"output_dir must not name the output root itself, got {output_dir!r}"
        with pytest.raises(ConfigError) as info:
            config_from_dict({"output_dir": output_dir})
        assert str(info.value) == message

    @pytest.mark.parametrize("output_dir", ["..", "../x", "a/../../x", "./../x"])
    def test_output_dir_climbing_out_of_the_output_root_rejected(self, output_dir):
        # The run would land beside the output root, not under it.
        message = f"output_dir must stay under the output root, got {output_dir!r}"
        with pytest.raises(ConfigError) as info:
            config_from_dict({"output_dir": output_dir})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "output_dir", ["a", "./a", "a/../b", "/abs/run", "/abs/../run", "a\udc80b"]
    )
    def test_other_output_dirs_accepted(self, output_dir):
        assert config_from_dict({"output_dir": output_dir}).output_dir == output_dir

    def test_loaded_lists_are_not_aliased(self):
        raw = {"hidden_sizes": [16, 8]}
        cfg = config_from_dict(raw)
        raw["hidden_sizes"][0] = -3
        assert cfg.layer_sizes() == [2, 16, 8, 4]
        with pytest.raises(TypeError):
            cfg.hidden_sizes[0] = -3
        # JSON writes the stored tuple as the list it read.
        out = json.dumps(config_to_dict(cfg), sort_keys=True)
        assert '"hidden_sizes": [16, 8]' in out

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict([1, 2, 3])

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"noise_rate": 0.2})
        assert cfg.noise_rate == 0.2
        assert cfg.total_epochs == 120


class TestFileRoundTrip:
    def test_save_then_load(self, tmp_path):
        cfg = ExperimentConfig(per_class=50, noise_kind="asym", noise_rate=0.3)
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        assert config_to_dict(load_config(path)) == config_to_dict(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_directory_and_non_utf8_files(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path)
        path = tmp_path / "latin1.json"
        path.write_bytes('{"noise_kind": "sym-c1\xe9"}'.encode("latin-1"))
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(path)

    def test_config_with_unknown_key_on_disk(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps({"noise_rtae": 0.5}), encoding="utf-8")
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(path)
