"""Flat experiment configuration with strict schema validation.

Configs are JSON objects whose keys map one-to-one onto ExperimentConfig
fields. Unknown keys are rejected rather than ignored so that typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .data import NOISE_KINDS
from .errors import ConfigError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple))


# Frozen, so a config keeps the ranges __post_init__ checked; the run reads
# its fields without checking them again. The two list fields are stored as
# tuples, so no caller's list stays aliased to a checked config.
@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    n_classes: int = 4
    per_class: int = 1000
    n_features: int = 2
    spread: float = 0.5
    test_per_class: int = 250
    data_seed: int = 7
    # noise
    noise_kind: str = "sym-c1"
    noise_rate: float = 0.5
    # architecture: hidden layer widths, input/output sizes come from the data
    hidden_sizes: tuple[int, ...] = (64, 64)
    # schedule and optimizer
    total_epochs: int = 120
    warmup_epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 0.02
    lr_decay_factor: float = 0.2
    lr_decay_period: int = 80
    momentum: float = 0.9
    weight_decay: float = 0.0005
    # selection and refinement
    tau_r: float = 0.5
    tau_prd: float = 0.5
    temperature: float = 0.5
    alpha: float = 4.0
    lambda_reg: float = 1.0
    gmm_tol: float = 20.0  # absolute change in total log-likelihood
    gmm_max_iter: int = 100
    # Unit-square mixture means at the start of every fit: near-origin for
    # low-loss-on-label samples, mid-square for samples both losses flag,
    # right-bottom for samples whose label loss is high but prediction loss low.
    gmm_anchors: tuple[tuple[float, float], ...] = ((0.0, 0.0), (0.5, 0.5), (1.0, 0.0))
    # ablations
    ce_only: bool = False
    no_mixup: bool = False
    single_network: bool = False
    disable_branch: str | None = None
    all_wrong: bool = False
    # run control
    master_seed: int = 1
    scatter_every: int = 1  # 0 = final epoch only
    output_dir: str | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and _is_number(value) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(
                f"noise_kind must be one of {NOISE_KINDS}, got {self.noise_kind!r}"
            )
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1], got {self.noise_rate}")
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.per_class < 1 or self.test_per_class < 1:
            raise ConfigError("per_class and test_per_class must be >= 1")
        if self.n_features < 1:
            raise ConfigError(f"n_features must be >= 1, got {self.n_features}")
        if self.spread <= 0:
            raise ConfigError(f"spread must be > 0, got {self.spread}")
        hidden = self.hidden_sizes
        if not (_is_sequence(hidden) and hidden and all(_is_int(h) and h >= 1 for h in hidden)):
            raise ConfigError(
                f"hidden_sizes must be a non-empty list of positive integers, got {hidden!r}"
            )
        object.__setattr__(self, "hidden_sizes", tuple(hidden))
        if self.scatter_every < 0:
            raise ConfigError(f"scatter_every must be >= 0, got {self.scatter_every}")
        anchors = self.gmm_anchors
        if not (
            _is_sequence(anchors)
            and len(anchors) == 3
            and all(_is_sequence(a) and len(a) == 2 for a in anchors)
            and all(_is_number(v) and math.isfinite(v) for a in anchors for v in a)
        ):
            raise ConfigError(
                f"gmm_anchors must be three 2-D points with finite coordinates, got {anchors!r}"
            )
        points = tuple(tuple(a) for a in anchors)
        if any(points[a] == points[b] for a, b in ((0, 1), (0, 2), (1, 2))):
            raise ConfigError(f"gmm_anchors must be pairwise distinct, got {anchors!r}")
        object.__setattr__(self, "gmm_anchors", points)
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigError(f"output_dir must be a string or null, got {self.output_dir!r}")
        for name in ("master_seed", "data_seed"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        # schedule
        if self.warmup_epochs < 1:
            raise ConfigError(f"warmup_epochs must be >= 1, got {self.warmup_epochs}")
        if self.total_epochs <= self.warmup_epochs:
            raise ConfigError(
                f"total_epochs ({self.total_epochs}) must exceed "
                f"warmup_epochs ({self.warmup_epochs})"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.lr_decay_period < 1:
            raise ConfigError(f"lr_decay_period must be >= 1, got {self.lr_decay_period}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(
                f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}"
            )
        # optimizer
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        # selection and refinement
        for name in ("tau_r", "tau_prd"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.lambda_reg < 0:
            raise ConfigError(f"lambda_reg must be >= 0, got {self.lambda_reg}")
        if self.gmm_tol < 0:
            raise ConfigError(f"gmm_tol must be >= 0, got {self.gmm_tol}")
        if self.gmm_max_iter < 1:
            raise ConfigError(f"gmm_max_iter must be >= 1, got {self.gmm_max_iter}")
        if self.disable_branch not in (None, "labeled", "predicted"):
            raise ConfigError(
                f"disable_branch must be labeled or predicted, got {self.disable_branch!r}"
            )

    def learning_rate_at(self, epoch: int) -> float:
        """Steps down by lr_decay_factor after each lr_decay_period epochs.

        Epochs are 1-indexed.
        """
        return self.learning_rate * self.lr_decay_factor ** (
            (epoch - 1) // self.lr_decay_period
        )

    def layer_sizes(self) -> list[int]:
        return [self.n_features, *self.hidden_sizes, self.n_classes]


# The acceptance benchmark: 4 blobs x 1000 samples in 2-D, spread 0.5, half
# the labels redrawn uniformly, 2-64-64-4 networks on the default schedule,
# with these seeds and only the final loss cloud dumped.
BENCHMARK_MASTER_SEED = 4
BENCHMARK_DATA_SEED = 11

# The memorization regime changes three things only: 20-D blobs, 150
# training samples per class and 20-256-256-4 networks, which can fit the
# noisy labels outright. Seeds, noise and schedule stay as in the benchmark.
MEMORIZATION = {"n_features": 20, "per_class": 150, "hidden_sizes": [256, 256]}


def benchmark_config(**overrides) -> ExperimentConfig:
    """The acceptance benchmark config, with any field overridden."""
    fixed = {
        "master_seed": BENCHMARK_MASTER_SEED,
        "data_seed": BENCHMARK_DATA_SEED,
        "scatter_every": 0,
    }
    return ExperimentConfig(**{**fixed, **overrides})


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

_INT_FIELDS = {name for name, f in _FIELDS.items() if f.type == "int"}
_FLOAT_FIELDS = {name for name, f in _FIELDS.items() if f.type == "float"}
_BOOL_FIELDS = {name for name, f in _FIELDS.items() if f.type == "bool"}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    coerced: dict = {}
    for key, value in raw.items():
        if key in _BOOL_FIELDS:
            if not isinstance(value, bool):
                raise ConfigError(f"{key} must be a boolean, got {value!r}")
        elif key in _INT_FIELDS:
            if not _is_int(value):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        elif key in _FLOAT_FIELDS:
            if not _is_number(value):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            value = float(value)
        coerced[key] = value
    try:
        return ExperimentConfig(**coerced)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """All fields as plain JSON-serializable values, key-sorted."""
    out = dataclasses.asdict(cfg)
    return {k: out[k] for k in sorted(out)}
