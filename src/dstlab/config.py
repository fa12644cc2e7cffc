"""Flat experiment configuration with strict schema validation.

Configs are JSON objects whose keys map one-to-one onto ExperimentConfig
fields. Unknown keys are rejected rather than ignored so that typos fail
loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import NOISE_KINDS
from .errors import ConfigError
from .training import Ablation, DstParams, TrainSchedule


@dataclass
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
    hidden_sizes: list[int] = field(default_factory=lambda: [64, 64])
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
    gmm_tol: float = 20.0
    gmm_max_iter: int = 100
    gmm_anchors: list[list[float]] = field(
        default_factory=lambda: [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
    )
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
        if not self.hidden_sizes or any(int(h) < 1 for h in self.hidden_sizes):
            raise ConfigError(f"hidden_sizes must be positive, got {self.hidden_sizes}")
        if self.scatter_every < 0:
            raise ConfigError(f"scatter_every must be >= 0, got {self.scatter_every}")
        if np.asarray(self.gmm_anchors, dtype=np.float64).shape != (3, 2):
            raise ConfigError("gmm_anchors must be three 2-D points")
        # Sub-object constructors enforce the remaining ranges.
        self.schedule()
        self.dst_params()
        self.ablation()

    def schedule(self) -> TrainSchedule:
        return TrainSchedule(
            total_epochs=self.total_epochs,
            warmup_epochs=self.warmup_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            lr_decay_factor=self.lr_decay_factor,
            lr_decay_period=self.lr_decay_period,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )

    def dst_params(self) -> DstParams:
        return DstParams(
            tau_r=self.tau_r,
            tau_prd=self.tau_prd,
            temperature=self.temperature,
            alpha=self.alpha,
            lambda_reg=self.lambda_reg,
            gmm_tol=self.gmm_tol,
            gmm_max_iter=self.gmm_max_iter,
            anchors=np.asarray(self.gmm_anchors, dtype=np.float64),
        )

    def ablation(self) -> Ablation:
        return Ablation(
            ce_only=self.ce_only,
            no_mixup=self.no_mixup,
            single_network=self.single_network,
            disable_branch=self.disable_branch,
            all_wrong=self.all_wrong,
        )

    def layer_sizes(self) -> list[int]:
        return [self.n_features] + [int(h) for h in self.hidden_sizes] + [self.n_classes]


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
    return ExperimentConfig(
        master_seed=BENCHMARK_MASTER_SEED,
        data_seed=BENCHMARK_DATA_SEED,
        scatter_every=0,
        **overrides,
    )


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}

_INT_FIELDS = {
    name
    for name, f in _FIELDS.items()
    if f.type in ("int",) or name in ("master_seed", "data_seed")
}
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
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        elif key in _FLOAT_FIELDS:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{key} must be a number, got {value!r}")
            value = float(value)
        coerced[key] = value
    try:
        return ExperimentConfig(**coerced)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """All fields as plain JSON-serializable values, key-sorted."""
    out = dataclasses.asdict(cfg)
    return {k: out[k] for k in sorted(out)}


def save_config(cfg: ExperimentConfig, path: Path | str) -> None:
    Path(path).write_text(
        json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
