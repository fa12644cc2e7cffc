"""Flat experiment configuration with strict schema validation.

Configs are JSON objects whose keys map one-to-one onto ExperimentConfig
fields. Unknown keys are rejected rather than ignored so that typos fail
loudly instead of silently running defaults.

Each field declares its type and default, a numeric field its range and
a choice setting its options, on the field itself.
`ExperimentConfig.__post_init__` checks every field against its
declaration, so a config built in Python is checked exactly as one read
from JSON, and an integer given for a float setting is stored as the
float JSON would give.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .data import NOISE_KINDS
from .errors import ConfigError, LabError


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_sequence(value) -> bool:
    return isinstance(value, (list, tuple))


# The scalar annotations: the test a value must pass, and its name in messages.
_SCALARS = {
    "bool": (lambda value: isinstance(value, bool), "a boolean"),
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
}

# What each operator or bracket of a range rule tests a value against its bound.
_COMPARE = {
    ">=": operator.ge,
    ">": operator.gt,
    "[": operator.ge,
    "(": operator.gt,
    "]": operator.le,
    ")": operator.lt,
}


def _setting(default, rule: str):
    """A field with its default and the range its value must lie in.

    `rule` is `>= b`, `> b` or an interval such as `in [a, b)` or
    `in (a, b]`. The same text is checked and quoted in the error message.
    """
    if rule.startswith("in "):
        low, high = rule[4:-1].split(", ")
        bounds = ((_COMPARE[rule[3]], float(low)), (_COMPARE[rule[-1]], float(high)))
    else:
        op, bound = rule.split(" ")
        bounds = ((_COMPARE[op], float(bound)),)
    return dataclasses.field(default=default, metadata={"rule": rule, "bounds": bounds})


def _choice(default, options: tuple):
    """A field with its default and the values it may take."""
    return dataclasses.field(default=default, metadata={"options": options})


# The learning-rate schedule's step: this lab's fit to its 120-epoch runs,
# not a setting of the paper. `learning_rate_at` reads both at each call.
LR_DECAY_FACTOR = 0.2
LR_DECAY_PERIOD = 80


def check_output_dir(out: str | os.PathLike) -> None:
    """Raise ConfigError unless `out` may name a run directory, as the
    config's `output_dir` or as `lab.run`'s override: the file system must
    be able to name it, and a relative path must lie strictly under the
    output root."""
    out = os.fspath(out)
    # The file system takes no NUL byte and no string that the file
    # system encoding cannot encode, such as a lone surrogate.
    try:
        nameable = b"\0" not in os.fsencode(out)
    except UnicodeEncodeError:
        nameable = False
    if not nameable:
        raise ConfigError(f"output_dir must be a path the file system can name, got {out!r}")
    # A relative output_dir lies under the output root; "." would make
    # the root itself one run's directory, and later runs land inside it;
    # ".." or "../x" would put the run beside the root.
    head = os.path.normpath(out).split(os.sep)[0]
    if head == ".":
        raise ConfigError(f"output_dir must not name the output root itself, got {out!r}")
    if head == "..":
        raise ConfigError(f"output_dir must stay under the output root, got {out!r}")


# Frozen, so a config keeps the ranges __post_init__ checked; the run reads
# its fields without checking them again. The list field is stored as a
# tuple, so no caller's list stays aliased to a checked config.
@dataclass(frozen=True)
class ExperimentConfig:
    # dataset
    n_classes: int = _setting(4, ">= 2")
    per_class: int = _setting(1000, ">= 1")
    n_features: int = _setting(2, ">= 1")
    test_per_class: int = _setting(250, ">= 1")
    data_seed: int = _setting(7, ">= 0")
    # noise
    noise_kind: str = _choice("sym-c1", NOISE_KINDS)
    noise_rate: float = _setting(0.5, "in [0, 1]")
    # architecture: hidden layer widths, input/output sizes come from the data
    hidden_sizes: tuple[int, ...] = (64, 64)
    # schedule and optimizer; total_epochs must exceed warmup_epochs
    total_epochs: int = 120
    warmup_epochs: int = _setting(15, ">= 1")
    batch_size: int = _setting(128, ">= 2")
    learning_rate: float = _setting(0.02, "> 0")
    momentum: float = _setting(0.9, "in [0, 1)")
    weight_decay: float = _setting(0.0005, ">= 0")
    # selection and refinement
    tau_r: float = _setting(0.5, "in (0, 1)")
    tau_prd: float = _setting(0.5, "in (0, 1)")
    temperature: float = _setting(0.5, "> 0")
    alpha: float = _setting(4.0, "> 0")
    lambda_reg: float = _setting(1.0, ">= 0")
    # ablations
    ce_only: bool = False
    no_mixup: bool = False
    single_network: bool = False
    disable_branch: str | None = _choice(None, (None, "predicted"))
    # run control
    master_seed: int = _setting(1, ">= 0")
    scatter_every: int = _setting(1, ">= 0")  # 0 = final epoch only
    output_dir: str | None = None

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            options = f.metadata.get("options")
            if options is not None and value not in options:
                raise ConfigError(f"{f.name} must be one of {options}, got {value!r}")
            if f.type not in _SCALARS:
                continue
            accepts, kind = _SCALARS[f.type]
            if not accepts(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
            if f.type == "float":
                # NaN fails the comparison, as does an int too large for a float.
                if not abs(value) <= sys.float_info.max:
                    raise ConfigError(f"{f.name} must be finite, got {value!r}")
                value = float(value)
                object.__setattr__(self, f.name, value)
            if not all(holds(value, bound) for holds, bound in f.metadata.get("bounds", ())):
                raise ConfigError(f"{f.name} must be {f.metadata['rule']}, got {value}")
        hidden = self.hidden_sizes
        if not (_is_sequence(hidden) and hidden and all(_is_int(h) and h >= 1 for h in hidden)):
            raise ConfigError(
                f"hidden_sizes must be a non-empty list of positive integers, got {hidden!r}"
            )
        object.__setattr__(self, "hidden_sizes", tuple(hidden))
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigError(f"output_dir must be a string or null, got {self.output_dir!r}")
        if self.output_dir is not None:
            check_output_dir(self.output_dir)
        if self.total_epochs <= self.warmup_epochs:
            raise ConfigError(
                f"total_epochs ({self.total_epochs}) must exceed "
                f"warmup_epochs ({self.warmup_epochs})"
            )

    def learning_rate_at(self, epoch: int) -> float:
        """Steps down by LR_DECAY_FACTOR after each LR_DECAY_PERIOD epochs.

        Epochs are 1-indexed.
        """
        return self.learning_rate * LR_DECAY_FACTOR ** ((epoch - 1) // LR_DECAY_PERIOD)

    def phase_at(self, epoch: int) -> str:
        """"warmup" through warmup_epochs, then "ce" with ce_only, else "dst".

        Epochs are 1-indexed.
        """
        if epoch <= self.warmup_epochs:
            return "warmup"
        return "ce" if self.ce_only else "dst"

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


_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - _FIELDS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return ExperimentConfig(**raw)


def read_json(path: Path, what: str, error: type[LabError]):
    """The JSON value in the UTF-8 file at `path`. A file that cannot be
    read or decoded raises `error`, whose message names `what` it held."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{what} is not valid JSON: {path}: {exc}") from exc


def load_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return config_from_dict(read_json(path, "config", ConfigError))


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """All fields as plain JSON-serializable values, key-sorted."""
    out = dataclasses.asdict(cfg)
    return {k: out[k] for k in sorted(out)}
