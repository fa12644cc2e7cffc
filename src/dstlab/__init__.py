"""Desk-scale laboratory for selection-based training on noisy labels.

Two small dense networks are trained jointly: each epoch, every sample's
losses against its dataset label and against the model's own prediction
are normalized into the unit square, a three-component Gaussian mixture
splits the cloud into correctly-labeled / correctly-predicted / wrong
sets, and each network trains on the division computed from its partner's
losses (the other network's, or its own in single-network mode) with soft
label refinement, sharpening, and MixUp.

The config is a run's one outside input. Every setting, and every range
check on it, lives in `ExperimentConfig`; the datasets, networks and
mixtures a run builds from it are not checked again. So the public entry
is the config-driven one: `load_config` (or `ExperimentConfig`), then
`run`, `dump_scatter` and `compare`.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .errors import (
    ConfigError,
    GmmFitError,
    InsufficientDataError,
    LabError,
    NotFoundError,
    NumericError,
    StructuralError,
)
from .lab import compare, dump_scatter, run

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "GmmFitError",
    "InsufficientDataError",
    "LabError",
    "NotFoundError",
    "NumericError",
    "StructuralError",
    "compare",
    "dump_scatter",
    "load_config",
    "run",
    "__version__",
]
