"""Desk-scale laboratory for selection-based training on noisy labels.

Two small dense networks are trained jointly: each epoch, every sample's
losses against its dataset label and against the model's own prediction
are normalized into the unit square, a three-component Gaussian mixture
splits the cloud into correctly-labeled / correctly-predicted / wrong
sets, and each network trains on the division computed from its partner's
losses (the other network's, or its own in single-network mode) with soft
label refinement, sharpening, and MixUp. Every setting, and every range
check on it, lives in `ExperimentConfig`.
"""

__version__ = "0.1.0"

from .config import ExperimentConfig, load_config
from .data import CleanDataset, NoiseSpec, NoisyDataset, make_blobs
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
from .network import NetworkParams, init_network

__all__ = [
    "CleanDataset",
    "ConfigError",
    "ExperimentConfig",
    "GmmFitError",
    "InsufficientDataError",
    "LabError",
    "NetworkParams",
    "NoiseSpec",
    "NoisyDataset",
    "NotFoundError",
    "NumericError",
    "StructuralError",
    "compare",
    "dump_scatter",
    "init_network",
    "load_config",
    "make_blobs",
    "run",
    "__version__",
]
