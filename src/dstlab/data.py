"""Synthetic blob datasets and label-noise injection with hidden ground truth.

Datasets keep the real label alongside the (possibly corrupted) training
label so downstream audits can classify every sample into one of five
agreement states between noisy label, real label, and model prediction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericError, StructuralError

# Adjacent blob centers sit this many spreads apart. 4 is the hard floor;
# 6 is the smallest spacing that keeps a one-vs-rest least-squares oracle
# at or above 99% train accuracy, leaving the task as hard as separability
# allows so that label noise has something to bite on.
CENTER_SPACING = 6.0

NOISE_KINDS = ("sym-c1", "sym-c2", "asym")

STATE_NAMES = ("i", "ii", "iii", "iv", "v")

DATASET_FORMAT = "dstlab-dataset"
DATASET_VERSION = 1


@dataclass
class CleanDataset:
    features: np.ndarray  # [N, D] float64
    true_labels: np.ndarray  # [N] int64
    n_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.true_labels = np.asarray(self.true_labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise StructuralError(f"features must be [N, D], got {self.features.shape}")
        if self.true_labels.shape != (self.features.shape[0],):
            raise StructuralError("one true label per sample required")
        if not np.all(np.isfinite(self.features)):
            raise NumericError("features must be finite")
        if self.features.shape[0] and (
            self.true_labels.min() < 0 or self.true_labels.max() >= self.n_classes
        ):
            raise StructuralError("true labels out of range")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class NoiseSpec:
    kind: str
    rate: float
    seed: int

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}, expected {NOISE_KINDS}")
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"noise rate must be in [0, 1], got {self.rate}")


@dataclass
class NoisyDataset(CleanDataset):
    noisy_labels: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    noise_spec: NoiseSpec | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        self.noisy_labels = np.asarray(self.noisy_labels, dtype=np.int64)
        if self.noisy_labels.shape != self.true_labels.shape:
            raise StructuralError("one noisy label per sample required")
        if self.n_samples and (
            self.noisy_labels.min() < 0 or self.noisy_labels.max() >= self.n_classes
        ):
            raise StructuralError("noisy labels out of range")


def _blob_centers(n_classes: int, n_features: int, spread: float) -> np.ndarray:
    """Class centers with adjacent pairs CENTER_SPACING * spread apart.

    Centers live on a circle in the first two feature dimensions (a line
    when D == 1); remaining dimensions are zero.
    """
    centers = np.zeros((n_classes, n_features))
    chord = CENTER_SPACING * spread
    if n_features == 1 or n_classes == 2:
        centers[:, 0] = chord * np.arange(n_classes)
    else:
        radius = chord / (2.0 * np.sin(np.pi / n_classes))
        angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
        centers[:, 0] = radius * np.cos(angles)
        centers[:, 1] = radius * np.sin(angles)
    return centers


def make_blobs(
    n_classes: int,
    per_class: int,
    n_features: int,
    spread: float,
    rng: np.random.Generator,
) -> CleanDataset:
    """Isotropic Gaussian blobs, one per class, in class-block order."""
    if n_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {n_classes}")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if n_features < 1:
        raise ConfigError(f"n_features must be >= 1, got {n_features}")
    if spread <= 0:
        raise ConfigError(f"spread must be > 0, got {spread}")
    centers = _blob_centers(n_classes, n_features, spread)
    n_total = n_classes * per_class
    features = np.repeat(centers, per_class, axis=0)
    features = features + spread * rng.standard_normal((n_total, n_features))
    labels = np.repeat(np.arange(n_classes), per_class)
    return CleanDataset(features=features, true_labels=labels, n_classes=n_classes)


def _with_noise(
    ds: CleanDataset, noisy: np.ndarray, spec: NoiseSpec
) -> NoisyDataset:
    return NoisyDataset(
        features=ds.features.copy(),
        true_labels=ds.true_labels.copy(),
        n_classes=ds.n_classes,
        noisy_labels=noisy,
        noise_spec=spec,
    )


def inject_symmetric_c1(
    ds: CleanDataset, rate: float, seed: int
) -> NoisyDataset:
    """Relabel exactly floor(rate * N) samples uniformly over all classes.

    The redraw may reproduce the true label, so the realized disagreement
    rate is rate * (C - 1) / C in expectation.
    """
    spec = NoiseSpec(kind="sym-c1", rate=rate, seed=seed)
    rng = np.random.default_rng(seed)
    noisy = ds.true_labels.copy()
    n_flip = int(np.floor(rate * ds.n_samples))
    chosen = rng.permutation(ds.n_samples)[:n_flip]
    noisy[chosen] = rng.integers(0, ds.n_classes, size=n_flip)
    return _with_noise(ds, noisy, spec)


def inject_symmetric_c2(
    ds: CleanDataset, rate: float, seed: int
) -> NoisyDataset:
    """Relabel exactly floor(rate * N) samples uniformly over the other classes."""
    if ds.n_classes < 2:
        raise ConfigError("symmetric noise over other classes needs >= 2 classes")
    spec = NoiseSpec(kind="sym-c2", rate=rate, seed=seed)
    rng = np.random.default_rng(seed)
    noisy = ds.true_labels.copy()
    n_flip = int(np.floor(rate * ds.n_samples))
    chosen = rng.permutation(ds.n_samples)[:n_flip]
    # Draw an offset in [1, C) so the new label always differs from the truth.
    offsets = rng.integers(1, ds.n_classes, size=n_flip)
    noisy[chosen] = (ds.true_labels[chosen] + offsets) % ds.n_classes
    return _with_noise(ds, noisy, spec)


def cyclic_mapping(n_classes: int) -> dict[int, int]:
    return {c: (c + 1) % n_classes for c in range(n_classes)}


def inject_asymmetric(ds: CleanDataset, rate: float, seed: int) -> NoisyDataset:
    """Flip each sample independently to the next class (`cyclic_mapping`)
    with prob rate."""
    if ds.n_classes < 2:
        raise ConfigError("asymmetric noise needs >= 2 classes")
    spec = NoiseSpec(kind="asym", rate=rate, seed=seed)
    table = cyclic_mapping(ds.n_classes)
    rng = np.random.default_rng(seed)
    noisy = ds.true_labels.copy()
    flip = rng.random(ds.n_samples) < rate
    for src, dst in table.items():
        noisy[flip & (ds.true_labels == src)] = dst
    return _with_noise(ds, noisy, spec)


def inject_noise(ds: CleanDataset, spec: NoiseSpec) -> NoisyDataset:
    if spec.kind == "sym-c1":
        return inject_symmetric_c1(ds, spec.rate, spec.seed)
    if spec.kind == "sym-c2":
        return inject_symmetric_c2(ds, spec.rate, spec.seed)
    return inject_asymmetric(ds, spec.rate, spec.seed)


def audit_states(ds: NoisyDataset, predicted: np.ndarray) -> np.ndarray:
    """Classify every sample into agreement states 1..5.

    With y the noisy label, y_real the true label, and p the prediction:
      1 (i):   y == y_real, p == y_real
      2 (ii):  y == y_real, p != y_real
      3 (iii): y != y_real, p == y_real
      4 (iv):  y != y_real, p != y_real, y == p
      5 (v):   y != y_real, p != y_real, y != p
    """
    pred = np.asarray(predicted, dtype=np.int64)
    if pred.shape != ds.true_labels.shape:
        raise StructuralError("one prediction per sample required")
    y_ok = ds.noisy_labels == ds.true_labels
    p_ok = pred == ds.true_labels
    y_is_p = ds.noisy_labels == pred
    states = np.full(ds.n_samples, 5, dtype=np.int64)
    states[y_ok & p_ok] = 1
    states[y_ok & ~p_ok] = 2
    states[~y_ok & p_ok] = 3
    states[~y_ok & ~p_ok & y_is_p] = 4
    return states


def save_dataset(ds: NoisyDataset, path: Path | str) -> None:
    """Write `id,true_label,noisy_label,f0..f{D-1}` plus a sidecar manifest."""
    path = Path(path)
    header = ["id", "true_label", "noisy_label"] + [
        f"f{j}" for j in range(ds.n_features)
    ]
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [i, int(ds.true_labels[i]), int(ds.noisy_labels[i])]
            row += [f"{v:.17g}" for v in ds.features[i]]
            writer.writerow(row)
    manifest = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "n_samples": ds.n_samples,
        "n_classes": ds.n_classes,
        "n_features": ds.n_features,
        "noise_spec": None
        if ds.noise_spec is None
        else {
            "kind": ds.noise_spec.kind,
            "rate": ds.noise_spec.rate,
            "seed": ds.noise_spec.seed,
        },
    }
    sidecar_path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def sidecar_path(path: Path | str) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")
