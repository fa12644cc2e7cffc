"""Synthetic blob datasets and label-noise injection with hidden ground truth.

Datasets keep the real label alongside the (possibly corrupted) training
label so downstream audits can classify every sample into one of five
agreement states between noisy label, real label, and model prediction.

Every size, spread, noise kind and rate arrives from a checked
`ExperimentConfig` (through `lab.build_datasets`), so nothing here checks
a range or a shape again.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass
class NoiseSpec:
    kind: str  # one of NOISE_KINDS
    rate: float
    seed: int


@dataclass
class NoisyDataset(CleanDataset):
    noisy_labels: np.ndarray  # [N] int64
    noise_spec: NoiseSpec | None


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
    centers = _blob_centers(n_classes, n_features, spread)
    n_total = n_classes * per_class
    features = np.repeat(centers, per_class, axis=0)
    features = features + spread * rng.standard_normal((n_total, n_features))
    labels = np.repeat(np.arange(n_classes), per_class)
    return CleanDataset(features=features, true_labels=labels, n_classes=n_classes)


def inject_noise(ds: CleanDataset, spec: NoiseSpec) -> NoisyDataset:
    """Training labels corrupted by `spec`, drawn from `spec.seed` alone.

    - `sym-c1` relabels exactly floor(rate * N) samples uniformly over all
      classes. A redraw may reproduce the true label, so the realized
      disagreement rate is rate * (C - 1) / C in expectation.
    - `sym-c2` relabels exactly floor(rate * N) samples uniformly over the
      other classes.
    - `asym` flips each sample independently, with probability rate, to
      the next class, (c + 1) % C.

    The noisy set shares `ds`'s feature and true-label arrays; neither is
    copied or written.
    """
    rng = np.random.default_rng(spec.seed)
    truth, n_classes = ds.true_labels, ds.n_classes
    noisy = truth.copy()
    if spec.kind == "asym":
        flip = rng.random(ds.n_samples) < spec.rate
        noisy[flip] = (truth[flip] + 1) % n_classes
    else:
        chosen = rng.permutation(ds.n_samples)[: int(np.floor(spec.rate * ds.n_samples))]
        if spec.kind == "sym-c1":
            noisy[chosen] = rng.integers(0, n_classes, size=chosen.size)
        else:
            # An offset in [1, C) never lands back on the true label.
            offsets = rng.integers(1, n_classes, size=chosen.size)
            noisy[chosen] = (truth[chosen] + offsets) % n_classes
    return NoisyDataset(ds.features, truth, n_classes, noisy, spec)


def audit_states(ds: NoisyDataset, predicted: np.ndarray) -> np.ndarray:
    """Classify every sample into agreement states 1..5.

    With y the noisy label, y_real the true label, and p the prediction:
      1 (i):   y == y_real, p == y_real
      2 (ii):  y == y_real, p != y_real
      3 (iii): y != y_real, p == y_real
      4 (iv):  y != y_real, p != y_real, y == p
      5 (v):   y != y_real, p != y_real, y != p
    """
    y_ok = ds.noisy_labels == ds.true_labels
    p_ok = predicted == ds.true_labels
    y_is_p = ds.noisy_labels == predicted
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
