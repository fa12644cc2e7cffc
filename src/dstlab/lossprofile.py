"""Per-sample loss profiles under a frozen network.

For every training sample two cross-entropies are computed: one against the
(possibly noisy) dataset label and one against the network's own argmax
prediction. Min-max normalization maps both loss axes into the unit square,
which is the space the mixture model and its anchor means live in.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data import NoisyDataset
from .errors import StructuralError
from .network import LOG_FLOOR, NetworkParams, forward_cached, softmax


@dataclass
class LossProfile:
    """Dataset-ordered loss coordinates for one network at one epoch."""

    l_nis: np.ndarray  # [N] CE against the dataset label, nats
    l_prd: np.ndarray  # [N] CE against the network's own argmax, nats
    predicted: np.ndarray  # [N] argmax labels, ties to the lowest class
    nrm_nis: np.ndarray | None = None
    nrm_prd: np.ndarray | None = None

    @property
    def n_samples(self) -> int:
        return self.l_nis.shape[0]

    def points(self) -> np.ndarray:
        """Normalized [N, 2] coordinates, x = nrm_nis, y = nrm_prd."""
        if self.nrm_nis is None or self.nrm_prd is None:
            raise StructuralError("profile not normalized yet")
        return np.column_stack([self.nrm_nis, self.nrm_prd])


def profile(params: NetworkParams, ds: NoisyDataset) -> LossProfile:
    """Compute both loss axes with frozen parameters; no updates happen."""
    logits, _ = forward_cached(params, ds.features)
    probs = softmax(logits)
    predicted = probs.argmax(axis=1).astype(np.int64)
    idx = np.arange(ds.n_samples)
    l_nis = -np.log(np.maximum(probs[idx, ds.noisy_labels], LOG_FLOOR))
    l_prd = -np.log(np.maximum(probs[idx, predicted], LOG_FLOOR))
    return LossProfile(l_nis=l_nis, l_prd=l_prd, predicted=predicted)


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """(v - min)/(max - min) over the array; a flat axis maps to all zeros."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def normalize(prof: LossProfile) -> LossProfile:
    """Fill the normalized coordinates, each axis scaled independently."""
    if prof.n_samples < 2:
        raise StructuralError("normalization needs at least 2 points")
    return LossProfile(
        l_nis=prof.l_nis,
        l_prd=prof.l_prd,
        predicted=prof.predicted,
        nrm_nis=minmax_normalize(prof.l_nis),
        nrm_prd=minmax_normalize(prof.l_prd),
    )


SCATTER_HEADER = ["epoch", "net", "id", "l_nis", "l_prd", "nrm_nis", "nrm_prd", "pred", "state"]


def write_scatter(
    path: Path | str,
    epoch: int,
    net: str,
    prof: LossProfile,
    states: np.ndarray,
) -> None:
    """Dump one network's normalized loss cloud for one epoch as CSV.

    Floats are written with `%.17g`, so they round-trip exactly. The
    header and the constant `epoch,net` prefix go through `csv.writer`
    once (quoting, `\\r\\n` terminator); the rows are formatted in bulk.
    """
    if prof.nrm_nis is None or prof.nrm_prd is None:
        raise StructuralError("scatter dump requires a normalized profile")
    states = np.asarray(states)
    if states.shape != (prof.n_samples,):
        raise StructuralError("one audit state per sample required")
    head = io.StringIO()
    writer = csv.writer(head)
    writer.writerow(SCATTER_HEADER)
    header_end = head.tell()
    writer.writerow([epoch, net])
    text = head.getvalue()
    prefix = text[header_end:].removesuffix("\r\n")
    row = prefix.replace("%", "%%") + ",%d,%.17g,%.17g,%.17g,%.17g,%d,%d\r\n"
    columns = [
        range(prof.n_samples),
        prof.l_nis.tolist(),
        prof.l_prd.tolist(),
        prof.nrm_nis.tolist(),
        prof.nrm_prd.tolist(),
        prof.predicted.tolist(),
        states.tolist(),
    ]
    body = (row * prof.n_samples) % tuple(chain.from_iterable(zip(*columns)))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(text[:header_end] + body)
