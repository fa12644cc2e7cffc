"""Per-sample loss profiles under a frozen network.

For every training sample two cross-entropies are computed: one against the
(possibly noisy) dataset label and one against the network's own argmax
prediction. `profile` returns the finished cloud that the selection, its
report and the scatter dump all read: both loss axes, their min-max
normalization into the unit square (the space the mixture model and its
anchor means live in), the predictions and each sample's agreement state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NoisyDataset, audit_states, csv_row, write_csv
from .network import LOG_FLOOR, Layers, full_forward, softmax


@dataclass
class LossProfile:
    """Dataset-ordered loss coordinates for one network at one epoch."""

    l_nis: np.ndarray  # [N] CE against the dataset label, nats
    l_prd: np.ndarray  # [N] CE against the network's own argmax, nats
    predicted: np.ndarray  # [N] argmax labels, ties to the lowest class
    nrm_nis: np.ndarray  # [N] l_nis min-max scaled into [0, 1]
    nrm_prd: np.ndarray  # [N] l_prd min-max scaled into [0, 1]
    states: np.ndarray  # [N] agreement states 1..5 of `predicted` (data.audit_states)

    @property
    def n_samples(self) -> int:
        return self.l_nis.shape[0]


def profile(params: Layers, ds: NoisyDataset) -> LossProfile:
    """The normalized, audited loss cloud of `ds`; no parameter is updated."""
    # The forward writes into this process's reused layer outputs
    # (`full_forward`), so its logits are read here and never kept.
    probs = softmax(full_forward(params, ds.features))
    predicted = probs.argmax(axis=1).astype(np.int64)
    idx = np.arange(ds.n_samples)
    l_nis = -np.log(np.maximum(probs[idx, ds.noisy_labels], LOG_FLOOR))
    l_prd = -np.log(np.maximum(probs[idx, predicted], LOG_FLOOR))
    return LossProfile(
        l_nis=l_nis,
        l_prd=l_prd,
        predicted=predicted,
        nrm_nis=minmax_normalize(l_nis),
        nrm_prd=minmax_normalize(l_prd),
        states=audit_states(ds, predicted),
    )


def minmax_normalize(values: np.ndarray) -> np.ndarray:
    """(v - min)/(max - min) over the array; a flat axis maps to all zeros."""
    arr = np.asarray(values, dtype=np.float64)
    lo, hi = arr.min(), arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


SCATTER_HEADER = ["epoch", "net", "id", "l_nis", "l_prd", "nrm_nis", "nrm_prd", "pred", "state"]


def write_scatter(epoch: int, net: str, prof: LossProfile) -> str:
    """One network's normalized loss cloud for one epoch, as CSV text.

    Floats are written with `%.17g`, so they round-trip exactly. The
    constant `epoch,net` prefix goes through `csv.writer` once (quoting)
    and is %-escaped into every row (`data.write_csv`).
    """
    prefix = csv_row([epoch, net]).removesuffix("\r\n")
    row = prefix.replace("%", "%%") + ",%d,%.17g,%.17g,%.17g,%.17g,%d,%d\r\n"
    columns = [
        range(prof.n_samples),
        prof.l_nis.tolist(),
        prof.l_prd.tolist(),
        prof.nrm_nis.tolist(),
        prof.nrm_prd.tolist(),
        prof.predicted.tolist(),
        prof.states.tolist(),
    ]
    return write_csv(SCATTER_HEADER, row, columns)
