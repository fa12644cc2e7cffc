"""Per-sample loss profiles under a frozen network.

For every training sample two cross-entropies are computed: one against the
(possibly noisy) dataset label and one against the network's own argmax
prediction. `profile` returns the finished cloud that the selection, its
report and the scatter dump all read: both loss axes, their min-max
normalization into the unit square (the space the mixture model and its
anchor means live in), the predictions and each sample's agreement state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import NoisyDataset, audit_states, write_csv
from .network import LOG_FLOOR


@dataclass
class LossProfile:
    """Dataset-ordered loss coordinates for one network at one epoch.

    Each field is an [N] array and declares its dtype in its metadata
    ("dtype"), which `profile` returns. That is all a process needs to
    hold a cloud in shared memory (`lab._shared_arrays`): one array per
    field of `dataclasses.fields(LossProfile)`.
    """

    l_nis: np.ndarray = field(metadata={"dtype": np.float64})  # CE against the dataset label, nats
    l_prd: np.ndarray = field(metadata={"dtype": np.float64})  # CE against its own argmax, nats
    predicted: np.ndarray = field(metadata={"dtype": np.int64})  # argmax, ties to the lowest class
    nrm_nis: np.ndarray = field(metadata={"dtype": np.float64})  # l_nis min-max scaled into [0, 1]
    nrm_prd: np.ndarray = field(metadata={"dtype": np.float64})  # l_prd min-max scaled into [0, 1]
    states: np.ndarray = field(metadata={"dtype": np.int64})  # states 1..5 (data.audit_states)

    @property
    def n_samples(self) -> int:
        return self.l_nis.shape[0]


def profile(probs: np.ndarray, ds: NoisyDataset) -> LossProfile:
    """The normalized, audited loss cloud of `ds` under a frozen network,
    from its softmax over the whole set (`training.full_softmax`), [N, C]
    in dataset order."""
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


def write_scatter(epoch: int, net: str, prof: LossProfile) -> bytes:
    """One network's normalized loss cloud for one epoch, as CSV bytes.

    Floats are written with `%.17g`, so they round-trip exactly
    (`data.write_csv`: about 3.5 ms for a 4000-row cloud, 6 ms in the
    epoch writer while the run trains).
    """
    columns = [
        np.arange(prof.n_samples),
        prof.l_nis,
        prof.l_prd,
        prof.nrm_nis,
        prof.nrm_prd,
        prof.predicted,
        prof.states,
    ]
    return write_csv(SCATTER_HEADER, columns, lead=(epoch, net))
