"""Per-sample loss profiles under a frozen network.

For every training sample two cross-entropies are computed: one against the
(possibly noisy) dataset label and one against the network's own argmax
prediction. `profile` returns the finished cloud that the selection, its
report and the scatter dump all read: both loss axes, their min-max
normalization into the unit square (the space the mixture model and its
anchor means live in), the predictions and each sample's agreement state.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .data import NoisyDataset, audit_states
from .network import LOG_FLOOR, NetworkParams, forward_cached, softmax


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


def profile(params: NetworkParams, ds: NoisyDataset) -> LossProfile:
    """The normalized, audited loss cloud of `ds`; no parameter is updated."""
    logits, activations = forward_cached(params, ds.features)
    probs = softmax(logits)
    predicted = probs.argmax(axis=1).astype(np.int64)
    idx = np.arange(ds.n_samples)
    l_nis = -np.log(np.maximum(probs[idx, ds.noisy_labels], LOG_FLOOR))
    l_prd = -np.log(np.maximum(probs[idx, predicted], LOG_FLOOR))
    # The forward's arrays are freed before the normalization and the audit
    # allocate: held until the return, they raised `cli-default` peak RSS
    # by about 0.4 MB.
    del logits, activations, probs
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


def write_scatter(path: Path | str, epoch: int, net: str, prof: LossProfile) -> None:
    """Dump one network's normalized loss cloud for one epoch as CSV.

    Floats are written with `%.17g`, so they round-trip exactly. The
    header and the constant `epoch,net` prefix go through `csv.writer`
    once (quoting, `\\r\\n` terminator); the rows are formatted in bulk.
    """
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
        prof.states.tolist(),
    ]
    body = (row * prof.n_samples) % tuple(chain.from_iterable(zip(*columns)))
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(text[:header_end] + body)
