"""Two-network training loop: warmup, label refinement, MixUp, updates.

Each network is one `Workspace`, kept for the whole run; workspaces and
random streams are lists index-aligned with `NET_NAMES`, and every reader
of a network (profiles, ensemble partners, evaluation) takes the
workspace's `params` views. One selection-driven epoch profiles a frozen
network over the full training set and fits one mixture to its loss cloud
(`divide`), and passes that division, its branches already ablated by
`selection.partition`, to the partner network. Each consumer in turn then
iterates shuffled mini-batches where labels are refined with the ensemble,
sharpened, mixed, and used for a single SGD step. A failed mixture fit
downgrades the consuming network to a plain cross-entropy epoch.

Every read of a network that is not being stepped can run in another
process: net1's profile and fit, and each batch's partner softmax (see
`run_dst_epoch` and `lab._EpochWriter`). Such work gives the bytes this
process would compute, and what another process has not published yet
this process computes itself.

Warmup, plain cross-entropy, the fit-failure fallback and the selection
epochs all run through one epoch loop that steps a workspace in place;
plain cross-entropy is that loop with the refinement stages switched off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from .config import ExperimentConfig
from .data import NoisyDataset
from .lossprofile import LossProfile, profile
from .network import (
    LOG_FLOOR,
    Layers,
    Workspace,
    backprop_from_logits,
    forward_cached,
    full_forward,
    one_hot,
    softmax,
)
from .rng import NET_NAMES, RngStreams
from .selection import BRANCH_LABELED, BRANCH_WRONG, Division, co_divide, selection_report

# Per-sample keep/lean weights and the wrong-branch mask (`_branch_table`).
BranchTable = tuple[np.ndarray, np.ndarray, np.ndarray]


def _mean_softmax(logits: list[np.ndarray]) -> np.ndarray:
    """Softmax of each logit array, summed in list order, over their count.

    Works in place: the logit arrays are overwritten, the first holds the result.
    """
    total = softmax(logits[0], out=logits[0])
    for z in logits[1:]:
        total += softmax(z, out=z)
    total /= len(logits)
    return total


def sharpen(y_tilde: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature exponentiation and renormalization, row-wise."""
    arr = np.asarray(y_tilde, dtype=np.float64)
    powered = arr ** (1.0 / temperature)
    powered /= powered.sum(axis=-1, keepdims=True)
    return powered


def mixup_batch(
    x: np.ndarray, y: np.ndarray, alpha: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Mix each sample with a random partner from the same batch.

    Partners come from one uniform permutation; each pair gets its own
    coefficient. Draw order is fixed: permutation first, then coefficients.
    """
    n = x.shape[0]
    perm = rng.permutation(n)
    lam = rng.beta(alpha, alpha, size=n)
    lam = np.maximum(lam, 1.0 - lam)[:, None]
    return lam * x + (1.0 - lam) * x[perm], lam * y + (1.0 - lam) * y[perm]


def _regularizer_grad(p: np.ndarray, lambda_reg: float) -> np.ndarray:
    """lambda_reg times the uniform-prior regularizer's gradient w.r.t. the logits.

    The regularizer is the KL of the uniform distribution against the
    batch-mean softmax `p`; it vanishes when the mean prediction is uniform
    and grows as any class is starved. With g_c = -1 / (n * C * mean_c) its
    gradient is p * (g - (g . p)).
    """
    n, n_classes = p.shape
    p_mean = np.maximum(p.mean(axis=0), LOG_FLOOR)
    g = -1.0 / (n * n_classes * p_mean)
    reg = lambda_reg * p
    reg *= g[None, :] - (p @ g)[:, None]
    return reg


def softmax_of(params: Layers, x: np.ndarray) -> np.ndarray:
    """A network's softmax of a batch, computed in place of its logits."""
    logits = forward_cached(params, x)[0]
    return softmax(logits, out=logits)


def _unpublished(b: int) -> None:
    return None


@dataclass
class _Refinement:
    """What a selection epoch adds to plain cross-entropy for one network."""

    partner: Layers | None  # ensemble partner, not stepped this epoch; None: alone
    keep: np.ndarray  # [N] weight on the label
    lean: np.ndarray  # [N] weight on the ensemble; wrong rows drawn per batch
    wrong: np.ndarray  # [N] wrong-branch mask
    cfg: ExperimentConfig
    wrong_rng: np.random.Generator
    mixup_rng: np.random.Generator | None  # None: no MixUp
    # The partner's softmax of batch b as another process published it,
    # or None: then this process computes it.
    published: Callable[[int], np.ndarray | None] = _unpublished

    def batch(
        self, params: Layers, x: np.ndarray, y: np.ndarray, idx: np.ndarray, b: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refined, sharpened and mixed batch number `b`. The ensemble is the
        mean of the updating network's current softmax and its partner's,
        summed in that order; wrong-branch blend weights are drawn fresh
        for every such sample, in batch order."""
        p_b = softmax_of(params, x)
        if self.partner is not None:
            partner = self.published(b)
            p_b += softmax_of(self.partner, x) if partner is None else partner
            p_b /= 2
        keep, lean, wrong = self.keep[idx], self.lean[idx], self.wrong[idx]
        n_wrong = int(wrong.sum())
        if n_wrong:
            w_u = self.wrong_rng.uniform(size=n_wrong)
            keep[wrong] = 1.0 - w_u
            lean[wrong] = w_u
        p_b *= lean[:, None]
        p_b += keep[:, None] * y
        y_hat = sharpen(p_b, self.cfg.temperature)
        if self.mixup_rng is None:
            return x, y_hat
        return mixup_batch(x, y_hat, self.cfg.alpha, self.mixup_rng)


def _branch_table(division: Division) -> BranchTable:
    """Per-sample keep/lean weights and the wrong-branch mask for one epoch.

    Labeled rows keep w_r of the label and lean 1 - w_r on the ensemble;
    predicted rows keep 1 - w_prd and lean w_prd.
    """
    labeled = division.branches == BRANCH_LABELED
    wrong = division.branches == BRANCH_WRONG
    w_r, w_prd = division.w_r, division.w_prd
    return np.where(labeled, w_r, 1.0 - w_prd), np.where(labeled, 1.0 - w_r, w_prd), wrong


def _train_epoch(
    ws: Workspace,
    learning_rate: float,
    ds: NoisyDataset,
    batch_size: int,
    order: np.ndarray,
    refinement: _Refinement | None = None,
) -> None:
    """One epoch of mini-batch SGD over the samples in `order`, updating
    `ws` in place.

    Without `refinement` each batch trains on its one-hot dataset labels
    with plain mean cross-entropy; with it, on refined, sharpened, mixed
    targets with the uniform-prior regularizer added.
    """
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    for b, start in enumerate(range(0, ds.n_samples, batch_size)):
        idx = order[start : start + batch_size]
        x, y = ds.features[idx], targets[idx]
        if refinement is not None:
            x, y = refinement.batch(ws.params, x, y, idx, b)
        logits, activations = forward_cached(ws.params, x)
        p = softmax(logits, out=logits)
        reg = None if refinement is None else _regularizer_grad(p, refinement.cfg.lambda_reg)
        # p becomes the mean cross-entropy's gradient (p - y) / n in place.
        d_logits = p
        d_logits -= y
        d_logits /= idx.size
        if reg is not None:
            d_logits += reg
        backprop_from_logits(ws.params, activations, d_logits, out=ws.grads)
        ws.step(learning_rate)


def plain_ce_epoch(
    ws: Workspace,
    learning_rate: float,
    ds: NoisyDataset,
    batch_size: int,
    rng: np.random.Generator,
) -> None:
    """One epoch of shuffled mini-batch cross-entropy on the dataset labels."""
    _train_epoch(ws, learning_rate, ds, batch_size, rng.permutation(ds.n_samples))


def divide(
    params: Layers, ds: NoisyDataset, cfg: ExperimentConfig, source: str
) -> tuple[LossProfile, Division | None, dict[str, str]]:
    """Profile the frozen network named `source` and fit its loss cloud.

    Returns the profile, the division its partner trains on (None when the
    fit failed) and the fit error under `source`, if any.
    """
    prof = profile(params, ds)
    [division], fit_errors = co_divide([prof], cfg, (source,))
    return prof, division, fit_errors


class Offload(Protocol):
    """Another process that reads the frozen networks of a two-network
    epoch (`lab._EpochWriter`): net1's profile and fit, which make net2's
    division, and each batch's partner softmax."""

    def loop(self, i: int, order: np.ndarray) -> Callable[[int], np.ndarray | None]:
        """Net i's refined loop starts in `order`: the partner softmax of
        each batch, once published, else None."""

    def net1_trained(self, flat: np.ndarray, order2: np.ndarray | None) -> None:
        """Net1's parameters for this epoch are final; net2 trains next in
        `order2` (None: not in this epoch)."""

    def division(self) -> tuple[BranchTable | None, dict, dict[str, str]]:
        """Net2's branch table for this epoch (None: it falls back), its
        report and the fit error of net1's cloud, if any."""


def run_dst_epoch(
    workspaces: list[Workspace],
    learning_rate: float,
    ds: NoisyDataset,
    cfg: ExperimentConfig,
    streams: RngStreams,
    offload: Offload | None = None,
) -> tuple[dict, list[LossProfile | None]]:
    """One full selection-and-refinement epoch; updates the workspaces in place.

    The active networks are both, or net1 alone with `single_network`. A
    division is made from a network's profile taken with its parameters
    from the end of the previous epoch, before any update in this one.
    Consumer i trains on the division of network (i + 1) mod n, and reads
    its partner as it stands when its loop starts, after the earlier
    consumer's updates. A fit failure on one loss cloud sends its consumer
    through a plain cross-entropy epoch instead, flagged in its report.

    Without `offload` every profile and fit is made here, at the start of
    the epoch. With it (two networks only), net2's division and the
    partner softmaxes come from the offload process, which profiles net1
    as soon as net1's loop of the previous epoch ended: only net2's profile
    and fit are made here. Either way the bytes are the same.

    Returns the reports per consuming net plus the fit errors, and the
    active networks' profiles in `NET_NAMES` order; net1's is None with
    `offload`, which keeps it.
    """
    active = workspaces[:1] if cfg.single_network else workspaces
    if offload is None:
        # `profile` audits each network before the next one is profiled, and
        # both forwards write into the same reused layer outputs
        # (`network.full_forward`), so a second profile adds only its cloud.
        profiles: list[LossProfile | None] = [profile(ws.params, ds) for ws in active]
        divisions, fit_errors = co_divide(profiles, cfg)
    else:
        prof2, for_net1, fit_errors = divide(workspaces[1].params, ds, cfg, "net2")
        profiles, divisions = [None, prof2], [for_net1, None]

    selection: dict = {"fit_errors": fit_errors}
    for i, ws in enumerate(active):
        order = streams.shuffle[i].permutation(ds.n_samples)
        if offload is not None and i == 1:
            offload.net1_trained(workspaces[0].flat, order)
            table, report, errors = offload.division()
            fit_errors.update(errors)
        elif divisions[i] is None:
            table, report = None, {"fallback": True}
        else:
            table = _branch_table(divisions[i])
            report = {**selection_report(divisions[i], ds), "fallback": False}
        selection[NET_NAMES[i]] = report
        refinement = None
        if table is not None:
            # The partner as it stands now, after the earlier consumer's updates.
            partner = None if len(active) == 1 else workspaces[1 - i].params
            refinement = _Refinement(
                partner,
                *table,
                cfg,
                streams.wrong_branch[i],
                None if cfg.no_mixup else streams.mixup[i],
                _unpublished if offload is None else offload.loop(i, order),
            )
        _train_epoch(ws, learning_rate, ds, cfg.batch_size, order, refinement)
    return selection, profiles


def evaluate(
    nets: dict[str, Layers],
    features: np.ndarray,
    labels: np.ndarray,
    ensemble: tuple[str, ...],
) -> dict[str, float]:
    """Test accuracy of each named net and of the `ensemble` members' mean.

    One forward pass per net serves both: a net's own accuracy takes the
    argmax of its logits, the ensemble's the argmax of the members' mean
    softmax.
    """
    labels = np.asarray(labels)
    logits = {name: full_forward(params, features).copy() for name, params in nets.items()}
    out = {name: float((z.argmax(axis=1) == labels).mean()) for name, z in logits.items()}
    probs = _mean_softmax([logits[name] for name in ensemble])
    out["ensemble"] = float((probs.argmax(axis=1) == labels).mean())
    return out
