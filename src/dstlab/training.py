"""Two-network training loop: warmup, label refinement, MixUp, updates.

Each network is one `Workspace`, kept for the whole run; workspaces and
random streams are lists index-aligned with `NET_NAMES`, and every reader
of a network (profiles, ensemble partners, evaluation) takes the
workspace's `params` views. One selection-driven epoch runs in phases:
profile the active networks (both, or net1 alone in single-network mode)
over the full training set, fit one mixture per loss cloud, pass each
division (its branches already ablated by `selection.partition`) to its
consumer, then for each consumer in turn iterate shuffled mini-batches
where labels are refined with the ensemble, sharpened, mixed, and used for
a single SGD step. A failed mixture fit downgrades the consuming network
to a plain cross-entropy epoch.

Warmup, plain cross-entropy, the fit-failure fallback and the selection
epochs all run through one epoch loop that steps a workspace in place;
plain cross-entropy is that loop with the refinement stages switched off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .data import NoisyDataset
from .lossprofile import LossProfile, profile
from .network import (
    LOG_FLOOR,
    NetworkParams,
    Workspace,
    backprop_from_logits,
    forward_cached,
    one_hot,
    softmax,
)
from .rng import NET_NAMES, RngStreams
from .selection import BRANCH_LABELED, BRANCH_WRONG, Division, co_divide, selection_report


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


@dataclass
class _Refinement:
    """What a selection epoch adds to plain cross-entropy for one network."""

    others: list[NetworkParams]  # ensemble partners, not stepped this epoch
    keep: np.ndarray  # [N] weight on the label
    lean: np.ndarray  # [N] weight on the ensemble; wrong rows drawn per batch
    wrong: np.ndarray  # [N] wrong-branch mask
    cfg: ExperimentConfig
    wrong_rng: np.random.Generator
    mixup_rng: np.random.Generator | None  # None: no MixUp

    def batch(
        self, params: NetworkParams, x: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refined, sharpened and mixed batch. The ensemble sees the updating
        network's current parameters; wrong-branch blend weights are drawn
        fresh for every such sample, in batch order."""
        p_b = _mean_softmax([forward_cached(net, x)[0] for net in [params, *self.others]])
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


def _branch_table(division: Division) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    shuffle_rng: np.random.Generator,
    refinement: _Refinement | None = None,
) -> None:
    """One epoch of shuffled mini-batch SGD, updating `ws` in place.

    Without `refinement` each batch trains on its one-hot dataset labels
    with plain mean cross-entropy; with it, on refined, sharpened, mixed
    targets with the uniform-prior regularizer added.
    """
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    order = shuffle_rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, batch_size):
        idx = order[start : start + batch_size]
        x, y = ds.features[idx], targets[idx]
        if refinement is not None:
            x, y = refinement.batch(ws.params, x, y, idx)
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
    _train_epoch(ws, learning_rate, ds, batch_size, rng)


def run_dst_epoch(
    workspaces: list[Workspace],
    learning_rate: float,
    ds: NoisyDataset,
    cfg: ExperimentConfig,
    streams: RngStreams,
) -> tuple[dict, list[LossProfile]]:
    """One full selection-and-refinement epoch; updates the workspaces in place.

    The active networks are both, or net1 alone with `single_network`.
    Profiles are taken with frozen parameters before any update. Each
    consumer's partners are read when it starts, after the earlier
    consumers' updates. A fit failure on one loss cloud sends its consumer
    through a plain cross-entropy epoch instead, flagged in its report.
    Returns the reports per consuming net plus the fit errors, and the
    active networks' profiles in `NET_NAMES` order.
    """
    active = workspaces[:1] if cfg.single_network else workspaces
    # `profile` audits each network before the next one is profiled. All
    # profiles first and all audits after raised peak RSS by about 2 MB on
    # 20-256-256-4 nets through heap layout alone (the live data is the same).
    profiles = [profile(ws.params, ds) for ws in active]
    divisions, fit_errors = co_divide(profiles, cfg)

    selection: dict = {"fit_errors": fit_errors}
    for i, division in enumerate(divisions):
        name = NET_NAMES[i]
        if division is None:
            # Fit failed upstream: this network trains on raw labels today.
            plain_ce_epoch(workspaces[i], learning_rate, ds, cfg.batch_size, streams.shuffle[i])
            selection[name] = {"fallback": True}
            continue
        # Partners as they stand now, after the earlier consumers' updates.
        partners = [workspaces[j].params for j in range(len(divisions)) if j != i]
        refinement = _Refinement(
            partners,
            *_branch_table(division),
            cfg,
            streams.wrong_branch[i],
            None if cfg.no_mixup else streams.mixup[i],
        )
        _train_epoch(
            workspaces[i], learning_rate, ds, cfg.batch_size, streams.shuffle[i], refinement
        )
        selection[name] = {**selection_report(division, ds), "fallback": False}
    return selection, profiles


def evaluate(
    nets: dict[str, NetworkParams],
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
    logits = {name: forward_cached(params, features)[0] for name, params in nets.items()}
    out = {name: float((z.argmax(axis=1) == labels).mean()) for name, z in logits.items()}
    probs = _mean_softmax([logits[name] for name in ensemble])
    out["ensemble"] = float((probs.argmax(axis=1) == labels).mean())
    return out
