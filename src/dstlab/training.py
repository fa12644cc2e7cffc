"""Two-network training: warmup, label refinement, MixUp, updates.

Each network is one `Workspace`, kept for the whole run; workspaces and
random streams are lists index-aligned with `NET_NAMES`, and every reader
of a network (profiles, ensemble partners, evaluation) takes the
workspace's `params` views. `run_epoch` is the run's one epoch loop, for
warmup, plain cross-entropy, the fit-failure fallback and selection
alike: per network it draws the batch order, takes the division it
trains on (none outside selection epochs, or when the fit failed) and
steps the workspace through `_train_epoch`. Plain cross-entropy is that
loop with the refinement stages switched off. A selection epoch profiles
a frozen network over the full training set, and `selection.divide`
turns its loss cloud into a branch table; its partner trains on that
table, iterating shuffled mini-batches whose labels are refined with the
ensemble, sharpened, mixed, and used for a single SGD step.

Every read of a network that is not being stepped can run in another
process: net1's profile and fit, and each batch's partner softmax.
`run_epoch` decides, per network turn, which of them it asks for (see
`lab._EpochWriter`). Such work gives the bytes this process would
compute, and what another process has not published yet this process
computes itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
from .selection import divide


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


def run_epoch(
    epoch: int,
    workspaces: list[Workspace],
    ds: NoisyDataset,
    cfg: ExperimentConfig,
    streams: RngStreams,
    offload=None,
) -> tuple[dict | None, list[LossProfile | None]]:
    """Train one epoch of the run in place, one network after the other.

    Warmup and `ce_only` epochs train both networks on plain cross-entropy.
    A selection epoch trains both, or net1 alone with `single_network`:
    network i trains on the division of network (i + 1) mod n's cloud, the
    other network's or, alone, its own. Each cloud is profiled with the
    parameters from the end of the previous epoch, before any update in
    this one, and a partner is read as it stands when its consumer's loop
    starts, after the earlier consumer's updates. A failed fit sends its
    consumer through a plain cross-entropy epoch, flagged in its report
    with the reason.

    `offload`, if given, is the run's epoch writer (`lab._EpochWriter`;
    two networks only), and this function alone decides its work. It
    makes net2's division (`division`): at net2's turn of the epoch before
    a selection epoch, it profiles net1 and fits its cloud. It serves the
    partner softmaxes of each turn that trains on a division (`loop`).
    A turn calls `loop` only when it gives the writer such work, and
    net2's turn reads its division first. Both calls name `epoch`: the
    writer keeps no count of its own. Without `offload` everything runs in
    this process, and the bytes are the same either way.

    Returns the selection reports per consuming network (None outside
    selection epochs; see `selection.divide`), and the profiles of a
    selection epoch's networks in `NET_NAMES` order (none otherwise); net1's
    is None with `offload`, which made it.
    """
    dst = cfg.phase_at(epoch) == "dst"
    active = workspaces[:1] if dst and cfg.single_network else workspaces
    selection: dict | None = {} if dst else None
    profiles: list[LossProfile | None] = []
    if dst:
        # `profile` audits each network before the next one is profiled, and
        # both forwards write into the same reused layer outputs
        # (`network.full_forward`), so a second profile adds only its cloud.
        profiles = [
            None if offload is not None and i == 0 else profile(ws.params, ds)
            for i, ws in enumerate(active)
        ]
    next_dst = epoch < cfg.total_epochs and cfg.phase_at(epoch + 1) == "dst"
    for i, ws in enumerate(active):
        order = streams.shuffle[i].permutation(ds.n_samples)
        table = None
        if dst:
            if offload is not None and i == 1:
                table, selection[NET_NAMES[i]] = offload.division(epoch)
            else:
                source = (i + 1) % len(active)
                table, selection[NET_NAMES[i]] = divide(profiles[source], cfg, NET_NAMES[source])
        serve, divide_next = table is not None, i == 1 and next_dst
        published = _unpublished
        if offload is not None and (serve or divide_next):
            published = offload.loop(epoch, i, order, workspaces[0].flat, serve, divide_next)
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
                published,
            )
        _train_epoch(ws, cfg.learning_rate_at(epoch), ds, cfg.batch_size, order, refinement)
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
