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

Every network that is read but not stepped is read through one forward
over the full training set (`full_softmax`): a profile's softmax, and an
ensemble partner's, whose rows each batch reads. Net1's mixture fit, which
makes net2's division, can run in another process (`lab._EpochWriter`);
it gives the bytes this process would compute.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


def full_softmax(params: Layers, ds: NoisyDataset) -> np.ndarray:
    """A network's softmax over the whole training set, [N, C] in dataset
    order, from one `full_forward`. The logits there are overwritten by the
    next full forward in this process; the softmax is a fresh array."""
    return softmax(full_forward(params, ds.features))


@dataclass
class _Refinement:
    """What a selection epoch adds to plain cross-entropy for one network."""

    # The ensemble partner's `full_softmax`, taken as the loop starts: the
    # partner is not stepped during it. None: the network trains alone.
    partner: np.ndarray | None
    keep: np.ndarray  # [N] weight on the label
    lean: np.ndarray  # [N] weight on the ensemble; wrong rows drawn per batch
    wrong: np.ndarray  # [N] wrong-branch mask
    cfg: ExperimentConfig
    wrong_rng: np.random.Generator
    mixup_rng: np.random.Generator | None  # None: no MixUp

    def batch(
        self, params: Layers, x: np.ndarray, y: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Refined, sharpened and mixed batch of rows `idx`. The ensemble is
        the mean of the updating network's current softmax and its
        partner's rows, summed in that order; wrong-branch blend weights
        are drawn fresh for every such sample, in batch order."""
        p_b = softmax_of(params, x)
        if self.partner is not None:
            p_b += self.partner[idx]
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


class Epoch(NamedTuple):
    """What `run_epoch` trained one epoch with, and what it made."""

    phase: str  # `ExperimentConfig.phase_at`
    learning_rate: float  # `ExperimentConfig.learning_rate_at`
    selection: dict | None  # per consuming network; None outside selection epochs
    profiles: list[LossProfile | None]  # a selection epoch's, in `NET_NAMES` order


def run_epoch(
    epoch: int,
    workspaces: list[Workspace],
    ds: NoisyDataset,
    cfg: ExperimentConfig,
    streams: RngStreams,
    offload=None,
) -> Epoch:
    """Train one epoch of the run in place, one network after the other.

    Warmup and `ce_only` epochs train both networks on plain cross-entropy.
    A selection epoch trains both, or net1 alone with `single_network`:
    network i trains on the division of network (i + 1) mod n's cloud, the
    other network's or, alone, its own. Each cloud is profiled with the
    parameters from the end of the previous epoch, before any update in
    this one, and a partner is read as it stands when its consumer's loop
    starts, after the earlier consumer's updates: net1's partner is net2's
    softmax behind its profile, net2's is one `full_softmax` of net1 at
    net2's turn. A failed fit sends its consumer through a plain
    cross-entropy epoch, flagged in its report with the reason. This
    function alone reads the schedule, the epoch's phase and learning
    rate; the epoch writer records what it returns.

    `offload`, if given, is the run's epoch writer (`lab._EpochWriter`;
    two networks only), and makes net2's divisions. At net2's turn of the
    epoch before a selection epoch, the cloud of net1's `full_softmax`,
    which is also net2's partner then, goes to the writer to be fitted
    and, later, dumped (`divide`), and net2's turn of the selection epoch
    reads the division back (`division`) before anything else. Both calls
    name `epoch`: the writer keeps no count of its own. So a two-network
    selection epoch makes two training-set forwards here, net2's at the
    start and net1's at net2's turn, and the last warmup epoch one,
    net1's. Without `offload` everything runs in this process, net1 is
    also profiled at the start, and the bytes are the same either way.

    Returns an `Epoch`: the phase and learning rate the epoch trained
    with, the selection reports per consuming network (None outside
    selection epochs; see `selection.divide`), and the profiles of a
    selection epoch's networks in `NET_NAMES` order (none otherwise);
    net1's is None with `offload`, which got it at the epoch before.
    """
    phase, learning_rate = cfg.phase_at(epoch), cfg.learning_rate_at(epoch)
    dst = phase == "dst"
    active = workspaces[:1] if dst and cfg.single_network else workspaces
    selection: dict | None = {} if dst else None
    # The active networks' full-set softmaxes from before any update, and
    # their clouds. With `offload`, net1's cloud was made at net2's turn
    # of the epoch before, and the writer fits it.
    softmaxes = [
        full_softmax(ws.params, ds) if dst and (offload is None or i == 1) else None
        for i, ws in enumerate(active)
    ]
    profiles = [None if p is None else profile(p, ds) for p in softmaxes] if dst else []
    next_dst = epoch < cfg.total_epochs and cfg.phase_at(epoch + 1) == "dst"
    divide_next = offload is not None and next_dst
    for i, ws in enumerate(active):
        order = streams.shuffle[i].permutation(ds.n_samples)
        table = None
        if dst:
            if offload is not None and i == 1:
                table, selection[NET_NAMES[i]] = offload.division(epoch)
            else:
                source = (i + 1) % len(active)
                table, selection[NET_NAMES[i]] = divide(profiles[source], cfg, NET_NAMES[source])
        partner = None
        if i == 0 and len(active) == 2:
            partner = softmaxes[1]
        elif i == 1 and (table is not None or divide_next):
            # Net1 as its loop left it.
            partner = full_softmax(workspaces[0].params, ds)
            if divide_next:
                offload.divide(epoch, profile(partner, ds))
        refinement = None
        if table is not None:
            refinement = _Refinement(
                partner,
                *table,
                cfg,
                streams.wrong_branch[i],
                None if cfg.no_mixup else streams.mixup[i],
            )
        _train_epoch(ws, learning_rate, ds, cfg.batch_size, order, refinement)
    return Epoch(phase, learning_rate, selection, profiles)


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
