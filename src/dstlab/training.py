"""Two-network training loop: warmup, label refinement, MixUp, updates.

One selection-driven epoch runs in phases: profile both networks over the
full training set, fit one mixture per loss cloud, swap the divisions
between the networks, then for each network in turn iterate shuffled
mini-batches where labels are refined with the frozen ensemble, sharpened,
mixed, and used for a single SGD step. A failed mixture fit downgrades the
consuming network to a plain cross-entropy epoch.

Warmup, plain cross-entropy, the fit-failure fallback and the selection
epochs all run through one epoch loop on a per-epoch `Workspace`; plain
cross-entropy is that loop with the refinement stages switched off.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import NoisyDataset, audit_states
from .errors import ConfigError, StructuralError
from .gmm import model_to_dict
from .lossprofile import LossProfile, normalize, profile
from .network import (
    LOG_FLOOR,
    NetworkParams,
    OptimizerState,
    Workspace,
    backprop_from_logits,
    forward_cached,
    init_network,
    one_hot,
    softmax,
)
from .rng import RngStreams
from .selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    DEFAULT_ANCHORS,
    SelectionWeights,
    co_divide,
    selection_report,
    self_divide,
)

NET_NAMES = ("net1", "net2")


@dataclass
class TrainSchedule:
    """Epoch and optimizer schedule. Epochs are 1-indexed."""

    total_epochs: int = 120
    warmup_epochs: int = 15
    batch_size: int = 128
    learning_rate: float = 0.02
    lr_decay_factor: float = 0.2
    lr_decay_period: int = 80
    momentum: float = 0.9
    weight_decay: float = 5e-4

    def __post_init__(self) -> None:
        if self.warmup_epochs < 1:
            raise ConfigError(f"warmup_epochs must be >= 1, got {self.warmup_epochs}")
        if self.total_epochs <= self.warmup_epochs:
            raise ConfigError(
                f"total_epochs ({self.total_epochs}) must exceed "
                f"warmup_epochs ({self.warmup_epochs})"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.lr_decay_period < 1:
            raise ConfigError(f"lr_decay_period must be >= 1, got {self.lr_decay_period}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ConfigError(
                f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor}"
            )
        # The optimizer's own range checks, before any run file is written.
        OptimizerState(self.learning_rate, self.momentum, self.weight_decay)

    def learning_rate_at(self, epoch: int) -> float:
        """Steps down by lr_decay_factor after each lr_decay_period epochs."""
        if epoch < 1:
            raise ConfigError(f"epochs are 1-indexed, got {epoch}")
        return self.learning_rate * self.lr_decay_factor ** (
            (epoch - 1) // self.lr_decay_period
        )


@dataclass
class DstParams:
    """Selection and refinement hyperparameters."""

    tau_r: float = 0.5
    tau_prd: float = 0.5
    temperature: float = 0.5
    alpha: float = 4.0
    lambda_reg: float = 1.0
    gmm_tol: float = 20.0
    gmm_max_iter: int = 100
    anchors: np.ndarray = field(default_factory=lambda: DEFAULT_ANCHORS.copy())

    def __post_init__(self) -> None:
        for name in ("tau_r", "tau_prd"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ConfigError(f"{name} must be in (0, 1), got {value}")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be > 0, got {self.temperature}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.lambda_reg < 0:
            raise ConfigError(f"lambda_reg must be >= 0, got {self.lambda_reg}")


@dataclass
class Ablation:
    """Switches that remove one mechanism at a time."""

    ce_only: bool = False  # plain cross-entropy for all epochs
    no_mixup: bool = False  # train on refined labels without mixing
    single_network: bool = False  # net1 only, dividing on its own losses
    disable_branch: str | None = None  # route this branch to the wrong set
    all_wrong: bool = False  # route every sample to the wrong set

    def __post_init__(self) -> None:
        if self.disable_branch is not None and self.disable_branch not in (
            "labeled",
            "predicted",
        ):
            raise ConfigError(
                f"disable_branch must be labeled or predicted, got {self.disable_branch!r}"
            )


@dataclass
class NetworkPair:
    net1: NetworkParams
    net2: NetworkParams
    opt1: OptimizerState
    opt2: OptimizerState

    @classmethod
    def create(
        cls,
        sizes: list[int],
        schedule: TrainSchedule,
        rng1: np.random.Generator,
        rng2: np.random.Generator,
    ) -> "NetworkPair":
        net1 = init_network(sizes, rng1)
        net2 = init_network(sizes, rng2)
        make_opt = lambda p: OptimizerState.for_network(
            p, schedule.learning_rate, schedule.momentum, schedule.weight_decay
        )
        return cls(net1=net1, net2=net2, opt1=make_opt(net1), opt2=make_opt(net2))

    def set_learning_rate(self, lr: float) -> None:
        self.opt1.learning_rate = lr
        self.opt2.learning_rate = lr

    def nets(self) -> dict[str, NetworkParams]:
        return {"net1": self.net1, "net2": self.net2}


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
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
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
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
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

    others: list[NetworkParams]  # frozen ensemble partners
    keep: np.ndarray  # [N] weight on the label
    lean: np.ndarray  # [N] weight on the ensemble; wrong rows drawn per batch
    wrong: np.ndarray  # [N] wrong-branch mask
    dst: DstParams
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
        y_hat = sharpen(p_b, self.dst.temperature)
        if self.mixup_rng is None:
            return x, y_hat
        return mixup_batch(x, y_hat, self.dst.alpha, self.mixup_rng)


def _branch_table(
    weights: SelectionWeights, branches: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample keep/lean weights and the wrong-branch mask for one epoch.

    Labeled rows keep w_r of the label and lean 1 - w_r on the ensemble;
    predicted rows keep 1 - w_prd and lean w_prd.
    """
    labeled = branches == BRANCH_LABELED
    wrong = branches == BRANCH_WRONG
    if not (labeled | wrong | (branches == BRANCH_PREDICTED)).all():
        raise StructuralError("branch codes must be labeled, predicted or wrong")
    w_r, w_prd = weights.w_r, weights.w_prd
    return np.where(labeled, w_r, 1.0 - w_prd), np.where(labeled, 1.0 - w_r, w_prd), wrong


def _train_epoch(
    params: NetworkParams,
    opt: OptimizerState,
    ds: NoisyDataset,
    batch_size: int,
    shuffle_rng: np.random.Generator,
    refinement: _Refinement | None = None,
) -> NetworkParams:
    """One epoch of shuffled mini-batch SGD on a fresh `Workspace`.

    Without `refinement` each batch trains on its one-hot dataset labels
    with plain mean cross-entropy; with it, on refined, sharpened, mixed
    targets with the uniform-prior regularizer added. Returns fresh params.
    """
    ws = Workspace(params, opt)
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    order = shuffle_rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, batch_size):
        idx = order[start : start + batch_size]
        x, y = ds.features[idx], targets[idx]
        if refinement is not None:
            x, y = refinement.batch(ws.params, x, y, idx)
        logits, activations = forward_cached(ws.params, x)
        p = softmax(logits, out=logits)
        reg = None if refinement is None else _regularizer_grad(p, refinement.dst.lambda_reg)
        # p becomes the mean cross-entropy's gradient (p - y) / n in place.
        d_logits = p
        d_logits -= y
        d_logits /= idx.size
        if reg is not None:
            d_logits += reg
        backprop_from_logits(ws.params, activations, d_logits, out=ws.grads)
        ws.step()
    return ws.snapshot()


def plain_ce_epoch(
    params: NetworkParams,
    opt: OptimizerState,
    ds: NoisyDataset,
    batch_size: int,
    rng: np.random.Generator,
) -> NetworkParams:
    """One epoch of shuffled mini-batch cross-entropy on the dataset labels."""
    return _train_epoch(params, opt, ds, batch_size, rng)


@dataclass
class ScatterData:
    """Normalized loss cloud plus audit states, ready for CSV dumping."""

    profile: LossProfile
    states: np.ndarray


@dataclass
class DstEpochResult:
    selection: dict  # per consuming net: report, gmm diagnostics, fallback
    scatter: dict[str, ScatterData]


def _apply_branch_ablation(branches: np.ndarray, ablation: Ablation) -> np.ndarray:
    out = branches.copy()
    if ablation.all_wrong:
        out[:] = BRANCH_WRONG
        return out
    if ablation.disable_branch == "labeled":
        out[out == BRANCH_LABELED] = BRANCH_WRONG
    elif ablation.disable_branch == "predicted":
        out[out == BRANCH_PREDICTED] = BRANCH_WRONG
    return out


def run_dst_epoch(
    pair: NetworkPair,
    ds: NoisyDataset,
    dst: DstParams,
    batch_size: int,
    streams: RngStreams,
    ablation: Ablation | None = None,
) -> DstEpochResult:
    """One full selection-and-refinement epoch over both networks.

    Profiles are taken with frozen parameters before any update; a fit
    failure on one loss cloud sends the consuming network through a plain
    cross-entropy epoch instead, flagged in the result.
    """
    ablation = ablation or Ablation()
    prof1 = normalize(profile(pair.net1, ds))
    scatter = {"net1": ScatterData(prof1, audit_states(ds, prof1.predicted))}
    fit_options = dict(
        anchors=dst.anchors,
        tol=dst.gmm_tol,
        max_iter=dst.gmm_max_iter,
        tau_r=dst.tau_r,
        tau_prd=dst.tau_prd,
    )
    if ablation.single_network:
        codiv = self_divide(prof1, **fit_options)
    else:
        prof2 = normalize(profile(pair.net2, ds))
        scatter["net2"] = ScatterData(prof2, audit_states(ds, prof2.predicted))
        codiv = co_divide(prof1, prof2, **fit_options)

    selection: dict = {"fit_errors": codiv.fit_errors}
    consumers = ("net1",) if ablation.single_network else NET_NAMES
    for i, name in enumerate(consumers):
        division = codiv.for_net1 if name == "net1" else codiv.for_net2
        opt = pair.opt1 if name == "net1" else pair.opt2
        shuffle_rng = streams.shuffle[i]
        if division is None:
            # Fit failed upstream: this network trains on raw labels today.
            updated = plain_ce_epoch(
                getattr(pair, name), opt, ds, batch_size, shuffle_rng
            )
            setattr(pair, name, updated)
            selection[name] = {"fallback": True}
            continue
        branches = _apply_branch_ablation(division.branches, ablation)
        if ablation.single_network:
            other_nets = []
        else:
            other_nets = [pair.net2 if name == "net1" else pair.net1]
        refinement = _Refinement(
            other_nets,
            *_branch_table(division.weights, branches),
            dst,
            streams.wrong_branch[i],
            None if ablation.no_mixup else streams.mixup[i],
        )
        updated = _train_epoch(
            getattr(pair, name), opt, ds, batch_size, shuffle_rng, refinement
        )
        setattr(pair, name, updated)
        report = selection_report(branches, ds, division.predicted)
        report["source"] = division.source
        report["roles"] = asdict(division.roles)
        report["gmm"] = model_to_dict(division.model)
        report["fallback"] = False
        selection[name] = report
    return DstEpochResult(selection=selection, scatter=scatter)


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
