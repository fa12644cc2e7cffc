"""Two-network training loop: warmup, label refinement, MixUp, updates.

One selection-driven epoch runs in phases: profile both networks over the
full training set, fit one mixture per loss cloud, swap the divisions
between the networks, then for each network in turn iterate shuffled
mini-batches where labels are refined with the frozen ensemble, sharpened,
mixed, and used for a single SGD step. A failed mixture fit downgrades the
consuming network to a plain cross-entropy epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import NoisyDataset, audit_states
from .errors import ConfigError, StructuralError
from .gmm import model_to_dict
from .lossprofile import LossProfile, normalize, profile
from .network import (
    LOG_FLOOR,
    Grads,
    NetworkParams,
    OptimizerState,
    backprop_from_logits,
    forward_cached,
    init_network,
    one_hot,
    sgd_step,
    softmax,
)
from .rng import RngStreams
from .selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    DEFAULT_ANCHORS,
    Division,
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
    """Softmax of each logit array, summed in list order, over their count."""
    total = None
    for z in logits:
        p = softmax(z)
        total = p if total is None else total + p
    return total / len(logits)


def ensemble_probs(nets: list[NetworkParams], x: np.ndarray) -> np.ndarray:
    """Mean softmax over the given frozen networks."""
    rows = np.atleast_2d(np.asarray(x, dtype=np.float64))
    out = _mean_softmax([forward_cached(params, rows)[0] for params in nets])
    return out[0] if np.asarray(x).ndim == 1 else out


def ensemble_predict(pair: NetworkPair, x: np.ndarray) -> np.ndarray:
    """Arithmetic mean of both networks' softmax outputs, frozen."""
    return ensemble_probs([pair.net1, pair.net2], x)


def refine_label(
    y: np.ndarray,
    p_b: np.ndarray,
    w_r: float,
    w_prd: float,
    tau_r: float,
    tau_prd: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Three-case soft relabeling of a single sample.

    High correctly-labeled weight keeps the label in proportion w_r; a
    high correctly-predicted weight leans on the ensemble in proportion
    w_prd; otherwise a fresh uniform draw sets the blend.
    """
    y = np.asarray(y, dtype=np.float64)
    p_b = np.asarray(p_b, dtype=np.float64)
    if w_r >= tau_r:
        return w_r * y + (1.0 - w_r) * p_b
    if w_prd >= tau_prd:
        return (1.0 - w_prd) * y + w_prd * p_b
    w_u = rng.uniform()
    return (1.0 - w_u) * y + w_u * p_b


def refine_batch(
    y: np.ndarray,
    p_b: np.ndarray,
    w_r: np.ndarray,
    w_prd: np.ndarray,
    branches: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized refinement with branch codes decided by the caller.

    Wrong-branch blend weights are drawn fresh for every sample in every
    batch, in batch order, from the dedicated stream.
    """
    if not (y.shape == p_b.shape and y.shape[0] == branches.shape[0]):
        raise StructuralError("refine_batch shape mismatch")
    # Per-row weights on the label (keep) and on the ensemble (lean).
    keep = np.empty(len(branches))
    lean = np.empty(len(branches))
    lab = branches == BRANCH_LABELED
    prd = branches == BRANCH_PREDICTED
    wrg = branches == BRANCH_WRONG
    keep[lab] = w_r[lab]
    lean[lab] = 1.0 - w_r[lab]
    keep[prd] = 1.0 - w_prd[prd]
    lean[prd] = w_prd[prd]
    n_wrong = int(wrg.sum())
    if n_wrong:
        w_u = rng.uniform(size=n_wrong)
        keep[wrg] = 1.0 - w_u
        lean[wrg] = w_u
    return keep[:, None] * y + lean[:, None] * p_b


def sharpen(y_tilde: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature exponentiation and renormalization, row-wise."""
    if temperature <= 0:
        raise ConfigError(f"temperature must be > 0, got {temperature}")
    arr = np.asarray(y_tilde, dtype=np.float64)
    powered = arr ** (1.0 / temperature)
    return powered / powered.sum(axis=-1, keepdims=True)


def fold_lambda(lam: float) -> float:
    """Mixing coefficients are reflected into [0.5, 1]."""
    return max(lam, 1.0 - lam)


def draw_mixup_lambda(alpha: float, rng: np.random.Generator) -> float:
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    return fold_lambda(float(rng.beta(alpha, alpha)))


def mixup_pair(
    sample1: tuple[np.ndarray, np.ndarray],
    sample2: tuple[np.ndarray, np.ndarray],
    alpha: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of two samples with a Beta-drawn coefficient."""
    x1, y1 = sample1
    x2, y2 = sample2
    lam = draw_mixup_lambda(alpha, rng)
    return lam * np.asarray(x1) + (1.0 - lam) * np.asarray(x2), lam * np.asarray(
        y1
    ) + (1.0 - lam) * np.asarray(y2)


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


def batch_objective(
    params: NetworkParams, x: np.ndarray, y: np.ndarray, lambda_reg: float
) -> tuple[float, Grads]:
    """Mean cross-entropy on soft targets plus the uniform-prior regularizer.

    The regularizer is the KL of the uniform distribution against the
    batch-mean softmax; it vanishes when the mean prediction is uniform
    and grows as any class is starved.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape != (x.shape[0], params.n_outputs):
        raise StructuralError("target shape does not match batch and class count")
    logits, activations = forward_cached(params, x)
    p = softmax(logits)
    n, n_classes = p.shape
    loss_x = float(-(y * np.log(np.maximum(p, LOG_FLOOR))).sum() / n)
    p_mean = np.maximum(p.mean(axis=0), LOG_FLOOR)
    loss_reg = float((np.log(1.0 / n_classes) - np.log(p_mean)).sum() / n_classes)
    # d/dlogits of the mean CE is (p - y)/n; the regularizer adds
    # p * (g - (g . p)) with g_c = -1 / (n * C * mean_c).
    g = -1.0 / (n * n_classes * p_mean)
    d_logits = (p - y) / n + lambda_reg * p * (g[None, :] - (p @ g)[:, None])
    grads = backprop_from_logits(params, activations, d_logits)
    return loss_x + lambda_reg * loss_reg, grads


def batch_loss(
    params: NetworkParams, x: np.ndarray, y: np.ndarray, lambda_reg: float = 1.0
) -> float:
    return batch_objective(params, x, y, lambda_reg)[0]


def plain_ce_epoch(
    params: NetworkParams,
    opt: OptimizerState,
    ds: NoisyDataset,
    batch_size: int,
    rng: np.random.Generator,
) -> NetworkParams:
    """One epoch of shuffled mini-batch cross-entropy on the dataset labels."""
    order = rng.permutation(ds.n_samples)
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    for start in range(0, ds.n_samples, batch_size):
        idx = order[start : start + batch_size]
        logits, activations = forward_cached(params, ds.features[idx])
        d_logits = (softmax(logits) - targets[idx]) / idx.size
        grads = backprop_from_logits(params, activations, d_logits)
        params = sgd_step(params, grads, opt)
    return params


def warmup(
    pair: NetworkPair,
    ds: NoisyDataset,
    epochs: int,
    batch_size: int,
    streams: RngStreams,
) -> NetworkPair:
    """Train both networks independently with plain cross-entropy."""
    if epochs < 1:
        raise ConfigError(f"warmup needs >= 1 epoch, got {epochs}")
    for _ in range(epochs):
        pair.net1 = plain_ce_epoch(pair.net1, pair.opt1, ds, batch_size, streams.shuffle[0])
        pair.net2 = plain_ce_epoch(pair.net2, pair.opt2, ds, batch_size, streams.shuffle[1])
    return pair


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


def _train_net_on_division(
    params: NetworkParams,
    opt: OptimizerState,
    other_nets: list[NetworkParams],
    ds: NoisyDataset,
    division: Division,
    branches: np.ndarray,
    dst: DstParams,
    batch_size: int,
    shuffle_rng: np.random.Generator,
    mixup_rng: np.random.Generator,
    wrong_rng: np.random.Generator,
    no_mixup: bool,
) -> NetworkParams:
    """Mini-batch loop updating a single network's parameters.

    Refinement sees current parameters: the updating network contributes
    its latest weights to every batch's ensemble, `other_nets` stay frozen.
    """
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    order = shuffle_rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, batch_size):
        idx = order[start : start + batch_size]
        x_b = ds.features[idx]
        p_b = ensemble_probs([params] + other_nets, x_b)
        y_tilde = refine_batch(
            targets[idx],
            p_b,
            division.weights.w_r[idx],
            division.weights.w_prd[idx],
            branches[idx],
            wrong_rng,
        )
        y_hat = sharpen(y_tilde, dst.temperature)
        if no_mixup:
            x_mix, y_mix = x_b, y_hat
        else:
            x_mix, y_mix = mixup_batch(x_b, y_hat, dst.alpha, mixup_rng)
        _, grads = batch_objective(params, x_mix, y_mix, dst.lambda_reg)
        params = sgd_step(params, grads, opt)
    return params


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
        updated = _train_net_on_division(
            getattr(pair, name),
            opt,
            other_nets,
            ds,
            division,
            branches,
            dst,
            batch_size,
            shuffle_rng,
            streams.mixup[i],
            streams.wrong_branch[i],
            ablation.no_mixup,
        )
        setattr(pair, name, updated)
        report = selection_report(branches, ds, division.predicted)
        report["source"] = division.source
        report["roles"] = {
            "labeled": division.roles.labeled,
            "predicted": division.roles.predicted,
            "wrong": division.roles.wrong,
        }
        report["gmm"] = model_to_dict(division.model)
        report["fallback"] = False
        selection[name] = report
    return DstEpochResult(selection=selection, scatter=scatter)


def accuracy(params: NetworkParams, features: np.ndarray, labels: np.ndarray) -> float:
    logits, _ = forward_cached(params, features)
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def ensemble_accuracy(
    nets: list[NetworkParams], features: np.ndarray, labels: np.ndarray
) -> float:
    probs = ensemble_probs(nets, features)
    return float((probs.argmax(axis=1) == np.asarray(labels)).mean())


def evaluate(
    nets: dict[str, NetworkParams],
    features: np.ndarray,
    labels: np.ndarray,
    ensemble: tuple[str, ...],
) -> dict[str, float]:
    """Test accuracy of each named net and of the `ensemble` members' mean.

    One forward pass per net serves both: a net's own accuracy takes the
    argmax of its logits (as `accuracy` does), the ensemble's the argmax of
    the members' mean softmax (as `ensemble_accuracy` does).
    """
    labels = np.asarray(labels)
    logits = {name: forward_cached(params, features)[0] for name, params in nets.items()}
    out = {name: float((z.argmax(axis=1) == labels).mean()) for name, z in logits.items()}
    probs = _mean_softmax([logits[name] for name in ensemble])
    out["ensemble"] = float((probs.argmax(axis=1) == labels).mean())
    return out
