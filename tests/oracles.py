"""Reference implementations the production code must reproduce.

Scalar per-sample versions of the batched operations, and the allocating
training loop, mixture E-step and SGD step as they were written before the
production code moved to flat workspaces and column-wise EM.
Tests compare the production results with these, bit for bit where the
production code claims the same float operations in the same order.

The first section holds what tests compare production against but no
production path calls: the scalar cross-entropy, accuracies, a parameter
hash, and thin compositions of production code (gradient, posteriors,
ensemble softmax, warmup). The last section reads back the run files
a run writes but never reads: datasets and checkpoints, and rebuilds
summary.json from the manifest and reports.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dstlab import data, gmm, network, selection, training
from dstlab.errors import ConfigError, GmmFitError, NumericError, StructuralError
from dstlab.gmm import N_COMPONENTS, _columns, _e_step
from dstlab.lossprofile import SCATTER_HEADER, LossProfile, profile
from dstlab.network import (
    LOG_FLOOR,
    Layers,
    backprop_from_logits,
    forward_cached,
    one_hot,
    softmax,
)
from dstlab.selection import BRANCH_LABELED, BRANCH_PREDICTED, BRANCH_WRONG, assign_roles
from dstlab.training import mixup_batch

# --- Compositions of production code, and evaluation references.


def backward(params, x, target):
    """Gradient of the cross-entropy of softmax(logits) against `target`, per
    parameter, summed over the batch. A 1-D `x` and `target` are one sample."""
    batch = np.atleast_2d(np.asarray(x, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(target, dtype=np.float64))
    n_classes = params[-1][1].shape[0]
    if targets.shape != (batch.shape[0], n_classes):
        raise StructuralError(
            f"target shape {targets.shape} does not match "
            f"(batch {batch.shape[0]}, classes {n_classes})"
        )
    logits, activations = forward_cached(params, batch)
    return backprop_from_logits(params, activations, softmax(logits) - targets, grads_like(params))


def grads_like(params):
    """Fresh, uninitialized gradient arrays for `backprop_from_logits` to fill."""
    return [(np.empty_like(weights), np.empty_like(bias)) for weights, bias in params]


def cross_entropy(p, target):
    """-sum_c target_c * ln(max(p_c, floor)) of one sample, in nats."""
    p_arr = np.asarray(p, dtype=np.float64)
    t_arr = np.asarray(target, dtype=np.float64)
    if p_arr.shape != t_arr.shape or p_arr.ndim != 1:
        raise StructuralError(
            f"probability/target shape mismatch: {p_arr.shape} vs {t_arr.shape}"
        )
    return float(-(t_arr * np.log(np.maximum(p_arr, LOG_FLOOR))).sum())


def posteriors(model, points):
    """Responsibilities [N, 3] of `points` under a fitted model, rows summing to 1."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise StructuralError(f"points must be [N, 2], got {arr.shape}")
    return _e_step(_columns(arr), model.means, model.covariances, model.weights)[0]


def ensemble_probs(nets, x):
    """Mean softmax of the frozen networks over a batch [N, D]."""
    return training._mean_softmax([forward_cached(params, x)[0] for params in nets])


def accuracy(params, features, labels):
    logits, _ = forward_cached(params, features)
    return float((logits.argmax(axis=1) == np.asarray(labels)).mean())


def ensemble_accuracy(nets, features, labels):
    probs = ensemble_probs(nets, features)
    return float((probs.argmax(axis=1) == np.asarray(labels)).mean())


def warmup(workspaces, ds, cfg, streams):
    """The run's warmup epochs: every network's workspace trained
    independently with plain cross-entropy, through the run's epoch loop."""
    for epoch in range(1, cfg.warmup_epochs + 1):
        training.run_epoch(epoch, workspaces, ds, cfg, streams)


def params_hash(params):
    """SHA-256 over shapes and raw float64 bytes; used to prove read-only paths."""
    h = hashlib.sha256()
    for pair in params:
        for arr in pair:
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


# --- Allocating forward, softmax, backward and SGD step: every result is a
# fresh array, nothing is written in place.


def forward_cached_reference(params, x):
    batch = np.asarray(x, dtype=np.float64)
    activations = [batch]
    a = batch
    last = len(params) - 1
    for i, (weights, bias) in enumerate(params):
        z = a @ weights.T + bias
        a = np.maximum(z, 0.0) if i < last else z
        if i < last:
            activations.append(a)
    return a, activations


def softmax_reference(logits):
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise NumericError("softmax requires finite logits")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exped = np.exp(shifted)
    return exped / exped.sum(axis=-1, keepdims=True)


def backprop_reference(params, activations, d_logits):
    grads = [None] * len(params)
    delta = d_logits
    for k in range(len(params) - 1, -1, -1):
        grads[k] = (delta.T @ activations[k], delta.sum(axis=0))
        if k > 0:
            delta = (delta @ params[k][0]) * (activations[k] > 0.0)
    return grads


def sgd_step_reference(params, grads, opt):
    """Replaces every buffer with a fresh array, as the original step did."""
    new_layers = []
    for k, ((weights, bias), (d_w, d_b)) in enumerate(zip(params, grads)):
        m_w, m_b = opt.buffers[k]
        m_w = opt.momentum * m_w + d_w + opt.weight_decay * weights
        m_b = opt.momentum * m_b + d_b + opt.weight_decay * bias
        opt.buffers[k] = (m_w, m_b)
        new_layers.append((weights - opt.learning_rate * m_w, bias - opt.learning_rate * m_b))
    return new_layers


def ensemble_probs_reference(nets, x):
    """Mean softmax over the nets: summed in list order, over their count."""
    total = None
    for params in nets:
        p = softmax_reference(forward_cached_reference(params, x)[0])
        total = p if total is None else total + p
    return total / len(nets)


def full_softmax_reference(params, ds):
    """A network's softmax over the whole training set from one forward."""
    return softmax_reference(forward_cached_reference(params, ds.features)[0])


def sharpen_reference(y_tilde, temperature):
    powered = np.asarray(y_tilde, dtype=np.float64) ** (1.0 / temperature)
    return powered / powered.sum(axis=-1, keepdims=True)


# --- Scalar references for branch codes, refinement and MixUp.


def refine_label(y, p_b, w_r, w_prd, tau_r, tau_prd, rng):
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


def partition_then_relabel(w_r, w_prd, cfg):
    """Branch codes decided one sample at a time in the fixed order
    (labeled iff w_r >= tau_r, else predicted iff w_prd >= tau_prd, else
    wrong), then relabeled by the ablation: `disable_branch: "predicted"`
    makes that branch's codes wrong."""
    codes = [
        BRANCH_LABELED if r >= cfg.tau_r else BRANCH_PREDICTED if p >= cfg.tau_prd else BRANCH_WRONG
        for r, p in zip(w_r, w_prd)
    ]
    disabled = BRANCH_PREDICTED if cfg.disable_branch == "predicted" else None
    return np.array([BRANCH_WRONG if code == disabled else code for code in codes], dtype=np.int64)


def fold_lambda(lam: float) -> float:
    """Mixing coefficients are reflected into [0.5, 1]."""
    return max(lam, 1.0 - lam)


def draw_mixup_lambda(alpha: float, rng) -> float:
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    return fold_lambda(float(rng.beta(alpha, alpha)))


def mixup_pair(sample1, sample2, alpha, rng):
    """Convex combination of two samples with a Beta-drawn coefficient."""
    x1, y1 = sample1
    x2, y2 = sample2
    lam = draw_mixup_lambda(alpha, rng)
    return lam * np.asarray(x1) + (1.0 - lam) * np.asarray(x2), lam * np.asarray(
        y1
    ) + (1.0 - lam) * np.asarray(y2)


# --- The batch step before the fused epoch loop.


def refine_batch(y, p_b, w_r, w_prd, branches, rng):
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
    if not (lab | prd | wrg).all():
        raise StructuralError("branch codes must be labeled, predicted or wrong")
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


def batch_objective(params, x, y, lambda_reg):
    """Mean cross-entropy on soft targets plus the uniform-prior regularizer.

    The regularizer is the KL of the uniform distribution against the
    batch-mean softmax; it vanishes when the mean prediction is uniform
    and grows as any class is starved.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if y.shape != (x.shape[0], params[-1][1].shape[0]):
        raise StructuralError("target shape does not match batch and class count")
    logits, activations = forward_cached_reference(params, x)
    p = softmax_reference(logits)
    n, n_classes = p.shape
    loss_x = float(-(y * np.log(np.maximum(p, LOG_FLOOR))).sum() / n)
    p_mean = np.maximum(p.mean(axis=0), LOG_FLOOR)
    loss_reg = float((np.log(1.0 / n_classes) - np.log(p_mean)).sum() / n_classes)
    # d/dlogits of the mean CE is (p - y)/n; the regularizer adds
    # p * (g - (g . p)) with g_c = -1 / (n * C * mean_c).
    g = -1.0 / (n * n_classes * p_mean)
    d_logits = (p - y) / n + lambda_reg * p * (g[None, :] - (p @ g)[:, None])
    grads = backprop_reference(params, activations, d_logits)
    return loss_x + lambda_reg * loss_reg, grads


def batch_loss(params, x, y, lambda_reg=1.0):
    return batch_objective(params, x, y, lambda_reg)[0]


@dataclass
class ReferenceOptimizer:
    """SGD state with one momentum buffer pair per layer, as it was held."""

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    buffers: list | None = None

    @classmethod
    def for_network(cls, params, learning_rate, momentum=0.0, weight_decay=0.0):
        buffers = [(np.zeros_like(weights), np.zeros_like(bias)) for weights, bias in params]
        return cls(learning_rate, momentum, weight_decay, buffers)

    def flat(self) -> np.ndarray:
        return np.concatenate([m.ravel() for pair in self.buffers for m in pair])


def sgd_step(params, grads, opt):
    """One optimizer step; refuses bad gradients before touching any buffer.

    The momentum buffers are updated in place; the returned parameters are
    fresh arrays, and `params` is left as it was.
    """
    if len(grads) != len(params):
        raise StructuralError(f"{len(grads)} gradient entries for {len(params)} layers")
    if opt.buffers is not None and len(opt.buffers) != len(params):
        raise StructuralError(f"{len(opt.buffers)} momentum buffers for {len(params)} layers")
    for k, ((weights, bias), (d_w, d_b)) in enumerate(zip(params, grads)):
        shapes = (weights.shape, bias.shape)
        if (d_w.shape, d_b.shape) != shapes:
            raise StructuralError("gradient shapes do not mirror parameter shapes")
        if opt.buffers is not None and tuple(m.shape for m in opt.buffers[k]) != shapes:
            raise StructuralError("momentum buffer shapes do not mirror parameter shapes")
        if not (np.isfinite(d_w).all() and np.isfinite(d_b).all()):
            raise NumericError("refusing SGD step: non-finite gradient")
    if opt.buffers is None:
        opt.buffers = [(np.zeros_like(weights), np.zeros_like(bias)) for weights, bias in params]
    return [
        (_momentum_step(weights, d_w, m_w, opt), _momentum_step(bias, d_b, m_b, opt))
        for (weights, bias), (d_w, d_b), (m_w, m_b) in zip(params, grads, opt.buffers)
    ]


def _momentum_step(param, grad, buf, opt):
    """Fold `grad` into the momentum buffer in place; return the new parameter."""
    buf *= opt.momentum
    buf += grad
    buf += opt.weight_decay * param
    step = opt.learning_rate * buf
    return np.subtract(param, step, out=step)


# --- The epoch loops before they became one.


def plain_ce_epoch(params, opt, ds, batch_size, rng):
    """One epoch of shuffled mini-batch cross-entropy on the dataset labels."""
    order = rng.permutation(ds.n_samples)
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    for start in range(0, ds.n_samples, batch_size):
        idx = order[start : start + batch_size]
        logits, activations = forward_cached_reference(params, ds.features[idx])
        d_logits = (softmax_reference(logits) - targets[idx]) / idx.size
        grads = backprop_reference(params, activations, d_logits)
        params = sgd_step(params, grads, opt)
    return params


def train_net_on_division(
    params,
    opt,
    other_nets,
    ds,
    weights,
    branches,
    cfg,
    shuffle_rng,
    mixup_rng,
    wrong_rng,
):
    """Mini-batch loop updating a single network's parameters.

    Refinement sees current parameters: the updating network contributes
    its latest weights to every batch's ensemble. `other_nets` stay frozen,
    so each contributes the rows of one softmax over the full training set,
    computed before the loop. The ensemble sums the softmaxes in list
    order, the updating network's first, over their count. `weights` are
    the division's per-sample w_r and w_prd.
    """
    w_r, w_prd = weights
    targets = one_hot(ds.noisy_labels, ds.n_classes)
    partners = [full_softmax_reference(net, ds) for net in other_nets]
    order = shuffle_rng.permutation(ds.n_samples)
    for start in range(0, ds.n_samples, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        x_b = ds.features[idx]
        p_b = ensemble_probs_reference([params], x_b)
        for partner in partners:
            p_b = p_b + partner[idx]
        p_b = p_b / (1 + len(partners))
        y_tilde = refine_batch(
            targets[idx],
            p_b,
            w_r[idx],
            w_prd[idx],
            branches[idx],
            wrong_rng,
        )
        y_hat = sharpen_reference(y_tilde, cfg.temperature)
        if cfg.no_mixup:
            x_mix, y_mix = x_b, y_hat
        else:
            x_mix, y_mix = mixup_batch(x_b, y_hat, cfg.alpha, mixup_rng)
        _, grads = batch_objective(params, x_mix, y_mix, cfg.lambda_reg)
        params = sgd_step(params, grads, opt)
    return params


def division_weights(prof, cfg):
    """w_r and w_prd of one loss cloud: the columns of the mixture fit's own
    responsibilities that `assign_roles` matches to the labeled and
    predicted roles, from the anchors and stop rule `selection` holds at
    the call. None when the fit fails."""
    anchors = np.asarray(selection.ANCHORS, dtype=np.float64)
    points = np.column_stack([prof.nrm_nis, prof.nrm_prd])
    try:
        model = gmm.fit(points, anchors, tol=selection.EM_TOL, max_iter=selection.EM_MAX_ITER)
    except GmmFitError:
        return None
    roles = assign_roles(model, anchors)
    return model.resp[:, roles["labeled"]], model.resp[:, roles["predicted"]]


def dst_epoch(nets, opts, ds, cfg, streams, divide=None):
    """The training half of a selection epoch before it joined the run's
    one epoch loop, on `nets`/`opts` dicts, with its own single-network
    branch: net1 trains on net2's cloud and net2 on net1's, both profiled
    before either trains; alone, net1 trains on its own.

    `divide(prof, cfg, source)` gives a cloud's weights, or None to train
    its consumer on plain cross-entropy (a failed fit); replace it to force
    failures. Branch codes come from `partition_then_relabel` on the
    weights.
    """
    divide = divide or (lambda prof, cfg, source: division_weights(prof, cfg))
    prof1 = profile(full_softmax_reference(nets["net1"], ds), ds)
    if cfg.single_network:
        divisions = {"net1": divide(prof1, cfg, "net1")}
    else:
        prof2 = profile(full_softmax_reference(nets["net2"], ds), ds)
        divisions = {"net1": divide(prof2, cfg, "net2"), "net2": divide(prof1, cfg, "net1")}
    for i, (name, weights) in enumerate(divisions.items()):
        if weights is None:
            nets[name] = plain_ce_epoch(
                nets[name], opts[name], ds, cfg.batch_size, streams.shuffle[i]
            )
            continue
        branches = partition_then_relabel(*weights, cfg)
        others = [] if cfg.single_network else [nets["net2" if name == "net1" else "net1"]]
        nets[name] = train_net_on_division(
            nets[name],
            opts[name],
            others,
            ds,
            weights,
            branches,
            cfg,
            streams.shuffle[i],
            streams.mixup[i],
            streams.wrong_branch[i],
        )


# --- The mixture E-step over an [N, 3] log-joint array.

_LOG_2PI = np.log(2.0 * np.pi)


def log_densities(points, means, covariances):
    """Log density of every point under every component, via closed-form
    2x2 inverses. Shape [N, 3]."""
    out = np.empty((points.shape[0], N_COMPONENTS))
    for k in range(N_COMPONENTS):
        a, b = covariances[k, 0, 0], covariances[k, 0, 1]
        c, d = covariances[k, 1, 0], covariances[k, 1, 1]
        det = a * d - b * c
        if not np.isfinite(det) or det <= 0:
            raise GmmFitError(f"component {k} covariance is not positive definite")
        diff = points - means[k]
        quad = (
            d * diff[:, 0] ** 2
            - (b + c) * diff[:, 0] * diff[:, 1]
            + a * diff[:, 1] ** 2
        ) / det
        out[:, k] = -_LOG_2PI - 0.5 * np.log(det) - 0.5 * quad
    return out


def e_step(points, means, covariances, weights):
    """Responsibilities and total log-likelihood, computed in log space."""
    log_joint = log_densities(points, means, covariances) + np.log(weights)
    peak = log_joint.max(axis=1, keepdims=True)
    log_norm = peak[:, 0] + np.log(np.exp(log_joint - peak).sum(axis=1))
    resp = np.exp(log_joint - log_norm[:, None])
    total_ll = float(log_norm.sum())
    if not np.isfinite(total_ll) or not np.all(np.isfinite(resp)):
        raise GmmFitError("log-likelihood or responsibilities became non-finite")
    return resp, total_ll


# --- The dataset and scatter writers before rows were formatted in bulk,
# readers of the dataset and checkpoint files a run writes, and its
# summary rebuilt.


def save_dataset_rows(ds: data.NoisyDataset, path: Path | str) -> None:
    """`data.save_dataset`'s CSV, one `csv.writer` row at a time."""
    header = ["id", "true_label", "noisy_label"] + [f"f{j}" for j in range(ds.n_features)]
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(ds.n_samples):
            row = [i, int(ds.true_labels[i]), int(ds.noisy_labels[i])]
            row += [f"{v:.17g}" for v in ds.features[i]]
            writer.writerow(row)


def write_scatter_reference(epoch: int, net: str, prof: LossProfile) -> bytes:
    """`lossprofile.write_scatter`'s bytes, one `csv.writer` row at a time,
    each float formatted by `%.17g`, encoded as UTF-8."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(SCATTER_HEADER)
    for i in range(prof.n_samples):
        writer.writerow(
            [
                epoch,
                net,
                i,
                f"{prof.l_nis[i]:.17g}",
                f"{prof.l_prd[i]:.17g}",
                f"{prof.nrm_nis[i]:.17g}",
                f"{prof.nrm_prd[i]:.17g}",
                int(prof.predicted[i]),
                int(prof.states[i]),
            ]
        )
    return text.getvalue().encode()


def load_dataset(run_dir: Path | str) -> data.NoisyDataset:
    """The training set of a run, from its `dataset.csv` (features and
    both label arrays) and its `manifest.json` (the class count, and the
    row count the CSV must have)."""
    run_dir = Path(run_dir)
    path = run_dir / "dataset.csv"
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["id", "true_label", "noisy_label"]:
            raise StructuralError(f"unexpected dataset header in {path}")
        n_features = len(header) - 3
        true_labels, noisy_labels, features = [], [], []
        for row in reader:
            if len(row) != len(header):
                raise StructuralError(f"row width mismatch in {path}")
            true_labels.append(int(row[1]))
            noisy_labels.append(int(row[2]))
            features.append([float(v) for v in row[3:]])
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    if manifest.get("format") != "dstlab-manifest":
        raise StructuralError(f"not a run manifest: {run_dir / 'manifest.json'}")
    n_train = manifest["n_train"]
    if n_train != len(true_labels):
        raise StructuralError(f"{path} has {len(true_labels)} rows, the manifest {n_train}")
    return data.NoisyDataset(
        features=np.asarray(features, dtype=np.float64).reshape(-1, n_features),
        true_labels=np.asarray(true_labels, dtype=np.int64),
        n_classes=int(manifest["config"]["n_classes"]),
        noisy_labels=np.asarray(noisy_labels, dtype=np.int64),
    )


def load_checkpoint(path: Path | str) -> Layers:
    """Read a checkpoint written by `network.save_checkpoint`, checking its shapes."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != network.CHECKPOINT_FORMAT:
        raise StructuralError(f"not a network checkpoint: {path}")
    if payload.get("version") != network.CHECKPOINT_VERSION:
        raise StructuralError(f"unsupported checkpoint version {payload.get('version')}")
    sizes = payload["sizes"]
    if len(payload["layers"]) != len(sizes) - 1:
        raise StructuralError(
            f"checkpoint holds {len(payload['layers'])} layers for sizes {sizes}"
        )
    layers = []
    for (fan_in, fan_out), entry in zip(zip(sizes[:-1], sizes[1:]), payload["layers"]):
        weights = np.asarray(entry["weights"], dtype=np.float64)
        if weights.shape != (fan_out * fan_in,):
            raise StructuralError("checkpoint weights length does not match layer size")
        weights = weights.reshape(fan_out, fan_in)
        bias = np.asarray(entry["bias"], dtype=np.float64)
        if bias.shape != (fan_out,):
            raise StructuralError("checkpoint bias length does not match layer size")
        layers.append((weights, bias))
    if not all(np.all(np.isfinite(w)) and np.all(np.isfinite(b)) for w, b in layers):
        raise NumericError(f"checkpoint contains non-finite parameters: {path}")
    return layers


def summary_from_files(run_dir: Path | str) -> str:
    """summary.json's text rebuilt from a run's manifest.json and reports.

    Every figure the summary holds comes from files the run wrote before
    it: the config without its placement, the seeds and set sizes from the
    manifest; the accuracy series, the last epoch's branches and each
    net's fallback epochs from `reports/epoch_XXX.json` in epoch order.
    """
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    reports = [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted((run_dir / "reports").glob("epoch_*.json"))
    ]
    assert [report["epoch"] for report in reports] == list(range(1, len(reports) + 1))
    accuracy = {}
    for name in ("net1", "net2", "ensemble"):
        series = [report["test_accuracy"][name] for report in reports]
        tail = series[-10:]
        accuracy[name] = {
            "best": max(series), "final": series[-1], "last10_mean": sum(tail) / len(tail)
        }
    final_branches, fallback_epochs = {}, {}
    for name in ("net1", "net2"):
        entry = (reports[-1]["selection"] or {}).get(name)
        final_branches[name] = None
        if entry is not None and not entry["fallback"]:
            final_branches[name] = {
                branch: {
                    "size": entry["branches"][branch]["size"],
                    "precision": entry["branches"][branch]["precision"],
                }
                for branch in ("labeled", "predicted", "wrong")
            }
        fallback_epochs[name] = [
            report["epoch"]
            for report in reports
            if report["selection"] is not None
            and report["selection"].get(name, {}).get("fallback", False)
        ]
    config = {key: value for key, value in manifest["config"].items() if key != "output_dir"}
    summary = {
        "format": "dstlab-summary",
        "version": 1,
        "config": config,
        "seeds": manifest["seeds"],
        "n_train": manifest["n_train"],
        "n_test": manifest["n_test"],
        "accuracy": accuracy,
        "final_branches": final_branches,
        "fallback_epochs": fallback_epochs,
    }
    return json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
