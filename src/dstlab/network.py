"""Dense feedforward classifiers with hand-rolled backpropagation.

Everything is plain float64 numpy: rectifier hidden layers, a linear output
layer read through softmax, cross-entropy against soft targets, and SGD with
classical (coupled) momentum and weight decay. Forward and backward are pure
functions of a parameter snapshot. `sgd_step` returns a snapshot of fresh
arrays and never writes to the one it was given; the only arrays it updates
in place are the optimizer's own momentum buffers.

The hot path avoids temporaries: the bias add, the rectifier, the
backpropagated mask and the momentum update write into an array the same
call has just made (or into the buffers), with the same float operations in
the same order as the allocating expressions, so results are bitwise equal.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericError, StructuralError

# Probability floor applied inside every logarithm.
LOG_FLOOR = 1e-12

CHECKPOINT_FORMAT = "dstlab-network"
CHECKPOINT_VERSION = 1

# One (d_weights, d_bias) pair per layer, shapes mirroring the parameters.
Grads = list[tuple[np.ndarray, np.ndarray]]


@dataclass
class Layer:
    weights: np.ndarray  # [fan_out, fan_in]
    bias: np.ndarray  # [fan_out]


@dataclass
class NetworkParams:
    """Parameter snapshot of one classifier. Treat as immutable."""

    layers: list[Layer]

    @property
    def n_inputs(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].weights.shape[0]

    def sizes(self) -> list[int]:
        return [self.n_inputs] + [layer.weights.shape[0] for layer in self.layers]


def init_network(sizes: Sequence[int], rng: np.random.Generator) -> NetworkParams:
    """Build a network with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if len(sizes) < 2:
        raise ConfigError(f"need at least input and output sizes, got {list(sizes)}")
    if any(int(s) < 1 for s in sizes):
        raise ConfigError(f"layer sizes must be positive, got {list(sizes)}")
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(weights=weights, bias=np.zeros(fan_out)))
    return NetworkParams(layers)


def _as_batch(x: np.ndarray) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if arr.ndim == 2:
        return arr, False
    raise StructuralError(f"expected 1-D or 2-D input, got shape {arr.shape}")


def forward_cached(
    params: NetworkParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batched forward pass returning logits and the input to every layer."""
    batch, _ = _as_batch(x)
    if batch.shape[1] != params.n_inputs:
        raise StructuralError(
            f"input dimension {batch.shape[1]} does not match "
            f"first-layer fan_in {params.n_inputs}"
        )
    activations = [batch]
    a = batch
    last = len(params.layers) - 1
    for i, layer in enumerate(params.layers):
        a = a @ layer.weights.T
        a += layer.bias
        if i < last:
            np.maximum(a, 0.0, out=a)
            activations.append(a)
    return a, activations


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Logits for a single sample [D] or a batch [N, D]."""
    _, single = _as_batch(x)
    logits, _ = forward_cached(params, x)
    return logits[0] if single else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety."""
    arr = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError("softmax requires finite logits")
    shifted = arr - arr.max(axis=-1, keepdims=True)
    exped = np.exp(shifted)
    return exped / exped.sum(axis=-1, keepdims=True)


def cross_entropy(p: np.ndarray, target: np.ndarray) -> float:
    """-sum_c target_c * ln(max(p_c, floor)), in nats."""
    p_arr = np.asarray(p, dtype=np.float64)
    t_arr = np.asarray(target, dtype=np.float64)
    if p_arr.shape != t_arr.shape or p_arr.ndim != 1:
        raise StructuralError(
            f"probability/target shape mismatch: {p_arr.shape} vs {t_arr.shape}"
        )
    return float(-(t_arr * np.log(np.maximum(p_arr, LOG_FLOOR))).sum())


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def backprop_from_logits(
    params: NetworkParams, activations: list[np.ndarray], d_logits: np.ndarray
) -> Grads:
    """Push a gradient w.r.t. the logits back to every parameter.

    `activations` is the list produced by `forward_cached`; gradients are
    summed over the batch dimension.
    """
    grads: Grads = [(np.empty(0), np.empty(0))] * len(params.layers)
    delta = d_logits
    for k in range(len(params.layers) - 1, -1, -1):
        a_prev = activations[k]
        grads[k] = (delta.T @ a_prev, delta.sum(axis=0))
        if k > 0:
            # activations[k] > 0 is exactly the rectifier's active mask.
            delta = delta @ params.layers[k].weights
            delta *= activations[k] > 0.0
    return grads


def backward(params: NetworkParams, x: np.ndarray, target: np.ndarray) -> Grads:
    """Gradient of cross_entropy(softmax(forward(x)), target) per parameter.

    Accepts a single sample or a batch; batch gradients are the sum of the
    per-sample gradients.
    """
    batch, _ = _as_batch(x)
    targets, _ = _as_batch(target)
    if targets.shape != (batch.shape[0], params.n_outputs):
        raise StructuralError(
            f"target shape {targets.shape} does not match "
            f"(batch {batch.shape[0]}, classes {params.n_outputs})"
        )
    logits, activations = forward_cached(params, batch)
    d_logits = softmax(logits) - targets
    return backprop_from_logits(params, activations, d_logits)


@dataclass
class OptimizerState:
    """SGD with coupled momentum and weight decay.

    buffer <- momentum * buffer + grad + weight_decay * param
    param  <- param - learning_rate * buffer

    `sgd_step` updates `buffers` in place and nothing else of the state's
    arrays; the parameters it returns are fresh arrays.
    """

    learning_rate: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    buffers: list[tuple[np.ndarray, np.ndarray]] | None = None

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")

    @classmethod
    def for_network(
        cls,
        params: NetworkParams,
        learning_rate: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> "OptimizerState":
        buffers = [
            (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in params.layers
        ]
        return cls(learning_rate, momentum, weight_decay, buffers)


def sgd_step(
    params: NetworkParams, grads: Grads, opt: OptimizerState
) -> NetworkParams:
    """One optimizer step; refuses bad gradients before touching any buffer.

    The momentum buffers are updated in place; the returned parameters are
    fresh arrays, and `params` is left as it was.
    """
    if len(grads) != len(params.layers):
        raise StructuralError(
            f"{len(grads)} gradient entries for {len(params.layers)} layers"
        )
    if opt.buffers is not None and len(opt.buffers) != len(params.layers):
        raise StructuralError(
            f"{len(opt.buffers)} momentum buffers for {len(params.layers)} layers"
        )
    for k, (layer, (d_w, d_b)) in enumerate(zip(params.layers, grads)):
        shapes = (layer.weights.shape, layer.bias.shape)
        if (d_w.shape, d_b.shape) != shapes:
            raise StructuralError("gradient shapes do not mirror parameter shapes")
        if opt.buffers is not None and tuple(m.shape for m in opt.buffers[k]) != shapes:
            raise StructuralError("momentum buffer shapes do not mirror parameter shapes")
        if not (np.isfinite(d_w).all() and np.isfinite(d_b).all()):
            raise NumericError("refusing SGD step: non-finite gradient")
    if opt.buffers is None:
        opt.buffers = [
            (np.zeros_like(layer.weights), np.zeros_like(layer.bias))
            for layer in params.layers
        ]
    return NetworkParams(
        [
            Layer(
                weights=_momentum_step(layer.weights, d_w, m_w, opt),
                bias=_momentum_step(layer.bias, d_b, m_b, opt),
            )
            for layer, (d_w, d_b), (m_w, m_b) in zip(params.layers, grads, opt.buffers)
        ]
    )


def _momentum_step(
    param: np.ndarray, grad: np.ndarray, buf: np.ndarray, opt: OptimizerState
) -> np.ndarray:
    """Fold `grad` into the momentum buffer in place; return the new parameter."""
    buf *= opt.momentum
    buf += grad
    buf += opt.weight_decay * param
    step = opt.learning_rate * buf
    return np.subtract(param, step, out=step)


def params_hash(params: NetworkParams) -> str:
    """SHA-256 over shapes and raw float64 bytes; used to prove read-only paths."""
    h = hashlib.sha256()
    for layer in params.layers:
        for arr in (layer.weights, layer.bias):
            h.update(str(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return h.hexdigest()


def save_checkpoint(params: NetworkParams, path: Path | str) -> None:
    """Write a versioned JSON checkpoint (row-major values per layer)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "sizes": params.sizes(),
        "layers": [
            {
                "weights": np.ascontiguousarray(layer.weights).ravel().tolist(),
                "bias": layer.bias.tolist(),
            }
            for layer in params.layers
        ],
    }
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_checkpoint(path: Path | str) -> NetworkParams:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise StructuralError(f"not a network checkpoint: {path}")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise StructuralError(f"unsupported checkpoint version {payload.get('version')}")
    sizes = payload["sizes"]
    layers = []
    for (fan_in, fan_out), entry in zip(zip(sizes[:-1], sizes[1:]), payload["layers"]):
        weights = np.asarray(entry["weights"], dtype=np.float64).reshape(fan_out, fan_in)
        bias = np.asarray(entry["bias"], dtype=np.float64)
        if bias.shape != (fan_out,):
            raise StructuralError("checkpoint bias length does not match layer size")
        layers.append(Layer(weights=weights, bias=bias))
    params = NetworkParams(layers)
    if not all(
        np.all(np.isfinite(l.weights)) and np.all(np.isfinite(l.bias))
        for l in params.layers
    ):
        raise NumericError(f"checkpoint contains non-finite parameters: {path}")
    return params
