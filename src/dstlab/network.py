"""Dense feedforward classifiers with hand-rolled backpropagation.

Everything is plain float64 numpy: rectifier hidden layers, a linear output
layer read through softmax, backpropagation of a gradient w.r.t. the logits,
and SGD with classical (coupled) momentum and weight decay. The forward pass
and backpropagation only read the parameters they are given.

Each network lives in one `Workspace` for a whole run: one flat array each
for the parameters, the gradients and the momentum, with per-layer views,
all updated in place by `Workspace.step`. Every in-place operation (bias
add, rectifier, backpropagated mask, softmax, momentum and SGD update) is
the same float operation, in the same order, as the plain allocating
expression the tests keep as a reference, so results are bitwise equal.

A run's processes each use one BLAS thread (`one_blas_thread`). numpy's
bundled OpenBLAS otherwise splits every batch GEMM across threads, and its
idle workers spin between calls. Results do not depend on the thread
count.
"""

from __future__ import annotations

import ctypes
import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NumericError

# Probability floor applied inside every logarithm.
LOG_FLOOR = 1e-12

CHECKPOINT_FORMAT = "dstlab-network"
CHECKPOINT_VERSION = 1

# One (d_weights, d_bias) pair per layer, shapes mirroring the parameters.
Grads = list[tuple[np.ndarray, np.ndarray]]

# numpy's bundled OpenBLAS (the scipy-openblas build its wheels ship beside
# the package) and its thread getter and setter.
_OPENBLAS_GLOB = "numpy.libs/libscipy_openblas*"
_OPENBLAS_SYMBOLS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_")


@dataclass
class Layer:
    weights: np.ndarray  # [fan_out, fan_in]
    bias: np.ndarray  # [fan_out]


@dataclass
class NetworkParams:
    """Parameters of one classifier, per layer.

    In a run these are views into a `Workspace`, written only by its `step`.
    """

    layers: list[Layer]

    @property
    def n_inputs(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].weights.shape[0]

    def sizes(self) -> list[int]:
        return [self.n_inputs] + [layer.weights.shape[0] for layer in self.layers]


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's OpenBLAS thread (getter, setter), or None with another BLAS.

    Looked up on first use, so importing this module loads nothing.
    """
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob(_OPENBLAS_GLOB)):
        try:
            get, set_ = (getattr(ctypes.CDLL(str(path)), name) for name in _OPENBLAS_SYMBOLS)
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


def blas_threads() -> int | None:
    """numpy's current OpenBLAS thread count; None when it cannot be read."""
    lib = _openblas()
    return None if lib is None else lib[0]()


@contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the body, and any process it forks, on one BLAS thread.

    The previous count comes back on exit, also when the body raises. When
    the count is already one, or cannot be set, this does nothing.
    """
    previous = blas_threads()
    if previous in (None, 1):
        yield
        return
    set_threads = _openblas()[1]
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


def init_network(sizes: Sequence[int], rng: np.random.Generator) -> NetworkParams:
    """Build a network with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases.

    `sizes` is a checked config's `layer_sizes()`.
    """
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(weights=weights, bias=np.zeros(fan_out)))
    return NetworkParams(layers)


def forward_cached(
    params: NetworkParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass of a batch [N, D], returning logits and the input to every layer."""
    batch = np.asarray(x, dtype=np.float64)
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


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax with max-subtraction for overflow safety.

    Writes into `out` when given (it may be `logits` itself); refuses
    non-finite logits before writing anything.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NumericError("softmax requires finite logits")
    out = np.subtract(arr, arr.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    return np.eye(n_classes, dtype=np.float64)[np.asarray(labels, dtype=np.int64)]


def backprop_from_logits(
    params: NetworkParams,
    activations: list[np.ndarray],
    d_logits: np.ndarray,
    out: Grads,
) -> Grads:
    """Push a gradient w.r.t. the logits back to every parameter.

    `activations` is the list produced by `forward_cached`; gradients are
    summed over the batch dimension and written into `out`, which is
    returned.
    """
    delta = d_logits
    for k in range(len(params.layers) - 1, -1, -1):
        np.matmul(delta.T, activations[k], out=out[k][0])
        np.sum(delta, axis=0, out=out[k][1])
        if k > 0:
            # activations[k] > 0 is exactly the rectifier's active mask.
            delta = delta @ params.layers[k].weights
            delta *= activations[k] > 0.0
    return out


def layer_views(
    flat: np.ndarray, sizes: Sequence[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weights [fan_out, fan_in], bias [fan_out]) views of a flat array."""
    views, start = [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        stop = start + fan_out * fan_in
        views.append((flat[start:stop].reshape(fan_out, fan_in), flat[stop : stop + fan_out]))
        start = stop + fan_out
    return views


def params_view(flat: np.ndarray, sizes: Sequence[int]) -> NetworkParams:
    """A network whose layers are views of a flat parameter array."""
    return NetworkParams([Layer(w, b) for w, b in layer_views(flat, sizes)])


class Workspace:
    """One network's parameters, gradients and momentum for a whole run.

    Each is one flat array; `params` and `grads` are per-layer views of the
    first two. The network the workspace is made from is copied in and
    never written. `step` is SGD with coupled momentum and weight decay:

    buffer <- momentum * buffer + grad + weight_decay * param
    param  <- param - learning_rate * buffer
    """

    def __init__(
        self, params: NetworkParams, momentum: float = 0.0, weight_decay: float = 0.0
    ) -> None:
        sizes = params.sizes()
        self.flat = np.concatenate(
            [arr.ravel() for layer in params.layers for arr in (layer.weights, layer.bias)]
        )
        self.grad = np.empty_like(self.flat)
        self.buffer = np.zeros_like(self.flat)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.params = params_view(self.flat, sizes)
        self.grads: Grads = layer_views(self.grad, sizes)

    def step(self, learning_rate: float) -> None:
        """One SGD step from `grads`; refuses a non-finite gradient before
        touching any buffer. The gradient array is scratch afterwards."""
        if not np.isfinite(self.grad).all():
            raise NumericError("refusing SGD step: non-finite gradient")
        buf, scratch = self.buffer, self.grad
        buf *= self.momentum
        buf += scratch
        buf += np.multiply(self.weight_decay, self.flat, out=scratch)
        self.flat -= np.multiply(learning_rate, buf, out=scratch)


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
