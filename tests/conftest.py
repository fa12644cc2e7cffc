"""Shared fixtures and the acceptance-battery result banner.

Acceptance tests append one line per criterion to the list created here;
the terminal-summary hook prints them after the run so every PASS/FAIL is
visible even with output capture on.
"""

import numpy as np
import pytest

from dstlab import network
from dstlab.config import ExperimentConfig
from dstlab.data import NoisyDataset, audit_states
from dstlab.gmm import GmmModel
from dstlab.lossprofile import LossProfile
from dstlab.network import NetworkParams, forward_cached, softmax
from dstlab.selection import Division, RoleMap
from oracles import backward, cross_entropy

# The default config; its anchors as the mixture fits of a run get them.
DEFAULTS = ExperimentConfig()
ANCHORS = np.asarray(DEFAULTS.gmm_anchors, dtype=np.float64)


def pytest_configure(config):
    config._acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def record_criterion(request):
    def _record(line: str) -> None:
        request.config._acceptance_lines.append(line)
        print(line)

    return _record


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS on two threads for the test, its count restored after."""
    before = network.blas_threads()
    if before is None:
        pytest.skip("numpy's OpenBLAS thread setter is unavailable")
    set_threads = network._openblas()[1]
    set_threads(2)
    yield
    set_threads(before)


def make_noisy(features, true_labels, noisy_labels, n_classes) -> NoisyDataset:
    """Hand-built dataset with explicit noisy labels and no noise spec."""
    return NoisyDataset(
        features=np.asarray(features, dtype=np.float64),
        true_labels=np.asarray(true_labels, dtype=np.int64),
        n_classes=n_classes,
        noisy_labels=np.asarray(noisy_labels, dtype=np.int64),
        noise_spec=None,
    )


def model_with_means(means) -> GmmModel:
    """A mixture at its initial shape with the given component means."""
    return GmmModel(
        means=np.asarray(means, dtype=np.float64),
        covariances=np.tile(0.05 * np.eye(2), (3, 1, 1)),
        weights=np.full(3, 1.0 / 3.0),
        iterations=1,
        log_likelihood=0.0,
    )


def make_division(ds, branches, predicted=None, w_r=None, w_prd=None) -> Division:
    """A division of `ds` into `branches`, as `co_divide` hands one on.

    Its source profile holds zero losses, `predicted` (all class 0 by
    default) and their agreement states; the weights default to zero, and
    the roles and the mixture sit at the anchors.
    """
    n = ds.n_samples
    zeros = np.zeros(n)
    predicted = np.zeros(n, dtype=np.int64) if predicted is None else np.asarray(predicted)
    prof = LossProfile(zeros, zeros, predicted, zeros, zeros, audit_states(ds, predicted))
    return Division(
        w_r=zeros if w_r is None else np.asarray(w_r, dtype=np.float64),
        w_prd=zeros if w_prd is None else np.asarray(w_prd, dtype=np.float64),
        branches=np.asarray(branches, dtype=np.int64),
        roles=RoleMap(labeled=0, predicted=2, wrong=1),
        model=model_with_means(ANCHORS),
        source="net1",
        profile=prof,
    )


def ce_loss(params: NetworkParams, x: np.ndarray, target: np.ndarray) -> float:
    """Scalar cross-entropy of one sample, the quantity `backward` differentiates."""
    return cross_entropy(softmax(forward_cached(params, np.atleast_2d(x))[0][0]), target)


def fd_gradients(params: NetworkParams, x: np.ndarray, target: np.ndarray, h: float = 1e-5):
    """Central finite differences of ce_loss w.r.t. every parameter."""
    grads = []
    for layer in params.layers:
        d_w = np.zeros_like(layer.weights)
        d_b = np.zeros_like(layer.bias)
        for arr, out in ((layer.weights, d_w), (layer.bias, d_b)):
            flat = arr.ravel()
            flat_out = out.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                hi = ce_loss(params, x, target)
                flat[i] = keep - h
                lo = ce_loss(params, x, target)
                flat[i] = keep
                flat_out[i] = (hi - lo) / (2.0 * h)
        grads.append((d_w, d_b))
    return grads


def max_rel_err(analytic, numeric) -> float:
    """Largest per-entry relative disagreement between two gradient lists."""
    worst = 0.0
    for (a_w, a_b), (n_w, n_b) in zip(analytic, numeric):
        for a, n in ((a_w, n_w), (a_b, n_b)):
            denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
            worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


def gradient_check_draws(n_draws: int, seed: int = 11) -> float:
    """Max relative error of backprop vs finite differences over random draws."""
    from dstlab.network import init_network

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_draws):
        n_in = int(rng.integers(1, 5))
        n_hidden = int(rng.integers(1, 7))
        n_out = int(rng.integers(2, 5))
        sizes = [n_in, n_hidden, n_out] if rng.random() < 0.7 else [n_in, n_out]
        params = init_network(sizes, rng)
        x = rng.normal(size=n_in)
        target = rng.dirichlet(np.ones(n_out))
        analytic = backward(params, x, target)
        numeric = fd_gradients(params, x, target)
        worst = max(worst, max_rel_err(analytic, numeric))
    return worst
