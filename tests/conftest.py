"""Shared fixtures and the acceptance-battery result banner.

Acceptance tests append one line per criterion to the list created here;
the terminal-summary hook prints them after the run so every PASS/FAIL is
visible even with output capture on.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dstlab import network, selection
from dstlab.config import ExperimentConfig
from dstlab.data import NoisyDataset, audit_states
from dstlab.gmm import GmmModel
from dstlab.lossprofile import LossProfile
from dstlab.network import Layers, forward_cached, softmax
from oracles import backward, cross_entropy

# The default config, and the anchors as the mixture fits of a run get them.
DEFAULTS = ExperimentConfig()
ANCHORS = np.asarray(selection.ANCHORS, dtype=np.float64)

RUNS = Path(__file__).resolve().parent.parent / "scripts" / "runs.py"


def load_runs():
    """`scripts/runs.py` as a module."""
    spec = importlib.util.spec_from_file_location("runs", RUNS)
    runs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runs)
    return runs


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
    """Hand-built dataset with explicit noisy labels."""
    return NoisyDataset(
        features=np.asarray(features, dtype=np.float64),
        true_labels=np.asarray(true_labels, dtype=np.int64),
        n_classes=n_classes,
        noisy_labels=np.asarray(noisy_labels, dtype=np.int64),
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


def profile_predicting(ds, predicted=None) -> LossProfile:
    """A profile of `ds` with zero losses that predicts `predicted` (class 0
    for every sample by default), and those predictions' agreement states."""
    n = ds.n_samples
    zeros = np.zeros(n)
    predicted = np.zeros(n, dtype=np.int64) if predicted is None else np.asarray(predicted)
    return LossProfile(zeros, zeros, predicted, zeros, zeros, audit_states(ds, predicted))


def profile_at(points) -> LossProfile:
    """Profile whose normalized loss cloud is exactly `points`; every
    prediction is class 0 and every sample in agreement state i."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    return LossProfile(
        l_nis=pts[:, 0].copy(),
        l_prd=pts[:, 1].copy(),
        predicted=np.zeros(n, dtype=np.int64),
        nrm_nis=pts[:, 0].copy(),
        nrm_prd=pts[:, 1].copy(),
        states=np.ones(n, dtype=np.int64),
    )


def clean_and_mush(rng, n):
    """A cloud of `n` points that separates cleanly (the first half near the
    labeled anchor, the second far out on the label axis), and an
    indistinct mush of `n` points."""
    clean = np.concatenate(
        [
            0.02 + 0.01 * rng.standard_normal((n // 2, 2)),
            np.column_stack(
                [0.9 + 0.02 * rng.standard_normal(n // 2), 0.5 + 0.02 * rng.standard_normal(n // 2)]
            ),
        ]
    )
    mush = 0.45 + 0.02 * rng.standard_normal((n, 2))
    return np.clip(clean, 0, 1), np.clip(mush, 0, 1)


def ce_loss(params: Layers, x: np.ndarray, target: np.ndarray) -> float:
    """Scalar cross-entropy of one sample, the quantity `backward` differentiates."""
    return cross_entropy(softmax(forward_cached(params, np.atleast_2d(x))[0][0]), target)


def fd_gradients(params: Layers, x: np.ndarray, target: np.ndarray, h: float = 1e-5):
    """Central finite differences of ce_loss w.r.t. every parameter."""
    grads = []
    for weights, bias in params:
        d_w = np.zeros_like(weights)
        d_b = np.zeros_like(bias)
        for arr, out in ((weights, d_w), (bias, d_b)):
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
