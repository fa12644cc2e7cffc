"""Three-component bivariate Gaussian mixture fit with plain EM.

The fit is deterministic: means start at caller-supplied anchor points,
covariances at 0.05 * I, mixing weights uniform. Convergence is judged on
the absolute change of the total log-likelihood summed over all points, so
the threshold scales with dataset size. Floors on mixing weights and on
covariance eigenvalues keep tight clusters from collapsing a component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GmmFitError, InsufficientDataError

N_COMPONENTS = 3

SIGMA_FLOOR = 1e-6  # minimum covariance eigenvalue
PI_FLOOR = 1e-6  # minimum mixing weight
INIT_COV_SCALE = 0.05
MIN_POINTS = 6
_STARVATION = 1e-10  # below this soft count a component keeps its old shape

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class GmmModel:
    means: np.ndarray  # [3, 2]
    covariances: np.ndarray  # [3, 2, 2]
    weights: np.ndarray  # [3]
    iterations: int
    log_likelihood: float
    ll_trace: list[float] = field(default_factory=list)
    # Responsibilities of the fitted points under these parameters, from
    # the fit's last E-step; set by `fit`, left out of dumps.
    resp: np.ndarray | None = field(default=None, repr=False)


def _validate_points(points: np.ndarray) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.shape[0] < MIN_POINTS:
        raise InsufficientDataError(
            f"need at least {MIN_POINTS} points to fit, got {arr.shape[0]}"
        )
    if not np.all(np.isfinite(arr)):
        raise GmmFitError("points contain non-finite values")
    if (arr == arr[0]).all():
        raise GmmFitError("all points are identical: the cloud has no spread")
    return arr


def _log_density(
    cols: tuple[np.ndarray, np.ndarray], mean: np.ndarray, cov: np.ndarray, k: int
) -> np.ndarray:
    """Log density of every point under component k, via the closed-form
    2x2 inverse. `cols` holds the points' two coordinates as contiguous
    [N] vectors. Shape [N]."""
    a, b = cov[0, 0], cov[0, 1]
    c, d = cov[1, 0], cov[1, 1]
    det = a * d - b * c
    if not np.isfinite(det) or det <= 0:
        raise GmmFitError(f"component {k} covariance is not positive definite")
    dx = cols[0] - mean[0]
    dy = cols[1] - mean[1]
    quad = (d * dx**2 - (b + c) * dx * dy + a * dy**2) / det
    return -_LOG_2PI - 0.5 * np.log(det) - 0.5 * quad


def _columns(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.ascontiguousarray(points[:, 0]), np.ascontiguousarray(points[:, 1])


def _e_step(
    cols: tuple[np.ndarray, np.ndarray],
    means: np.ndarray,
    covariances: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Responsibilities [N, 3] and total log-likelihood, in log space.

    One contiguous [N] log-joint vector per component; the peak, the
    normalizer and each responsibility column are the same float operations
    as the row-wise max, sum and exp over an [N, 3] log-joint array.
    """
    log_w = np.log(weights)
    joint = [
        _log_density(cols, means[k], covariances[k], k) + log_w[k]
        for k in range(N_COMPONENTS)
    ]
    peak = np.maximum(np.maximum(joint[0], joint[1]), joint[2])
    e0, e1, e2 = (np.exp(j - peak) for j in joint)
    log_norm = peak + np.log(e0 + e1 + e2)
    resp = np.empty((peak.shape[0], N_COMPONENTS))
    for k, j in enumerate(joint):
        resp[:, k] = np.exp(j - log_norm)
    total_ll = float(log_norm.sum())
    if not np.isfinite(total_ll) or not np.isfinite(resp).all():
        raise GmmFitError("log-likelihood or responsibilities became non-finite")
    return resp, total_ll


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    cov = (cov + cov.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, SIGMA_FLOOR)
    cov = eigvecs @ np.diag(eigvals) @ eigvecs.T
    return (cov + cov.T) / 2.0


def fit(
    points: np.ndarray,
    anchors: np.ndarray,
    tol: float,
    max_iter: int,
) -> GmmModel:
    """EM fit of a 3-component mixture initialized at the anchor means.

    Stops when the total log-likelihood changes by less than `tol` (an
    absolute change) between consecutive evaluations, or after `max_iter`
    M-steps. The trace records the log-likelihood of the parameters entering
    each iteration, ending with the log-likelihood of the returned
    parameters. A run passes `selection`'s `ANCHORS`, `EM_TOL` and
    `EM_MAX_ITER`.
    """
    pts = _validate_points(points)
    means = np.array(anchors, dtype=np.float64)

    n = pts.shape[0]
    cols = _columns(pts)
    covariances = np.tile(INIT_COV_SCALE * np.eye(2), (N_COMPONENTS, 1, 1))
    weights = np.full(N_COMPONENTS, 1.0 / N_COMPONENTS)
    trace: list[float] = []

    for m_steps in range(max_iter + 1):
        resp, total_ll = _e_step(cols, means, covariances, weights)
        trace.append(total_ll)
        if m_steps == max_iter or (m_steps >= 1 and abs(trace[-1] - trace[-2]) < tol):
            break
        soft_counts = resp.sum(axis=0)
        weights = np.maximum(soft_counts / n, PI_FLOOR)
        weights = weights / weights.sum()
        for k in range(N_COMPONENTS):
            if soft_counts[k] < _STARVATION:
                # Starved component: keep its previous shape, only the
                # (floored) weight reflects the empty assignment.
                covariances[k] = _floor_covariance(covariances[k])
                continue
            mean_k = resp[:, k] @ pts / soft_counts[k]
            diff = pts - mean_k
            cov_k = (resp[:, k] * diff.T) @ diff / soft_counts[k]
            means[k] = mean_k
            covariances[k] = _floor_covariance(cov_k)

    return GmmModel(
        means=means,
        covariances=covariances,
        weights=weights,
        iterations=m_steps,
        log_likelihood=total_ll,
        ll_trace=trace,
        resp=resp,
    )


def model_to_dict(model: GmmModel) -> dict:
    """JSON-friendly dump: means, covariances, weights, iterations, final LL."""
    return {
        "means": model.means.tolist(),
        "covariances": model.covariances.tolist(),
        "weights": model.weights.tolist(),
        "iterations": model.iterations,
        "log_likelihood": model.log_likelihood,
    }
