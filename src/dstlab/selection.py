"""Posterior-to-branch machinery and the co-divide swap.

A fitted mixture yields, per sample, a probability of being correctly
labeled (w_r) and of being correctly predicted (w_prd). Thresholding those
in a fixed order partitions the dataset into labeled / predicted / wrong
branches. Each network trains on the division computed from the OTHER
network's losses, never its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import NoisyDataset, audit_states
from .errors import ConfigError, GmmFitError, StructuralError
from .gmm import DEFAULT_MAX_ITER, DEFAULT_TOL, GmmModel, fit, posteriors
from .lossprofile import LossProfile

# Unit-square anchor means: near-origin for low-loss-on-label samples,
# mid-square for samples both losses flag, right-bottom for samples whose
# label loss is high but prediction loss low.
DEFAULT_ANCHORS = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])

BRANCH_LABELED = 0
BRANCH_PREDICTED = 1
BRANCH_WRONG = 2
BRANCH_NAMES = ("labeled", "predicted", "wrong")

DEFAULT_TAU_R = 0.5
DEFAULT_TAU_PRD = 0.5


@dataclass(frozen=True)
class RoleMap:
    """Which mixture component plays which role. A bijection onto {0,1,2}."""

    labeled: int
    predicted: int
    wrong: int

    def __post_init__(self) -> None:
        if sorted((self.labeled, self.predicted, self.wrong)) != [0, 1, 2]:
            raise StructuralError("role map must be a bijection onto components 0..2")


@dataclass
class SelectionWeights:
    w_r: np.ndarray  # [N] responsibility of the labeled component
    w_prd: np.ndarray  # [N] responsibility of the predicted component


def assign_roles(model: GmmModel, anchors: np.ndarray | None = None) -> RoleMap:
    """Match components to roles by final-mean proximity to the anchors.

    Greedy order: labeled (anchors[0]) first, then predicted (anchors[2]),
    then wrong takes the remaining component. Distance ties go to the lower
    component index.
    """
    anchors = DEFAULT_ANCHORS if anchors is None else np.asarray(anchors, dtype=np.float64)
    targets = {"labeled": anchors[0], "predicted": anchors[2], "wrong": anchors[1]}
    remaining = [0, 1, 2]
    chosen: dict[str, int] = {}
    for role in ("labeled", "predicted", "wrong"):
        dists = [float(np.linalg.norm(model.means[k] - targets[role])) for k in remaining]
        best = remaining[int(np.argmin(dists))]  # argmin takes the first minimum
        chosen[role] = best
        remaining.remove(best)
    return RoleMap(**chosen)


def weights_from_posteriors(resp: np.ndarray, roles: RoleMap) -> SelectionWeights:
    arr = np.asarray(resp, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise StructuralError(f"responsibilities must be [N, 3], got {arr.shape}")
    return SelectionWeights(w_r=arr[:, roles.labeled], w_prd=arr[:, roles.predicted])


def partition(
    weights: SelectionWeights, tau_r: float, tau_prd: float
) -> np.ndarray:
    """Branch codes per sample, evaluated in fixed order.

    labeled iff w_r >= tau_r; else predicted iff w_prd >= tau_prd; else wrong.
    """
    for name, tau in (("tau_r", tau_r), ("tau_prd", tau_prd)):
        if not 0.0 < tau < 1.0:
            raise ConfigError(f"{name} must be in (0, 1), got {tau}")
    branches = np.full(weights.w_r.shape[0], BRANCH_WRONG, dtype=np.int64)
    predicted_mask = weights.w_prd >= tau_prd
    branches[predicted_mask] = BRANCH_PREDICTED
    branches[weights.w_r >= tau_r] = BRANCH_LABELED
    return branches


@dataclass
class Division:
    """One network's training division, derived from the other's losses."""

    weights: SelectionWeights
    branches: np.ndarray  # [N] branch codes
    roles: RoleMap
    model: GmmModel
    source: str  # which network's losses produced this division
    predicted: np.ndarray  # [N] source network's argmax labels


@dataclass
class CoDivision:
    for_net1: Division | None  # None means the fit failed; consumer falls back
    for_net2: Division | None
    fit_errors: dict[str, str]


def _divide(
    prof: LossProfile,
    source: str,
    anchors: np.ndarray,
    tol: float,
    max_iter: int,
    tau_r: float,
    tau_prd: float,
) -> Division:
    model = fit(prof.points(), anchors, tol=tol, max_iter=max_iter)
    roles = assign_roles(model, anchors)
    weights = weights_from_posteriors(posteriors(model, prof.points()), roles)
    branches = partition(weights, tau_r, tau_prd)
    return Division(
        weights=weights,
        branches=branches,
        roles=roles,
        model=model,
        source=source,
        predicted=prof.predicted,
    )


def _divide_each(
    profiles: dict[str, LossProfile],
    anchors: np.ndarray | None,
    tol: float,
    max_iter: int,
    tau_r: float,
    tau_prd: float,
) -> tuple[dict[str, Division | None], dict[str, str]]:
    """One mixture fit per source profile; a failed fit yields None and its error."""
    anchors = DEFAULT_ANCHORS if anchors is None else np.asarray(anchors, dtype=np.float64)
    divisions: dict[str, Division | None] = {}
    fit_errors: dict[str, str] = {}
    for source, prof in profiles.items():
        try:
            divisions[source] = _divide(
                prof, source, anchors, tol, max_iter, tau_r, tau_prd
            )
        except GmmFitError as exc:
            divisions[source] = None
            fit_errors[source] = str(exc)
    return divisions, fit_errors


def co_divide(
    prof_net1: LossProfile,
    prof_net2: LossProfile,
    anchors: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    tau_r: float = DEFAULT_TAU_R,
    tau_prd: float = DEFAULT_TAU_PRD,
) -> CoDivision:
    """Fit one mixture per network and swap the divisions.

    The division from net1's losses trains net2 and vice versa. A failed
    fit yields None for the consuming network (callers fall back to plain
    cross-entropy for that network that epoch) and is recorded by source.
    """
    if prof_net1.n_samples != prof_net2.n_samples:
        raise StructuralError("profiles must cover the same dataset")
    divisions, fit_errors = _divide_each(
        {"net1": prof_net1, "net2": prof_net2}, anchors, tol, max_iter, tau_r, tau_prd
    )
    return CoDivision(
        for_net1=divisions["net2"],
        for_net2=divisions["net1"],
        fit_errors=fit_errors,
    )


def self_divide(
    prof_net1: LossProfile,
    anchors: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    tau_r: float = DEFAULT_TAU_R,
    tau_prd: float = DEFAULT_TAU_PRD,
) -> CoDivision:
    """Single-network mode: net1 consumes the division of its own losses.

    One mixture is fitted; there is no division for net2.
    """
    divisions, fit_errors = _divide_each(
        {"net1": prof_net1}, anchors, tol, max_iter, tau_r, tau_prd
    )
    return CoDivision(for_net1=divisions["net1"], for_net2=None, fit_errors=fit_errors)


def _rate(numerator: int, denominator: int) -> float | None:
    return None if denominator == 0 else numerator / denominator


def selection_report(
    branches: np.ndarray, ds: NoisyDataset, predicted: np.ndarray
) -> dict:
    """Per-branch size, precision, recall, and agreement-state histogram.

    Precision conditions: labeled branch counts samples whose noisy label
    is the true label; predicted branch counts samples whose prediction is
    the true label; wrong branch counts samples failing both. Empty
    branches report null precision/recall rather than 0.
    """
    branches = np.asarray(branches, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if branches.shape != (ds.n_samples,) or predicted.shape != (ds.n_samples,):
        raise StructuralError("branches and predictions must cover the dataset")
    states = audit_states(ds, predicted)
    label_ok = ds.noisy_labels == ds.true_labels
    pred_ok = predicted == ds.true_labels
    conditions = {
        BRANCH_LABELED: label_ok,
        BRANCH_PREDICTED: pred_ok,
        BRANCH_WRONG: ~label_ok & ~pred_ok,
    }
    report: dict = {"n_samples": int(ds.n_samples), "branches": {}}
    for code, name in enumerate(BRANCH_NAMES):
        in_branch = branches == code
        size = int(in_branch.sum())
        condition = conditions[code]
        hits = int((in_branch & condition).sum())
        histogram = {
            roman: int((in_branch & (states == s)).sum())
            for s, roman in enumerate(("i", "ii", "iii", "iv", "v"), start=1)
        }
        report["branches"][name] = {
            "size": size,
            "precision": _rate(hits, size),
            "recall": _rate(hits, int(condition.sum())),
            "states": histogram,
        }
    return report
