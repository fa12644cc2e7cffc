"""DST's selection step: one network's loss cloud to a branch table and report.

`divide` is the whole step, for the run and the epoch writer alike: a
mixture fit to the normalized cloud, its components matched to roles,
each sample's probability of being correctly labeled (w_r) and correctly
predicted (w_prd) read off the fit's own responsibilities, branch codes
from `partition` (the only place that makes them), the keep/lean/wrong
table and the report. It reads only the cloud, never the dataset: the
report's per-branch figures come from the cloud's agreement states
(`branch_report`). `training.run_epoch` decides which network trains on
a cloud: the other network, or the same one when it trains alone.
"""

from __future__ import annotations

import numpy as np

from .config import ExperimentConfig
from .data import STATE_NAMES
from .errors import GmmFitError
from .gmm import GmmModel, fit, model_to_dict
from .lossprofile import LossProfile

BRANCH_LABELED = 0
BRANCH_PREDICTED = 1
BRANCH_WRONG = 2
BRANCH_NAMES = ("labeled", "predicted", "wrong")
# RIGHT[branch, state - 1]: whether the branch counts that agreement state as right.
RIGHT = np.array([[1, 1, 0, 0, 0], [1, 0, 1, 0, 0], [0, 0, 0, 1, 1]], dtype=bool)

# Per-sample keep/lean weights and the wrong-branch mask (`divide`).
BranchTable = tuple[np.ndarray, np.ndarray, np.ndarray]


def assign_roles(model: GmmModel, anchors: np.ndarray) -> dict[str, int]:
    """Match components to roles by final-mean proximity to the anchors.

    Returns the component of each role, "labeled", "predicted" and "wrong":
    a bijection onto {0, 1, 2}.

    Greedy order: labeled (anchors[0]) first, then predicted (anchors[2]),
    then wrong takes the remaining component. Distance ties go to the lower
    component index.
    """
    anchors = np.asarray(anchors, dtype=np.float64)
    targets = {"labeled": anchors[0], "predicted": anchors[2], "wrong": anchors[1]}
    remaining = [0, 1, 2]
    chosen: dict[str, int] = {}
    for role in BRANCH_NAMES:
        dists = [float(np.linalg.norm(model.means[k] - targets[role])) for k in remaining]
        best = remaining[int(np.argmin(dists))]  # argmin takes the first minimum
        chosen[role] = best
        remaining.remove(best)
    return chosen


def partition(w_r: np.ndarray, w_prd: np.ndarray, cfg: ExperimentConfig) -> np.ndarray:
    """Branch codes per sample: thresholds first, then the branch ablation.

    labeled iff w_r >= tau_r; else predicted iff w_prd >= tau_prd; else
    wrong. `all_wrong` sends every sample to wrong, and `disable_branch`
    sends the samples of that branch to wrong: with `labeled` disabled a
    sample over tau_r is wrong even when it is also over tau_prd.
    """
    branches = np.full(w_r.shape[0], BRANCH_WRONG, dtype=np.int64)
    if cfg.all_wrong:
        return branches
    if cfg.disable_branch != "predicted":
        branches[w_prd >= cfg.tau_prd] = BRANCH_PREDICTED
    labeled = BRANCH_WRONG if cfg.disable_branch == "labeled" else BRANCH_LABELED
    branches[w_r >= cfg.tau_r] = labeled
    return branches


def divide(
    prof: LossProfile, cfg: ExperimentConfig, source: str
) -> tuple[BranchTable | None, dict]:
    """The branch table and report of network `source`'s loss cloud, for
    the network that trains on it. The report is the division's only record.

    Labeled rows keep w_r of the label and lean 1 - w_r on the ensemble;
    predicted rows keep 1 - w_prd and lean w_prd. A failed fit gives no
    table and a fallback report that names `source` and the fit's error
    as its `reason`: its consumer trains on plain cross-entropy that epoch.
    """
    anchors = np.asarray(cfg.gmm_anchors, dtype=np.float64)
    points = np.column_stack([prof.nrm_nis, prof.nrm_prd])
    try:
        model = fit(points, anchors, tol=cfg.gmm_tol, max_iter=cfg.gmm_max_iter)
    except GmmFitError as exc:
        return None, {"fallback": True, "reason": str(exc), "source": source}
    roles = assign_roles(model, anchors)
    # The fit's last E-step ran on these points with these parameters.
    w_r, w_prd = model.resp[:, roles["labeled"]], model.resp[:, roles["predicted"]]
    branches = partition(w_r, w_prd, cfg)
    labeled = branches == BRANCH_LABELED
    keep, lean = np.where(labeled, w_r, 1.0 - w_prd), np.where(labeled, 1.0 - w_r, w_prd)
    report = {
        "n_samples": prof.n_samples,
        "source": source,
        "roles": roles,
        "gmm": model_to_dict(model),
        "branches": branch_report(branches, prof.states),
        "fallback": False,
    }
    return (keep, lean, branches == BRANCH_WRONG), report


def _rate(numerator: int, denominator: int) -> float | None:
    return None if denominator == 0 else numerator / denominator


def branch_report(branches: np.ndarray, states: np.ndarray) -> dict:
    """Per branch: its size, precision, recall and agreement-state histogram.

    All four are read off one 3 x 5 table that counts the samples of each
    branch (row) in each agreement state 1..5 of `data.audit_states`
    (column): a branch's histogram is its row, its size the row's sum.
    `RIGHT` marks the states each branch counts as right: labeled, a
    correct label (i, ii); predicted, a correct prediction (i, iii); wrong,
    neither (iv, v). Precision is the right share of the branch, recall
    the branch's share of the set's right samples. Empty branches report
    null precision/recall rather than 0.
    """
    counts = np.bincount(branches * 5 + states - 1, minlength=15).reshape(3, 5)
    sizes, hits = counts.sum(axis=1), (counts * RIGHT).sum(axis=1)
    rights = RIGHT @ counts.sum(axis=0)
    return {
        name: {
            "size": int(sizes[code]),
            "precision": _rate(int(hits[code]), int(sizes[code])),
            "recall": _rate(int(hits[code]), int(rights[code])),
            "states": dict(zip(STATE_NAMES, counts[code].tolist())),
        }
        for code, name in enumerate(BRANCH_NAMES)
    }
