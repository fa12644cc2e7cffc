"""Posterior-to-branch machinery and the co-divide swap.

A fitted mixture yields, per sample, a probability of being correctly
labeled (w_r) and of being correctly predicted (w_prd): the fit's own
responsibilities of the two components matched to those roles. `partition`
thresholds them in a fixed order into labeled / predicted / wrong branch
codes, and applies the config's branch ablation; it is the only place that
makes branch codes. Each network trains on the division computed from its
partner's loss profile: the other network's, or its own when it trains
alone. The division keeps that profile, so its report reads the
predictions and agreement states the scatter dump writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import ExperimentConfig
from .data import STATE_NAMES, NoisyDataset
from .errors import GmmFitError
from .gmm import GmmModel, fit, model_to_dict
from .lossprofile import LossProfile
from .rng import NET_NAMES

BRANCH_LABELED = 0
BRANCH_PREDICTED = 1
BRANCH_WRONG = 2
BRANCH_NAMES = ("labeled", "predicted", "wrong")


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
    for role in ("labeled", "predicted", "wrong"):
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


@dataclass
class Division:
    """One network's training division, derived from its partner's losses."""

    w_r: np.ndarray  # [N] responsibility of the labeled component
    w_prd: np.ndarray  # [N] responsibility of the predicted component
    branches: np.ndarray  # [N] branch codes from `partition`, ablation applied
    roles: dict[str, int]  # component per role, from `assign_roles`
    model: GmmModel
    source: str  # which network's losses produced this division
    profile: LossProfile  # the source network's loss profile


def _divide(prof: LossProfile, source: str, cfg: ExperimentConfig) -> Division:
    anchors = np.asarray(cfg.gmm_anchors, dtype=np.float64)
    points = np.column_stack([prof.nrm_nis, prof.nrm_prd])
    model = fit(points, anchors, tol=cfg.gmm_tol, max_iter=cfg.gmm_max_iter)
    roles = assign_roles(model, anchors)
    # The fit's last E-step ran on these points with these parameters.
    w_r, w_prd = model.resp[:, roles["labeled"]], model.resp[:, roles["predicted"]]
    return Division(
        w_r=w_r,
        w_prd=w_prd,
        branches=partition(w_r, w_prd, cfg),
        roles=roles,
        model=model,
        source=source,
        profile=prof,
    )


def co_divide(
    profiles: list[LossProfile], cfg: ExperimentConfig, sources: Sequence[str] = NET_NAMES
) -> tuple[list[Division | None], dict[str, str]]:
    """Fit one mixture per network's profile, in order, and pass each on.

    `profiles[i]` comes from network `sources[i]`. Consumer i gets the
    division from source (i + 1) % n: with two networks each trains on the
    other's, with one the network is its own partner (or, with another
    source name, the one division goes to that network's partner). A
    failed fit yields None for its consumer (which falls back to plain
    cross-entropy that epoch) and its error under the source's name.
    """
    divisions: list[Division | None] = []
    fit_errors: dict[str, str] = {}
    for source, prof in zip(sources, profiles):
        try:
            divisions.append(_divide(prof, source, cfg))
        except GmmFitError as exc:
            divisions.append(None)
            fit_errors[source] = str(exc)
    n = len(divisions)
    return [divisions[(i + 1) % n] for i in range(n)], fit_errors


def _rate(numerator: int, denominator: int) -> float | None:
    return None if denominator == 0 else numerator / denominator


def selection_report(division: Division, ds: NoisyDataset) -> dict:
    """The division's source, roles and mixture diagnostics, and per branch
    its size, precision, recall and agreement-state histogram.

    Precision conditions: labeled branch counts samples whose noisy label
    is the true label; predicted branch counts samples whose prediction is
    the true label; wrong branch counts samples failing both. Predictions
    and agreement states are the source profile's. Empty branches report
    null precision/recall rather than 0.
    """
    branches, predicted = division.branches, division.profile.predicted
    states = division.profile.states
    label_ok = ds.noisy_labels == ds.true_labels
    pred_ok = predicted == ds.true_labels
    conditions = {
        BRANCH_LABELED: label_ok,
        BRANCH_PREDICTED: pred_ok,
        BRANCH_WRONG: ~label_ok & ~pred_ok,
    }
    report: dict = {
        "n_samples": int(ds.n_samples),
        "source": division.source,
        "roles": division.roles,
        "gmm": model_to_dict(division.model),
        "branches": {},
    }
    for code, name in enumerate(BRANCH_NAMES):
        in_branch = branches == code
        size = int(in_branch.sum())
        condition = conditions[code]
        hits = int((in_branch & condition).sum())
        histogram = {
            roman: int((in_branch & (states == s)).sum())
            for s, roman in enumerate(STATE_NAMES, start=1)
        }
        report["branches"][name] = {
            "size": size,
            "precision": _rate(hits, size),
            "recall": _rate(hits, int(condition.sum())),
            "states": histogram,
        }
    return report
