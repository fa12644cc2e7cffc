"""End-to-end acceptance battery.

Each test exercises one numbered criterion and appends a one-line verdict
to the terminal summary. The benchmark experiments are executed once per
session and shared across criteria.

Two regimes are run. The benchmark (4 blobs x 1000 samples in 2-D, 2-64-64-4
networks) sits at the separability ceiling, where plain cross-entropy
already scores 0.997; criteria 6-8 read it. Criterion 5 compares selection
against plain cross-entropy in the memorization regime instead: the same
seeds, noise and schedule on 20-D blobs with 150 samples per class and
20-256-256-4 networks, wide enough to fit the noisy labels outright, so
plain cross-entropy can lose.

The plain cross-entropy baseline for the memorization regime was produced
with `scripts/runs.py baseline` and is frozen below; criterion 5 re-runs
the baseline and refuses to proceed if the frozen number no longer
reproduces.
"""

import csv
import math
import time

import numpy as np
import pytest

from conftest import ANCHORS, DEFAULTS, gradient_check_draws
from oracles import batch_loss, ensemble_probs, fold_lambda, mixup_pair, posteriors, refine_label
from dstlab.config import MEMORIZATION, benchmark_config
from dstlab.gmm import fit
from dstlab.lab import load_summary, run, scatter_csv_path
from dstlab.network import Layer, NetworkParams, init_network
from dstlab.training import sharpen

# `scripts/runs.py baseline` output for the memorization regime (frozen):
# ensemble accuracy of the plain cross-entropy run.
BASELINE_CE_FINAL = 0.786

TOL = 1e-9


@pytest.fixture(scope="session")
def battery(tmp_path_factory):
    """All benchmark runs the criteria need, executed once."""
    root = tmp_path_factory.mktemp("acceptance")
    runs: dict = {"wall": {}}
    variants = {
        "mem_ce": benchmark_config(ce_only=True, **MEMORIZATION),
        "mem_dst": benchmark_config(**MEMORIZATION),
        "dst": benchmark_config(),
        "dst_repeat": benchmark_config(),
        "r08": benchmark_config(noise_rate=0.8),
        "r08_nomix": benchmark_config(noise_rate=0.8, no_mixup=True),
        "r08_single": benchmark_config(noise_rate=0.8, single_network=True),
    }
    for name, cfg in variants.items():
        start = time.perf_counter()
        runs[name] = run(cfg, root / name)
        runs["wall"][name] = time.perf_counter() - start
    return runs


def test_criterion_1_backprop_matches_finite_differences(record_criterion):
    start = time.perf_counter()
    worst = gradient_check_draws(20)
    wall = time.perf_counter() - start
    ok = worst < 1e-4 and wall < 10.0
    record_criterion(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - gradient check, "
        f"max rel err {worst:.3e} over 20 draws in {wall:.2f}s"
    )
    assert worst < 1e-4
    assert wall < 10.0


def test_criterion_2_em_likelihood_never_decreases(record_criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_drop = 0.0
    worst_row_err = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 300))
        if rng.random() < 0.5:
            points = rng.uniform(size=(n, 2))
        else:
            centers = rng.uniform(size=(3, 2))
            points = np.concatenate(
                [c + 0.1 * rng.standard_normal((n // 3 + 1, 2)) for c in centers]
            )[:n]
        model = fit(points, ANCHORS, tol=0.0, max_iter=40)
        trace = np.asarray(model.ll_trace)
        slack = 1e-8 * np.maximum(1.0, np.abs(trace[:-1]))
        worst_drop = max(worst_drop, float((trace[:-1] - trace[1:] - slack).max()))
        rows = posteriors(model, points).sum(axis=1)
        worst_row_err = max(worst_row_err, float(np.abs(rows - 1.0).max()))
    wall = time.perf_counter() - start
    ok = worst_drop <= 0.0 and worst_row_err <= 1e-9 and wall < 30.0
    record_criterion(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - EM monotone on 50 point sets "
        f"(worst slack excess {worst_drop:.3e}), posterior row-sum err "
        f"{worst_row_err:.3e}, {wall:.2f}s"
    )
    assert worst_drop <= 0.0
    assert worst_row_err <= 1e-9
    assert wall < 30.0


def test_criterion_3_mixture_recovery_at_the_anchors(record_criterion):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    truth = np.repeat(np.arange(3), 1000)
    points = np.concatenate(
        [anchor + 0.02 * rng.standard_normal((1000, 2)) for anchor in ANCHORS]
    )
    model = fit(points, ANCHORS, DEFAULTS.gmm_tol, DEFAULTS.gmm_max_iter)
    mean_err = float(np.abs(model.means - ANCHORS).max())
    hard = posteriors(model, points).argmax(axis=1)
    agreement = float((hard == truth).mean())
    wall = time.perf_counter() - start
    ok = mean_err <= 0.02 and agreement >= 0.99 and wall < 10.0
    record_criterion(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - recovered means within "
        f"{mean_err:.4f} of the anchors, hard assignment {agreement:.4f}, {wall:.2f}s"
    )
    assert mean_err <= 0.02
    assert agreement >= 0.99
    assert wall < 10.0


def test_criterion_4_enumerated_refinement_and_mixing_examples(record_criterion):
    rng = np.random.default_rng(0)
    y = np.array([1.0, 0.0])
    p_half = np.array([0.5, 0.5])

    checks = []

    # label refinement
    out = refine_label(y, p_half, 1.0, 0.0, 0.5, 0.5, rng)
    checks.append(float(np.abs(out - y).max()))
    out = refine_label(y, np.array([0.1, 0.9]), 0.2, 1.0, 0.5, 0.5, rng)
    checks.append(float(np.abs(out - [0.1, 0.9]).max()))
    out = refine_label(y, p_half, 0.6, 0.0, 0.5, 0.5, rng)
    checks.append(float(np.abs(out - [0.8, 0.2]).max()))

    # sharpening
    rows = np.array([[0.3, 0.7], [0.25, 0.75]])
    checks.append(float(np.abs(sharpen(rows, 1.0) - rows).max()))
    checks.append(float(np.abs(sharpen(np.full(4, 0.25), 0.5) - 0.25).max()))
    checks.append(
        float(np.abs(sharpen(np.array([0.8, 0.2]), 0.5) - [16.0 / 17.0, 1.0 / 17.0]).max())
    )

    # mixing
    class Fixed:
        def __init__(self, v):
            self.v = v

        def beta(self, a, b):
            return self.v

    checks.append(abs(fold_lambda(0.3) - 0.7))
    x_mix, _ = mixup_pair((y, y), (p_half, p_half), 4.0, Fixed(1.0))
    checks.append(float(np.abs(x_mix - y).max()))
    x_mix, _ = mixup_pair(
        (np.array([1.0, 0.0]), y), (np.array([0.0, 1.0]), y[::-1]), 4.0, Fixed(0.7)
    )
    checks.append(float(np.abs(x_mix - [0.7, 0.3]).max()))

    # ensemble averaging
    net = init_network([2, 4, 3], np.random.default_rng(1))
    x = np.random.default_rng(2).normal(size=(4, 2))
    solo = ensemble_probs([net], x)
    checks.append(float(np.abs(ensemble_probs([net, net], x) - solo).max()))
    conf_a = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([40.0, -40.0]))])
    conf_b = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([-40.0, 40.0]))])
    checks.append(float(np.abs(ensemble_probs([conf_a, conf_b], np.zeros((2, 1))) - 0.5).max()))
    other = init_network([2, 4, 3], np.random.default_rng(3))
    hand = (ensemble_probs([net], x) + ensemble_probs([other], x)) / 2.0
    checks.append(float(np.abs(ensemble_probs([net, other], x) - hand).max()))

    # training objective
    uniform_net = NetworkParams([Layer(weights=np.zeros((4, 2)), bias=np.zeros(4))])
    xu = np.random.default_rng(4).normal(size=(6, 2))
    yu = np.random.default_rng(5).dirichlet(np.ones(4), size=6)
    checks.append(abs(batch_loss(uniform_net, xu, yu, 1.0) - batch_loss(uniform_net, xu, yu, 0.0)))
    confident = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([40.0, -40.0]))])
    one_hot_y = np.tile([1.0, 0.0], (5, 1))
    checks.append(batch_loss(confident, np.zeros((5, 1)), one_hot_y, 0.0))

    ident = NetworkParams([Layer(weights=np.eye(2), bias=np.zeros(2))])
    x2 = np.array([[1.0, 0.0], [2.0, 0.0]])
    y2 = np.array([[0.7, 0.3], [0.2, 0.8]])
    p1 = [math.exp(1) / (math.exp(1) + 1), 1 / (math.exp(1) + 1)]
    p2 = [math.exp(2) / (math.exp(2) + 1), 1 / (math.exp(2) + 1)]
    loss_x = -(
        0.7 * math.log(p1[0])
        + 0.3 * math.log(p1[1])
        + 0.2 * math.log(p2[0])
        + 0.8 * math.log(p2[1])
    ) / 2
    mean = [(p1[0] + p2[0]) / 2, (p1[1] + p2[1]) / 2]
    reg = sum(math.log(0.5) - math.log(m) for m in mean) / 2
    checks.append(abs(batch_loss(ident, x2, y2, 1.0) - (loss_x + reg)))

    worst = max(checks)
    ok = worst <= TOL
    record_criterion(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - {len(checks)} enumerated "
        f"refinement/sharpening/mixing/objective examples, worst abs err {worst:.3e}"
    )
    assert worst <= TOL


def test_criterion_5_benchmark_beats_plain_cross_entropy(battery, record_criterion):
    ce = load_summary(battery["mem_ce"])
    dst = load_summary(battery["mem_dst"])
    ce_final = ce["accuracy"]["ensemble"]["final"]
    dst_final = dst["accuracy"]["ensemble"]["final"]
    gap = dst_final - ce_final
    precisions = {
        name: dst["final_branches"][name]["labeled"]["precision"]
        for name in ("net1", "net2")
    }
    wall = battery["wall"]["mem_dst"]
    ok = (
        abs(ce_final - BASELINE_CE_FINAL) <= TOL
        and dst_final >= 0.85
        and all(p is not None and p >= 0.90 for p in precisions.values())
        and wall < 300.0
        and gap >= 0.10
    )
    record_criterion(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - memorization-regime accuracy {dst_final:.4f} "
        f"vs plain-CE {ce_final:.4f} (gap {gap:+.4f}, required +0.10), labeled "
        f"precision net1 {precisions['net1']:.4f} net2 {precisions['net2']:.4f}, "
        f"{wall:.0f}s"
    )
    assert abs(ce_final - BASELINE_CE_FINAL) <= TOL, "frozen baseline did not reproduce"
    assert dst_final >= 0.85
    for name, precision in precisions.items():
        assert precision >= 0.90, f"{name} labeled precision {precision}"
    assert wall < 300.0
    # In the memorization regime plain cross-entropy fits the noisy labels
    # and its final accuracy falls far below its best; selection must hold
    # the line by at least ten points. (On the 2-D benchmark both runs sit at
    # the 0.997 ceiling, so no gap could show there.)
    assert gap >= 0.10


def test_criterion_6_loss_axes_order_the_audit_states(battery, record_criterion):
    dst = load_summary(battery["dst"])
    final_epoch = dst["config"]["total_epochs"]
    by_state: dict[int, list[tuple[float, float]]] = {s: [] for s in (1, 2, 3, 4, 5)}
    with open(scatter_csv_path(battery["dst"], final_epoch, "net1"), newline="") as fh:
        for row in csv.DictReader(fh):
            by_state[int(row["state"])].append(
                (float(row["nrm_nis"]), float(row["nrm_prd"]))
            )
    counts = {s: len(v) for s, v in by_state.items()}
    mean_nis = {s: np.mean([p[0] for p in v]) if v else None for s, v in by_state.items()}
    mean_prd = {s: np.mean([p[1] for p in v]) if v else None for s, v in by_state.items()}
    populated = all(counts[s] > 0 for s in (1, 3, 4, 5))
    prd_ordered = populated and mean_prd[3] < mean_prd[5]
    nis_ordered = populated and mean_nis[1] < mean_nis[4]
    ok = populated and prd_ordered and nis_ordered
    record_criterion(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - state populations {counts}; "
        f"prediction-loss means iii<v: "
        f"{mean_prd[3] and round(mean_prd[3], 4)} vs {mean_prd[5] and round(mean_prd[5], 4)}; "
        f"label-loss means i<iv: "
        f"{mean_nis[1] and round(mean_nis[1], 4)} vs {mean_nis[4] and round(mean_nis[4], 4)}"
    )
    assert populated, f"state populations {counts}"
    assert prd_ordered
    assert nis_ordered


def test_criterion_7_ablations_reduce_high_noise_accuracy(battery, record_criterion):
    full = load_summary(battery["r08"])["accuracy"]["ensemble"]["last10_mean"]
    nomix = load_summary(battery["r08_nomix"])["accuracy"]["ensemble"]["last10_mean"]
    single = load_summary(battery["r08_single"])["accuracy"]["ensemble"]["last10_mean"]
    ok = full > nomix and full > single
    record_criterion(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - r=0.8 trailing accuracy "
        f"full {full:.4f} vs no-mixup {nomix:.4f} (d={full - nomix:+.4f}) "
        f"vs single-network {single:.4f} (d={full - single:+.4f})"
    )
    assert full > nomix
    assert full > single


def test_criterion_8_summaries_are_byte_identical(battery, record_criterion):
    first = (battery["dst"] / "summary.json").read_bytes()
    second = (battery["dst_repeat"] / "summary.json").read_bytes()
    ok = first == second
    record_criterion(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - repeated benchmark run wrote "
        f"{'an identical' if ok else 'a different'} summary ({len(first)} bytes)"
    )
    assert ok
