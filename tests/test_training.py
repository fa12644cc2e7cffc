import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_division, make_noisy, max_rel_err
import oracles
from oracles import (
    ReferenceOptimizer,
    accuracy,
    batch_loss,
    batch_objective,
    draw_mixup_lambda,
    ensemble_accuracy,
    ensemble_probs,
    fold_lambda,
    mixup_pair,
    params_hash,
    partition_then_relabel,
    refine_batch,
    refine_label,
    warmup,
)
from dstlab import training
from dstlab.config import ExperimentConfig
from dstlab.data import NoiseSpec, inject_noise, make_blobs
from dstlab.errors import ConfigError, NumericError, StructuralError
from dstlab.network import (
    Layer,
    NetworkParams,
    Workspace,
    init_network,
    one_hot,
    softmax,
)
from dstlab.lossprofile import profile
from dstlab.rng import RngStreams
from dstlab.selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    co_divide,
    partition,
)
from dstlab.training import (
    _branch_table,
    _Refinement,
    _train_epoch,
    evaluate,
    mixup_batch,
    plain_ce_epoch,
    run_dst_epoch,
    sharpen,
)


class FixedBeta:
    """Stand-in generator whose beta draw is a constant."""

    def __init__(self, value: float):
        self.value = value

    def beta(self, a, b, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def init_workspaces(cfg, streams):
    """Both networks' workspaces, made as `lab.run` makes them."""
    return [
        Workspace(init_network(cfg.layer_sizes(), rng), cfg.momentum, cfg.weight_decay)
        for rng in streams.init
    ]


def params_of(workspaces):
    return [ws.params for ws in workspaces]


def clean_toy(seed: int = 3, per_class: int = 40):
    clean = make_blobs(3, per_class, 2, 0.25, np.random.default_rng(seed))
    return inject_noise(clean, NoiseSpec(kind="sym-c1", rate=0.0, seed=seed + 1))


class TestRefineLabel:
    Y = np.array([1.0, 0.0])
    P = np.array([0.5, 0.5])

    def rng(self):
        return np.random.default_rng(0)

    def test_full_label_weight_keeps_the_label(self):
        out = refine_label(self.Y, self.P, 1.0, 0.0, 0.5, 0.5, self.rng())
        np.testing.assert_allclose(out, self.Y, atol=1e-12)

    def test_labeled_branch_blend(self):
        out = refine_label(self.Y, self.P, 0.6, 0.0, 0.5, 0.5, self.rng())
        np.testing.assert_allclose(out, [0.8, 0.2], atol=1e-12)

    def test_full_prediction_weight_returns_ensemble(self):
        p_b = np.array([0.1, 0.9])
        out = refine_label(self.Y, p_b, 0.2, 1.0, 0.5, 0.5, self.rng())
        np.testing.assert_allclose(out, p_b, atol=1e-12)

    def test_predicted_branch_blend(self):
        out = refine_label(self.Y, np.array([0.0, 1.0]), 0.3, 0.8, 0.5, 0.5, self.rng())
        np.testing.assert_allclose(out, [0.2, 0.8], atol=1e-12)

    def test_thresholds_are_inclusive(self):
        out = refine_label(self.Y, self.P, 0.5, 0.0, 0.5, 0.5, self.rng())
        np.testing.assert_allclose(out, [0.75, 0.25], atol=1e-12)

    def test_wrong_branch_blend_is_a_fresh_uniform_draw(self):
        y, p_b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        expected_w = np.random.default_rng(5).uniform()
        out = refine_label(y, p_b, 0.1, 0.1, 0.5, 0.5, np.random.default_rng(5))
        np.testing.assert_allclose(out, [1.0 - expected_w, expected_w], atol=1e-12)

    def test_wrong_branch_draws_differ_across_calls(self):
        rng = self.rng()
        y, p_b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        first = refine_label(y, p_b, 0.1, 0.1, 0.5, 0.5, rng)
        second = refine_label(y, p_b, 0.1, 0.1, 0.5, 0.5, rng)
        assert not np.allclose(first, second)
        for out in (first, second):
            assert 0.0 <= out[1] <= 1.0
            assert out.sum() == pytest.approx(1.0)


class TestRefineBatch:
    def test_matches_per_sample_refinement(self):
        rng = np.random.default_rng(7)
        n, c = 40, 3
        y = np.eye(c)[rng.integers(0, c, n)]
        p_b = rng.dirichlet(np.ones(c), size=n)
        resp = rng.dirichlet(np.ones(3), size=n)
        w_r, w_prd = resp[:, 0], resp[:, 1]
        branches = partition(w_r, w_prd, ExperimentConfig())

        batch_out = refine_batch(y, p_b, w_r, w_prd, branches, np.random.default_rng(99))
        loop_rng = np.random.default_rng(99)
        loop_out = np.stack(
            [refine_label(y[i], p_b[i], w_r[i], w_prd[i], 0.5, 0.5, loop_rng) for i in range(n)]
        )
        np.testing.assert_array_equal(batch_out, loop_out)

    def test_wrong_draws_consumed_in_batch_order(self):
        y = np.eye(2)[[0, 0, 1, 0]]
        p_b = np.eye(2)[[1, 1, 0, 1]]
        branches = np.full(4, BRANCH_WRONG)
        out = refine_batch(y, p_b, np.zeros(4), np.zeros(4), branches, np.random.default_rng(2))
        w_u = np.random.default_rng(2).uniform(size=4)
        np.testing.assert_allclose(out[:, 0], np.where(y[:, 0] == 1, 1 - w_u, w_u), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(StructuralError):
            refine_batch(
                np.ones((3, 2)),
                np.ones((4, 2)),
                np.zeros(3),
                np.zeros(3),
                np.zeros(3, dtype=np.int64),
                np.random.default_rng(0),
            )


def refine_batch_reference(y, p_b, w_r, w_prd, branches, rng):
    """The allocating refinement: one masked blend per branch."""
    out = np.empty_like(y)
    lab = branches == BRANCH_LABELED
    prd = branches == BRANCH_PREDICTED
    wrg = branches == BRANCH_WRONG
    out[lab] = w_r[lab, None] * y[lab] + (1.0 - w_r[lab, None]) * p_b[lab]
    out[prd] = (1.0 - w_prd[prd, None]) * y[prd] + w_prd[prd, None] * p_b[prd]
    n_wrong = int(wrg.sum())
    if n_wrong:
        w_u = rng.uniform(size=n_wrong)
        out[wrg] = (1.0 - w_u[:, None]) * y[wrg] + w_u[:, None] * p_b[wrg]
    return out


class TestRefineBatchMatchesReference:
    ALL = [BRANCH_LABELED, BRANCH_PREDICTED, BRANCH_WRONG]

    @pytest.mark.parametrize(
        "codes",
        [ALL, [BRANCH_LABELED], [BRANCH_PREDICTED], [BRANCH_WRONG], [BRANCH_LABELED, BRANCH_PREDICTED]],
        ids=["mixed", "all-labeled", "all-predicted", "all-wrong", "no-wrong"],
    )
    @pytest.mark.parametrize("rows", [1, 88, 128])
    def test_bytes_and_wrong_stream(self, codes, rows):
        rng = np.random.default_rng(rows * 31 + len(codes))
        y = np.eye(4)[rng.integers(0, 4, rows)]
        p_b = rng.dirichlet(np.ones(4), size=rows)
        w_r, w_prd = rng.uniform(size=rows), rng.uniform(size=rows)
        branches = rng.choice(np.array(codes, dtype=np.int64), size=rows)
        fast_rng, slow_rng = np.random.default_rng(5), np.random.default_rng(5)
        for _ in range(3):  # consecutive batches share the stream
            got = refine_batch(y, p_b, w_r, w_prd, branches, fast_rng)
            want = refine_batch_reference(y, p_b, w_r, w_prd, branches, slow_rng)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert fast_rng.uniform() == slow_rng.uniform()

    def test_soft_labels_and_boundary_weights(self):
        rng = np.random.default_rng(11)
        y = rng.dirichlet(np.ones(3), size=12)
        p_b = rng.dirichlet(np.ones(3), size=12)
        w_r = np.array([0.0, 1.0, 0.5, 0.25] * 3)
        w_prd = np.array([1.0, 0.0, 0.5, 0.75] * 3)
        branches = np.repeat(np.array(self.ALL, dtype=np.int64), 4)
        got = refine_batch(y, p_b, w_r, w_prd, branches, np.random.default_rng(0))
        want = refine_batch_reference(y, p_b, w_r, w_prd, branches, np.random.default_rng(0))
        assert got.tobytes() == want.tobytes()


class TestSharpen:
    def test_unit_temperature_is_identity(self):
        rows = np.random.default_rng(0).dirichlet(np.ones(4), size=5)
        np.testing.assert_allclose(sharpen(rows, 1.0), rows, atol=1e-12)

    def test_uniform_rows_stay_uniform(self):
        row = np.full((1, 5), 0.2)
        np.testing.assert_allclose(sharpen(row, 0.5), row, atol=1e-12)

    def test_half_temperature_squares_and_renormalizes(self):
        out = sharpen(np.array([0.8, 0.2]), 0.5)
        np.testing.assert_allclose(out, [16.0 / 17.0, 1.0 / 17.0], atol=1e-12)

    def test_rows_sum_to_one(self):
        rows = np.random.default_rng(1).dirichlet(np.ones(6), size=20)
        out = sharpen(rows, 0.5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_lower_temperature_concentrates_mass(self):
        row = np.array([0.5, 0.3, 0.2])
        assert sharpen(row, 0.5).max() > row.max()

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_nonpositive_temperature_rejected(self, temperature):
        # sharpen takes its temperature from the config, which checks it once.
        with pytest.raises(ConfigError, match="temperature must be > 0"):
            ExperimentConfig(temperature=temperature)


class TestMixup:
    def test_fold_reflects_into_upper_half(self):
        assert fold_lambda(0.3) == 0.7
        assert fold_lambda(0.7) == 0.7
        assert fold_lambda(0.5) == 0.5
        assert fold_lambda(1.0) == 1.0

    def test_drawn_lambda_is_folded(self):
        assert draw_mixup_lambda(4.0, FixedBeta(0.3)) == 0.7
        assert draw_mixup_lambda(4.0, FixedBeta(0.9)) == 0.9

    def test_lambda_range_over_many_draws(self):
        rng = np.random.default_rng(0)
        draws = [draw_mixup_lambda(4.0, rng) for _ in range(200)]
        assert all(0.5 <= lam <= 1.0 for lam in draws)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ConfigError):
            draw_mixup_lambda(0.0, np.random.default_rng(0))

    def test_pair_with_unit_lambda_returns_first_sample(self):
        x1, y1 = np.array([1.0, 2.0]), np.array([1.0, 0.0])
        x2, y2 = np.array([5.0, 6.0]), np.array([0.0, 1.0])
        x_mix, y_mix = mixup_pair((x1, y1), (x2, y2), 4.0, FixedBeta(1.0))
        np.testing.assert_array_equal(x_mix, x1)
        np.testing.assert_array_equal(y_mix, y1)

    def test_pair_blend_at_fixed_coefficient(self):
        x_mix, y_mix = mixup_pair(
            (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
            (np.array([0.0, 1.0]), np.array([0.0, 1.0])),
            4.0,
            FixedBeta(0.7),
        )
        np.testing.assert_allclose(x_mix, [0.7, 0.3], atol=1e-12)
        np.testing.assert_allclose(y_mix, [0.7, 0.3], atol=1e-12)

    def test_pair_folds_low_draws(self):
        low = mixup_pair(
            (np.array([1.0]), np.array([1.0])),
            (np.array([0.0]), np.array([0.0])),
            4.0,
            FixedBeta(0.3),
        )
        np.testing.assert_allclose(low[0], [0.7], atol=1e-12)

    def test_batch_draw_order_permutation_then_coefficients(self):
        rng = np.random.default_rng(11)
        n, alpha = 16, 4.0
        x = np.random.default_rng(1).normal(size=(n, 3))
        y = np.random.default_rng(2).dirichlet(np.ones(4), size=n)
        x_mix, y_mix = mixup_batch(x, y, alpha, rng)

        replay = np.random.default_rng(11)
        perm = replay.permutation(n)
        lam = replay.beta(alpha, alpha, size=n)
        lam = np.maximum(lam, 1.0 - lam)[:, None]
        np.testing.assert_array_equal(x_mix, lam * x + (1 - lam) * x[perm])
        np.testing.assert_array_equal(y_mix, lam * y + (1 - lam) * y[perm])

    def test_batch_own_sample_dominates(self):
        rng = np.random.default_rng(3)
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        y = one_hot(labels, 3)
        _, y_mix = mixup_batch(np.zeros((8, 2)), y, 4.0, rng)
        assert (y_mix[np.arange(8), labels] >= 0.5).all()


def fd_objective_grads(params, x, y, lam, h=1e-6):
    """Central differences of the regularized objective w.r.t. every parameter."""
    grads = []
    for layer in params.layers:
        outs = []
        for arr in (layer.weights, layer.bias):
            out = np.zeros_like(arr)
            flat, flat_out = arr.ravel(), out.ravel()
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                hi = batch_loss(params, x, y, lam)
                flat[i] = keep - h
                lo = batch_loss(params, x, y, lam)
                flat[i] = keep
                flat_out[i] = (hi - lo) / (2.0 * h)
            outs.append(out)
        grads.append(tuple(outs))
    return grads


class TestBatchObjective:
    def test_uniform_predictor_has_zero_regularizer(self):
        net = NetworkParams([Layer(weights=np.zeros((4, 2)), bias=np.zeros(4))])
        x = np.random.default_rng(0).normal(size=(6, 2))
        y = np.random.default_rng(1).dirichlet(np.ones(4), size=6)
        loss_off = batch_loss(net, x, y, 0.0)
        loss_on = batch_loss(net, x, y, 1.0)
        assert loss_on == pytest.approx(loss_off, abs=1e-12)
        assert loss_off == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_predictions_drive_fit_loss_to_zero(self):
        net = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([40.0, -40.0]))])
        x = np.zeros((5, 1))
        y = one_hot(np.zeros(5, dtype=np.int64), 2)
        assert batch_loss(net, x, y, 0.0) < 1e-6

    def test_two_sample_hand_computation(self):
        net = NetworkParams([Layer(weights=np.eye(2), bias=np.zeros(2))])
        x = np.array([[1.0, 0.0], [2.0, 0.0]])
        y = np.array([[0.7, 0.3], [0.2, 0.8]])
        lam = 0.7

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
        loss, _ = batch_objective(net, x, y, lam)
        assert loss == pytest.approx(loss_x + lam * reg, abs=1e-12)

    def test_gradient_matches_finite_differences_with_regularizer(self):
        rng = np.random.default_rng(21)
        net = init_network([3, 5, 4], rng)
        x = rng.normal(size=(6, 3))
        y = rng.dirichlet(np.ones(4), size=6)
        _, grads = batch_objective(net, x, y, 0.7)
        numeric = fd_objective_grads(net, x, y, 0.7)
        assert max_rel_err(grads, numeric) < 1e-5

    def test_target_shape_mismatch_rejected(self):
        net = init_network([2, 3], np.random.default_rng(0))
        with pytest.raises(StructuralError):
            batch_objective(net, np.ones((4, 2)), np.ones((4, 2)), 1.0)
        with pytest.raises(StructuralError):
            batch_objective(net, np.ones((4, 2)), np.ones((3, 3)), 1.0)

    def test_batch_loss_is_objective_value(self):
        rng = np.random.default_rng(4)
        net = init_network([2, 3], rng)
        x = rng.normal(size=(5, 2))
        y = rng.dirichlet(np.ones(3), size=5)
        loss, _ = batch_objective(net, x, y, 1.0)
        assert batch_loss(net, x, y) == loss


class TestEnsemble:
    def test_identical_networks_reproduce_their_softmax(self):
        net = init_network([2, 4, 3], np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(6, 2))
        from dstlab.network import forward_cached

        expected = softmax(np.stack([forward_cached(net, [row])[0][0] for row in x]))
        np.testing.assert_allclose(ensemble_probs([net, net], x), expected, atol=1e-12)

    def test_opposed_confident_networks_average_to_coin_flip(self):
        a = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([40.0, -40.0]))])
        b = NetworkParams([Layer(weights=np.zeros((2, 1)), bias=np.array([-40.0, 40.0]))])
        out = ensemble_probs([a, b], np.zeros((3, 1)))
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_hand_average_of_two_random_networks(self):
        rng = np.random.default_rng(2)
        a = init_network([3, 4], rng)
        b = init_network([3, 4], rng)
        x = rng.normal(size=(5, 3))
        from dstlab.network import forward_cached

        pa = softmax(forward_cached(a, x)[0])
        pb = softmax(forward_cached(b, x)[0])
        np.testing.assert_allclose(ensemble_probs([a, b], x), (pa + pb) / 2, atol=1e-12)

    def test_accuracy_counts_argmax_hits(self):
        net = NetworkParams([Layer(weights=np.eye(2), bias=np.zeros(2))])
        x = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert accuracy(net, x, np.array([0, 1, 1])) == pytest.approx(2.0 / 3.0)
        assert ensemble_accuracy([net, net], x, np.array([0, 1, 0])) == 1.0

    @pytest.mark.parametrize("ensemble", [("net1", "net2"), ("net1",)])
    def test_evaluate_matches_per_net_and_ensemble_references(self, ensemble):
        rng = np.random.default_rng(8)
        nets = {"net1": init_network([3, 6, 4], rng), "net2": init_network([3, 6, 4], rng)}
        x = rng.normal(size=(200, 3))
        labels = rng.integers(0, 4, size=200)
        got = evaluate(nets, x, labels, ensemble)
        assert got == {
            "net1": accuracy(nets["net1"], x, labels),
            "net2": accuracy(nets["net2"], x, labels),
            "ensemble": ensemble_accuracy([nets[name] for name in ensemble], x, labels),
        }


class TestSchedule:
    def test_default_step_decay(self):
        schedule = ExperimentConfig()
        assert schedule.learning_rate_at(1) == pytest.approx(0.02)
        assert schedule.learning_rate_at(80) == pytest.approx(0.02)
        assert schedule.learning_rate_at(81) == pytest.approx(0.004)
        assert schedule.learning_rate_at(160) == pytest.approx(0.004)
        assert schedule.learning_rate_at(161) == pytest.approx(0.0008)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"warmup_epochs": 0},
            {"total_epochs": 15, "warmup_epochs": 15},
            {"batch_size": 1},
            {"lr_decay_period": 0},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.2},
        ],
    )
    def test_invalid_schedules_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)

    def test_dst_defaults(self):
        dst = ExperimentConfig()
        assert (dst.tau_r, dst.tau_prd) == (0.5, 0.5)
        assert dst.temperature == 0.5
        assert dst.alpha == 4.0
        assert dst.lambda_reg == 1.0

    def test_ablation_rejects_unknown_branch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(disable_branch="wrong")


class TestWarmup:
    def test_epoch_of_plain_ce_reduces_loss(self):
        ds = clean_toy()
        rng = np.random.default_rng(0)
        ws = Workspace(init_network([2, 8, 3], rng), 0.9, 5e-4)
        targets = one_hot(ds.noisy_labels, ds.n_classes)
        before = batch_loss(ws.params, ds.features, targets, 0.0)
        for _ in range(5):
            plain_ce_epoch(ws, 0.05, ds, 16, rng)
        after = batch_loss(ws.params, ds.features, targets, 0.0)
        assert after < before

    def test_updates_both_networks_differently(self):
        ds = clean_toy()
        streams = RngStreams.from_master(5)
        cfg = ExperimentConfig(
            n_classes=3, hidden_sizes=[8], total_epochs=10, warmup_epochs=2, batch_size=16
        )
        workspaces = init_workspaces(cfg, streams)
        before = [params_hash(net) for net in params_of(workspaces)]
        warmup(workspaces, cfg.learning_rate, ds, 2, 16, streams)
        after = [params_hash(net) for net in params_of(workspaces)]
        assert before[0] != after[0] and before[1] != after[1]
        assert after[0] != after[1]

    def test_learns_clean_separable_blobs(self):
        ds = clean_toy(seed=9)
        streams = RngStreams.from_master(9)
        cfg = ExperimentConfig(
            n_classes=3,
            hidden_sizes=[8],
            total_epochs=25,
            warmup_epochs=20,
            batch_size=16,
            learning_rate=0.05,
        )
        workspaces = init_workspaces(cfg, streams)
        warmup(workspaces, cfg.learning_rate, ds, 20, 16, streams)
        for ws in workspaces:
            assert accuracy(ws.params, ds.features, ds.true_labels) >= 0.95


def warmed_pair(ds, master_seed=13, epochs=15):
    """Two warmed-up networks' workspaces, their streams, and a config
    whose selection epochs train them."""
    streams = RngStreams.from_master(master_seed)
    cfg = ExperimentConfig(
        n_classes=3,
        hidden_sizes=[8],
        total_epochs=40,
        warmup_epochs=epochs,
        batch_size=16,
        learning_rate=0.05,
    )
    workspaces = init_workspaces(cfg, streams)
    warmup(workspaces, cfg.learning_rate, ds, epochs, 16, streams)
    return workspaces, streams, cfg


def bimodal_clean_toy(seed=3, per_class=60):
    """Clean dataset whose converged loss cloud populates all three regimes.

    Well-separated blobs collapse to near-zero loss; per class pair one
    point sits deep toward the boundary (hard but learnable) and one is an
    exact twin of a neighbor-blob point carrying this class's label (the
    network can never fit both twins, so exactly one of each pair is
    misclassified at every stage of training).
    """
    from dstlab.data import CleanDataset

    rng = np.random.default_rng(seed)
    sigma = 0.25
    chord = 12 * sigma
    radius = chord / (2 * np.sin(np.pi / 3))
    angles = 2 * np.pi * np.arange(3) / 3
    centers = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    blob = [centers[c] + sigma * rng.standard_normal((per_class, 2)) for c in range(3)]
    feats = list(blob)
    labels = [np.full(per_class, c) for c in range(3)]
    for c, other in ((0, 1), (1, 2), (2, 0)):
        mid = (centers[c] + centers[other]) / 2
        hard = centers[c] + 0.85 * (mid - centers[c])
        feats.append(hard[None, :])
        labels.append(np.array([c]))
        feats.append(blob[other][:1].copy())
        labels.append(np.array([c]))
    clean = CleanDataset(
        features=np.concatenate(feats),
        true_labels=np.concatenate(labels).astype(np.int64),
        n_classes=3,
    )
    return inject_noise(clean, NoiseSpec(kind="sym-c1", rate=0.0, seed=seed + 1))


def assert_same_profiles(got, want):
    """The epoch's profiles are the active networks' before any update."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for column in ("l_nis", "l_prd", "predicted", "nrm_nis", "nrm_prd", "states"):
            assert getattr(g, column).tobytes() == getattr(w, column).tobytes()


class TestDstEpoch:
    def test_clean_data_lands_in_labeled_branch_and_accuracy_holds(self):
        ds = bimodal_clean_toy(seed=3)
        streams = RngStreams.from_master(3)
        cfg = ExperimentConfig(
            n_classes=3,
            hidden_sizes=[16],
            total_epochs=120,
            warmup_epochs=100,
            batch_size=16,
            learning_rate=0.05,
            weight_decay=0.0,
        )
        workspaces = init_workspaces(cfg, streams)
        warmup(workspaces, cfg.learning_rate, ds, 100, 16, streams)
        start = ensemble_accuracy(params_of(workspaces), ds.features, ds.true_labels)
        assert start >= 0.97
        selection = None
        for _ in range(10):
            selection, _ = run_dst_epoch(workspaces, cfg.learning_rate, ds, cfg, streams)
        end = ensemble_accuracy(params_of(workspaces), ds.features, ds.true_labels)
        for name in ("net1", "net2"):
            report = selection[name]
            labeled = report["branches"]["labeled"]["size"]
            assert labeled / report["n_samples"] >= 0.95
        assert end >= start - 1.5 / ds.n_samples

    def test_divisions_come_from_the_other_network(self):
        ds = clean_toy(seed=4)
        workspaces, streams, cfg = warmed_pair(ds)
        before = [profile(ws.params, ds) for ws in workspaces]
        selection, profiles = run_dst_epoch(workspaces, cfg.learning_rate, ds, cfg, streams)
        assert selection["net1"]["source"] == "net2"
        assert selection["net2"]["source"] == "net1"
        assert_same_profiles(profiles, before)

    def test_single_network_mode_isolates_the_second_network(self):
        ds = clean_toy(seed=5)
        workspaces, streams, cfg = warmed_pair(ds)
        net2_before = params_hash(workspaces[1].params)
        before = [profile(workspaces[0].params, ds)]
        single = dataclasses.replace(cfg, single_network=True)
        selection, profiles = run_dst_epoch(workspaces, cfg.learning_rate, ds, single, streams)
        assert params_hash(workspaces[1].params) == net2_before
        assert selection["net1"]["source"] == "net1"
        assert "net2" not in selection
        assert_same_profiles(profiles, before)

    def test_no_mixup_flag_equals_identity_mixing(self, monkeypatch):
        ds = clean_toy(seed=6)
        ws_a, streams_a, cfg = warmed_pair(ds, master_seed=17)
        ws_b, streams_b, _ = warmed_pair(ds, master_seed=17)
        assert params_hash(ws_a[0].params) == params_hash(ws_b[0].params)

        no_mixup = dataclasses.replace(cfg, no_mixup=True)
        run_dst_epoch(ws_a, cfg.learning_rate, ds, no_mixup, streams_a)
        monkeypatch.setattr(training, "mixup_batch", lambda x, y, alpha, rng: (x, y))
        run_dst_epoch(ws_b, cfg.learning_rate, ds, cfg, streams_b)
        assert params_hash(ws_a[0].params) == params_hash(ws_b[0].params)
        assert params_hash(ws_a[1].params) == params_hash(ws_b[1].params)

    def test_fit_failure_falls_back_to_plain_ce(self, monkeypatch):
        ds = clean_toy(seed=7)
        workspaces, streams, cfg = warmed_pair(ds)
        monkeypatch.setattr(
            training,
            "co_divide",
            lambda profiles, cfg: ([None, None], {"net1": "fit failed", "net2": "fit failed"}),
        )
        before = [params_hash(net) for net in params_of(workspaces)]
        selection, _ = run_dst_epoch(workspaces, cfg.learning_rate, ds, cfg, streams)
        assert selection["net1"] == {"fallback": True}
        assert selection["net2"] == {"fallback": True}
        assert params_hash(workspaces[0].params) != before[0]
        assert params_hash(workspaces[1].params) != before[1]

    def test_reports_carry_roles_and_mixture_diagnostics(self):
        ds = clean_toy(seed=8)
        workspaces, streams, cfg = warmed_pair(ds)
        selection, _ = run_dst_epoch(workspaces, cfg.learning_rate, ds, cfg, streams)
        report = selection["net1"]
        assert report["fallback"] is False
        assert sorted(report["roles"]) == ["labeled", "predicted", "wrong"]
        assert sorted(report["roles"].values()) == [0, 1, 2]
        assert "means" in report["gmm"]


class TestBranchAblation:
    """The ablation of a run's branches, made by `selection.partition` and
    checked against the oracle's partition-then-relabel."""

    # Rows that threshold to labeled, predicted, wrong and labeled at taus
    # 0.5/0.5; the last is over tau_prd too.
    W_R = np.array([0.9, 0.2, 0.1, 0.9])
    W_PRD = np.array([0.1, 0.9, 0.2, 0.9])
    ABLATIONS = [{}, {"disable_branch": "labeled"}, {"disable_branch": "predicted"}, {"all_wrong": True}]

    def branches(self, **ablation):
        cfg = ExperimentConfig(**ablation)
        got = partition(self.W_R, self.W_PRD, cfg)
        np.testing.assert_array_equal(got, partition_then_relabel(self.W_R, self.W_PRD, cfg))
        return got.tolist()

    def test_all_wrong_overrides_everything(self):
        assert self.branches(all_wrong=True) == [BRANCH_WRONG] * 4
        assert self.branches(all_wrong=True, disable_branch="predicted") == [BRANCH_WRONG] * 4

    def test_disable_labeled_reroutes_only_labeled(self):
        out = self.branches(disable_branch="labeled")
        assert out == [BRANCH_WRONG, BRANCH_PREDICTED, BRANCH_WRONG, BRANCH_WRONG]

    def test_disable_predicted_reroutes_only_predicted(self):
        out = self.branches(disable_branch="predicted")
        assert out == [BRANCH_LABELED, BRANCH_WRONG, BRANCH_WRONG, BRANCH_LABELED]

    def test_no_ablation_is_identity_on_a_copy(self):
        out = self.branches()
        assert out == [BRANCH_LABELED, BRANCH_PREDICTED, BRANCH_WRONG, BRANCH_LABELED]

    @pytest.mark.parametrize(
        "ablation, expected",
        [
            ({}, BRANCH_LABELED),
            ({"disable_branch": "labeled"}, BRANCH_WRONG),
            ({"disable_branch": "predicted"}, BRANCH_LABELED),
            ({"all_wrong": True}, BRANCH_WRONG),
        ],
        ids=["none", "labeled", "predicted", "all-wrong"],
    )
    def test_row_over_both_thresholds(self, ablation, expected):
        # At taus 0.3/0.3 a row with w_r = w_prd = 0.4 clears both. Labeled
        # takes it first, so disabling labeled sends it to wrong, not to
        # predicted.
        cfg = ExperimentConfig(tau_r=0.3, tau_prd=0.3, **ablation)
        w = np.array([0.4])
        assert partition(w, w, cfg).tolist() == [expected]
        assert partition_then_relabel(w, w, cfg).tolist() == [expected]

    @given(
        st.integers(0, 2**31),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from(ABLATIONS),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_partition_then_relabel(self, seed, tau_r, tau_prd, ablation):
        cfg = ExperimentConfig(tau_r=tau_r, tau_prd=tau_prd, **ablation)
        rng = np.random.default_rng(seed)
        w_r, w_prd = rng.uniform(size=(2, 64))
        # Rows exactly on a threshold, and the pinned row w_r = w_prd = 0.4.
        w_r[:3] = tau_r
        w_prd[2:5] = tau_prd
        w_r[5] = w_prd[5] = 0.4
        got = partition(w_r, w_prd, cfg)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, partition_then_relabel(w_r, w_prd, cfg))


class TestBranchCodes:
    W = np.array([0.9, 0.2, 0.4])

    def test_reference_refinement_rejects_unknown_codes(self):
        y = np.eye(2)[[0, 1, 0]]
        with pytest.raises(StructuralError):
            refine_batch(y, y, self.W, self.W, np.array([1, 7, -1]), np.random.default_rng(0))

    def test_table_holds_the_blend_weights_of_each_branch(self):
        ds = make_noisy(np.zeros((3, 1)), [0, 1, 0], [0, 1, 0], 2)
        branches = [BRANCH_LABELED, BRANCH_PREDICTED, BRANCH_WRONG]
        division = make_division(ds, branches, w_r=[0.8, 0.3, 0.1], w_prd=[0.1, 0.6, 0.2])
        keep, lean, wrong = _branch_table(division)
        assert keep[:2].tolist() == [0.8, 1.0 - 0.6]
        assert lean[:2].tolist() == [1.0 - 0.8, 0.6]
        assert wrong.tolist() == [False, False, True]


def noisy_toy(n_samples: int, seed: int = 21):
    """Three blobs with half the labels flipped, `n_samples` rows in all."""
    per_class = -(-n_samples // 3)
    clean = make_blobs(3, per_class, 2, 0.6, np.random.default_rng(seed))
    ds = inject_noise(clean, NoiseSpec(kind="sym-c1", rate=0.5, seed=seed + 1))
    return make_noisy(
        ds.features[:n_samples], ds.true_labels[:n_samples], ds.noisy_labels[:n_samples], 3
    )


def assert_same_state(workspaces, ref_nets, ref_opts):
    for ws, name in zip(workspaces, ("net1", "net2"), strict=True):
        want = ref_nets[name]
        for g, w in zip(ws.params.layers, want.layers, strict=True):
            assert g.weights.tobytes() == w.weights.tobytes()
            assert g.bias.tobytes() == w.bias.tobytes()
        assert ws.buffer.tobytes() == ref_opts[name].flat().tobytes()


class TestEpochLoopMatchesOracle:
    """The one epoch loop against the two loops it replaced, bit for bit."""

    BATCH = 16

    def run_both(
        self, n_samples, ablation, monkeypatch=None, divide=None, dst_epochs=3, dst=None
    ):
        ds = noisy_toy(n_samples)
        cfg = ExperimentConfig(
            n_classes=3,
            hidden_sizes=[12, 12],
            total_epochs=10,
            warmup_epochs=2,
            batch_size=self.BATCH,
            **ablation,
            **(dst or {}),
        )
        streams, ref_streams = RngStreams.from_master(31), RngStreams.from_master(31)
        lr = cfg.learning_rate
        # A workspace copies its network in and never writes it.
        nets = [init_network(cfg.layer_sizes(), rng) for rng in streams.init]
        workspaces = [Workspace(net, cfg.momentum, cfg.weight_decay) for net in nets]
        ref_nets = {"net1": nets[0], "net2": nets[1]}
        ref_opts = {
            name: ReferenceOptimizer.for_network(net, lr, cfg.momentum, cfg.weight_decay)
            for name, net in ref_nets.items()
        }
        for _ in range(cfg.warmup_epochs):
            for i, name in enumerate(("net1", "net2")):
                plain_ce_epoch(workspaces[i], lr, ds, self.BATCH, streams.shuffle[i])
                ref_nets[name] = oracles.plain_ce_epoch(
                    ref_nets[name], ref_opts[name], ds, self.BATCH, ref_streams.shuffle[i]
                )
            assert_same_state(workspaces, ref_nets, ref_opts)
        if divide is not None:
            monkeypatch.setattr(training, "co_divide", divide)
        results = []
        for _ in range(dst_epochs):
            results.append(run_dst_epoch(workspaces, lr, ds, cfg, streams)[0])
            oracles.dst_epoch(ref_nets, ref_opts, ds, cfg, ref_streams, divide)
            assert_same_state(workspaces, ref_nets, ref_opts)
        # Both sides drew the same number of values from every stream.
        for a, b in zip(streams.mixup + streams.wrong_branch, ref_streams.mixup + ref_streams.wrong_branch):
            assert a.uniform() == b.uniform()
        return ds, results

    @pytest.mark.parametrize(
        "ablation",
        [
            {},
            {"single_network": True},
            {"no_mixup": True},
            {"disable_branch": "predicted"},
            {"disable_branch": "labeled"},
            {"all_wrong": True},
        ],
        ids=[
            "two-nets", "single-network", "no-mixup", "disable-predicted", "disable-labeled",
            "all-wrong",
        ],
    )
    def test_ablations_with_a_one_row_last_batch(self, ablation):
        ds, results = self.run_both(8 * self.BATCH + 1, ablation)
        branches = results[-1]["net1"]["branches"]
        assert sum(b["size"] for b in branches.values()) == ds.n_samples

    @pytest.mark.parametrize("n_samples", [8 * 16 + 7, 9 * 16])
    def test_other_batch_remainders(self, n_samples):
        self.run_both(n_samples, {})

    def test_other_hyperparameters(self):
        # lambda_reg != 1 makes any reassociation of the regularizer show.
        dst = {"temperature": 0.3, "alpha": 0.5, "lambda_reg": 0.7}
        self.run_both(8 * self.BATCH + 1, {}, dst=dst)

    def test_every_branch_is_populated_in_the_two_net_case(self):
        _, results = self.run_both(8 * self.BATCH + 1, {}, dst_epochs=1)
        for name in ("net1", "net2"):
            sizes = [b["size"] for b in results[0][name]["branches"].values()]
            assert min(sizes) > 0, sizes

    def test_fit_failure_fallback(self, monkeypatch):
        calls = []

        def divide(profiles, cfg):
            # First selection epoch: net1's division fails; second: both.
            calls.append(1)
            (for_net1, for_net2), _ = co_divide(profiles, cfg)
            epoch = (len(calls) + 1) // 2
            for_net1 = None if epoch in (1, 2) else for_net1
            for_net2 = None if epoch == 2 else for_net2
            return [for_net1, for_net2], {"net2": "forced"}

        _, results = self.run_both(8 * self.BATCH + 1, {}, monkeypatch, divide)
        assert [r["net1"] == {"fallback": True} for r in results] == [True, True, False]
        assert [r["net2"] == {"fallback": True} for r in results] == [False, True, False]


class TestEpochRefusesNonFinite:
    """A non-finite logit or gradient stops the epoch before any write."""

    def warm(self):
        ds = clean_toy(seed=12)
        ws = Workspace(init_network([2, 8, 3], np.random.default_rng(4)), 0.9, 5e-4)
        plain_ce_epoch(ws, 0.05, ds, 16, np.random.default_rng(1))
        return ds, ws

    def refinement(self, ds, params):
        w_r, w_prd = np.full(ds.n_samples, 0.7), np.zeros(ds.n_samples)
        branches = partition(w_r, w_prd, ExperimentConfig())
        branches[::3] = BRANCH_WRONG
        division = make_division(ds, branches, w_r=w_r, w_prd=w_prd)
        return _Refinement(
            [params], *_branch_table(division), ExperimentConfig(),
            np.random.default_rng(2), np.random.default_rng(3),
        )

    def check_refused(self, ds, ws, refine):
        refinement = self.refinement(ds, ws.params) if refine else None
        digest, buffer = params_hash(ws.params), ws.buffer.tobytes()
        with pytest.raises(NumericError):
            _train_epoch(ws, 0.05, ds, 16, np.random.default_rng(5), refinement)
        assert params_hash(ws.params) == digest
        assert ws.buffer.tobytes() == buffer

    @pytest.mark.parametrize("refine", [False, True], ids=["plain-ce", "selection"])
    def test_non_finite_logit(self, refine):
        ds, ws = self.warm()
        assert np.any(ws.buffer != 0.0)
        ws.params.layers[-1].bias[1] = np.inf
        self.check_refused(ds, ws, refine)

    @pytest.mark.parametrize("refine", [False, True], ids=["plain-ce", "selection"])
    def test_non_finite_gradient(self, refine, monkeypatch):
        ds, ws = self.warm()
        real = training.backprop_from_logits

        def poisoned(params, activations, d_logits, out):
            real(params, activations, d_logits, out=out)
            out[-1][1][0] = np.nan  # last layer's bias, after finite weights
            return out

        monkeypatch.setattr(training, "backprop_from_logits", poisoned)
        self.check_refused(ds, ws, refine)
