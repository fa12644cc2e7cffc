import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noisy, max_rel_err
from dstlab import training
from dstlab.data import make_blobs, inject_symmetric_c1
from dstlab.errors import ConfigError, StructuralError
from dstlab.network import (
    Layer,
    NetworkParams,
    OptimizerState,
    init_network,
    one_hot,
    params_hash,
    softmax,
)
from dstlab.rng import RngStreams
from dstlab.selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    CoDivision,
    SelectionWeights,
    partition,
)
from dstlab.training import (
    Ablation,
    DstParams,
    NetworkPair,
    TrainSchedule,
    _apply_branch_ablation,
    accuracy,
    batch_loss,
    batch_objective,
    draw_mixup_lambda,
    ensemble_accuracy,
    ensemble_predict,
    ensemble_probs,
    evaluate,
    fold_lambda,
    mixup_batch,
    mixup_pair,
    plain_ce_epoch,
    refine_batch,
    refine_label,
    run_dst_epoch,
    sharpen,
    warmup,
)


class FixedBeta:
    """Stand-in generator whose beta draw is a constant."""

    def __init__(self, value: float):
        self.value = value

    def beta(self, a, b, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


def clean_toy(seed: int = 3, per_class: int = 40):
    clean = make_blobs(3, per_class, 2, 0.25, np.random.default_rng(seed))
    return inject_symmetric_c1(clean, 0.0, seed=seed + 1)


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
        weights = SelectionWeights(w_r=resp[:, 0], w_prd=resp[:, 1])
        branches = partition(weights, 0.5, 0.5)

        batch_out = refine_batch(
            y, p_b, weights.w_r, weights.w_prd, branches, np.random.default_rng(99)
        )
        loop_rng = np.random.default_rng(99)
        loop_out = np.stack(
            [
                refine_label(y[i], p_b[i], weights.w_r[i], weights.w_prd[i], 0.5, 0.5, loop_rng)
                for i in range(n)
            ]
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
        with pytest.raises(ConfigError):
            sharpen(np.array([0.5, 0.5]), temperature)


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
        with pytest.raises(ConfigError):
            mixup_batch(np.ones((4, 2)), np.ones((4, 3)), -1.0, np.random.default_rng(0))

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
        from dstlab.network import forward

        expected = softmax(np.stack([forward(net, row) for row in x]))
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

    def test_single_sample_input_gives_single_row(self):
        net = init_network([2, 3], np.random.default_rng(0))
        out = ensemble_probs([net], np.array([0.5, -0.5]))
        assert out.shape == (3,)

    def test_pair_prediction_uses_both_networks(self):
        schedule = TrainSchedule(total_epochs=2, warmup_epochs=1, batch_size=2)
        pair = NetworkPair.create(
            [2, 3], schedule, np.random.default_rng(1), np.random.default_rng(2)
        )
        x = np.random.default_rng(3).normal(size=(4, 2))
        np.testing.assert_array_equal(
            ensemble_predict(pair, x), ensemble_probs([pair.net1, pair.net2], x)
        )

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
        schedule = TrainSchedule()
        assert schedule.learning_rate_at(1) == pytest.approx(0.02)
        assert schedule.learning_rate_at(80) == pytest.approx(0.02)
        assert schedule.learning_rate_at(81) == pytest.approx(0.004)
        assert schedule.learning_rate_at(160) == pytest.approx(0.004)
        assert schedule.learning_rate_at(161) == pytest.approx(0.0008)

    def test_epochs_are_one_indexed(self):
        with pytest.raises(ConfigError):
            TrainSchedule().learning_rate_at(0)

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
            TrainSchedule(**kwargs)

    def test_dst_defaults(self):
        dst = DstParams()
        assert (dst.tau_r, dst.tau_prd) == (0.5, 0.5)
        assert dst.temperature == 0.5
        assert dst.alpha == 4.0
        assert dst.lambda_reg == 1.0

    def test_ablation_rejects_unknown_branch(self):
        with pytest.raises(ConfigError):
            Ablation(disable_branch="wrong")


class TestWarmup:
    def test_epoch_of_plain_ce_reduces_loss(self):
        ds = clean_toy()
        rng = np.random.default_rng(0)
        params = init_network([2, 8, 3], rng)
        opt = OptimizerState.for_network(params, 0.05, 0.9, 5e-4)
        targets = one_hot(ds.noisy_labels, ds.n_classes)
        before = batch_loss(params, ds.features, targets, 0.0)
        for _ in range(5):
            params = plain_ce_epoch(params, opt, ds, 16, rng)
        after = batch_loss(params, ds.features, targets, 0.0)
        assert after < before

    def test_requires_at_least_one_epoch(self):
        schedule = TrainSchedule(total_epochs=2, warmup_epochs=1, batch_size=8)
        pair = NetworkPair.create(
            [2, 3], schedule, np.random.default_rng(0), np.random.default_rng(1)
        )
        with pytest.raises(ConfigError):
            warmup(pair, clean_toy(), 0, 8, RngStreams.from_master(1))

    def test_updates_both_networks_differently(self):
        ds = clean_toy()
        streams = RngStreams.from_master(5)
        schedule = TrainSchedule(total_epochs=10, warmup_epochs=2, batch_size=16)
        pair = NetworkPair.create([2, 8, 3], schedule, streams.init_net1, streams.init_net2)
        before = (params_hash(pair.net1), params_hash(pair.net2))
        warmup(pair, ds, 2, 16, streams)
        after = (params_hash(pair.net1), params_hash(pair.net2))
        assert before[0] != after[0] and before[1] != after[1]
        assert after[0] != after[1]

    def test_learns_clean_separable_blobs(self):
        ds = clean_toy(seed=9)
        streams = RngStreams.from_master(9)
        schedule = TrainSchedule(
            total_epochs=25, warmup_epochs=20, batch_size=16, learning_rate=0.05
        )
        pair = NetworkPair.create([2, 8, 3], schedule, streams.init_net1, streams.init_net2)
        warmup(pair, ds, 20, 16, streams)
        assert accuracy(pair.net1, ds.features, ds.true_labels) >= 0.95
        assert accuracy(pair.net2, ds.features, ds.true_labels) >= 0.95


def warmed_pair(ds, master_seed=13, epochs=15):
    streams = RngStreams.from_master(master_seed)
    schedule = TrainSchedule(
        total_epochs=40, warmup_epochs=epochs, batch_size=16, learning_rate=0.05
    )
    pair = NetworkPair.create([2, 8, 3], schedule, streams.init_net1, streams.init_net2)
    warmup(pair, ds, epochs, 16, streams)
    return pair, streams


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
    return inject_symmetric_c1(clean, 0.0, seed=seed + 1)


class TestDstEpoch:
    def test_clean_data_lands_in_labeled_branch_and_accuracy_holds(self):
        ds = bimodal_clean_toy(seed=3)
        streams = RngStreams.from_master(3)
        schedule = TrainSchedule(
            total_epochs=120,
            warmup_epochs=100,
            batch_size=16,
            learning_rate=0.05,
            weight_decay=0.0,
        )
        pair = NetworkPair.create([2, 16, 3], schedule, streams.init_net1, streams.init_net2)
        warmup(pair, ds, 100, 16, streams)
        start = ensemble_accuracy([pair.net1, pair.net2], ds.features, ds.true_labels)
        assert start >= 0.97
        result = None
        for _ in range(10):
            result = run_dst_epoch(pair, ds, DstParams(), 16, streams)
        end = ensemble_accuracy([pair.net1, pair.net2], ds.features, ds.true_labels)
        for name in ("net1", "net2"):
            report = result.selection[name]
            labeled = report["branches"]["labeled"]["size"]
            assert labeled / report["n_samples"] >= 0.95
        assert end >= start - 1.5 / ds.n_samples

    def test_divisions_come_from_the_other_network(self):
        ds = clean_toy(seed=4)
        pair, streams = warmed_pair(ds)
        result = run_dst_epoch(pair, ds, DstParams(), 16, streams)
        assert result.selection["net1"]["source"] == "net2"
        assert result.selection["net2"]["source"] == "net1"
        assert set(result.scatter) == {"net1", "net2"}

    def test_single_network_mode_isolates_the_second_network(self):
        ds = clean_toy(seed=5)
        pair, streams = warmed_pair(ds)
        net2_before = params_hash(pair.net2)
        result = run_dst_epoch(
            pair, ds, DstParams(), 16, streams, Ablation(single_network=True)
        )
        assert params_hash(pair.net2) == net2_before
        assert result.selection["net1"]["source"] == "net1"
        assert "net2" not in result.selection
        assert set(result.scatter) == {"net1"}

    def test_no_mixup_flag_equals_identity_mixing(self, monkeypatch):
        ds = clean_toy(seed=6)
        pair_a, streams_a = warmed_pair(ds, master_seed=17)
        pair_b, streams_b = warmed_pair(ds, master_seed=17)
        assert params_hash(pair_a.net1) == params_hash(pair_b.net1)

        run_dst_epoch(pair_a, ds, DstParams(), 16, streams_a, Ablation(no_mixup=True))
        monkeypatch.setattr(training, "mixup_batch", lambda x, y, alpha, rng: (x, y))
        run_dst_epoch(pair_b, ds, DstParams(), 16, streams_b)
        assert params_hash(pair_a.net1) == params_hash(pair_b.net1)
        assert params_hash(pair_a.net2) == params_hash(pair_b.net2)

    def test_fit_failure_falls_back_to_plain_ce(self, monkeypatch):
        ds = clean_toy(seed=7)
        pair, streams = warmed_pair(ds)
        monkeypatch.setattr(
            training,
            "co_divide",
            lambda *a, **k: CoDivision(None, None, {"net1": "fit failed", "net2": "fit failed"}),
        )
        before = (params_hash(pair.net1), params_hash(pair.net2))
        result = run_dst_epoch(pair, ds, DstParams(), 16, streams)
        assert result.selection["net1"] == {"fallback": True}
        assert result.selection["net2"] == {"fallback": True}
        assert params_hash(pair.net1) != before[0]
        assert params_hash(pair.net2) != before[1]

    def test_reports_carry_roles_and_mixture_diagnostics(self):
        ds = clean_toy(seed=8)
        pair, streams = warmed_pair(ds)
        result = run_dst_epoch(pair, ds, DstParams(), 16, streams)
        report = result.selection["net1"]
        assert report["fallback"] is False
        assert sorted(report["roles"]) == ["labeled", "predicted", "wrong"]
        assert sorted(report["roles"].values()) == [0, 1, 2]
        assert "means" in report["gmm"]


class TestBranchAblation:
    BRANCHES = np.array([BRANCH_LABELED, BRANCH_PREDICTED, BRANCH_WRONG, BRANCH_LABELED])

    def test_all_wrong_overrides_everything(self):
        out = _apply_branch_ablation(self.BRANCHES, Ablation(all_wrong=True))
        assert (out == BRANCH_WRONG).all()

    def test_disable_labeled_reroutes_only_labeled(self):
        out = _apply_branch_ablation(self.BRANCHES, Ablation(disable_branch="labeled"))
        assert out.tolist() == [BRANCH_WRONG, BRANCH_PREDICTED, BRANCH_WRONG, BRANCH_WRONG]

    def test_disable_predicted_reroutes_only_predicted(self):
        out = _apply_branch_ablation(self.BRANCHES, Ablation(disable_branch="predicted"))
        assert out.tolist() == [BRANCH_LABELED, BRANCH_WRONG, BRANCH_WRONG, BRANCH_LABELED]

    def test_no_ablation_is_identity_on_a_copy(self):
        out = _apply_branch_ablation(self.BRANCHES, Ablation())
        np.testing.assert_array_equal(out, self.BRANCHES)
        assert out is not self.BRANCHES
