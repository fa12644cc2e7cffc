import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_gradients, gradient_check_draws, max_rel_err
from dstlab import network
from dstlab.config import ExperimentConfig
from dstlab.errors import ConfigError, NumericError, StructuralError
from dstlab.network import (
    Layer,
    NetworkParams,
    backprop_from_logits,
    forward_cached,
    init_network,
    one_hot,
    Workspace,
    layer_views,
    save_checkpoint,
    softmax,
)
from oracles import (
    ReferenceOptimizer,
    backprop_reference,
    backward,
    cross_entropy,
    forward_cached_reference,
    grads_like,
    load_checkpoint,
    params_hash,
    sgd_step,
    sgd_step_reference,
)


def workspace_step(ws, grads, learning_rate) -> NetworkParams:
    """One production SGD step from given gradients: the workspace's
    gradients set to `grads`, one step; returns its parameter views."""
    for (g_w, g_b), (d_w, d_b) in zip(ws.grads, grads):
        g_w[...] = d_w
        g_b[...] = d_b
    ws.step(learning_rate)
    return ws.params


def single_layer(weights, bias) -> NetworkParams:
    return NetworkParams(
        [Layer(np.asarray(weights, dtype=np.float64), np.asarray(bias, dtype=np.float64))]
    )


class TestForward:
    def test_zero_network_maps_to_zero_logits(self):
        params = single_layer(np.zeros((3, 2)), np.zeros(3))
        assert np.array_equal(forward_cached(params, [[1.7, -2.3]])[0], np.zeros((1, 3)))

    def test_identity_single_layer(self):
        params = single_layer(np.eye(2), np.zeros(2))
        np.testing.assert_allclose(forward_cached(params, [[1.0, 2.0]])[0], [[1.0, 2.0]])

    def test_matches_hand_rolled_matrix_multiply(self):
        rng = np.random.default_rng(123)
        params = init_network([2, 4, 3], rng)
        x = np.array([0.7, -1.3])

        w1, b1 = params.layers[0].weights, params.layers[0].bias
        hidden = [max(0.0, sum(w1[j, i] * x[i] for i in range(2)) + b1[j]) for j in range(4)]
        w2, b2 = params.layers[1].weights, params.layers[1].bias
        expected = [sum(w2[k, j] * hidden[j] for j in range(4)) + b2[k] for k in range(3)]

        np.testing.assert_allclose(forward_cached(params, [x])[0][0], expected, rtol=0, atol=1e-12)

    def test_batch_and_single_shapes(self):
        params = init_network([2, 3], np.random.default_rng(0))
        single = forward_cached(params, [[1.0, 2.0]])[0]
        batch = forward_cached(params, [[1.0, 2.0], [1.0, 2.0]])[0]
        assert single.shape == (1, 3)
        assert batch.shape == (2, 3)
        np.testing.assert_array_equal(batch[0], single[0])


class TestSoftmax:
    def test_symmetric_logits(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_closed_form_log_two(self):
        np.testing.assert_allclose(
            softmax([math.log(2.0), 0.0]), [2.0 / 3.0, 1.0 / 3.0], atol=1e-15
        )

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=6),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, logits, shift):
        base = softmax(np.array(logits))
        shifted = softmax(np.array(logits) + shift)
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_valid_at_extreme_magnitudes(self):
        p = softmax([1e4, -1e4, 0.0])
        assert np.all(np.isfinite(p)) and np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-9

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NumericError):
            softmax([0.0, bad])


class TestCrossEntropy:
    def test_matching_one_hot_is_zero(self):
        assert cross_entropy([1.0, 0.0], [1.0, 0.0]) < 1e-6

    def test_uniform_ten_classes(self):
        p = np.full(10, 0.1)
        target = np.zeros(10)
        target[3] = 1.0
        np.testing.assert_allclose(cross_entropy(p, target), math.log(10.0), atol=1e-12)

    def test_direct_arithmetic(self):
        np.testing.assert_allclose(
            cross_entropy([0.8, 0.2], [1.0, 0.0]), -math.log(0.8), atol=1e-12
        )

    def test_shape_mismatch_raises(self):
        with pytest.raises(StructuralError):
            cross_entropy([0.5, 0.5], [1.0, 0.0, 0.0])

    @given(st.integers(2, 6), st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_never_negative(self, n_classes, seed):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(n_classes))
        target = rng.dirichlet(np.ones(n_classes))
        assert cross_entropy(p, target) >= 0.0


def test_one_hot_rows():
    got = one_hot(np.array([2, 0]), 3)
    np.testing.assert_array_equal(got, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


class TestBackward:
    def test_zero_gradient_when_target_matches_output(self):
        # Linear layer at x = 0: logits equal the bias, so predicting the
        # softmax of the bias leaves nothing to correct.
        params = single_layer(np.ones((2, 3)), [0.3, -0.2])
        target = softmax(np.array([0.3, -0.2]))
        grads = backward(params, np.zeros(3), target)
        np.testing.assert_allclose(grads[0][0], 0.0, atol=1e-15)
        np.testing.assert_allclose(grads[0][1], 0.0, atol=1e-15)

    def test_batch_gradient_is_sum_of_per_sample_gradients(self):
        rng = np.random.default_rng(5)
        params = init_network([3, 4, 2], rng)
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        t1, t2 = rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(2))
        batch = backward(params, np.stack([x1, x2]), np.stack([t1, t2]))
        separate = backward(params, x1, t1)
        for (b_w, b_b), (s_w, s_b), (s2_w, s2_b) in zip(
            batch, separate, backward(params, x2, t2)
        ):
            np.testing.assert_allclose(b_w, s_w + s2_w, atol=1e-12)
            np.testing.assert_allclose(b_b, s_b + s2_b, atol=1e-12)

    def test_finite_difference_agreement(self):
        assert gradient_check_draws(5, seed=3) < 1e-4

    def test_finite_difference_on_deep_net(self):
        rng = np.random.default_rng(9)
        params = init_network([2, 5, 4, 3], rng)
        x = rng.normal(size=2)
        target = rng.dirichlet(np.ones(3))
        err = max_rel_err(backward(params, x, target), fd_gradients(params, x, target))
        assert err < 1e-4

    def test_target_shape_mismatch_raises(self):
        params = init_network([2, 3], np.random.default_rng(0))
        with pytest.raises(StructuralError):
            backward(params, [1.0, 2.0], [0.5, 0.5])


class TestSgdStep:
    def test_zero_gradients_leave_parameters_unchanged(self):
        ws = Workspace(single_layer([[1.0]], [2.0]))
        stepped = workspace_step(ws, [(np.zeros((1, 1)), np.zeros(1))], 0.1)
        assert stepped.layers[0].weights[0, 0] == 1.0
        assert stepped.layers[0].bias[0] == 2.0

    def test_single_plain_step(self):
        ws = Workspace(single_layer([[1.0]], [0.0]))
        stepped = workspace_step(ws, [(np.ones((1, 1)), np.zeros(1))], 0.1)
        np.testing.assert_allclose(stepped.layers[0].weights[0, 0], 0.9)

    def test_two_momentum_steps(self):
        # buffer: 1 then 1.9; param: 0 -> -0.1 -> -0.29
        ws = Workspace(single_layer([[0.0]], [0.0]), momentum=0.9)
        grad = [(np.ones((1, 1)), np.zeros(1))]
        workspace_step(ws, grad, 0.1)
        params = workspace_step(ws, grad, 0.1)
        np.testing.assert_allclose(params.layers[0].weights[0, 0], -0.29, atol=1e-15)

    def test_weight_decay_couples_into_buffer(self):
        ws = Workspace(single_layer([[2.0]], [0.0]), weight_decay=0.5)
        stepped = workspace_step(ws, [(np.zeros((1, 1)), np.zeros(1))], 0.1)
        # buffer = 0 + 0 + 0.5 * 2 = 1; param = 2 - 0.1 * 1
        np.testing.assert_allclose(stepped.layers[0].weights[0, 0], 1.9)

    def test_non_finite_gradient_refused_without_mutation(self):
        params = single_layer([[1.0]], [0.0])
        ws = Workspace(params, momentum=0.9)
        before = ws.buffer.copy()
        with pytest.raises(NumericError):
            workspace_step(ws, [(np.array([[np.nan]]), np.zeros(1))], 0.1)
        assert params.layers[0].weights[0, 0] == 1.0
        assert ws.params.layers[0].weights[0, 0] == 1.0
        np.testing.assert_array_equal(ws.buffer, before)

    def test_gradient_shape_mismatch_raises(self):
        # A workspace makes its own gradients; the moved per-layer step checks them.
        params = single_layer([[1.0]], [0.0])
        opt = ReferenceOptimizer.for_network(params, learning_rate=0.1)
        with pytest.raises(StructuralError):
            sgd_step(params, [(np.zeros((2, 2)), np.zeros(1))], opt)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"learning_rate": 0.1, "momentum": 1.0},
            {"learning_rate": 0.1, "momentum": -0.1},
            {"learning_rate": 0.1, "weight_decay": -1e-9},
        ],
    )
    def test_optimizer_validation(self, kwargs):
        # The optimizer's ranges are checked where its settings live.
        with pytest.raises(ConfigError):
            ExperimentConfig(**kwargs)


class TestInitNetwork:
    def test_bounds_and_zero_biases(self):
        params = init_network([3, 8, 2], np.random.default_rng(0))
        for layer in params.layers:
            fan_out, fan_in = layer.weights.shape
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weights) <= limit)
            assert np.all(layer.bias == 0.0)

    def test_distinct_seeds_distinct_parameters(self):
        a = init_network([2, 4, 2], np.random.default_rng(1))
        b = init_network([2, 4, 2], np.random.default_rng(2))
        assert params_hash(a) != params_hash(b)

    def test_sizes_round_trip(self):
        params = init_network([2, 64, 64, 4], np.random.default_rng(0))
        assert params.sizes() == [2, 64, 64, 4]
        assert params.n_inputs == 2 and params.n_outputs == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param({"hidden_sizes": [0]}, id="sizes1"),
            pytest.param({"n_features": 0}, id="sizes2"),
        ],
    )
    def test_invalid_sizes(self, kwargs):
        # init_network builds the config's layer_sizes(); the config rejects
        # a layer of width zero.
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            ExperimentConfig(**kwargs)


def test_params_hash_tracks_values():
    params = init_network([2, 3], np.random.default_rng(4))
    base = params_hash(params)
    assert params_hash(params) == base
    params.layers[0].weights[0, 0] += 1e-9
    assert params_hash(params) != base


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_network([2, 5, 3], np.random.default_rng(8))
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        assert params_hash(load_checkpoint(path)) == params_hash(params)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else", "version": 1}))
        with pytest.raises(StructuralError):
            load_checkpoint(path)

    def test_wrong_version_rejected(self, tmp_path):
        params = init_network([2, 3], np.random.default_rng(0))
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(StructuralError):
            load_checkpoint(path)

    def test_non_finite_values_rejected(self, tmp_path):
        params = init_network([2, 3], np.random.default_rng(0))
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        payload["layers"][0]["weights"][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(NumericError):
            load_checkpoint(path)

    def tampered(self, tmp_path, edit):
        params = init_network([2, 8, 3], np.random.default_rng(0))
        path = tmp_path / "net.json"
        save_checkpoint(params, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return path

    def test_missing_layer_rejected(self, tmp_path):
        # Sizes [2, 8, 3] with only the first layer's values.
        path = self.tampered(tmp_path, lambda payload: payload["layers"].pop())
        with pytest.raises(StructuralError, match="1 layers for sizes"):
            load_checkpoint(path)

    def test_weights_of_the_wrong_length_rejected(self, tmp_path):
        path = self.tampered(tmp_path, lambda payload: payload["layers"][1]["weights"].pop())
        with pytest.raises(StructuralError, match="weights length"):
            load_checkpoint(path)


def test_full_batch_training_loss_decreases_monotonically():
    # 50-sample separable two-blob set, 50 full-batch steps at lr 0.05.
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(-2.0, 0.4, size=(25, 2)), rng.normal(2.0, 0.4, size=(25, 2))])
    labels = np.repeat([0, 1], 25)
    targets = one_hot(labels, 2)
    ws = Workspace(init_network([2, 8, 2], rng))
    params = ws.params

    def mean_loss(p):
        probs = softmax(forward_cached(p, x)[0])
        return float(np.mean([cross_entropy(probs[i], targets[i]) for i in range(50)]))

    losses = [mean_loss(params)]
    for _ in range(50):
        grads = [(w / 50.0, b / 50.0) for w, b in backward(params, x, targets)]
        workspace_step(ws, grads, 0.05)
        losses.append(mean_loss(params))
    assert all(b < a for a, b in zip(losses, losses[1:]))


# --- The in-place forward, backward and workspace SGD step against the
# allocating references in oracles.py, bit for bit.


def assert_same_bytes(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_grads(got, want):
    assert len(got) == len(want)
    for (g_w, g_b), (w_w, w_b) in zip(got, want):
        assert_same_bytes(g_w, w_w)
        assert_same_bytes(g_b, w_b)


def assert_same_params(got, want):
    assert len(got.layers) == len(want.layers)
    for g, w in zip(got.layers, want.layers):
        assert_same_bytes(g.weights, w.weights)
        assert_same_bytes(g.bias, w.bias)


def random_net(width, seed, n_inputs=20, n_classes=4):
    rng = np.random.default_rng(seed)
    params = init_network([n_inputs, width, width, n_classes], rng)
    for layer in params.layers:  # non-zero biases, so the add matters
        layer.bias[:] = rng.normal(scale=0.1, size=layer.bias.shape)
    return params, rng


class TestInPlaceMatchesAllocatingReference:
    @pytest.mark.parametrize("width", [64, 256])
    @pytest.mark.parametrize("rows", [1, 88, 128, 1000])
    def test_forward_and_backprop_bytes(self, width, rows):
        params, rng = random_net(width, seed=width * 10_000 + rows)
        x = rng.normal(size=(rows, params.n_inputs))
        logits, activations = forward_cached(params, x)
        ref_logits, ref_activations = forward_cached_reference(params, x)
        assert_same_bytes(logits, ref_logits)
        assert len(activations) == len(ref_activations)
        for got, want in zip(activations, ref_activations):
            assert_same_bytes(got, want)

        targets = rng.dirichlet(np.ones(params.n_outputs), size=rows)
        d_logits = softmax(logits) - targets
        d_before = d_logits.copy()
        grads = backprop_from_logits(params, activations, d_logits, grads_like(params))
        assert_same_grads(grads, backprop_reference(params, ref_activations, d_logits))
        assert_same_bytes(d_logits, d_before)

    def test_exact_zero_pre_activations_and_signed_zeros(self):
        # Hidden unit 0 cancels exactly (1 * 0.5 - 0.5), unit 1 has zero
        # weights and a -0.0 bias, unit 2 is live; the input carries -0.0.
        hidden = Layer(
            np.array([[0.5, 0.0], [0.0, 0.0], [1.0, -1.0]]), np.array([-0.5, -0.0, 0.25])
        )
        out = Layer(np.array([[1.0, -2.0, 0.5], [-0.0, 0.0, -1.0]]), np.array([-0.0, 0.0]))
        params = NetworkParams([hidden, out])
        x = np.array([[1.0, -0.0], [1.0, 2.0], [-0.0, -0.0], [1.0, 0.0]])
        pre = x @ hidden.weights.T + hidden.bias
        assert np.any(pre == 0.0)
        logits, activations = forward_cached(params, x)
        ref_logits, ref_activations = forward_cached_reference(params, x)
        assert_same_bytes(logits, ref_logits)
        for got, want in zip(activations, ref_activations):
            assert_same_bytes(got, want)

        # A matmul sums from +0.0, so the forward cannot hand the rectifier
        # mask a -0.0; plant one in the cached activations directly.
        planted = [activations[0], activations[1].copy()]
        planted[1][0, 0], planted[1][1, 1], planted[1][2, 2] = -0.0, 0.0, -0.0
        d_logits = np.array([[0.3, -0.3], [-0.1, 0.1], [0.2, -0.2], [-0.0, 0.0]])
        assert_same_grads(
            backprop_from_logits(params, planted, d_logits, grads_like(params)),
            backprop_reference(params, planted, d_logits),
        )

    def test_twenty_momentum_steps_keep_params_and_buffers(self):
        params, rng = random_net(64, seed=3)
        fast = Workspace(params, momentum=0.9, weight_decay=5e-4)
        slow = ReferenceOptimizer.for_network(params, 0.05, momentum=0.9, weight_decay=5e-4)
        p_slow = params
        for step in range(20):
            x = rng.normal(size=(32, params.n_inputs))
            targets = rng.dirichlet(np.ones(params.n_outputs), size=32)
            grads = backward(fast.params, x, targets)
            if step == 10:
                slow.learning_rate = 0.005
            p_fast = workspace_step(fast, grads, slow.learning_rate)
            p_slow = sgd_step_reference(p_slow, grads, slow)
            assert_same_params(p_fast, p_slow)
            assert_same_bytes(fast.buffer, slow.flat())


def shares_any(a, arrays) -> bool:
    return any(np.shares_memory(a, b) for b in arrays)


class TestAliasing:
    def test_forward_leaves_input_alone_and_returns_distinct_arrays(self):
        params, rng = random_net(64, seed=5)
        x = rng.normal(size=(50, params.n_inputs))
        before = x.tobytes()
        logits, activations = forward_cached(params, x)
        assert x.tobytes() == before
        returned = [logits] + activations[1:]
        for i, a in enumerate(returned):
            assert not shares_any(a, returned[i + 1 :])
            assert not np.shares_memory(a, x)
        for layer in params.layers:
            assert not shares_any(layer.weights, returned)
            assert not shares_any(layer.bias, returned)

    def test_earlier_snapshots_keep_their_hash(self):
        # The network a workspace is made from is copied in, never written.
        params, rng = random_net(64, seed=6)
        digest = params_hash(params)
        ws = Workspace(params, momentum=0.9, weight_decay=1e-3)
        seen = {digest}
        for _ in range(6):
            x = rng.normal(size=(16, params.n_inputs))
            grads = backward(ws.params, x, np.eye(4)[rng.integers(0, 4, 16)])
            seen.add(params_hash(workspace_step(ws, grads, 0.1)))
            assert params_hash(params) == digest
        assert len(seen) == 7

    def test_new_parameters_share_no_memory(self):
        params, rng = random_net(64, seed=7)
        ws = Workspace(params, momentum=0.9, weight_decay=1e-3)
        grads = backward(params, rng.normal(size=(16, 20)), np.eye(4)[rng.integers(0, 4, 16)])
        workspace_step(ws, grads, 0.1)
        old = [arr for layer in params.layers for arr in (layer.weights, layer.bias)]
        taken = [ws.buffer, ws.grad] + [arr for pair in grads for arr in pair] + old
        new = [arr for layer in ws.params.layers for arr in (layer.weights, layer.bias)]
        for i, arr in enumerate(new):
            assert np.shares_memory(arr, ws.flat)
            assert not shares_any(arr, taken)
            assert not shares_any(arr, new[i + 1 :])

    def test_late_nan_gradient_leaves_warm_buffers_untouched(self):
        params, rng = random_net(64, seed=8)
        ws = Workspace(params, momentum=0.9, weight_decay=1e-3)
        for _ in range(3):
            grads = backward(ws.params, rng.normal(size=(16, 20)), np.eye(4)[rng.integers(0, 4, 16)])
            workspace_step(ws, grads, 0.1)
        assert all(np.any(m_w != 0.0) for m_w, _ in layer_views(ws.buffer, params.sizes()))
        before = ws.buffer.tobytes()
        digest = params_hash(ws.params)
        bad = [(d_w.copy(), d_b.copy()) for d_w, d_b in grads]
        bad[1][0][0, 0] = np.nan
        with pytest.raises(NumericError):
            workspace_step(ws, bad, 0.1)
        assert ws.buffer.tobytes() == before
        assert params_hash(ws.params) == digest


class TestBlasThreads:
    def test_body_runs_on_one_thread(self, two_blas_threads):
        with network.one_blas_thread():
            assert network.blas_threads() == 1
        assert network.blas_threads() == 2

    def test_one_thread_already_leaves_the_count_alone(self, monkeypatch):
        real = network._openblas()
        if real is None:
            pytest.skip("numpy's OpenBLAS thread setter is unavailable")
        before = network.blas_threads()
        real[1](1)
        try:
            # Any call to the setter would fail the test.
            monkeypatch.setattr(network, "_openblas", lambda: (real[0], None))
            with network.one_blas_thread():
                assert network.blas_threads() == 1
        finally:
            real[1](before)

    def test_count_restored_when_the_body_raises(self, two_blas_threads):
        with pytest.raises(RuntimeError):
            with network.one_blas_thread():
                assert network.blas_threads() == 1
                raise RuntimeError("boom")
        assert network.blas_threads() == 2

    def test_unavailable_setter_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(network, "_openblas", lambda: None)
        assert network.blas_threads() is None
        with network.one_blas_thread():
            assert network.blas_threads() is None

    def test_lookup_waits_for_first_use(self):
        src = str(Path(network.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); "
            "from dstlab import cli, lab, network; "
            "print(network._openblas.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"
