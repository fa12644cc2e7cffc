import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHORS, DEFAULTS
from dstlab.config import ExperimentConfig
from dstlab.errors import ConfigError, GmmFitError, InsufficientDataError
from dstlab.gmm import (
    PI_FLOOR,
    SIGMA_FLOOR,
    GmmModel,
    fit,
    model_to_dict,
    _columns,
    _e_step,
)
from oracles import e_step as e_step_reference
from oracles import posteriors

TOL, MAX_ITER = DEFAULTS.gmm_tol, DEFAULTS.gmm_max_iter


def anchor_clusters(per_cluster=400, sigma=0.02, seed=0):
    """Tight Gaussian clouds centered exactly on the anchor means."""
    rng = np.random.default_rng(seed)
    points = np.concatenate(
        [mean + sigma * rng.standard_normal((per_cluster, 2)) for mean in ANCHORS]
    )
    labels = np.repeat(np.arange(3), per_cluster)
    return points, labels


class TestFit:
    def test_recovers_anchor_clusters(self):
        points, labels = anchor_clusters()
        model = fit(points, ANCHORS, TOL, MAX_ITER)
        # components start at the generating centers, so identities hold
        np.testing.assert_allclose(model.means, ANCHORS, atol=0.02)
        np.testing.assert_allclose(model.weights, 1.0 / 3.0, atol=0.02)
        hard = posteriors(model, points).argmax(axis=1)
        assert (hard == labels).mean() >= 0.99

    def test_duplicate_anchors_rejected(self):
        # fit takes its anchors from the config, which rejects repeated ones.
        anchors = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ConfigError, match="gmm_anchors must be pairwise distinct"):
            ExperimentConfig(gmm_anchors=anchors)

    def test_parameter_validation(self):
        # fit takes tol and max_iter from the config, which checks both.
        with pytest.raises(ConfigError, match="gmm_tol must be >= 0"):
            ExperimentConfig(gmm_tol=-1.0, gmm_max_iter=MAX_ITER)
        with pytest.raises(ConfigError, match="gmm_max_iter must be >= 1"):
            ExperimentConfig(gmm_tol=TOL, gmm_max_iter=0)

    def test_deterministic(self):
        points, _ = anchor_clusters(per_cluster=100, sigma=0.1, seed=5)
        a = fit(points, ANCHORS, tol=1e-9, max_iter=30)
        b = fit(points, ANCHORS, tol=1e-9, max_iter=30)
        assert a.means.tobytes() == b.means.tobytes()
        assert a.covariances.tobytes() == b.covariances.tobytes()
        assert a.ll_trace == b.ll_trace
        assert a.iterations == b.iterations

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            n = int(rng.integers(6, 300))
            points = rng.uniform(size=(n, 2))
            model = fit(points, ANCHORS, tol=0.0, max_iter=40)
            trace = np.array(model.ll_trace)
            slack = -1e-8 * np.maximum(np.abs(trace[:-1]), 1.0)
            assert np.all(np.diff(trace) >= slack)

    def test_trace_ends_with_returned_likelihood(self):
        points, _ = anchor_clusters(per_cluster=50, sigma=0.05, seed=7)
        model = fit(points, ANCHORS, tol=1e-6, max_iter=100)
        assert model.log_likelihood == model.ll_trace[-1]
        assert model.iterations < 100  # converged, did not exhaust the budget
        assert len(model.ll_trace) == model.iterations + 1

    @pytest.mark.parametrize(
        "tol, max_iter, iterations",
        [(1e-3, 1, 1), (np.inf, MAX_ITER, 1), (0.0, 5, 5)],
        ids=["max-iter-1", "converged-at-first-check", "max-iter-exhausted"],
    )
    def test_every_exit_returns_its_last_e_step(self, tol, max_iter, iterations):
        points, _ = anchor_clusters(per_cluster=200, sigma=0.15, seed=4)
        model = fit(points, ANCHORS, tol=tol, max_iter=max_iter)
        assert model.iterations == iterations
        assert len(model.ll_trace) == model.iterations + 1
        assert model.log_likelihood == model.ll_trace[-1]
        assert model.resp.tobytes() == posteriors(model, points).tobytes()

    def test_loose_tolerance_stops_early(self):
        points, _ = anchor_clusters(per_cluster=200, sigma=0.05, seed=8)
        coarse = fit(points, ANCHORS, tol=1e6, max_iter=MAX_ITER)
        fine = fit(points, ANCHORS, tol=1e-9, max_iter=MAX_ITER)
        assert coarse.iterations <= fine.iterations

    def test_identical_points_never_yield_non_finite(self):
        points = np.tile([[0.4, 0.4]], (10, 1))
        try:
            model = fit(points, ANCHORS, TOL, MAX_ITER)
        except GmmFitError:
            return
        assert np.all(np.isfinite(model.means))
        assert np.all(np.isfinite(model.covariances))
        assert np.all(np.isfinite(model.weights))
        assert np.isfinite(model.log_likelihood)

    def test_cloud_without_spread_is_a_fit_error(self):
        # co_divide turns this into a plain cross-entropy epoch for the consumer.
        with pytest.raises(GmmFitError, match="all points are identical"):
            fit(np.zeros((10, 2)), ANCHORS, TOL, MAX_ITER)
        # One flat axis still has spread along the other.
        points = np.column_stack([np.linspace(0.0, 1.0, 10), np.zeros(10)])
        assert np.isfinite(fit(points, ANCHORS, TOL, MAX_ITER).log_likelihood)

    def test_floors_hold_after_fit(self):
        points, _ = anchor_clusters(per_cluster=300, sigma=0.002, seed=9)
        model = fit(points, ANCHORS, tol=1e-9, max_iter=MAX_ITER)
        assert np.all(model.weights >= PI_FLOOR)
        assert abs(model.weights.sum() - 1.0) < 1e-9
        for cov in model.covariances:
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= SIGMA_FLOOR - 1e-12
            np.testing.assert_allclose(cov, cov.T)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientDataError):
            fit(np.zeros((5, 2)), ANCHORS, TOL, MAX_ITER)

    def test_non_finite_points_rejected(self):
        points = np.full((10, 2), 0.5)
        points[3, 0] = np.nan
        with pytest.raises(GmmFitError):
            fit(points, ANCHORS, TOL, MAX_ITER)

    def test_defaults_are_pinned(self):
        assert TOL == 20.0
        assert MAX_ITER == 100


class TestPosterior:
    def test_rows_sum_to_one_on_random_points(self):
        train, _ = anchor_clusters(per_cluster=100, sigma=0.1, seed=2)
        model = fit(train, ANCHORS, tol=1e-6, max_iter=MAX_ITER)
        rng = np.random.default_rng(3)
        rows = posteriors(model, rng.uniform(size=(10_000, 2)))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)

    def test_equidistant_symmetric_components_tie(self):
        model = GmmModel(
            means=np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0]]),
            covariances=np.tile(0.05 * np.eye(2), (3, 1, 1)),
            weights=np.array([0.4, 0.4, 0.2]),
            iterations=0,
            log_likelihood=0.0,
        )
        resp = posteriors(model, [[0.5, 0.0]])[0]
        assert abs(resp[0] - resp[1]) < 1e-9
        assert resp[2] < 1e-9

    def test_cluster_center_is_confidently_assigned(self):
        points, _ = anchor_clusters()
        model = fit(points, ANCHORS, TOL, MAX_ITER)
        for k in range(3):
            assert posteriors(model, model.means[k : k + 1])[0, k] > 0.99

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_rows_sum_to_one_property(self, seed):
        rng = np.random.default_rng(seed)
        model = fit(rng.uniform(size=(40, 2)), ANCHORS, tol=1.0, max_iter=20)
        rows = posteriors(model, rng.uniform(size=(50, 2)))
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)


def test_model_to_dict_is_json_friendly():
    points, _ = anchor_clusters(per_cluster=50)
    model = fit(points, ANCHORS, TOL, MAX_ITER)
    dumped = model_to_dict(model)
    assert set(dumped) == {"means", "covariances", "weights", "iterations", "log_likelihood"}
    assert np.asarray(dumped["means"]).shape == (3, 2)
    assert np.asarray(dumped["covariances"]).shape == (3, 2, 2)
    import json

    json.dumps(dumped)


def e_step_case(rng, t):
    """Random points, means, covariances and weights; every few cases has
    identical points, a flat axis or weights at the floor."""
    n = int(rng.integers(6, 5000))
    points = rng.uniform(size=(n, 2))
    if t % 10 == 0:
        points[:, 1] = 0.5  # flat axis
    elif t % 10 == 1:
        points[:] = points[0]  # identical points
    means = rng.uniform(size=(3, 2))
    a = 0.3 * rng.normal(size=(3, 2, 2))
    covariances = a @ a.transpose(0, 2, 1) + SIGMA_FLOOR * np.eye(2)
    weights = rng.dirichlet(np.ones(3))
    if t % 7 == 0:
        weights = np.array([PI_FLOOR, PI_FLOOR, 1.0 - 2.0 * PI_FLOOR])
    return points, means, covariances, weights


class TestColumnwiseEStep:
    def test_matches_the_n_by_3_e_step_bytes_on_300_inputs(self):
        rng = np.random.default_rng(2024)
        for t in range(300):
            points, means, covariances, weights = e_step_case(rng, t)
            resp, ll = _e_step(_columns(points), means, covariances, weights)
            ref_resp, ref_ll = e_step_reference(points, means, covariances, weights)
            assert resp.shape == ref_resp.shape and resp.flags.c_contiguous
            assert resp.tobytes() == ref_resp.tobytes(), t
            assert ll == ref_ll, t

    def test_same_error_on_a_singular_covariance(self):
        points, means, covariances, weights = e_step_case(np.random.default_rng(3), 5)
        covariances[1] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(GmmFitError, match="component 1") as got:
            _e_step(_columns(points), means, covariances, weights)
        with pytest.raises(GmmFitError) as want:
            e_step_reference(points, means, covariances, weights)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("max_iter", [MAX_ITER, 3], ids=["converged", "max-iter"])
    def test_fit_returns_the_posteriors_of_its_points(self, max_iter):
        points, _ = anchor_clusters(per_cluster=300, sigma=0.15, seed=9)
        model = fit(points, ANCHORS, tol=1e-3, max_iter=max_iter)
        assert (model.iterations < max_iter) == (max_iter == MAX_ITER)
        assert model.resp.tobytes() == posteriors(model, points).tobytes()
        assert "resp" not in model_to_dict(model)
