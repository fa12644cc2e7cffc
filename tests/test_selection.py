import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noisy
from dstlab.errors import ConfigError, StructuralError
from dstlab.gmm import GmmModel
from dstlab.lossprofile import LossProfile, normalize
from dstlab.selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    DEFAULT_ANCHORS,
    RoleMap,
    SelectionWeights,
    assign_roles,
    co_divide,
    self_divide,
    partition,
    selection_report,
    weights_from_posteriors,
)


def model_with_means(means) -> GmmModel:
    return GmmModel(
        means=np.asarray(means, dtype=np.float64),
        covariances=np.tile(0.05 * np.eye(2), (3, 1, 1)),
        weights=np.full(3, 1.0 / 3.0),
        iterations=1,
        log_likelihood=0.0,
    )


def profile_at(points, noisy_correct=None) -> LossProfile:
    """Normalized profile whose loss cloud is exactly `points`."""
    pts = np.asarray(points, dtype=np.float64)
    prof = LossProfile(
        l_nis=pts[:, 0].copy(),
        l_prd=pts[:, 1].copy(),
        predicted=np.zeros(pts.shape[0], dtype=np.int64),
        nrm_nis=pts[:, 0].copy(),
        nrm_prd=pts[:, 1].copy(),
    )
    return prof


class TestAssignRoles:
    def test_identity_when_means_sit_on_anchors(self):
        roles = assign_roles(model_with_means(DEFAULT_ANCHORS))
        assert (roles.labeled, roles.wrong, roles.predicted) == (0, 1, 2)

    def test_nearest_anchor_assignment(self):
        roles = assign_roles(model_with_means([[0.05, 0.02], [0.9, 0.1], [0.5, 0.6]]))
        assert roles.labeled == 0
        assert roles.predicted == 1
        assert roles.wrong == 2

    def test_permuted_components_are_tracked(self):
        roles = assign_roles(model_with_means([[0.5, 0.5], [1.0, 0.0], [0.0, 0.0]]))
        assert roles.labeled == 2
        assert roles.predicted == 1
        assert roles.wrong == 0

    def test_distance_tie_goes_to_lower_component_index(self):
        roles = assign_roles(model_with_means([[0.3, 0.0], [0.0, 0.3], [0.9, 0.1]]))
        assert roles.labeled == 0

    def test_greedy_order_is_labeled_then_predicted(self):
        # Component 0 is closest to BOTH the labeled and predicted targets;
        # labeled claims it first, predicted takes the next best.
        roles = assign_roles(model_with_means([[0.2, 0.1], [0.45, 0.4], [0.8, 0.7]]))
        assert roles.labeled == 0
        assert roles.predicted == 1
        assert roles.wrong == 2

    def test_role_map_must_be_bijective(self):
        with pytest.raises(StructuralError):
            RoleMap(labeled=0, predicted=0, wrong=2)


class TestWeightsFromPosteriors:
    def test_projection_rows(self):
        roles = RoleMap(labeled=0, predicted=1, wrong=2)
        resp = np.array([[1.0, 0.0, 0.0], [0.2, 0.7, 0.1]])
        weights = weights_from_posteriors(resp, roles)
        np.testing.assert_array_equal(weights.w_r, [1.0, 0.2])
        np.testing.assert_array_equal(weights.w_prd, [0.0, 0.7])

    def test_projection_respects_role_permutation(self):
        roles = RoleMap(labeled=2, predicted=0, wrong=1)
        weights = weights_from_posteriors(np.array([[0.2, 0.7, 0.1]]), roles)
        np.testing.assert_allclose(weights.w_r, [0.1])
        np.testing.assert_allclose(weights.w_prd, [0.2])

    def test_complement_is_wrong_responsibility(self):
        rng = np.random.default_rng(0)
        resp = rng.dirichlet(np.ones(3), size=100)
        roles = RoleMap(labeled=0, predicted=1, wrong=2)
        weights = weights_from_posteriors(resp, roles)
        np.testing.assert_allclose(weights.w_r + weights.w_prd, 1.0 - resp[:, 2], atol=1e-12)

    def test_shape_validation(self):
        with pytest.raises(StructuralError):
            weights_from_posteriors(np.ones((3, 2)), RoleMap(0, 1, 2))


class TestPartition:
    def test_labeled_wins_regardless_of_predicted_weight(self):
        weights = SelectionWeights(w_r=np.array([0.9]), w_prd=np.array([0.95]))
        assert partition(weights, 0.5, 0.5).tolist() == [BRANCH_LABELED]

    def test_predicted_when_labeled_misses(self):
        weights = SelectionWeights(w_r=np.array([0.2]), w_prd=np.array([0.6]))
        assert partition(weights, 0.5, 0.5).tolist() == [BRANCH_PREDICTED]

    def test_wrong_when_both_miss(self):
        weights = SelectionWeights(w_r=np.array([0.2]), w_prd=np.array([0.3]))
        assert partition(weights, 0.5, 0.5).tolist() == [BRANCH_WRONG]

    def test_threshold_is_inclusive(self):
        weights = SelectionWeights(w_r=np.array([0.5, 0.0]), w_prd=np.array([0.0, 0.5]))
        assert partition(weights, 0.5, 0.5).tolist() == [BRANCH_LABELED, BRANCH_PREDICTED]

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_thresholds_must_be_interior(self, tau):
        weights = SelectionWeights(w_r=np.array([0.5]), w_prd=np.array([0.5]))
        with pytest.raises(ConfigError):
            partition(weights, tau, 0.5)
        with pytest.raises(ConfigError):
            partition(weights, 0.5, tau)

    @given(st.integers(0, 2**31), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=40)
    def test_total_exclusive_and_monotone_in_tau_r(self, seed, tau_lo, tau_hi):
        rng = np.random.default_rng(seed)
        resp = rng.dirichlet(np.ones(3), size=60)
        weights = SelectionWeights(w_r=resp[:, 0], w_prd=resp[:, 1])
        lo, hi = sorted((tau_lo, tau_hi))
        branches_lo = partition(weights, lo, 0.5)
        branches_hi = partition(weights, hi, 0.5)
        assert set(branches_lo.tolist()) <= {0, 1, 2}
        # raising tau_r never moves a sample INTO the labeled branch
        gained = (branches_hi == BRANCH_LABELED) & (branches_lo != BRANCH_LABELED)
        assert not gained.any()


class TestCoDivide:
    def separated_cloud(self, rng):
        lows = 0.03 + 0.01 * rng.standard_normal((30, 2))
        mids = 0.5 + 0.02 * rng.standard_normal((30, 2))
        highs = np.column_stack(
            [0.95 + 0.01 * rng.standard_normal(30), 0.05 + 0.01 * rng.standard_normal(30)]
        )
        return np.clip(np.concatenate([lows, mids, highs]), 0.0, 1.0)

    def test_swap_sources(self):
        rng = np.random.default_rng(1)
        prof1 = profile_at(self.separated_cloud(rng))
        prof2 = profile_at(self.separated_cloud(rng))
        codiv = co_divide(prof1, prof2)
        assert codiv.for_net1.source == "net2"
        assert codiv.for_net2.source == "net1"
        assert codiv.fit_errors == {}

    def test_identical_profiles_give_identical_divisions(self):
        rng = np.random.default_rng(2)
        cloud = self.separated_cloud(rng)
        codiv = co_divide(profile_at(cloud), profile_at(cloud))
        np.testing.assert_array_equal(codiv.for_net1.branches, codiv.for_net2.branches)
        np.testing.assert_allclose(codiv.for_net1.weights.w_r, codiv.for_net2.weights.w_r)

    def test_swapping_twice_restores_pairing(self):
        rng = np.random.default_rng(3)
        prof1 = profile_at(self.separated_cloud(rng))
        prof2 = profile_at(self.separated_cloud(rng))
        once = co_divide(prof1, prof2)
        twice = co_divide(prof2, prof1)
        np.testing.assert_array_equal(once.for_net1.branches, twice.for_net2.branches)
        np.testing.assert_array_equal(once.for_net2.branches, twice.for_net1.branches)

    def test_clean_division_goes_to_the_other_network(self):
        rng = np.random.default_rng(4)
        # net1's losses separate cleanly; net2's are an indistinct mush
        n = 60
        clean = np.concatenate(
            [
                0.02 + 0.01 * rng.standard_normal((n // 2, 2)),
                np.column_stack(
                    [0.9 + 0.02 * rng.standard_normal(n // 2), 0.5 + 0.02 * rng.standard_normal(n // 2)]
                ),
            ]
        )
        mush = 0.45 + 0.02 * rng.standard_normal((n, 2))
        codiv = co_divide(profile_at(np.clip(clean, 0, 1)), profile_at(np.clip(mush, 0, 1)))
        division = codiv.for_net2  # derived from net1's clean losses
        assert division.source == "net1"
        labeled = division.branches[: n // 2]
        rest = division.branches[n // 2 :]
        assert (labeled == BRANCH_LABELED).mean() >= 0.95
        assert (rest == BRANCH_LABELED).mean() <= 0.05

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        prof1 = profile_at(rng.uniform(size=(30, 2)))
        prof2 = profile_at(rng.uniform(size=(31, 2)))
        with pytest.raises(StructuralError):
            co_divide(prof1, prof2)

    def test_tiny_profiles_fall_back_via_fit_errors(self):
        prof = profile_at(np.full((3, 2), 0.5))
        codiv = co_divide(prof, prof)
        assert codiv.for_net1 is None and codiv.for_net2 is None
        assert set(codiv.fit_errors) == {"net1", "net2"}


class TestSelfDivide:
    def test_one_fit_gives_the_division_co_divide_would(self, monkeypatch):
        from dstlab import selection

        fits = []
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        prof = profile_at(TestCoDivide().separated_cloud(np.random.default_rng(6)))
        single = self_divide(prof)
        assert len(fits) == 1
        reference = co_divide(prof, prof).for_net2
        assert single.for_net2 is None and single.fit_errors == {}
        assert single.for_net1.source == "net1"
        np.testing.assert_array_equal(single.for_net1.branches, reference.branches)
        np.testing.assert_array_equal(single.for_net1.weights.w_r, reference.weights.w_r)
        np.testing.assert_array_equal(single.for_net1.weights.w_prd, reference.weights.w_prd)

    def test_fit_failure_is_recorded_for_net1_only(self):
        prof = profile_at(np.full((3, 2), 0.5))
        single = self_divide(prof)
        assert single.for_net1 is None and single.for_net2 is None
        assert single.fit_errors == {"net1": co_divide(prof, prof).fit_errors["net1"]}


class TestSelectionReport:
    def test_perfect_model_on_clean_data(self):
        ds = make_noisy(np.zeros((4, 1)), [0, 1, 2, 3], [0, 1, 2, 3], 4)
        predicted = np.array([0, 1, 2, 3])
        branches = np.full(4, BRANCH_LABELED)
        report = selection_report(branches, ds, predicted)
        assert report["branches"]["labeled"]["precision"] == 1.0
        assert report["branches"]["labeled"]["size"] == 4
        assert report["branches"]["labeled"]["states"]["i"] == 4

    def test_empty_branches_report_null_not_zero(self):
        ds = make_noisy(np.zeros((3, 1)), [0, 1, 0], [1, 0, 1], 2)
        predicted = np.array([1, 0, 1])
        branches = np.full(3, BRANCH_WRONG)
        report = selection_report(branches, ds, predicted)
        assert report["branches"]["labeled"]["precision"] is None
        assert report["branches"]["predicted"]["precision"] is None
        assert report["branches"]["wrong"]["size"] == 3

    def test_counting_oracle_on_random_assignment(self):
        rng = np.random.default_rng(6)
        n = 200
        truth = rng.integers(0, 4, size=n)
        noisy = rng.integers(0, 4, size=n)
        predicted = rng.integers(0, 4, size=n)
        branches = rng.integers(0, 3, size=n)
        ds = make_noisy(np.zeros((n, 1)), truth, noisy, 4)
        report = selection_report(branches, ds, predicted)

        conditions = {
            "labeled": noisy == truth,
            "predicted": predicted == truth,
            "wrong": (noisy != truth) & (predicted != truth),
        }
        for code, name in enumerate(("labeled", "predicted", "wrong")):
            mask = branches == code
            entry = report["branches"][name]
            assert entry["size"] == int(mask.sum())
            hits = int((mask & conditions[name]).sum())
            assert entry["precision"] == pytest.approx(hits / mask.sum())
            assert entry["recall"] == pytest.approx(hits / conditions[name].sum())
            assert sum(entry["states"].values()) == entry["size"]

    def test_shape_validation(self):
        ds = make_noisy(np.zeros((3, 1)), [0, 1, 0], [1, 0, 1], 2)
        with pytest.raises(StructuralError):
            selection_report(np.zeros(2, dtype=np.int64), ds, np.zeros(3, dtype=np.int64))
