import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ANCHORS, DEFAULTS, make_division, make_noisy, model_with_means
from dstlab import selection
from dstlab.config import ExperimentConfig
from dstlab.errors import ConfigError
from dstlab.lossprofile import LossProfile
from dstlab.selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    assign_roles,
    co_divide,
    partition,
    selection_report,
)


def profile_at(points) -> LossProfile:
    """Profile whose normalized loss cloud is exactly `points`; every
    prediction is class 0 and every sample in agreement state i."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    return LossProfile(
        l_nis=pts[:, 0].copy(),
        l_prd=pts[:, 1].copy(),
        predicted=np.zeros(n, dtype=np.int64),
        nrm_nis=pts[:, 0].copy(),
        nrm_prd=pts[:, 1].copy(),
        states=np.ones(n, dtype=np.int64),
    )


class TestAssignRoles:
    def test_identity_when_means_sit_on_anchors(self):
        roles = assign_roles(model_with_means(ANCHORS), ANCHORS)
        assert (roles["labeled"], roles["wrong"], roles["predicted"]) == (0, 1, 2)

    def test_nearest_anchor_assignment(self):
        roles = assign_roles(model_with_means([[0.05, 0.02], [0.9, 0.1], [0.5, 0.6]]), ANCHORS)
        assert roles["labeled"] == 0
        assert roles["predicted"] == 1
        assert roles["wrong"] == 2

    def test_permuted_components_are_tracked(self):
        roles = assign_roles(model_with_means([[0.5, 0.5], [1.0, 0.0], [0.0, 0.0]]), ANCHORS)
        assert roles["labeled"] == 2
        assert roles["predicted"] == 1
        assert roles["wrong"] == 0

    def test_distance_tie_goes_to_lower_component_index(self):
        roles = assign_roles(model_with_means([[0.3, 0.0], [0.0, 0.3], [0.9, 0.1]]), ANCHORS)
        assert roles["labeled"] == 0

    def test_greedy_order_is_labeled_then_predicted(self):
        # Component 0 is closest to BOTH the labeled and predicted targets;
        # labeled claims it first, predicted takes the next best.
        roles = assign_roles(model_with_means([[0.2, 0.1], [0.45, 0.4], [0.8, 0.7]]), ANCHORS)
        assert roles["labeled"] == 0
        assert roles["predicted"] == 1
        assert roles["wrong"] == 2


class TestWeightsFromPosteriors:
    """A division's weights are columns of its fit's own responsibilities."""

    @staticmethod
    def divide(monkeypatch=None, roles=None):
        if roles is not None:
            monkeypatch.setattr(selection, "assign_roles", lambda model, anchors: roles)
        prof = profile_at(TestCoDivide().separated_cloud(np.random.default_rng(9)))
        (division,), _ = co_divide([prof], DEFAULTS)
        return division

    def test_projection_rows(self):
        division = self.divide()
        resp, roles = division.model.resp, division.roles
        np.testing.assert_array_equal(division.w_r, resp[:, roles["labeled"]])
        np.testing.assert_array_equal(division.w_prd, resp[:, roles["predicted"]])
        assert division.w_r.shape == division.w_prd.shape == (90,)

    def test_projection_respects_role_permutation(self, monkeypatch):
        division = self.divide(monkeypatch, {"labeled": 2, "predicted": 0, "wrong": 1})
        np.testing.assert_array_equal(division.w_r, division.model.resp[:, 2])
        np.testing.assert_array_equal(division.w_prd, division.model.resp[:, 0])

    def test_complement_is_wrong_responsibility(self):
        division = self.divide()
        wrong = division.model.resp[:, division.roles["wrong"]]
        np.testing.assert_allclose(division.w_r + division.w_prd, 1.0 - wrong, atol=1e-12)


class TestPartition:
    def test_labeled_wins_regardless_of_predicted_weight(self):
        assert partition(np.array([0.9]), np.array([0.95]), DEFAULTS).tolist() == [BRANCH_LABELED]

    def test_predicted_when_labeled_misses(self):
        assert partition(np.array([0.2]), np.array([0.6]), DEFAULTS).tolist() == [BRANCH_PREDICTED]

    def test_wrong_when_both_miss(self):
        assert partition(np.array([0.2]), np.array([0.3]), DEFAULTS).tolist() == [BRANCH_WRONG]

    def test_threshold_is_inclusive(self):
        branches = partition(np.array([0.5, 0.0]), np.array([0.0, 0.5]), DEFAULTS)
        assert branches.tolist() == [BRANCH_LABELED, BRANCH_PREDICTED]

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.1, 1.5])
    def test_thresholds_must_be_interior(self, tau):
        # partition reads its thresholds from a config, which checks them.
        with pytest.raises(ConfigError, match="tau_r must be in"):
            ExperimentConfig(tau_r=tau)
        with pytest.raises(ConfigError, match="tau_prd must be in"):
            ExperimentConfig(tau_prd=tau)

    @given(st.integers(0, 2**31), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
    @settings(max_examples=40)
    def test_total_exclusive_and_monotone_in_tau_r(self, seed, tau_lo, tau_hi):
        rng = np.random.default_rng(seed)
        resp = rng.dirichlet(np.ones(3), size=60)
        lo, hi = sorted((tau_lo, tau_hi))
        branches_lo = partition(resp[:, 0], resp[:, 1], ExperimentConfig(tau_r=lo))
        branches_hi = partition(resp[:, 0], resp[:, 1], ExperimentConfig(tau_r=hi))
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
        divisions, fit_errors = co_divide([prof1, prof2], DEFAULTS)
        assert divisions[0].source == "net2"
        assert divisions[1].source == "net1"
        assert fit_errors == {}

    def test_identical_profiles_give_identical_divisions(self):
        rng = np.random.default_rng(2)
        cloud = self.separated_cloud(rng)
        divisions, _ = co_divide([profile_at(cloud), profile_at(cloud)], DEFAULTS)
        np.testing.assert_array_equal(divisions[0].branches, divisions[1].branches)
        np.testing.assert_allclose(divisions[0].w_r, divisions[1].w_r)

    def test_swapping_twice_restores_pairing(self):
        rng = np.random.default_rng(3)
        prof1 = profile_at(self.separated_cloud(rng))
        prof2 = profile_at(self.separated_cloud(rng))
        once, _ = co_divide([prof1, prof2], DEFAULTS)
        twice, _ = co_divide([prof2, prof1], DEFAULTS)
        np.testing.assert_array_equal(once[0].branches, twice[1].branches)
        np.testing.assert_array_equal(once[1].branches, twice[0].branches)

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
        profiles = [profile_at(np.clip(clean, 0, 1)), profile_at(np.clip(mush, 0, 1))]
        division = co_divide(profiles, DEFAULTS)[0][1]  # derived from net1's clean losses
        assert division.source == "net1"
        labeled = division.branches[: n // 2]
        rest = division.branches[n // 2 :]
        assert (labeled == BRANCH_LABELED).mean() >= 0.95
        assert (rest == BRANCH_LABELED).mean() <= 0.05

    def test_tiny_profiles_fall_back_via_fit_errors(self):
        prof = profile_at(np.full((3, 2), 0.5))
        divisions, fit_errors = co_divide([prof, prof], DEFAULTS)
        assert divisions == [None, None]
        assert set(fit_errors) == {"net1", "net2"}

    def test_settings_come_from_the_config(self, monkeypatch):
        calls = []
        real_fit = selection.fit
        monkeypatch.setattr(
            selection, "fit", lambda *a, **k: calls.append((a[1], k)) or real_fit(*a, **k)
        )
        prof = profile_at(self.separated_cloud(np.random.default_rng(8)))
        cfg = dataclasses.replace(
            DEFAULTS,
            gmm_tol=1e-6,
            gmm_max_iter=7,
            gmm_anchors=[[0, 0], [0.5, 0.4], [1, 0]],  # integers, as JSON may give
            tau_r=0.9,
            tau_prd=0.2,
        )
        divisions, _ = co_divide([prof], cfg)
        anchors, options = calls[0]
        assert anchors.dtype == np.float64 and anchors.tolist() == [[0, 0], [0.5, 0.4], [1, 0]]
        assert options == {"tol": 1e-6, "max_iter": 7}
        w_r, w_prd = divisions[0].w_r, divisions[0].w_prd
        expected = np.where(
            w_r >= 0.9, BRANCH_LABELED, np.where(w_prd >= 0.2, BRANCH_PREDICTED, BRANCH_WRONG)
        )
        np.testing.assert_array_equal(divisions[0].branches, expected)


class TestSelfDivide:
    """One profile: the network is its own partner."""

    def test_one_fit_gives_the_division_co_divide_would(self, monkeypatch):
        fits = []
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        prof = profile_at(TestCoDivide().separated_cloud(np.random.default_rng(6)))
        single, fit_errors = co_divide([prof], DEFAULTS)
        assert len(fits) == 1
        reference = co_divide([prof, prof], DEFAULTS)[0][1]
        assert len(single) == 1 and fit_errors == {}
        assert single[0].source == "net1"
        np.testing.assert_array_equal(single[0].branches, reference.branches)
        np.testing.assert_array_equal(single[0].w_r, reference.w_r)
        np.testing.assert_array_equal(single[0].w_prd, reference.w_prd)

    def test_fit_failure_is_recorded_for_net1_only(self):
        prof = profile_at(np.full((3, 2), 0.5))
        single, fit_errors = co_divide([prof], DEFAULTS)
        assert single == [None]
        assert fit_errors == {"net1": co_divide([prof, prof], DEFAULTS)[1]["net1"]}

class TestSelectionReport:
    def test_perfect_model_on_clean_data(self):
        ds = make_noisy(np.zeros((4, 1)), [0, 1, 2, 3], [0, 1, 2, 3], 4)
        predicted = np.array([0, 1, 2, 3])
        branches = np.full(4, BRANCH_LABELED)
        report = selection_report(make_division(ds, branches, predicted), ds)
        assert report["branches"]["labeled"]["precision"] == 1.0
        assert report["branches"]["labeled"]["size"] == 4
        assert report["branches"]["labeled"]["states"]["i"] == 4

    def test_empty_branches_report_null_not_zero(self):
        ds = make_noisy(np.zeros((3, 1)), [0, 1, 0], [1, 0, 1], 2)
        predicted = np.array([1, 0, 1])
        branches = np.full(3, BRANCH_WRONG)
        report = selection_report(make_division(ds, branches, predicted), ds)
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
        report = selection_report(make_division(ds, branches, predicted), ds)

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
