import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    ANCHORS,
    DEFAULTS,
    clean_and_mush,
    make_noisy,
    model_with_means,
    profile_at,
)
from dstlab import selection, training
from dstlab.config import ExperimentConfig
from dstlab.data import audit_states
from dstlab.errors import ConfigError
from dstlab.gmm import model_to_dict
from dstlab.network import Workspace, init_network
from dstlab.rng import RngStreams
from dstlab.selection import (
    BRANCH_LABELED,
    BRANCH_PREDICTED,
    BRANCH_WRONG,
    assign_roles,
    branch_report,
    partition,
)


def toy_dataset(n):
    """`n` rows of three classes, every label correct."""
    labels = np.arange(n) % 3
    return make_noisy(np.random.default_rng(0).standard_normal((n, 2)), labels, labels, 3)


def capture_divisions(m, module):
    """Record, by source, each `divide` call that `module` makes (patched
    on `m`): its profile, what it returned, the model `fit` returned
    (None after a failed fit), and the weights and branch codes that
    `partition` took and gave."""
    divisions = {}
    real_fit, real_partition, real_divide = selection.fit, selection.partition, selection.divide
    seen = {}

    def fit(*args, **kwargs):
        seen["model"] = real_fit(*args, **kwargs)
        return seen["model"]

    def partition(w_r, w_prd, cfg):
        seen.update(w_r=w_r, w_prd=w_prd, branches=real_partition(w_r, w_prd, cfg))
        return seen["branches"]

    def divide(prof, cfg, source):
        seen.clear()
        result = real_divide(prof, cfg, source)
        divisions[source] = SimpleNamespace(
            **{**dict.fromkeys(("model", "w_r", "w_prd", "branches")), **seen},
            prof=prof,
            table=result[0],
            report=result[1],
        )
        return result

    m.setattr(selection, "fit", fit)
    m.setattr(selection, "partition", partition)
    m.setattr(module, "divide", divide)
    return divisions


def divided(prof, source="net1", cfg=DEFAULTS):
    """`selection.divide` of one cloud, as `capture_divisions` records it."""
    with pytest.MonkeyPatch.context() as m:
        divisions = capture_divisions(m, selection)
        selection.divide(prof, cfg, source)
    return divisions[source]


def selection_epoch(clouds, **overrides):
    """The selection reports and the divisions (see `capture_divisions`),
    by source, of the first selection epoch of `training.run_epoch` without
    the writer, when net i's normalized loss cloud is `clouds[i]` (see
    `profile_at`). The training set has as many rows as the first cloud."""
    ds = toy_dataset(len(clouds[0]))
    cfg = ExperimentConfig(
        n_classes=3, hidden_sizes=[4], total_epochs=2, warmup_epochs=1, batch_size=16, **overrides
    )
    streams = RngStreams.from_master(0)
    workspaces = [Workspace(init_network(cfg.layer_sizes(), rng)) for rng in streams.init]
    clouds_of = {id(ws.params): profile_at(cloud) for ws, cloud in zip(workspaces, clouds)}
    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "profile", lambda params, ds: clouds_of[id(params)])
        divisions = capture_divisions(m, training)
        selection_reports, _ = training.run_epoch(2, workspaces, ds, cfg, streams)
    return selection_reports, divisions


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
        return divided(prof, "net2")

    def test_projection_rows(self):
        division = self.divide()
        resp, roles = division.model.resp, division.report["roles"]
        np.testing.assert_array_equal(division.w_r, resp[:, roles["labeled"]])
        np.testing.assert_array_equal(division.w_prd, resp[:, roles["predicted"]])
        assert division.w_r.shape == division.w_prd.shape == (90,)

    def test_projection_respects_role_permutation(self, monkeypatch):
        division = self.divide(monkeypatch, {"labeled": 2, "predicted": 0, "wrong": 1})
        assert division.report["roles"] == {"labeled": 2, "predicted": 0, "wrong": 1}
        np.testing.assert_array_equal(division.w_r, division.model.resp[:, 2])
        np.testing.assert_array_equal(division.w_prd, division.model.resp[:, 0])

    def test_complement_is_wrong_responsibility(self):
        division = self.divide()
        wrong = division.model.resp[:, division.report["roles"]["wrong"]]
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
        # Each network trains on the division of the other's cloud.
        rng = np.random.default_rng(1)
        clouds = [self.separated_cloud(rng), self.separated_cloud(rng)]
        selection_reports, divisions = selection_epoch(clouds)
        assert selection_reports["net1"]["source"] == "net2"
        assert selection_reports["net2"]["source"] == "net1"
        assert {name: r["fallback"] for name, r in selection_reports.items()} == {
            "net1": False,
            "net2": False,
        }
        for source, cloud in zip(("net1", "net2"), clouds):
            assert divisions[source].report["source"] == source
            np.testing.assert_array_equal(divisions[source].prof.nrm_nis, cloud[:, 0])

    def test_identical_profiles_give_identical_divisions(self):
        rng = np.random.default_rng(2)
        cloud = self.separated_cloud(rng)
        one, other = divided(profile_at(cloud), "net1"), divided(profile_at(cloud), "net2")
        np.testing.assert_array_equal(one.branches, other.branches)
        np.testing.assert_allclose(one.w_r, other.w_r)
        assert (one.report["source"], other.report["source"]) == ("net1", "net2")
        assert {**one.report, "source": None} == {**other.report, "source": None}
        for a, b in zip(one.table, other.table):
            np.testing.assert_array_equal(a, b)

    def test_report_holds_the_fit_roles_and_branches(self):
        prof = profile_at(self.separated_cloud(np.random.default_rng(5)))
        division = divided(prof, "net2")
        assert division.table is not None
        assert division.report == {
            "n_samples": 90,
            "source": "net2",
            "roles": assign_roles(division.model, ANCHORS),
            "gmm": model_to_dict(division.model),
            "branches": branch_report(division.branches, prof.states),
            "fallback": False,
        }

    def test_swapping_twice_restores_pairing(self):
        rng = np.random.default_rng(3)
        clouds = [self.separated_cloud(rng), self.separated_cloud(rng)]
        once, _ = selection_epoch(clouds)
        twice, _ = selection_epoch(clouds[::-1])
        # Net a trains on the same cloud in the first epoch as net b in the
        # second: the only difference is the name of the cloud's network.
        for a, b in (("net1", "net2"), ("net2", "net1")):
            assert (once[a]["source"], twice[b]["source"]) == (b, a)
            assert {**once[a], "source": None} == {**twice[b], "source": None}
        assert once["net1"]["gmm"] != once["net2"]["gmm"]

    def test_clean_division_goes_to_the_other_network(self):
        rng = np.random.default_rng(4)
        # net1's losses separate cleanly; net2's are an indistinct mush
        n = 60
        selection_reports, divisions = selection_epoch(clean_and_mush(rng, n))
        assert selection_reports["net2"]["source"] == "net1"
        division = divisions["net1"]  # derived from net1's clean losses
        labeled = division.branches[: n // 2]
        rest = division.branches[n // 2 :]
        assert (labeled == BRANCH_LABELED).mean() >= 0.95
        assert (rest == BRANCH_LABELED).mean() <= 0.05
        sizes = selection_reports["net2"]["branches"]
        assert sizes["labeled"]["size"] == int((division.branches == BRANCH_LABELED).sum())

    def test_tiny_profiles_fall_back_with_their_reason(self):
        prof = profile_at(np.full((3, 2), 0.5))
        reason = "need at least 6 points to fit, got 3"
        for source in ("net1", "net2"):
            table, report = selection.divide(prof, DEFAULTS, source)
            assert table is None
            assert report == {"fallback": True, "reason": reason, "source": source}
        selection_reports, divisions = selection_epoch([np.full((3, 2), 0.5)] * 2)
        assert {source: d.table for source, d in divisions.items()} == {"net1": None, "net2": None}
        # Each consumer's report names the network whose cloud failed.
        assert selection_reports == {
            "net1": {"fallback": True, "reason": reason, "source": "net2"},
            "net2": {"fallback": True, "reason": reason, "source": "net1"},
        }

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
        division = divided(prof, "net1", cfg)
        anchors, options = calls[0]
        assert anchors.dtype == np.float64 and anchors.tolist() == [[0, 0], [0.5, 0.4], [1, 0]]
        assert options == {"tol": 1e-6, "max_iter": 7}
        w_r, w_prd = division.w_r, division.w_prd
        expected = np.where(
            w_r >= 0.9, BRANCH_LABELED, np.where(w_prd >= 0.2, BRANCH_PREDICTED, BRANCH_WRONG)
        )
        np.testing.assert_array_equal(division.branches, expected)


class TestSelfDivide:
    """One profile: the network is its own partner."""

    def test_one_fit_gives_the_division_co_divide_would(self, monkeypatch):
        # The division a direct `selection.divide` of the same cloud makes.
        fits = []
        real_fit = selection.fit
        monkeypatch.setattr(selection, "fit", lambda *a, **k: fits.append(1) or real_fit(*a, **k))
        cloud = TestCoDivide().separated_cloud(np.random.default_rng(6))
        selection_reports, divisions = selection_epoch([cloud], single_network=True)
        assert len(fits) == 1
        reference = divided(profile_at(cloud), "net1")
        assert list(divisions) == ["net1"] and reference.table is not None
        assert selection_reports["net1"]["source"] == "net1"
        assert set(selection_reports) == {"net1"}
        single = divisions["net1"]
        np.testing.assert_array_equal(single.branches, reference.branches)
        np.testing.assert_array_equal(single.w_r, reference.w_r)
        np.testing.assert_array_equal(single.w_prd, reference.w_prd)
        assert single.report == reference.report

    def test_fit_failure_is_recorded_for_net1_only(self):
        tiny = np.full((3, 2), 0.5)
        selection_reports, divisions = selection_epoch([tiny], single_network=True)
        assert list(divisions) == ["net1"] and divisions["net1"].table is None
        assert selection_reports == {
            "net1": {
                "fallback": True,
                "reason": "need at least 6 points to fit, got 3",
                "source": "net1",
            },
        }
        assert divided(profile_at(tiny), "net1").report == selection_reports["net1"]


class TestSelectionReport:
    def test_perfect_model_on_clean_data(self):
        ds = make_noisy(np.zeros((4, 1)), [0, 1, 2, 3], [0, 1, 2, 3], 4)
        predicted = np.array([0, 1, 2, 3])
        branches = np.full(4, BRANCH_LABELED)
        report = branch_report(branches, audit_states(ds, predicted))
        assert report["labeled"]["precision"] == 1.0
        assert report["labeled"]["size"] == 4
        assert report["labeled"]["states"]["i"] == 4

    def test_empty_branches_report_null_not_zero(self):
        ds = make_noisy(np.zeros((3, 1)), [0, 1, 0], [1, 0, 1], 2)
        predicted = np.array([1, 0, 1])
        branches = np.full(3, BRANCH_WRONG)
        report = branch_report(branches, audit_states(ds, predicted))
        assert report["labeled"]["precision"] is None
        assert report["predicted"]["precision"] is None
        assert report["wrong"]["size"] == 3

    @given(st.data())
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_counting_oracle_on_random_assignment(self, data):
        # Branch codes come from a drawn subset of the branches, so empty
        # branches are common; one class makes every label and prediction
        # right, so the wrong branch's recall has nothing to count.
        n = data.draw(st.integers(1, 300), label="n")
        n_classes = data.draw(st.integers(1, 4), label="n_classes")
        used = sorted(data.draw(st.sets(st.sampled_from([0, 1, 2]), min_size=1), label="used"))

        def draw(name, values):
            return data.draw(arrays(np.int64, n, elements=values, fill=st.nothing()), label=name)

        classes = st.integers(0, n_classes - 1)
        truth, noisy, predicted = (draw(name, classes) for name in ("truth", "noisy", "predicted"))
        branches = draw("branches", st.sampled_from(used))
        ds = make_noisy(np.zeros((n, 1)), truth, noisy, n_classes)
        report = branch_report(branches, audit_states(ds, predicted))

        label_ok, pred_ok = noisy == truth, predicted == truth
        conditions = {
            "labeled": label_ok,
            "predicted": pred_ok,
            "wrong": ~label_ok & ~pred_ok,
        }
        states = {
            "i": label_ok & pred_ok,
            "ii": label_ok & ~pred_ok,
            "iii": ~label_ok & pred_ok,
            "iv": ~label_ok & ~pred_ok & (noisy == predicted),
            "v": ~label_ok & ~pred_ok & (noisy != predicted),
        }
        for code, name in enumerate(("labeled", "predicted", "wrong")):
            mask = branches == code
            entry = report[name]
            size, right = int(mask.sum()), int(conditions[name].sum())
            hits = int((mask & conditions[name]).sum())
            assert entry["size"] == size
            assert entry["precision"] == (None if size == 0 else hits / size)
            assert entry["recall"] == (None if right == 0 else hits / right)
            assert entry["states"] == {s: int((mask & m).sum()) for s, m in states.items()}
            assert sum(entry["states"].values()) == entry["size"]
