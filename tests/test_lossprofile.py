import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noisy
from dstlab.data import audit_states
from dstlab.lossprofile import (
    SCATTER_HEADER,
    LossProfile,
    minmax_normalize,
    profile,
    write_scatter,
)
from dstlab.network import Layers
from dstlab.training import full_softmax
from oracles import params_hash, write_scatter_reference


def bias_net(logit_rows) -> Layers:
    """One linear layer that ignores its input and emits fixed logits."""
    logits = np.asarray(logit_rows, dtype=np.float64)
    return [(np.zeros((logits.size, 1)), logits)]


def profile_of(net: Layers, ds) -> LossProfile:
    """`profile` of `ds` under `net`, from its full-set softmax."""
    return profile(full_softmax(net, ds), ds)


def dataset(noisy_labels, n_classes):
    n = len(noisy_labels)
    return make_noisy(np.zeros((n, 1)), [0] * n, noisy_labels, n_classes)


class TestProfile:
    def test_direct_arithmetic_on_fixed_softmax(self):
        # softmax([ln 0.9, ln 0.1]) is exactly [0.9, 0.1]
        net = bias_net([math.log(0.9), math.log(0.1)])
        ds = dataset([0, 1], 2)
        prof = profile_of(net, ds)
        np.testing.assert_allclose(prof.l_nis, [-math.log(0.9), -math.log(0.1)], atol=1e-12)
        np.testing.assert_allclose(prof.l_prd, [-math.log(0.9), -math.log(0.9)], atol=1e-12)
        assert prof.predicted.tolist() == [0, 0]

    def test_uniform_softmax_ten_classes(self):
        net = bias_net([0.0] * 10)
        ds = dataset([3, 7], 10)
        prof = profile_of(net, ds)
        np.testing.assert_allclose(prof.l_nis, math.log(10.0), atol=1e-12)
        np.testing.assert_allclose(prof.l_prd, math.log(10.0), atol=1e-12)

    def test_argmax_ties_resolve_to_lowest_class(self):
        net = bias_net([0.4, 0.4, 0.1])
        prof = profile_of(net, dataset([2, 1], 3))
        assert prof.predicted.tolist() == [0, 0]

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_prediction_loss_never_exceeds_label_loss(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        net = bias_net(rng.normal(size=n_classes))
        labels = rng.integers(0, n_classes, size=20).tolist()
        prof = profile_of(net, dataset(labels, n_classes))
        assert np.all(prof.l_prd <= prof.l_nis + 1e-12)

    def test_states_audit_the_predictions(self):
        # One sample per agreement state, under a net that predicts class 0.
        ds = make_noisy(np.zeros((5, 1)), [0, 1, 0, 1, 1], [0, 1, 1, 0, 2], 3)
        prof = profile_of(bias_net([0.6, 0.3, 0.1]), ds)
        assert prof.states.tolist() == [1, 2, 3, 4, 5]
        np.testing.assert_array_equal(prof.states, audit_states(ds, prof.predicted))

    @pytest.mark.parametrize(
        "logits", [[0.6, 0.3, 0.1], [0.0, 0.0, 0.0]], ids=["spread", "flat-axes"]
    )
    def test_every_field_has_its_documented_dtype(self, logits):
        # `data.write_csv` writes a float column with %.17g and an integer
        # one with %d, so these dtypes decide the scatter bytes.
        prof = profile_of(bias_net(logits), dataset([0, 1, 2, 1], 3))
        documented = {
            "l_nis": np.float64,
            "l_prd": np.float64,
            "predicted": np.int64,
            "nrm_nis": np.float64,
            "nrm_prd": np.float64,
            "states": np.int64,
        }
        assert [f.name for f in dataclasses.fields(LossProfile)] == list(documented)
        assert list(vars(prof)) == list(documented)
        for name, dtype in documented.items():
            value = getattr(prof, name)
            assert isinstance(value, np.ndarray) and value.shape == (4,), name
            assert value.dtype == np.dtype(dtype), name

    def test_profile_leaves_parameters_untouched(self):
        # Nor the softmax: a partner's rows are read after its profile.
        net = bias_net([0.3, -0.2, 0.5])
        before = params_hash(net)
        ds = dataset([0, 1, 2, 1], 3)
        probs = full_softmax(net, ds)
        rows = probs.tobytes()
        profile(probs, ds)
        assert params_hash(net) == before
        assert probs.tobytes() == rows


class TestNormalize:
    def test_minmax_maps_to_unit_interval(self):
        np.testing.assert_allclose(minmax_normalize([2.0, 4.0, 6.0]), [0.0, 0.5, 1.0])

    def test_flat_axis_maps_to_zero(self):
        np.testing.assert_array_equal(minmax_normalize([3.0, 3.0, 3.0]), [0.0, 0.0, 0.0])

    def test_extremes_land_exactly_on_bounds(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=50)
        scaled = minmax_normalize(values)
        assert scaled[values.argmin()] == 0.0
        assert scaled[values.argmax()] == 1.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40))
    def test_output_always_in_unit_interval(self, values):
        scaled = minmax_normalize(np.array(values))
        assert np.all(scaled >= 0.0) and np.all(scaled <= 1.0)

    def test_idempotent_on_normalized_data(self):
        rng = np.random.default_rng(4)
        once = minmax_normalize(rng.uniform(size=30))
        np.testing.assert_allclose(minmax_normalize(once), once, atol=1e-12)

    def test_normalize_fills_both_axes_independently(self):
        # Label losses -ln 0.9, -ln 0.1, -ln 0.1; prediction losses all -ln 0.9.
        net = bias_net([math.log(0.9), math.log(0.1)])
        prof = profile_of(net, dataset([0, 1, 1], 2))
        np.testing.assert_array_equal(prof.nrm_nis, [0.0, 1.0, 1.0])
        np.testing.assert_array_equal(prof.nrm_prd, [0.0, 0.0, 0.0])
        for nrm, raw in ((prof.nrm_nis, prof.l_nis), (prof.nrm_prd, prof.l_prd)):
            assert nrm.tobytes() == minmax_normalize(raw).tobytes()


class TestScatterDump:
    def test_rows_and_header(self):
        net = bias_net([0.5, -0.5])
        ds = make_noisy(np.zeros((4, 1)), [0, 1, 0, 1], [0, 1, 1, 0], 2)
        prof = profile_of(net, ds)
        text = write_scatter(7, "net1", prof).decode()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == SCATTER_HEADER
        assert len(rows) == 5
        first = dict(zip(rows[0], rows[1]))
        assert first["epoch"] == "7" and first["net"] == "net1" and first["id"] == "0"
        assert float(first["l_nis"]) == prof.l_nis[0]
        assert [row[-1] for row in rows[1:]] == ["1", "2", "3", "4"]

    def test_unnormalized_profile_rejected(self):
        # A profile cannot be built without its normalized axes and states,
        # so the dump never meets one.
        with pytest.raises(TypeError, match="nrm_nis"):
            LossProfile(
                l_nis=np.array([2.0, 3.0]), l_prd=np.array([1.0, 2.0]), predicted=np.array([0, 0])
            )

    def test_state_count_must_match(self):
        prof = profile_of(bias_net([0.5, -0.5]), dataset([0, 1, 1], 2))
        assert prof.states.shape == (prof.n_samples,) == (3,)


def explicit_profile(l_nis, l_prd, nrm_nis, nrm_prd, predicted, dtype=np.int64):
    """A profile with exactly these columns; states cycle through 1..5."""
    return LossProfile(
        l_nis=np.asarray(l_nis, dtype=np.float64),
        l_prd=np.asarray(l_prd, dtype=np.float64),
        predicted=np.asarray(predicted, dtype=dtype),
        nrm_nis=np.asarray(nrm_nis, dtype=np.float64),
        nrm_prd=np.asarray(nrm_prd, dtype=np.float64),
        states=np.arange(len(l_nis)) % 5 + 1,
    )


SCATTER_CASES = {
    # normalized extremes land exactly on 0.0 and 1.0
    "unit-bounds": explicit_profile(
        [0.5, 2.0, 1.25], [0.0, 1.0, 0.5], [0.0, 1.0, 0.5], [0.0, 1.0, 0.5], [0, 1, 2]
    ),
    # a flat prediction-loss axis normalizes to all zeros
    "flat-axis": explicit_profile(
        [0.3, 0.7, 0.9], [0.2, 0.2, 0.2], [0.0, 2.0 / 3.0, 1.0], [0.0, 0.0, 0.0], [3, 3, 3]
    ),
    # the smallest subnormal and a tiny normal
    "tiny": explicit_profile(
        [5e-324, 1e-300, 1e-310], [1e-300, 5e-324, 0.0], [5e-324, 1e-300, 0.0],
        [0.0, 5e-324, 1e-300], [0, 0, 1],
    ),
    # repr gives "0.1", %.17g gives "0.10000000000000001"
    "repr-differs": explicit_profile(
        [0.1, 0.2, 0.3], [0.1, 1 / 3, 2 / 3], [0.1, 0.7, 1 / 3], [0.1, 0.2, 0.3], [1, 0, 1]
    ),
    # LOG_FLOOR-sized and far larger losses
    "large": explicit_profile(
        [-math.log(1e-300), 1e17, 1.7976931348623157e308], [690.7755278982137, 1e16 + 2, 123456789.0],
        [0.0, 0.5, 1.0], [1.0, 0.25, 0.0], [2, 1, 0],
    ),
    "int32-labels": explicit_profile(
        [0.1, 0.2], [0.3, 0.4], [0.0, 1.0], [0.0, 1.0], [1, 3], dtype=np.int32
    ),
}


class TestScatterBytes:
    """The batched writer must reproduce the row-by-row writer byte for byte."""

    @pytest.mark.parametrize("case", sorted(SCATTER_CASES))
    @pytest.mark.parametrize("states_dtype", [np.int32, np.int64])
    def test_matches_reference(self, case, states_dtype):
        prof = dataclasses.replace(
            SCATTER_CASES[case], states=SCATTER_CASES[case].states.astype(states_dtype)
        )
        args = (120, "net2", prof)
        assert write_scatter(*args) == write_scatter_reference(*args)

    def test_repr_and_precision_17_differ_on_point_one(self):
        prof = SCATTER_CASES["repr-differs"]
        text = write_scatter(1, "net1", prof)
        assert b",0.10000000000000001," in text
        assert text.endswith(b"\r\n") and text.count(b"\r\n") == 4

    # NUL and non-ASCII names too: the padding dropped from the formatted
    # rows is a byte no UTF-8 text holds.
    @pytest.mark.parametrize(
        "net", ["net,1", 'net"1', "net%1", "%d%%s", 'a,"b"%\r\nc', "n\x00t", "n\xe9t\u2603", "\xff"]
    )
    def test_net_names_needing_quotes_or_percent_escapes(self, net):
        prof = SCATTER_CASES["unit-bounds"]
        got = write_scatter(7, net, prof)
        assert got == write_scatter_reference(7, net, prof)
        rows = list(csv.reader(io.StringIO(got.decode("utf-8"), newline="")))
        assert [row[1] for row in rows[1:]] == [net] * 3

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-(2**63), 2**63 - 1),
            ),
            min_size=2,
            max_size=30,
        ),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_profiles_match_reference(self, rows, epoch):
        l_nis, l_prd, predicted = (list(col) for col in zip(*rows))
        prof = explicit_profile(l_nis, l_prd, l_prd, l_nis, predicted)
        got = write_scatter(epoch, "net1", prof)
        assert got == write_scatter_reference(epoch, "net1", prof)
