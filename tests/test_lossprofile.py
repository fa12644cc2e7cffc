import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noisy
from dstlab.errors import StructuralError
from dstlab.lossprofile import (
    SCATTER_HEADER,
    LossProfile,
    minmax_normalize,
    normalize,
    profile,
    write_scatter,
)
from dstlab.network import Layer, NetworkParams, params_hash


def bias_net(logit_rows) -> NetworkParams:
    """One linear layer that ignores its input and emits fixed logits."""
    logits = np.asarray(logit_rows, dtype=np.float64)
    return NetworkParams([Layer(weights=np.zeros((logits.size, 1)), bias=logits)])


def dataset(noisy_labels, n_classes):
    n = len(noisy_labels)
    return make_noisy(np.zeros((n, 1)), [0] * n, noisy_labels, n_classes)


def write_scatter_reference(path, epoch, net, prof, states) -> None:
    """Row-by-row scatter writer: the byte-for-byte reference for write_scatter."""
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCATTER_HEADER)
        for i in range(prof.n_samples):
            writer.writerow(
                [
                    epoch,
                    net,
                    i,
                    f"{prof.l_nis[i]:.17g}",
                    f"{prof.l_prd[i]:.17g}",
                    f"{prof.nrm_nis[i]:.17g}",
                    f"{prof.nrm_prd[i]:.17g}",
                    int(prof.predicted[i]),
                    int(states[i]),
                ]
            )


def scatter_bytes(writer, tmp_path, name, epoch, net, prof, states) -> bytes:
    path = tmp_path / name
    writer(path, epoch, net, prof, states)
    return path.read_bytes()


class TestProfile:
    def test_direct_arithmetic_on_fixed_softmax(self):
        # softmax([ln 0.9, ln 0.1]) is exactly [0.9, 0.1]
        net = bias_net([math.log(0.9), math.log(0.1)])
        ds = dataset([0, 1], 2)
        prof = profile(net, ds)
        np.testing.assert_allclose(prof.l_nis, [-math.log(0.9), -math.log(0.1)], atol=1e-12)
        np.testing.assert_allclose(prof.l_prd, [-math.log(0.9), -math.log(0.9)], atol=1e-12)
        assert prof.predicted.tolist() == [0, 0]

    def test_uniform_softmax_ten_classes(self):
        net = bias_net([0.0] * 10)
        ds = dataset([3, 7], 10)
        prof = profile(net, ds)
        np.testing.assert_allclose(prof.l_nis, math.log(10.0), atol=1e-12)
        np.testing.assert_allclose(prof.l_prd, math.log(10.0), atol=1e-12)

    def test_argmax_ties_resolve_to_lowest_class(self):
        net = bias_net([0.4, 0.4, 0.1])
        prof = profile(net, dataset([2], 3))
        assert prof.predicted.tolist() == [0]

    @given(st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_prediction_loss_never_exceeds_label_loss(self, seed):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        net = bias_net(rng.normal(size=n_classes))
        labels = rng.integers(0, n_classes, size=20).tolist()
        prof = profile(net, dataset(labels, n_classes))
        assert np.all(prof.l_prd <= prof.l_nis + 1e-12)

    def test_profile_leaves_parameters_untouched(self):
        net = bias_net([0.3, -0.2, 0.5])
        before = params_hash(net)
        profile(net, dataset([0, 1, 2, 1], 3))
        assert params_hash(net) == before


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
        prof = LossProfile(
            l_nis=np.array([2.0, 4.0, 6.0]),
            l_prd=np.array([1.0, 1.0, 2.0]),
            predicted=np.array([0, 0, 0]),
        )
        normed = normalize(prof)
        np.testing.assert_allclose(normed.nrm_nis, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(normed.nrm_prd, [0.0, 0.0, 1.0])

    def test_needs_two_points(self):
        prof = LossProfile(
            l_nis=np.array([2.0]), l_prd=np.array([1.0]), predicted=np.array([0])
        )
        with pytest.raises(StructuralError):
            normalize(prof)

    def test_points_requires_normalization(self):
        prof = LossProfile(
            l_nis=np.array([2.0, 3.0]), l_prd=np.array([1.0, 2.0]), predicted=np.array([0, 0])
        )
        with pytest.raises(StructuralError):
            prof.points()
        points = normalize(prof).points()
        assert points.shape == (2, 2)


class TestScatterDump:
    def test_rows_and_header(self, tmp_path):
        net = bias_net([0.5, -0.5])
        ds = dataset([0, 1, 0, 1], 2)
        prof = normalize(profile(net, ds))
        states = np.array([1, 2, 3, 4])
        path = tmp_path / "scatter.csv"
        write_scatter(path, epoch=7, net="net1", prof=prof, states=states)

        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == SCATTER_HEADER
        assert len(rows) == 5
        first = dict(zip(rows[0], rows[1]))
        assert first["epoch"] == "7" and first["net"] == "net1" and first["id"] == "0"
        assert float(first["l_nis"]) == prof.l_nis[0]
        assert first["state"] == "1"

    def test_unnormalized_profile_rejected(self, tmp_path):
        prof = LossProfile(
            l_nis=np.array([2.0, 3.0]), l_prd=np.array([1.0, 2.0]), predicted=np.array([0, 0])
        )
        with pytest.raises(StructuralError):
            write_scatter(tmp_path / "s.csv", 1, "net1", prof, np.array([1, 1]))

    def test_state_count_must_match(self, tmp_path):
        net = bias_net([0.5, -0.5])
        prof = normalize(profile(net, dataset([0, 1], 2)))
        with pytest.raises(StructuralError):
            write_scatter(tmp_path / "s.csv", 1, "net1", prof, np.array([1]))


def explicit_profile(l_nis, l_prd, nrm_nis, nrm_prd, predicted, dtype=np.int64):
    return LossProfile(
        l_nis=np.asarray(l_nis, dtype=np.float64),
        l_prd=np.asarray(l_prd, dtype=np.float64),
        predicted=np.asarray(predicted, dtype=dtype),
        nrm_nis=np.asarray(nrm_nis, dtype=np.float64),
        nrm_prd=np.asarray(nrm_prd, dtype=np.float64),
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
    def test_matches_reference(self, tmp_path, case, states_dtype):
        prof = SCATTER_CASES[case]
        states = (np.arange(prof.n_samples) % 5 + 1).astype(states_dtype)
        args = (120, "net2", prof, states)
        got = scatter_bytes(write_scatter, tmp_path, "got.csv", *args)
        want = scatter_bytes(write_scatter_reference, tmp_path, "want.csv", *args)
        assert got == want

    def test_repr_and_precision_17_differ_on_point_one(self, tmp_path):
        prof = SCATTER_CASES["repr-differs"]
        text = scatter_bytes(write_scatter, tmp_path, "s.csv", 1, "net1", prof, np.ones(3, int))
        assert b",0.10000000000000001," in text
        assert text.endswith(b"\r\n") and text.count(b"\r\n") == 4

    @pytest.mark.parametrize("net", ["net,1", 'net"1', "net%1", "%d%%s", 'a,"b"%\r\nc'])
    def test_net_names_needing_quotes_or_percent_escapes(self, tmp_path, net):
        prof = SCATTER_CASES["unit-bounds"]
        states = np.array([1, 2, 3])
        got = scatter_bytes(write_scatter, tmp_path, "got.csv", 7, net, prof, states)
        want = scatter_bytes(write_scatter_reference, tmp_path, "want.csv", 7, net, prof, states)
        assert got == want
        with (tmp_path / "got.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
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
    def test_random_profiles_match_reference(self, tmp_path_factory, rows, epoch):
        l_nis, l_prd, predicted = (list(col) for col in zip(*rows))
        prof = explicit_profile(l_nis, l_prd, l_prd, l_nis, predicted)
        states = np.arange(len(rows)) % 5 + 1
        tmp_path = tmp_path_factory.mktemp("scatter")
        got = scatter_bytes(write_scatter, tmp_path, "got.csv", epoch, "net1", prof, states)
        want = scatter_bytes(write_scatter_reference, tmp_path, "want.csv", epoch, "net1", prof, states)
        assert got == want
