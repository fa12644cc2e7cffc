import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_noisy
from dstlab import data
from dstlab.data import (
    CENTER_SPACING,
    NOISE_KINDS,
    SPREAD,
    audit_states,
    inject_noise,
    make_blobs,
    STATE_NAMES,
    save_dataset,
    write_csv,
)
from dstlab.config import ExperimentConfig
from dstlab.errors import ConfigError, StructuralError
from dstlab.selection import branch_report
from oracles import load_dataset, save_dataset_rows


def blobs(n_classes=4, per_class=50, n_features=2, spread=0.5, seed=0):
    return make_blobs(n_classes, per_class, n_features, spread, np.random.default_rng(seed))


def write_dataset(ds, run_dir) -> None:
    """`save_dataset`'s CSV as a run writes it, beside a manifest holding
    the keys `load_dataset` reads from a run's."""
    (run_dir / "dataset.csv").write_bytes(save_dataset(ds))
    manifest = {
        "format": "dstlab-manifest",
        "config": {"n_classes": ds.n_classes},
        "n_train": ds.n_samples,
    }
    (run_dir / "manifest.json").write_text(json.dumps(manifest))


def corrupt(ds, kind, rate, seed):
    return inject_noise(ds, kind, rate, seed)


class TestMakeBlobs:
    def test_two_singleton_classes(self):
        ds = blobs(n_classes=2, per_class=1)
        assert ds.n_samples == 2
        assert sorted(ds.true_labels.tolist()) == [0, 1]

    def test_fixed_seed_reproduces_bytes(self):
        a, b = blobs(seed=9), blobs(seed=9)
        assert a.features.tobytes() == b.features.tobytes()
        assert np.array_equal(a.true_labels, b.true_labels)

    @pytest.mark.parametrize("n_classes,n_features", [(2, 1), (2, 2), (3, 2), (5, 3), (8, 2)])
    def test_center_separation_is_at_least_four_spreads(self, n_classes, n_features):
        spread = 0.7
        ds = blobs(n_classes=n_classes, per_class=200, n_features=n_features, spread=spread)
        centers = np.stack(
            [ds.features[ds.true_labels == c].mean(axis=0) for c in range(n_classes)]
        )
        for a, b in itertools.combinations(range(n_classes), 2):
            # empirical centers wobble by ~spread/sqrt(per_class)
            assert np.linalg.norm(centers[a] - centers[b]) > 4.0 * spread - 0.3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_least_squares_oracle_reaches_99_percent(self, seed):
        # One-vs-rest least squares on the benchmark geometry. This pins the
        # difficulty knob: blobs must stay (linearly) separable even though
        # they are close enough for a network to confuse boundary samples.
        ds = blobs(n_classes=4, per_class=1000, n_features=2, spread=0.5, seed=seed)
        design = np.column_stack([ds.features, np.ones(ds.n_samples)])
        onehot = np.eye(4)[ds.true_labels]
        coef, *_ = np.linalg.lstsq(design, onehot, rcond=None)
        predictions = (design @ coef).argmax(axis=1)
        assert (predictions == ds.true_labels).mean() >= 0.99

    def test_spacing_constant_is_frozen(self):
        assert (CENTER_SPACING, SPREAD) == (6.0, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_classes": 1},
            {"per_class": 0},
            {"n_features": 0},
            {"test_per_class": 0},
            {"per_class": -1},
        ],
    )
    def test_validation(self, kwargs):
        # make_blobs draws from the config's settings; the config rejects
        # each one it cannot draw from, before any draw.
        field = next(iter(kwargs))
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**kwargs)


class TestSymmetricCriterion1:
    def test_rate_zero_is_identity(self):
        ds = blobs()
        noisy = corrupt(ds, "sym-c1", 0.0, seed=1)
        assert np.array_equal(noisy.noisy_labels, noisy.true_labels)

    def test_rate_one_keeps_one_over_c_by_chance(self):
        ds = blobs(n_classes=10, per_class=1000)
        noisy = corrupt(ds, "sym-c1", 1.0, seed=2)
        kept = (noisy.noisy_labels == noisy.true_labels).mean()
        assert 0.08 <= kept <= 0.12  # 5 sigma around 1/10

    def test_half_rate_disagreement_matches_budget(self):
        # Exactly floor(r N) = 5000 samples relabeled; each keeps its true
        # label with probability 1/C, so disagreement concentrates near
        # 5000 * 3/4 (5 sigma on a binomial(5000, 3/4) is about 153).
        ds = blobs(n_classes=4, per_class=2500)
        noisy = corrupt(ds, "sym-c1", 0.5, seed=3)
        disagree = int((noisy.noisy_labels != noisy.true_labels).sum())
        assert disagree <= 5000
        assert 3597 <= disagree <= 3903

    def test_same_seed_reproduces(self):
        ds = blobs()
        a = corrupt(ds, "sym-c1", 0.5, seed=5)
        b = corrupt(ds, "sym-c1", 0.5, seed=5)
        assert np.array_equal(a.noisy_labels, b.noisy_labels)


class TestAsymmetric:
    def test_rate_zero_is_identity(self):
        ds = blobs()
        noisy = corrupt(ds, "asym", 0.0, seed=1)
        assert np.array_equal(noisy.noisy_labels, noisy.true_labels)

    def test_rate_one_cyclic_shift(self):
        ds = blobs(n_classes=4, per_class=50)
        noisy = corrupt(ds, "asym", 1.0, seed=1)
        assert np.array_equal(noisy.noisy_labels, (noisy.true_labels + 1) % 4)

    def test_per_class_flip_fraction_within_binomial_bounds(self):
        ds = blobs(n_classes=4, per_class=2500)
        noisy = corrupt(ds, "asym", 0.4, seed=11)
        for c in range(4):
            mask = noisy.true_labels == c
            flipped = (noisy.noisy_labels[mask] != c).mean()
            assert 0.36 <= flipped <= 0.44

    def test_flips_land_on_the_mapping(self):
        ds = blobs(n_classes=4, per_class=200)
        noisy = corrupt(ds, "asym", 0.5, seed=13)
        changed = noisy.noisy_labels != noisy.true_labels
        assert changed.any()
        assert noisy.noisy_labels[changed].tolist() == [
            (c + 1) % 4 for c in noisy.true_labels[changed].tolist()
        ]

    def test_cyclic_mapping_is_fixed_point_free(self):
        # At rate one every label flips, onto (c + 1) % C and never onto c.
        for n_classes in (2, 3, 6):
            noisy = corrupt(blobs(n_classes=n_classes, per_class=5), "asym", 1.0, seed=2)
            assert np.array_equal(noisy.noisy_labels, (noisy.true_labels + 1) % n_classes)
            assert not np.any(noisy.noisy_labels == noisy.true_labels)

    def test_single_class_rejected(self):
        # The cyclic map of one class is a fixed point: no flip is possible.
        with pytest.raises(ConfigError, match="n_classes must be >= 2"):
            ExperimentConfig(n_classes=1, noise_kind="asym", noise_rate=0.2)


class TestNoiseDraws:
    # SHA-256 of the noisy labels' bytes on 4 x 50 blobs (seed 0), per kind
    # at two (rate, seed) pairs: any change to a kind's draws or their order
    # shows here, also for the kinds the reference run does not use.
    DIGESTS = {
        ("sym-c1", 0.3, 5): "82e2dc29762bfbf32e9ee602ef67e9d0d3c34f0cb8c8f48b8ef669d590438295",
        ("sym-c1", 0.8, 123): "124d4c967b23ec83be9784b5b4b7aba583ac206795dad003388481e7a088eb87",
        ("asym", 0.3, 5): "7433d00d892dbf3f1be6d9a56a3e1754a300a821d623af14b6571d69a06f43c7",
        ("asym", 0.8, 123): "84912fc76ed2360507117e91086c4d3da0e8e637b1805eaaeab28bbb6504e48f",
    }

    @pytest.mark.parametrize("kind,rate,seed", list(DIGESTS))
    def test_noisy_label_bytes_are_pinned(self, kind, rate, seed):
        labels = corrupt(blobs(), kind, rate, seed).noisy_labels
        assert labels.dtype == np.int64
        assert hashlib.sha256(labels.tobytes()).hexdigest() == self.DIGESTS[kind, rate, seed]


class TestNoiseSpecDispatch:
    # inject_noise takes its kind and rate from the config, which checks
    # them.
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="noise_kind must be one of"):
            ExperimentConfig(noise_kind="typo", noise_rate=0.3)

    @pytest.mark.parametrize("rate", [-0.01, 1.01])
    def test_rate_out_of_range_rejected(self, rate):
        with pytest.raises(ConfigError, match=r"noise_rate must be in \[0, 1\]"):
            ExperimentConfig(noise_kind="sym-c1", noise_rate=rate)


@given(
    kind=st.sampled_from(NOISE_KINDS),
    rate=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_injection_never_mutates_features_or_truth(kind, rate, seed):
    ds = blobs(n_classes=3, per_class=20, seed=4)
    before_features = ds.features.copy()
    before_truth = ds.true_labels.copy()
    noisy = inject_noise(ds, kind, rate, seed)
    assert np.array_equal(ds.features, before_features)
    assert np.array_equal(ds.true_labels, before_truth)
    assert np.array_equal(noisy.true_labels, before_truth)
    # Shared with the clean set, not copied.
    assert noisy.features is ds.features and noisy.true_labels is ds.true_labels
    assert noisy.n_samples == ds.n_samples
    assert noisy.noisy_labels.min() >= 0 and noisy.noisy_labels.max() < 3


class TestAuditStates:
    def test_all_five_states(self):
        #              y == truth        y != truth
        # pred==truth  1 (i)             3 (iii)
        # pred!=truth  2 (ii)            4 (iv, y==pred) / 5 (v, y!=pred)
        ds = make_noisy(
            features=np.zeros((5, 1)),
            true_labels=[0, 0, 0, 0, 0],
            noisy_labels=[0, 0, 1, 1, 1],
            n_classes=3,
        )
        predicted = np.array([0, 1, 0, 1, 2])
        assert audit_states(ds, predicted).tolist() == [1, 2, 3, 4, 5]

    def test_counts_on_random_fixture(self):
        rng = np.random.default_rng(17)
        truth = rng.integers(0, 4, size=300)
        noisy = rng.integers(0, 4, size=300)
        pred = rng.integers(0, 4, size=300)
        ds = make_noisy(np.zeros((300, 2)), truth, noisy, 4)
        states = audit_states(ds, pred)
        for i in range(300):
            y_ok, p_ok = noisy[i] == truth[i], pred[i] == truth[i]
            if y_ok and p_ok:
                expected = 1
            elif y_ok:
                expected = 2
            elif p_ok:
                expected = 3
            elif noisy[i] == pred[i]:
                expected = 4
            else:
                expected = 5
            assert states[i] == expected

    def test_state_names(self):
        # Selection reports key each state's count by its name: state s
        # occurs s times here, all in the labeled branch.
        noisy = [0] * 3 + [1] * 12
        predicted = np.array([0] + [1] * 2 + [0] * 3 + [1] * 4 + [2] * 5)
        ds = make_noisy(np.zeros((15, 1)), [0] * 15, noisy, 3)
        report = branch_report(np.zeros(15, dtype=np.int64), audit_states(ds, predicted))
        assert STATE_NAMES == ("i", "ii", "iii", "iv", "v")
        counts = report["labeled"]["states"]
        assert list(counts.items()) == [(name, s) for s, name in enumerate(STATE_NAMES, start=1)]


class TestDatasetFile:
    def test_round_trip_is_exact(self, tmp_path):
        noisy = corrupt(blobs(per_class=7), "sym-c1", 0.5, seed=3)
        write_dataset(noisy, tmp_path)
        loaded = load_dataset(tmp_path)
        assert loaded.features.tobytes() == noisy.features.tobytes()
        assert np.array_equal(loaded.true_labels, noisy.true_labels)
        assert np.array_equal(loaded.noisy_labels, noisy.noisy_labels)
        assert loaded.n_classes == noisy.n_classes

    def test_header(self):
        noisy = corrupt(blobs(per_class=3, n_features=3), "sym-c1", 0.2, seed=1)
        table = save_dataset(noisy)
        assert isinstance(table, bytes)
        header = table.decode().splitlines()[0]
        assert header == "id,true_label,noisy_label,f0,f1,f2"

    def test_row_count_must_match_the_manifest(self, tmp_path):
        write_dataset(corrupt(blobs(per_class=3), "asym", 0.2, seed=1), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "n_train": 11}))
        with pytest.raises(StructuralError, match="has 12 rows, the manifest 11"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("kind", NOISE_KINDS)
    @pytest.mark.parametrize("n_features", [1, 2, 20])
    def test_bytes_match_row_by_row_writer(self, tmp_path, n_features, kind):
        noisy = corrupt(blobs(n_classes=3, per_class=40, n_features=n_features), kind, 0.4, seed=5)
        save_dataset_rows(noisy, tmp_path / "want.csv")
        assert save_dataset(noisy) == (tmp_path / "want.csv").read_bytes()

    def test_edge_floats_match_row_by_row_writer(self, tmp_path):
        features = [[-0.0, 0.1], [1e-300, -1.7976931348623157e308], [5e-324, 2.0**53 + 1]]
        noisy = make_noisy(features, [0, 1, 1], [1, 1, 0], 2)
        save_dataset_rows(noisy, tmp_path / "want.csv")
        assert save_dataset(noisy) == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("chunk_rows", [2, 7])
    def test_rows_in_chunks_match_row_by_row_writer(self, tmp_path, monkeypatch, chunk_rows):
        # Chunk edges fall inside the table, and column widths differ between chunks.
        monkeypatch.setattr(data, "CSV_CHUNK_ROWS", chunk_rows)
        noisy = corrupt(blobs(n_classes=3, per_class=10, n_features=3), "asym", 0.4, seed=5)
        noisy.features[[3, 11, 20, 21], [0, 1, 2, 0]] = [-0.0, 1e300, -np.inf, 5e-324]
        save_dataset_rows(noisy, tmp_path / "want.csv")
        assert save_dataset(noisy) == (tmp_path / "want.csv").read_bytes()

    def test_foreign_csv_rejected(self, tmp_path):
        (tmp_path / "dataset.csv").write_text("a,b,c\n1,2,3\n")
        with pytest.raises(StructuralError):
            load_dataset(tmp_path)


def column_text(values) -> list[str]:
    """`write_csv`'s text of one column, a line per value."""
    return write_csv(["v"], [values]).decode().split("\r\n")[1:-1]


POWERS_OF_TEN = [10.0**p for p in range(-30, 31)]
PINNED_FLOATS = (
    POWERS_OF_TEN
    + [np.nextafter(p, 0.0) for p in POWERS_OF_TEN]
    + [np.nextafter(p, np.inf) for p in POWERS_OF_TEN]
    + [
        np.nextafter(1e-4, 0.0),  # the largest double below 1e-4: still e-notation
        np.nextafter(1e17, 0.0),  # the largest double below 1e17: still fixed notation
        2.0**-25,  # an exact tie at the 17th digit: rounds to even
        5e-324,
        1.7976931348623157e308,
        # the edges of the values formatted by integer arithmetic
        2.0**-36,
        np.nextafter(2.0**-36, 0.0),
        np.nextafter(1e15, 0.0),
        1e15,
        0.1,  # "0.10000000000000001", not repr's "0.1"
        100.0,  # trailing zeros and the point both go
        123456.5,
    ]
)


class TestCsvNumbers:
    """`write_csv` writes `'%.17g' % v` for every float64 and `'%d' % v` for
    every integer, byte for byte."""

    @given(
        st.lists(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, values):
        column = np.array(values, dtype=np.float64)
        assert column_text(column) == ["%.17g" % v for v in column.tolist()]

    @given(
        st.lists(st.floats(min_value=1e-12, max_value=1e16), min_size=1, max_size=60),
        st.lists(st.booleans(), min_size=60, max_size=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_floats_near_the_integer_arithmetic_domain(self, values, negate):
        # Magnitudes a little past [2**-36, 1e15) on both sides, either sign.
        column = np.array(values, dtype=np.float64) * np.where(negate[: len(values)], -1.0, 1.0)
        assert column_text(column) == ["%.17g" % v for v in column.tolist()]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_pinned_floats(self, sign):
        column = sign * np.array(PINNED_FLOATS, dtype=np.float64)
        assert column_text(column) == ["%.17g" % v for v in column.tolist()]

    def test_zeros_inf_and_nan(self):
        column = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5])
        assert column_text(column) == ["0", "-0", "inf", "-inf", "nan", "1.5", "-2.5"]

    def test_a_tie_rounds_to_even(self):
        # 2**-25 = 2.98023223876953125e-08: the 18th digit is a 5 and nothing follows it.
        assert column_text(np.array([2.0**-25, 3 * 2.0**-25])) == [
            "2.9802322387695312e-08",
            "8.9406967163085938e-08",
        ]

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(0).integers(0, 2**63, 20000, dtype=np.int64)
        column = np.concatenate([bits.view(np.float64), -bits.view(np.float64)])
        assert column_text(column) == ["%.17g" % v for v in column.tolist()]

    def test_log_uniform_magnitudes(self):
        rng = np.random.default_rng(1)
        column = 10.0 ** rng.uniform(-13, 17, 20000) * rng.choice([-1.0, 1.0], 20000)
        assert column_text(column) == ["%.17g" % v for v in column.tolist()]

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_any_int64(self, values):
        column = np.array(values, dtype=np.int64)
        assert column_text(column) == ["%d" % v for v in values]

    @given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_any_int32(self, values):
        column = np.array(values, dtype=np.int32)
        assert column_text(column) == ["%d" % v for v in values]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.int8, np.uint8, np.uint64])
    def test_integer_extremes(self, dtype):
        info = np.iinfo(dtype)
        values = [info.min, info.min + 1, -1 if info.min else 1, 0, 9, 10, info.max]
        column = np.array(values, dtype=dtype)
        assert column_text(column) == ["%d" % v for v in column.tolist()]
