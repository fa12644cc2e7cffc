import numpy as np

from dstlab.rng import RngStreams, derive_seed, stream


def test_same_name_same_stream():
    a = stream(1, "shuffle", "net1").integers(0, 1000, size=20)
    b = stream(1, "shuffle", "net1").integers(0, 1000, size=20)
    assert np.array_equal(a, b)


def test_different_names_different_streams():
    a = stream(1, "shuffle", "net1").integers(0, 1000, size=20)
    b = stream(1, "shuffle", "net2").integers(0, 1000, size=20)
    c = stream(1, "mixup", "net1").integers(0, 1000, size=20)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_different_master_seeds_differ():
    a = stream(1, "noise").integers(0, 1000, size=20)
    b = stream(2, "noise").integers(0, 1000, size=20)
    assert not np.array_equal(a, b)


def test_derive_seed_deterministic_and_name_sensitive():
    assert derive_seed(1, "noise") == derive_seed(1, "noise")
    assert derive_seed(1, "noise") != derive_seed(1, "shuffle")
    assert derive_seed(1, "noise") != derive_seed(2, "noise")


def test_derive_seed_pinned_value():
    # Frozen regression value: a change here silently relabels every
    # dataset ever generated from a master seed, so it must not move.
    assert derive_seed(1, "noise") == 1867302726


def test_from_master_builds_distinct_streams():
    streams = RngStreams.from_master(7)
    draws = [
        gen.integers(0, 2**62)
        for gen in (
            streams.init[0],
            streams.init[1],
            streams.shuffle[0],
            streams.shuffle[1],
            streams.mixup[0],
            streams.mixup[1],
            streams.wrong_branch[0],
            streams.wrong_branch[1],
        )
    ]
    assert len(set(int(d) for d in draws)) == len(draws)


def test_per_network_streams_keep_their_names():
    # Renaming a stream would change every draw a run makes from it.
    streams = RngStreams.from_master(7)
    paths = {
        "init": [("init-net1",), ("init-net2",)],
        "shuffle": [("shuffle", "net1"), ("shuffle", "net2")],
        "mixup": [("mixup", "net1"), ("mixup", "net2")],
        "wrong_branch": [("wrong-branch", "net1"), ("wrong-branch", "net2")],
    }
    for field, names in paths.items():
        for gen, path in zip(getattr(streams, field), names, strict=True):
            assert gen.integers(0, 2**62) == stream(7, *path).integers(0, 2**62)


def test_streams_are_mutually_independent():
    # Consuming one stream must not shift a sibling stream's draws.
    fresh = stream(3, "mixup", "net1").uniform(size=5)
    streams = RngStreams.from_master(3)
    streams.shuffle[0].uniform(size=1000)
    streams.wrong_branch[1].uniform(size=137)
    assert np.array_equal(streams.mixup[0].uniform(size=5), fresh)
