"""Deterministic named randomness streams.

One master seed fans out into independent substreams keyed by name, so that
toggling a feature (say MixUp) never shifts the draws consumed by an
unrelated part of the run. Stream identity is derived from a SHA-256 of the
name path, which keeps the mapping stable across processes and platforms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def _seed_sequence(master_seed: int, names: tuple[str, ...]) -> np.random.SeedSequence:
    digest = hashlib.sha256("/".join(names).encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    return np.random.SeedSequence([int(master_seed)] + words)


def stream(master_seed: int, *names: str) -> np.random.Generator:
    """Generator for the substream identified by the given name path."""
    return np.random.default_rng(_seed_sequence(master_seed, names))


def derive_seed(master_seed: int, *names: str) -> int:
    """Plain integer seed for APIs that want one; recorded in manifests."""
    return int(_seed_sequence(master_seed, names).generate_state(1)[0])


# The two networks, in the order every per-network tuple follows.
NET_NAMES = ("net1", "net2")


@dataclass
class RngStreams:
    """The named streams one experiment run consumes.

    `init`, `shuffle`, `mixup`, and `wrong_branch` carry one child stream per
    network, index-aligned with `NET_NAMES`, so that ablations touching one
    network leave the other network's draws (and every sibling stream)
    untouched.
    """

    init: tuple[np.random.Generator, ...]
    shuffle: tuple[np.random.Generator, ...]
    mixup: tuple[np.random.Generator, ...]
    wrong_branch: tuple[np.random.Generator, ...]

    @classmethod
    def from_master(cls, master_seed: int) -> "RngStreams":
        return cls(
            init=tuple(stream(master_seed, f"init-{name}") for name in NET_NAMES),
            shuffle=tuple(stream(master_seed, "shuffle", name) for name in NET_NAMES),
            mixup=tuple(stream(master_seed, "mixup", name) for name in NET_NAMES),
            wrong_branch=tuple(stream(master_seed, "wrong-branch", name) for name in NET_NAMES),
        )
