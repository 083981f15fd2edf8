"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep property tests fast and deterministic in CI while still exploring a
# meaningful space; the 'thorough' profile is available via
# HYPOTHESIS_PROFILE=thorough for long local runs.
settings.register_profile(
    "default",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("thorough", max_examples=300, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def rng():
    return np.random.RandomState(1234)


def own_shm_segments():
    """The process backend's shared-memory segments (``psm*`` windows,
    ``psr*`` result blobs) that worlds of this process created and that
    still exist: their names carry its world uid prefix, so a concurrent
    process's worlds do not show."""
    uid = f"{os.getpid():x}x"
    return {
        name for name in os.listdir("/dev/shm")
        if name.startswith(("psm" + uid, "psr" + uid))
    }


def make_rank_dataset(rank: int, chunk_size: int = 64, n_unique: int = 5):
    """A small per-rank dataset mixing all redundancy classes (used by many
    dump/restore tests): globally shared, group shared, locally duplicated,
    zero pages and rank-unique chunks."""
    from repro.core.chunking import Dataset

    shared = b"G" * (chunk_size * 4)
    group = bytes([rank % 2 + 1]) * (chunk_size * 3)
    zeros = b"\x00" * (chunk_size * 2)
    local_dup = (bytes([200 + rank % 40]) * chunk_size) * 3
    unique = np.random.RandomState(1000 + rank).bytes(chunk_size * n_unique)
    return Dataset([shared, group, zeros, local_dup, unique])


@pytest.fixture
def rank_dataset_factory():
    return make_rank_dataset
