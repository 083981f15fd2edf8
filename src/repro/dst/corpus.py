"""Seed-corpus management for the CI fuzz job.

The checked-in corpus (``tests/dst/corpus/*.json``) is a set of generated
scenarios frozen as JSON, chosen to cover the feature matrix (degraded
dumps with mid-dump and between-dump crashes, repair, parity redundancy, compression, the repeat mode, the
pipelined dump with fast (non-cryptographic) fingerprints, sharded chunk
stores, multi-tenant service scenarios with per-tenant GC, bursty
arrival with idle ticks — including at least one seed whose queue-wait
SLO fires, keeping the burn-rate engine's alert path replayed in CI —
cross-backend differential runs, and checkpoint-chain scenarios: delta dumps over an epoch-evolving workload,
prune/compact maintenance and chain crashes — including at least one
long chain reaching depth >= 8 and one compacting chain, both replayed
differentially on the thread and process backends; two multi-tenant
chains, one sharing content and pruning a pinned base (330), one bursty
with a mid-delta crash (851); and two bugs the 0-1199 window found, an
F-capped view (779) and a degraded full that loses a rank (1090)).  CI
replays the corpus on every PR under a small time budget; the scheduled
sweep explores fresh random seeds and falls back to the corpus format when
it finds a failure.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Tuple

from repro.dst.generator import generate_scenario
from repro.dst.scenario import Scenario, load_scenario, save_scenario

#: seeds frozen into the checked-in corpus; regenerate the JSON with
#: ``write_corpus`` when the generator changes (the files are the source
#: of truth for CI — a drifting generator does not silently change them)
CORPUS_SEEDS = (
    1, 3, 7, 11, 21, 25, 33, 45, 48, 54, 68, 85, 330, 722, 779, 851, 1090,
)


def default_corpus_dir() -> str:
    """The in-repo corpus directory (tests/dst/corpus)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, "tests", "dst", "corpus")


def corpus_paths(directory: str) -> List[str]:
    """Sorted scenario JSON paths under ``directory``."""
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


def iter_corpus(directory: str) -> Iterator[Tuple[str, Scenario]]:
    """Yield ``(path, scenario)`` for every corpus file, sorted by name."""
    for path in corpus_paths(directory):
        yield path, load_scenario(path)


def write_corpus(directory: str, seeds=CORPUS_SEEDS) -> List[str]:
    """(Re)generate the corpus files for ``seeds``; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for seed in seeds:
        scenario = generate_scenario(seed)
        path = os.path.join(directory, f"seed-{seed:04d}.json")
        save_scenario(path, scenario)
        written.append(path)
    return written
