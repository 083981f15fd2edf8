"""Smoke test of the benchmark harness (``pytest bench/tests``; not tier-1).

Runs ``bench/run.py --workload all --smoke --trace 1`` and checks the
contract the declaration in ``BENCHMARK.json`` makes.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: end-to-end metrics that are exact counts of bytes, not timings
EXACT = ("replicated_frac", "stored_frac", "recv_imbalance")
#: per-layer metrics (by prefix) whose layer runs on some workloads only;
#: every other per-layer metric must come from every workload
ONLY_ON = {
    "core.fpcache.": {"warm-delta-chain"},
    "chain.manager.": {"warm-delta-chain"},
    "svc.": {"svc-drain"},
    "simmpi.procworld.": {"proc-coll-2r"},
    "core.pipeline.": {"proc-coll-2r"},
    "storage.delta_codec.": {"proc-coll-2r"},
    "core.restore.remote_restore_s": {"fail-restore-repair"},
    "core.collective_restore.": {"fail-restore-repair"},
}
#: per-layer metrics one workload's path does not reach
NOT_ON = {
    # no global view without dedup: no HMERGE, no merge-table codec, no top-ups
    "cold-nodedup-256": ("core.hmerge.", "core.wire.merge_table_codec_s", "core.planner.topup_chunks"),
}
#: every chunk is local there (K copies on K ranks), so no request/reply codec
ALL_LOCAL = {"cold-nodedup-256", "proc-coll-2r"}


def layers_expected(workload):
    """The per-layer metric names ``workload`` must emit: no more, no fewer."""
    names = set()
    for metric in (m["name"] for m in SPEC["per_layer"]):
        only = [ws for prefix, ws in ONLY_ON.items() if metric.startswith(prefix)]
        if only and workload not in only[0]:
            continue
        if metric.startswith(NOT_ON.get(workload, ())):
            continue
        if metric == "core.wire.restore_req_reply_codec_s" and workload in ALL_LOCAL:
            continue
        names.add(metric)
    return names


def smoke(tmp_path_factory, seed):
    out = tmp_path_factory.mktemp("bench") / f"seed{seed}.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--smoke",
         "--trace", "1", "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    wall = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), wall


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return [smoke(tmp_path_factory, seed) for seed in (1, 1, 2)]


def exact_counts(doc):
    """Every metric that is a count of bytes or chunks, not a timing."""
    out = {}
    for name, entry in doc["workloads"].items():
        for metric in EXACT:
            out[name, metric] = entry["metrics"][metric]["value"]
        for metric, m in entry["layers"].items():
            if m["unit"] in ("count", "B") and not metric.startswith(("e2e.", "host.")):
                out[name, metric] = m["value"]
    return out


def test_smoke_finishes_quickly(runs):
    assert min(wall for _doc, wall in runs) < 20.0


def test_declared_metrics_and_names(runs):
    doc, _wall = runs[0]
    assert set(doc["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    emitted = set()
    for workload, entry in doc["workloads"].items():
        assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(entry["layers"]) == layers_expected(workload), workload
        emitted |= set(entry["layers"])
        for name in list(entry["metrics"]) + list(entry["layers"]):
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert all(m["value"] > 0 for m in entry["metrics"].values())
    # no declared metric that no workload produces
    assert emitted == {m["name"] for m in SPEC["per_layer"]}


def test_driver_line_has_every_declared_metric(tmp_path):
    """The driver's last line carries every declared metric as a number,
    also those the workload has no value for (0 there, n/a in the table)."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-nodedup-256", "--smoke",
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert last["metrics"]["core.hmerge.rounds"]["value"] == 0
    assert "n/a" in proc.stdout


def test_nothing_failed(runs):
    for doc, _wall in runs:
        for name, entry in doc["workloads"].items():
            assert entry["correct"] and entry["failed"] == 0, name
            assert entry["layers_failed"] == 0, name
            assert entry["attempted"] >= 1


def test_exact_counts_repeat_and_follow_the_seed(runs):
    first, again, other = (exact_counts(doc) for doc, _wall in runs)
    assert first == again
    assert first != other


def test_compare_passes_on_identical_documents(runs, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(runs[0][0]))
    proc = subprocess.run(
        [sys.executable, "bench/compare.py", str(path), str(path)],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout
    assert "REGRESSED" not in proc.stdout and "UNRESOLVED" not in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark the command must fail."""
    (tmp_path / "bench").mkdir()
    for src in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / src.name).write_text(src.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cold-coll-4k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
