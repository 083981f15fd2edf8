"""Compare two result documents of ``bench/run.py --workload all --out``.

    python3 bench/compare.py A.json B.json [A2.json B2.json ...]

One row per (workload, end-to-end metric): A's value, B's value, the ratio
B ÷ A, and a verdict against the metric's bound in ``BENCHMARK.json``:

* ``PASS``       B is no worse than A by more than the bound;
* ``REGRESSED``  B is worse than A by more than the bound;
* ``UNRESOLVED`` several pairs were given and the spread between A's own
  runs (quartile distance ÷ median) is wider than the bound, so a
  difference of that size cannot be told from noise.

With several files per side, list them as pairs ``A1 B1 A2 B2 ...``; the
medians are compared.  The exact-count metrics (``replicated_frac``,
``stored_frac``, ``recv_imbalance``) repeat bit for bit on one seed, so when
every document has the same seed B must be identical to A or better,
whatever the declared bound; across seeds the declared bound applies.  Every
``failed`` count must be 0.  Exit code 1 if any row is not ``PASS``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
#: end-to-end metrics that are counts of bytes, not timings
EXACT = ("replicated_frac", "stored_frac", "recv_imbalance")


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    if len(a) >= 4 and base:
        q = statistics.quantiles(a, n=4)
        if (q[2] - q[0]) / abs(base) > bound:
            return "UNRESOLVED"
    worse = (base - new) if better == "higher" else (new - base)
    return "REGRESSED" if worse > bound * abs(base) else "PASS"


def main(argv=None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    docs = []
    for path in paths:
        with open(path) as fh:
            docs.append(json.load(fh))
    sides = docs[0::2], docs[1::2]
    same_seed = len({doc["seed"] for doc in docs}) == 1

    bad = 0
    print(f"{'workload':22s} {'metric':18s} {'A':>14s} {'B':>14s} {'B/A':>9s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            values: List[List[float]] = []
            for side in sides:
                values.append([
                    doc["workloads"][workload]["metrics"][metric["name"]]["value"]
                    for doc in side
                ])
            a, b = (statistics.median(v) for v in values)
            exact = same_seed and metric["name"] in EXACT
            bound = 0.0 if exact else metric["bound"]
            result = verdict(values[0], values[1], metric["better"], bound)
            bad += result != "PASS"
            ratio = f"{b / a:9.4f}" if a else "      n/a"
            print(
                f"{workload:22s} {metric['name']:18s} {a:14.6g} {b:14.6g} "
                f"{ratio}  {result} (B/A, A = {a:.6g} {metric['unit']}, bound {bound:g})"
            )
        failed: Dict[str, int] = {
            label: sum(
                doc["workloads"][workload]["failed"]
                + doc["workloads"][workload].get("layers_failed", 0)
                for doc in side
            )
            for label, side in zip("AB", sides)
        }
        result = "PASS" if not any(failed.values()) else "REGRESSED"
        bad += result != "PASS"
        print(
            f"{workload:22s} {'failed':18s} {failed['A']:14d} {failed['B']:14d} "
            f"{'':9s}  {result} (must be 0)"
        )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
