"""One command for every workload: ``python3 bench/run.py``.

Driver contract::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints every metric by name with its
unit, then one JSON object as the last line of standard output.  With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off; with ``--trace 1`` they are the per-layer ones of a separate traced run.
A per-layer metric whose layer is not on the workload's path prints as
``n/a`` and is left out of the ``--out`` document; only the driver's last
line, which must carry every declared metric as a number, has it as 0.

``--workload all`` runs each workload in a fresh subprocess (untraced, and
traced too with ``--trace 1``) and ``--out`` collects the results in one
document that ``bench/compare.py`` reads.  ``--smoke`` shrinks every
workload for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: set-ups per run (their median is ``setup_s``); a smoke run does one
SETUP_REPS = 3
SMOKE_SECONDS = 0.15


def declared() -> dict:
    """The benchmark's declaration: workloads, metric names and units."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set up, measure and check one workload; the contract's result object."""
    from bench.harness import Run
    from bench.workloads import WORKLOADS

    spec = declared()
    run = Run(seed, seconds, trace, smoke)
    setups = []
    workload = None
    for _ in range(1 if smoke else SETUP_REPS):
        workload = None  # free the previous fixtures before building new ones
        run.sample_host()
        start = time.perf_counter()
        workload = WORKLOADS[name](run)
        workload.setup()
        setups.append(time.perf_counter() - start)
        run.sample_host()
    workload.measure()

    if trace:
        measured = workload.per_layer()
        wanted = spec["per_layer"]
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"{name}.trace.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "spans": run.spans.as_doc()}, fh)
    else:
        measured = workload.end_to_end()
        # The gated timings are stated at the host's own best speed over this
        # run; the raw medians are per-layer ``e2e.<op>_median_s``.
        slowdown = run.host_slowdown()
        for rate in ("dump_MBps", "restore_MBps", "repair_MBps"):
            measured[rate] *= slowdown
        measured["setup_s"] = statistics.median(setups) / slowdown
        wanted = spec["end_to_end"]

    undeclared = sorted(set(measured) - {m["name"] for m in wanted})
    run.check(not undeclared, f"undeclared metrics emitted: {undeclared}")
    # Only what the workload produced; a layer off its path has no entry.
    metrics = {
        m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
        for m in wanted if m["name"] in measured
    }
    if not trace:
        missing = [m["name"] for m in wanted if not metrics.get(m["name"], {}).get("value", 0) > 0]
        run.check(not missing, f"end-to-end metrics without a value: {missing}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in a fresh subprocess; one document for ``--out``."""
    doc = {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for spec in declared()["workloads"]:
        entry = {}
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", spec["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ] + (["--smoke"] if args.smoke else [])
            part = ROOT / "bench" / "out" / f"{spec['name']}.{trace}.json"
            part.parent.mkdir(exist_ok=True)
            proc = subprocess.run(
                cmd + ["--out", str(part)], cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600
            )
            if proc.returncode != 0:
                raise SystemExit(f"{spec['name']} exited with {proc.returncode}")
            result = json.loads(part.read_text())
            if trace:
                entry["layers"] = result["metrics"]
                entry["layers_failed"] = result["failed"]
            else:
                entry.update(result)
        doc["workloads"][spec["name"]] = entry
        print_metrics(spec["name"], entry["metrics"], "end_to_end")
        if "layers" in entry:
            print_metrics(spec["name"], entry["layers"], "per_layer")
    return doc


def print_metrics(workload: str, metrics: dict, kind: str) -> None:
    """Every declared metric of ``kind``; ``n/a`` where the workload has none."""
    for m in declared()[kind]:
        have = metrics.get(m["name"])
        value = f"{have['value']:16.6f}" if have else f"{'n/a':>16s}"
        print(f"{workload:22s} {m['name']:42s} {value} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print("bench: the program under test (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    spec = declared()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(spec["run_seconds"])
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        doc = run_all(args)
        failed = sum(w["failed"] + w.get("layers_failed", 0) for w in doc["workloads"].values())
        last = {"correct": failed == 0, "workloads": len(doc["workloads"]), "failed": failed}
    elif args.workload in names:
        doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        kind = "per_layer" if args.trace else "end_to_end"
        print_metrics(args.workload, doc["metrics"], kind)
        # The driver's line carries every declared metric as a number.
        filled = {m["name"]: {"value": 0.0, "unit": m["unit"]} for m in spec[kind]}
        last = {**doc, "metrics": {**filled, **doc["metrics"]}}
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {names + ['all']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
