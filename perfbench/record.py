"""Record the benchmark's run-to-run spread; records, never gates.

    python3 perfbench/record.py [--out perfbench/results/baseline.json]

Runs `run.py --trace 0` for every workload at each of SEEDS, then does the
same again: two sets of the same code and inputs, as a check of the bounds
does. For each set, workload and end-to-end metric it records the ten values,
their median and their spread (interquartile range over median) as run.py
reports them; for the command metrics, which run.py reports in reference
seconds, also in raw wall seconds (the wall-*.json file run.py leaves in
.perfbench/). It also records how far the second set's median lies from the
first's, next to the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from sweep import hardware

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(301, 311))
SETS = ("first", "second")
RUN_TIMEOUT_S = 300


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def one_run(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The result line of one run, and its metrics in raw wall seconds."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=RUN_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    walls = ROOT / ".perfbench" / f"wall-{workload}-seed{seed}.json"
    return result, json.loads(walls.read_text(encoding="utf-8"))


def record_set(workload: str, seconds: int) -> dict:
    results, walls = [], []
    for seed in SEEDS:
        result, wall = one_run(workload, seed, seconds)
        results.append(result)
        walls.append(wall)
        print(f"{workload} seed {seed}: failed {result['failed']}/{result['attempted']}",
              file=sys.stderr, flush=True)
    metrics = {}
    for name, first in results[0]["metrics"].items():
        metrics[name] = {"unit": first["unit"],
                         "reported": summary([r["metrics"][name]["value"] for r in results])}
        if name in walls[0]:
            metrics[name]["wall"] = summary([w[name] for w in walls])
    return {"failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = {s: {w: record_set(w, seconds) for w in workloads.WORKLOADS} for s in SETS}
    agreement = {}
    for w in workloads.WORKLOADS:
        agreement[w] = {}
        for name, bound in bounds.items():
            first, second = (sets[s][w]["metrics"][name]["reported"] for s in SETS)
            agreement[w][name] = {
                "bound": bound,
                "spreads": [first["spread"], second["spread"]],
                "median_change": second["median"] / first["median"] - 1}
    doc = {"what": "end-to-end metrics of perfbench/run.py --trace 0, two sets of runs at "
                   "the same seeds; each metric as reported, and each command metric also in "
                   "raw wall seconds",
           "seeds": list(SEEDS), "run_seconds": seconds, "hardware": hardware(),
           "agreement": agreement, "sets": sets}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for w, metrics in agreement.items():
        for name, a in metrics.items():
            print(f"{w:10s} {name:12s} spreads {a['spreads'][0]:.3f} {a['spreads'][1]:.3f} "
                  f"median change {a['median_change']:+.3f} (bound {a['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
