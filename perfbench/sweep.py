"""Scaling sweep over W_k, k = 1..5; records, never gates.

    python3 perfbench/sweep.py [--out perfbench/results/sweep.json]

For each k it reports states, transitions and the time of each layer on W_k:
build_lts, state labels, check_well_behaved, type_session of the Stop-first
session, explore of the Stop-first and of the looping session. Each
measurement runs in a fresh process. Typing and looping explore grow fastest,
so they run under a time limit of LIMIT_S: a run that passes it is killed and
reported as over the limit, and larger k are not tried.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KMAX = 5
LIMIT_S = 20.0


def _session(k: int, looping: bool):
    from synmpst.parser import parse_file
    pf = parse_file(workloads.workers_file(k, "", looping, 1))
    return pf.globals["G"], pf.session("S")


def _timed(fn):
    started = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - started


def child(part: str, k: int) -> dict:
    from synmpst.lts import build_lts
    from synmpst.mlts import check_well_behaved
    from synmpst.runtime import explore
    from synmpst.typecheck import type_session
    g, stop_first = _session(k, False)
    lts, build_s = _timed(lambda: build_lts(g))
    m, labels_s = _timed(lts.to_mlts)
    if part == "layers":
        violations, wb_s = _timed(lambda: check_well_behaved(m))
        report, explore_s = _timed(lambda: explore(m, stop_first, 200))
        return {"states": len(m.labels), "transitions": len(m.transitions),
                "build_lts_s": build_s, "labels_s": labels_s, "wb_s": wb_s,
                "well_behaved": not violations, "explore_stop_s": explore_s,
                "explore_stop_configs": report.configs_visited}
    if part == "typing":
        result, typing_s = _timed(lambda: type_session(m, stop_first))
        nodes = sum(sum(1 for _ in d.iter_nodes()) for d in result.values()) \
            if isinstance(result, dict) else None
        return {"type_session_s": typing_s, "well_typed": isinstance(result, dict),
                "derivation_nodes": nodes}
    _, looping = _session(k, True)
    report, explore_s = _timed(lambda: explore(m, looping, 200))
    return {"explore_loop_s": explore_s, "explore_loop_configs": report.configs_visited}


def _run_child(part: str, k: int, limit: float = LIMIT_S) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        done = subprocess.run([sys.executable, __file__, "--child", part, "--k", str(k)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=limit, check=True)
    except subprocess.TimeoutExpired:
        return {f"{part}_over_limit_s": limit}
    return json.loads(done.stdout)


def hardware() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cpus": os.cpu_count(), "python": platform.python_version()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).parent / "results" / "sweep.json")
    parser.add_argument("--child", choices=("layers", "typing", "explore_loop"))
    parser.add_argument("--k", type=int)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.k)))
        return 0

    rows = []
    over = set()
    for k in range(1, KMAX + 1):
        row = {"k": k}
        row.update(_run_child("layers", k, 10 * LIMIT_S))
        for part in ("typing", "explore_loop"):
            if part in over:
                row[f"{part}_not_run"] = f"over the limit at k={k - 1}"
                continue
            result = _run_child(part, k)
            if f"{part}_over_limit_s" in result:
                over.add(part)
            row.update(result)
        rows.append(row)
        print(json.dumps(row), flush=True)
    doc = {"what": "W_k scaling sweep, one fresh process per measurement",
           "limit_s": LIMIT_S, "hardware": hardware(), "rows": rows}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
