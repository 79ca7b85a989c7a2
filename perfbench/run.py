"""synmpst benchmark: time to verdict of check, lts, wb and explore.

    python3 perfbench/run.py --workload {pipelines,statespace,random} \
        --seed N --seconds S --trace {0,1}

Run from a checkout that has `src/` and `corpus/` next to this directory. One
process, one thread, a closed loop: it calls `synmpst.cli.main(argv)` for one
command after the other and checks each verdict against the known answer of
its input (see workloads.py). Inputs are generated per round, with every role
renamed, so no input reaches the process twice. Rounds repeat until S seconds
of commands have been timed (at least MIN_ROUNDS). Each command's time is
normalised by a speed probe (harness.Speed), and a command metric sums, over
the commands of that kind, each command's median round. The same sums in raw
wall seconds go to .perfbench/wall-<workload>-seed<N>.json, so that the
normalisation can be checked against them (record.py).

With --trace 0 it prints the end-to-end metrics: the command metrics, the
median cold-start time (setup_s) and the peak memory of a process that only
runs one round. With --trace 1 it alternates untraced and traced rounds and
prints the per-layer metrics of tracer.py and trace.time_ratio, the traced
over the untraced time. The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import harness
import oracle
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = ROOT / ".perfbench"

MIN_ROUNDS = 5
WALL_CAP_S = 110           # stop starting rounds after this much wall time
LAUNCHES_PER_ROUND = 3
CHILD_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "check_s": "s",
    "lts_s": "s",
    "wb_s": "s",
    "wb_mlts_s": "s",
    "explore_s": "s",
    "peak_rss_mb": "MB",
}


class Run:
    """Attempted and failed commands of one benchmark run."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.wall = 0.0
        self.samples: list[str] = []

    def round(self, commands, main=None, after=None):
        """Run one round; each command's time in reference and in wall seconds,
        and its record."""
        main = main or self.main
        speed = harness.Speed()
        outcomes = []
        records = []
        for c in commands:
            speed.sample_if_due()
            gc.collect()
            outcome = harness.run_command(main, c.argv)
            outcomes.append(outcome)
            if after is not None:
                after()
            record, problem = oracle.check(c.kind, c.expect, outcome)
            records.append(record)
            self.attempted += 1
            if problem:
                self.failed += 1
                if len(self.samples) < 10:
                    self.samples.append(f"{' '.join(c.argv)}: {problem} "
                                        f"(answer from {c.source}: {c.why})")
        speed.sample()
        walls = [o.seconds for o in outcomes]
        self.wall += sum(walls)
        times = [speed.reference_seconds(o.started, o.ended) for o in outcomes]
        return times, walls, records


def kind_sums(kinds: list[str], times: list[float]) -> dict[str, float]:
    sums: dict[str, float] = defaultdict(float)
    for kind, t in zip(kinds, times):
        sums[f"{kind}_s"] += t
    return sums


def median_sums(kinds: list[str], rounds: list[list[float]]) -> dict[str, float]:
    """Per kind of command, the sum over its commands of each one's median round.

    Every round runs the same commands in the same order on renamed copies,
    so position i is the same input in every round.
    """
    return kind_sums(kinds, [statistics.median(times) for times in zip(*rounds)])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _make_base(workload: str, seed: int, work: Path) -> dict:
    out = work / "base.json"
    subprocess.run([sys.executable, str(Path(__file__).with_name("workloads.py")),
                    "--workload", workload, "--seed", str(seed), "--corpus", str(CORPUS),
                    "--out", str(out)], env=_child_env(), cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def _launch_seconds() -> tuple[float, float]:
    """Reference and wall seconds of a fresh interpreter importing synmpst.cli."""
    speed = harness.Speed()
    speed.sample()
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import synmpst.cli"], env=_child_env(),
                   cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)
    ended = time.perf_counter()
    speed.sample()
    return speed.reference_seconds(started, ended), ended - started


def _peak_rss(base: dict, work: Path, run: Run) -> float:
    """Peak RSS in MB of a fresh process that runs one round and nothing else."""
    commands = workloads.make_round(base, 0, work / "rss")
    manifest = work / "rss" / "manifest.json"
    workloads.write_manifest(commands, manifest)
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("harness.py")),
                           str(manifest)], env=_child_env(), cwd=ROOT, check=True,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    if result["failed"] and len(run.samples) < 10:
        run.samples.append(f"memory probe: {result['failed']} unexpected exit code(s)")
    shutil.rmtree(work / "rss", ignore_errors=True)
    return result["peak_rss_kb"] / 1024


def _rounds(base: dict, work: Path, run: Run, seconds: float, body, min_rounds: int) -> int:
    """Call body(round_no, commands) until `seconds` of commands are timed."""
    started = time.perf_counter()
    n = 0
    while n < min_rounds or (run.wall < seconds and time.perf_counter() - started < WALL_CAP_S):
        n += 1
        folder = work / f"r{n}"
        body(n, workloads.make_round(base, n, folder))
        shutil.rmtree(folder, ignore_errors=True)
    return n


def measure(base: dict, work: Path, run: Run, seconds: float,
            walls_path: Path) -> dict[str, float]:
    kinds: list[str] = []
    rounds: list[list[float]] = []
    walls: list[list[float]] = []
    launches: list[tuple[float, float]] = []

    def body(n, commands) -> None:
        kinds[:] = [c.kind for c in commands]
        times, wall, _ = run.round(commands)
        rounds.append(times)
        walls.append(wall)
        # Cold starts are spread over the first rounds, so they meet the same
        # host conditions as the rounds, and every workload makes as many.
        if n <= MIN_ROUNDS:
            launches.extend(_launch_seconds() for _ in range(LAUNCHES_PER_ROUND))

    n = _rounds(base, work, run, seconds, body, MIN_ROUNDS)
    metrics = median_sums(kinds, rounds)
    metrics["peak_rss_mb"] = _peak_rss(base, work, run)
    metrics["setup_s"] = statistics.median(r for r, _ in launches)
    raw = median_sums(kinds, walls)
    raw["setup_s"] = statistics.median(w for _, w in launches)
    walls_path.write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")
    print(f"perfbench: {n} rounds, {run.wall:.1f} s of commands, {len(launches)} cold starts",
          file=sys.stderr)
    for name, wall in raw.items():
        print(f"perfbench: {name} = {wall:.6g} s of wall time, "
              f"{metrics[name]:.6g} reference s", file=sys.stderr)
    return metrics


def measure_traced(base: dict, work: Path, run: Run, seconds: float,
                   spans_path: Path) -> dict[str, float]:
    """Alternate untraced and traced rounds; per-layer medians and the time ratio."""
    t = tracing.Tracer()
    kinds: list[str] = []
    plain: list[list[float]] = []
    traced: list[list[float]] = []
    layers: dict[str, list[float]] = defaultdict(list)

    def body(n, commands) -> None:
        kinds[:] = [c.kind for c in commands]
        if n % 2:
            plain.append(run.round(commands)[0])
            return
        t.install()
        try:
            since = t.mark()
            traced.append(run.round(commands, main=t.command(run.main), after=t.settle)[0])
        finally:
            t.uninstall()
        for name, value in t.round_metrics(since).items():
            layers[name].append(value)

    n = _rounds(base, work, run, seconds, body, 2 * MIN_ROUNDS)
    if t.missing:
        print(f"perfbench: not traced (absent): {', '.join(t.missing)}", file=sys.stderr)
    metrics = {name: statistics.median(values) for name, values in layers.items()}
    untraced = sum(median_sums(kinds, plain).values())
    with_trace = sum(median_sums(kinds, traced).values())
    metrics["trace.time_ratio"] = with_trace / untraced
    t.write(spans_path)
    print(f"perfbench: {n} rounds, half of them traced; tracing overhead "
          f"{100 * (with_trace / untraced - 1):+.1f} %", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "synmpst" / "cli.py").is_file() or not CORPUS.is_dir():
        print(f"perfbench: no synmpst sources at {SRC} or no corpus at {CORPUS}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import synmpst.cli
    if not Path(synmpst.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported synmpst from {synmpst.cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        base = _make_base(args.workload, args.seed, work)
        # The benchmark's own objects stay out of the program's collections.
        gc.freeze()
        run = Run(synmpst.cli.main)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            metrics = measure_traced(base, work, run, args.seconds, spans)
            units = tracing.units()
        else:
            walls = OUT / f"wall-{args.workload}-seed{args.seed}.json"
            metrics = measure(base, work, run, args.seconds, walls)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for sample in run.samples:
        print(f"perfbench: FAILED {sample}", file=sys.stderr)
    print(f"perfbench: failed_share {run.failed}/{run.attempted} = "
          f"{run.failed / run.attempted:.4f}", file=sys.stderr)
    for name, unit in units.items():
        print(f"perfbench: {name} = {metrics[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
