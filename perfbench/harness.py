"""Run CLI commands in-process, capture what a user would see, and time them.

Run as a script, it is the peak-memory probe: a fresh process that imports
`synmpst.cli`, runs every command of one manifest and nothing else, and prints
its peak resident set size with the exit-code failures it saw.
"""
from __future__ import annotations

import bisect
import contextlib
import gc
import io
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional


@dataclass
class Outcome:
    code: Optional[int]      # None when the command raised
    stdout: str
    stderr: str
    started: float
    ended: float
    error: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.ended - self.started


def run_command(main: Callable, argv: list[str]) -> Outcome:
    """Call `main(argv)` with stdout and stderr captured; time the call only."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # noqa: BLE001 - a traceback is a failed command, not a crash
            code, error = None, f"{type(e).__name__}: {e}"
        ended = time.perf_counter()
    return Outcome(code, out.getvalue(), err.getvalue(), started, ended, error)


PROBE_ITERATIONS = 20_000
PROBE_REFERENCE_S = 0.025
PROBE_EVERY_S = 0.25


def probe_seconds() -> float:
    """Wall time of a fixed piece of interpreter work shaped like the checker's:
    tuples, frozensets and dictionary updates."""
    started = time.perf_counter()
    seen: dict = {}
    for i in range(PROBE_ITERATIONS):
        key = (i % 61, frozenset((i % 5, i % 7)), f"s{i % 13}")
        seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - started


class Speed:
    """The interpreter's speed over time, sampled with `probe_seconds`.

    Other tenants of a shared host slow every process down by a factor that
    drifts over seconds and minutes, by 30 % and more. The same factor slows
    the probe. So a command's wall time, divided by the mean of the probes
    just before and after it and multiplied by PROBE_REFERENCE_S, is steady:
    it is the time the command takes on a machine where the probe takes
    PROBE_REFERENCE_S. Probes run between commands, at most every
    PROBE_EVERY_S, right after a collection, so they never pay for what a
    command left behind and never run inside a timed call.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        gc.collect()
        took = probe_seconds()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def sample_if_due(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S:
            self.sample()

    def reference_seconds(self, started: float, ended: float) -> float:
        """The wall time from `started` to `ended`, in reference seconds."""
        before = bisect.bisect_right(self.at, started) - 1
        after = bisect.bisect_left(self.at, ended)
        around = [self.took[i] for i in (before, after) if 0 <= i < len(self.took)]
        return (ended - started) * PROBE_REFERENCE_S * len(around) / sum(around)


def expected_code(kind: str, expect: dict) -> int:
    """The exit code the CLI contract gives for the expected verdict."""
    if kind == "check":
        return 0 if expect["verdict"] == "well-typed" else 1
    if kind in ("wb", "wb_mlts"):
        return 0 if expect["well_behaved"] else 1
    if kind == "explore":
        return 0 if expect["sound"] else 1
    return 0


def _probe(manifest: str) -> None:
    import resource

    from workloads import read_manifest

    from synmpst.cli import main
    commands = read_manifest(Path(manifest))
    failed = 0
    for c in commands:
        if run_command(main, c.argv).code != expected_code(c.kind, c.expect):
            failed += 1
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"peak_rss_kb": peak_kb, "attempted": len(commands), "failed": failed}))


if __name__ == "__main__":
    _probe(sys.argv[1])
