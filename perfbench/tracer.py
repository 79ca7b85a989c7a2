"""Per-layer tracing from outside the program.

`Tracer.install` replaces each traced public function at the name its caller
resolves (`synmpst.cli.build_lts`, `synmpst.typecheck.reach_without`, ...) by
a wrapper that records a span: name, start, end and the span that was open
when it started. A few very hot functions only count calls. Spans live in
flat arrays in memory; `write` saves them when the run ends, and `uninstall`
puts every original back. Nothing inside `src/` is changed.

A layer's self time is its spans' durations minus the time covered by their
direct child spans.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

COMMAND = "cli.command"


def _input_bytes(args, result) -> dict:
    return {"parser.input_bytes": len(args[0].encode("utf-8"))}


def _lts_size(args, result) -> dict:
    states = getattr(result, "terms", None) or getattr(result, "labels", ())
    return {"lts.states": len(states), "lts.transitions": len(result.transitions)}


def _states_checked(args, result) -> dict:
    return {"mlts.states_checked": len(args[0].labels)}


def _derivations(args, result) -> dict:
    counts = Counter()
    if isinstance(result, dict):
        for derivation in result.values():
            for node in derivation.iter_nodes():
                counts["typecheck.derivation_nodes"] += 1
                if node.rule == "⊢-Skip":
                    counts["typecheck.skip_nodes"] += 1
                    counts["typecheck.obligations"] += len(node.obligations)
    return counts


def _configs(args, result) -> dict:
    return {"runtime.configs_visited": result.configs_visited}


# (module, attribute, span name, counts taken from arguments and result)
SPANS = (
    ("synmpst.cli", "parse_file", "parser.parse_file", _input_bytes),
    ("synmpst.cli", "parse_mlts", "parser.parse_mlts", _input_bytes),
    ("synmpst.cli", "build_lts", "lts.build_lts", _lts_size),
    ("synmpst.lts", "GlobalLts.to_mlts", "lts.labels", None),
    ("synmpst.cli", "lts_to_json", "lts.to_json", None),
    ("synmpst.typecheck", "reach_without", "lts.reach_without", None),
    ("synmpst.typecheck", "reach_strong_without", "lts.reach_strong_without", None),
    ("synmpst.typecheck", "step_with", "lts.step_with", None),
    ("synmpst.cli", "check_well_behaved", "mlts.check_well_behaved", _states_checked),
    ("synmpst.cli", "type_session", "typecheck.type_session", _derivations),
    ("synmpst.cli", "explore", "runtime.explore", _configs),
)

# (module, attribute, counter): called too often for a span each
CALL_COUNTS = (
    ("synmpst.mlts", "Mlts.transitions_from", "mlts.transitions_from_calls"),
    ("synmpst.runtime", "session_step", "runtime.session_step_calls"),
)

# Per-layer metrics: name -> (unit, how it is derived from one round's spans
# and counts). "total:X" sums the durations of span X, "self:X" its self
# time, "calls:X" its number of spans, "count:X" a counter.
METRICS = {
    "parser.parse_file_s": ("s", "total:parser.parse_file"),
    "parser.parse_mlts_s": ("s", "total:parser.parse_mlts"),
    "parser.input_bytes": ("bytes", "count:parser.input_bytes"),
    "lts.build_lts_s": ("s", "total:lts.build_lts"),
    "lts.states": ("count", "count:lts.states"),
    "lts.transitions": ("count", "count:lts.transitions"),
    "lts.labels_s": ("s", "total:lts.labels"),
    "lts.to_json_s": ("s", "self:lts.to_json"),
    "lts.reach_without_calls": ("count", "calls:lts.reach_without"),
    "lts.reach_without_s": ("s", "total:lts.reach_without"),
    "lts.reach_strong_without_calls": ("count", "calls:lts.reach_strong_without"),
    "lts.reach_strong_without_s": ("s", "total:lts.reach_strong_without"),
    "lts.step_with_calls": ("count", "calls:lts.step_with"),
    "lts.step_with_s": ("s", "total:lts.step_with"),
    "mlts.check_well_behaved_s": ("s", "total:mlts.check_well_behaved"),
    "mlts.states_checked": ("count", "count:mlts.states_checked"),
    "mlts.transitions_from_calls": ("count", "count:mlts.transitions_from_calls"),
    "typecheck.type_session_s": ("s", "total:typecheck.type_session"),
    "typecheck.self_s": ("s", "self:typecheck.type_session"),
    "typecheck.derivation_nodes": ("count", "count:typecheck.derivation_nodes"),
    "typecheck.skip_nodes": ("count", "count:typecheck.skip_nodes"),
    "typecheck.obligations": ("count", "count:typecheck.obligations"),
    "runtime.explore_s": ("s", "total:runtime.explore"),
    "runtime.configs_visited": ("count", "count:runtime.configs_visited"),
    "runtime.session_step_calls": ("count", "count:runtime.session_step_calls"),
    "cli.self_s": ("s", f"self:{COMMAND}"),
}
DERIVED = {"runtime.configs_per_s": "1/s", "trace.time_ratio": "ratio"}


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters for one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._deferred: list[tuple[Callable, tuple, object]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _spanned(self, fn: Callable, name: str, post: Optional[Callable]) -> Callable:
        nid = self._id(name)
        stack, deferred = self._stack, self._deferred
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                deferred.append((post, args, result))
            return result
        return wrapper

    def _counted(self, fn: Callable, counter: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        self.missing.clear()
        targets = [(m, a, self._spanned, (n, post)) for m, a, n, post in SPANS]
        targets += [(m, a, self._counted, (n,)) for m, a, n in CALL_COUNTS]
        for module, attribute, make, extra in targets:
            try:
                owner, name = _resolve(module, attribute)
                original = getattr(owner, name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attribute}")
                continue
            self._saved.append((owner, name, original))
            setattr(owner, name, make(original, *extra))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def command(self, main: Callable) -> Callable:
        """`main` inside a top-level command span."""
        return self._spanned(main, COMMAND, None)

    def settle(self) -> None:
        """Take the counts of finished calls; run between commands, untimed."""
        for post, args, result in self._deferred:
            self.counts.update(post(args, result))
        self._deferred.clear()

    def mark(self) -> tuple[int, Counter]:
        return len(self.start), Counter(self.counts)

    def round_metrics(self, since: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded after `since`."""
        first, counts_before = since
        last = len(self.start)
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        children = [0.0] * (last - first)
        for idx in range(last - 1, first - 1, -1):
            duration = self.end[idx] - self.start[idx]
            name = self.names[self.name_id[idx]]
            total[name] += duration
            own[name] += duration - children[idx - first]
            calls[name] += 1
            p = self.parent[idx]
            if p >= first:
                children[p - first] += duration
        counts = self.counts - counts_before
        sources = {"total": total, "self": own, "calls": calls, "count": counts}
        out: dict[str, float] = {}
        for metric, (_, rule) in METRICS.items():
            how, key = rule.split(":", 1)
            out[metric] = sources[how][key]
        seconds = out["runtime.explore_s"]
        out["runtime.configs_per_s"] = out["runtime.configs_visited"] / seconds if seconds else 0.0
        return out

    def write(self, path: Path) -> None:
        """All spans as CSV: index, name, start, end, parent index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("span,name,start,end,parent\n")
            for idx in range(len(self.start)):
                f.write(f"{idx},{self.names[self.name_id[idx]]},{self.start[idx]!r},"
                        f"{self.end[idx]!r},{self.parent[idx]}\n")
        print(f"perfbench: {len(self.start)} spans written to {path}", file=sys.stderr)


def units() -> dict[str, str]:
    out = {m: unit for m, (unit, _) in METRICS.items()}
    out.update(DERIVED)
    return out
