"""Command-line workbench: check, lts, wb, simulate, explore, bench.

Exit codes are a stable contract: 0 on success, 1 on a semantic failure
(type error, well-behavedness violation, unsound exploration, failed bench
row), 2 on usage, I/O, parse or resource errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

from .lts import (DEFAULT_STATE_CAP, CapExceededError, build_lts, lts_to_dot,
                  lts_to_json, par_operands)
from .mlts import Mlts, Violations, check_well_behaved
from .parser import ProtocolFile, parse_file, parse_mlts
from .runtime import explore, render_message_sequence, run, trace_to_json_lines
from .terms import GlobalType, Session
from .typecheck import type_session

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_USAGE = 2

_EXPECT_RE = re.compile(r"//\s*expect:\s*(well-typed|ill-typed)")
_CLASSIFIER_RE = re.compile(r"//\s*classifier:\s*(\S+)")


class CliFailure(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _state_cap(args) -> int:
    if args.state_cap is not None:
        return args.state_cap
    env = os.environ.get("SYNMPST_STATE_CAP")
    if env:
        try:
            cap = int(env)
        except ValueError:
            raise CliFailure(f"SYNMPST_STATE_CAP is not an integer: {env!r}")
        if cap < 1:
            raise CliFailure(f"SYNMPST_STATE_CAP must be at least 1, got {cap}")
        return cap
    return DEFAULT_STATE_CAP


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise CliFailure(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise CliFailure(f"cannot read {path}: not UTF-8 text (byte {e.start})")


def _parse_protocol(path: str, text: str, *, allow_unresolved: bool = False) -> ProtocolFile:
    result = parse_file(text, path, allow_unresolved_globals=allow_unresolved)
    if isinstance(result, list):
        raise CliFailure("\n".join(str(d) for d in result))
    if result.diagnostics:
        raise CliFailure("\n".join(str(d) for d in result.diagnostics))
    return result


def _parse_mlts_file(path: str) -> Mlts:
    result = parse_mlts(_read(path), path)
    if isinstance(result, list):
        raise CliFailure("\n".join(str(d) for d in result))
    return result


def _lts(pf: ProtocolFile, name: str, g: GlobalType, cap: int) -> Mlts:
    """The LTS of the declared global name, or of an operand g of it, built
    within the state cap."""
    try:
        return build_lts(g, cap).to_mlts()
    except CapExceededError as e:
        raise CliFailure(f"{pf.path}: global {name}: {e}")


def _operands(pf: ProtocolFile, name: str, cap: int) -> tuple[Mlts, ...]:
    """The LTS of each operand on the par spine of the declared global name."""
    return tuple(_lts(pf, name, g, cap) for g in par_operands(pf.globals[name]))


def _load(path: str, text: str, cap: int, mlts_path: Optional[str], allow_unverified: bool
          ) -> tuple[ProtocolFile, Callable[[str], tuple[Mlts, ...]]]:
    """Parse a protocol file; return it with the function that gives a
    session's classifier as role-disjoint components.

    An --mlts file overrides every declared global; a `// classifier:`
    directive serves only the sessions whose global is not declared. An
    external MLTS must be well-behaved unless allow_unverified is set, and
    is one component. A declared global has one component per operand on
    its par spine. Each classifier is built, or gated, once per file.
    """
    directive = _CLASSIFIER_RE.search(text)
    external_path = mlts_path or (directive and str(Path(path).parent / directive.group(1)))
    external = _parse_mlts_file(external_path) if external_path else None
    pf = _parse_protocol(path, text, allow_unresolved=external is not None)

    @functools.cache
    def resolve(name: Optional[str]) -> tuple[Mlts, ...]:
        """The classifier of a declared global, or of the external MLTS for None."""
        if name is None:
            violations = [] if allow_unverified else check_well_behaved(external)
            if violations:
                raise CliFailure(
                    f"{external_path} is not well-behaved ({violations.total} violation(s)); "
                    "pass --allow-unverified to check anyway", EXIT_SEMANTIC)
            return (external,)
        return _operands(pf, name, cap)

    def classifier(session: str) -> tuple[Mlts, ...]:
        name = pf.sessions[session].global_name
        if external is not None and (mlts_path is not None or name not in pf.globals):
            name = None
        return resolve(name)

    return pf, classifier


def _check_file(path: str, text: str, cap: int, mlts_path: Optional[str],
                allow_unverified: bool
                ) -> tuple[list[dict], ProtocolFile, Callable[[str], tuple[Mlts, ...]]]:
    """Type every session of the file against its components; return the
    reports with the file and its classifiers, as _load gives them. A file
    that declares no session is an error."""
    pf, classifier = _load(path, text, cap, mlts_path, allow_unverified)
    if not pf.sessions:
        raise CliFailure(f"{path}: no sessions declared")
    reports: list[dict] = []
    for name in pf.sessions:
        outcome = type_session(classifier(name), pf.session(name))
        if isinstance(outcome, dict):
            reports.append({"session": name, "verdict": "well-typed",
                            "roles": sorted(outcome), "errors": []})
        else:
            reports.append({"session": name, "verdict": "ill-typed", "roles": [],
                            "errors": [e.to_json_obj() for e in outcome]})
    return reports, pf, classifier


def cmd_check(args) -> int:
    cap = _state_cap(args)
    out: list[dict] = []
    for path in args.files:
        reports, _, _ = _check_file(path, _read(path), cap, args.mlts, args.allow_unverified)
        out.append({"path": path, "sessions": reports})
    ok = all(r["verdict"] == "well-typed" for entry in out for r in entry["sessions"])
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for entry in out:
            for report in entry["sessions"]:
                name = f"{entry['path']}: session {report['session']}"
                if report["verdict"] == "well-typed":
                    roles = ", ".join(report["roles"])
                    print(f"{name}: {len(report['roles'])} roles well-typed ({roles})")
                else:
                    print(f"{name}: ill-typed")
                    for err in report["errors"]:
                        premise = f" (premise {err['premise']})" if err["premise"] else ""
                        where = f" [{err['span']}]" if err["span"] else ""
                        print(f"  {err['kind']}{premise}: {err['message']}{where}")
    return EXIT_OK if ok else EXIT_SEMANTIC


def cmd_lts(args) -> int:
    cap = _state_cap(args)
    pf = _parse_protocol(args.file, _read(args.file))
    names = [args.global_name] if args.global_name else list(pf.globals)
    if not names:
        raise CliFailure(f"{args.file}: no global types declared")
    chunks = []
    for name in names:
        if name not in pf.globals:
            raise CliFailure(f"{args.file}: unknown global {name}")
        m = _lts(pf, name, pf.globals[name], cap)
        if args.format == "dot":
            chunks.append(lts_to_dot(m))
        elif args.format == "json":
            chunks.append(lts_to_json(m) + "\n")
        else:
            lines = [f"global {name}: {len(m.labels)} states, {len(m.transitions)} transitions"]
            for s in m.states:
                marker = "*" if s == m.initial else " "
                lines.append(f" {marker} s{s} = {m.labels[s]}")
                for a, t in m.transitions_from(s):
                    lines.append(f"      --{a}--> s{t}")
            chunks.append("\n".join(lines) + "\n")
    print("".join(chunks), end="")
    return EXIT_OK


def cmd_wb(args) -> int:
    cap = _state_cap(args)
    # Per subject, the violations of each LTS checked, with the index of its
    # operand when the subject's global has two or more.
    results: list[tuple[str, list[tuple[Optional[int], Violations]]]] = []
    if args.file.endswith(".json"):
        results.append((args.file, [(None, check_well_behaved(_parse_mlts_file(args.file)))]))
    else:
        pf = _parse_protocol(args.file, _read(args.file))
        if not pf.globals:
            raise CliFailure(f"{args.file}: no global types declared")
        # The product is well-behaved iff every operand is (see type_session).
        # With two or more operands, each violation names the operand whose
        # LTS its states are of, by its index in spine order.
        for name in pf.globals:
            operands = _operands(pf, name, cap)
            results.append((f"{args.file}:{name}", [
                (i if len(operands) > 1 else None, check_well_behaved(m))
                for i, m in enumerate(operands)]))
    well_behaved = [not any(violations for _, violations in checked) for _, checked in results]
    if args.format == "json":
        doc = [{"subject": subject,
                "well_behaved": ok,
                "violations": [v.to_json_obj() if i is None else {**v.to_json_obj(), "operand": i}
                               for i, violations in checked for v in violations]}
               for (subject, checked), ok in zip(results, well_behaved)]
        print(json.dumps(doc, indent=2))
    else:
        for (subject, checked), ok in zip(results, well_behaved):
            print(f"{subject}: well-behaved: {'yes' if ok else 'no'}")
            for i, violations in checked:
                where = "" if i is None else f" (operand {i})"
                for v in violations:
                    print(f"  {v}{where}")
                for condition, more in violations.unlisted().items():
                    print(f"  ({more} more {condition} violations not listed){where}")
    return EXIT_OK if all(well_behaved) else EXIT_SEMANTIC


def _pick_session(pf: ProtocolFile, wanted: Optional[str]) -> tuple[str, Session]:
    if not pf.sessions:
        raise CliFailure(f"{pf.path}: no sessions declared")
    name = wanted or next(iter(pf.sessions))
    if name not in pf.sessions:
        raise CliFailure(f"{pf.path}: unknown session {name}")
    return name, pf.session(name)


def cmd_simulate(args) -> int:
    pf = _parse_protocol(args.file, _read(args.file), allow_unresolved=True)
    name, sess = _pick_session(pf, args.session)
    trace = run(sess, args.seed, args.max_steps)
    if args.format == "json":
        print(trace_to_json_lines(trace), end="")
    else:
        print(f"session {name}, seed {args.seed}: {len(trace.actions)} actions")
        print(render_message_sequence(trace), end="")
    return EXIT_OK


def cmd_explore(args) -> int:
    cap = _state_cap(args)
    pf, classifier = _load(args.file, _read(args.file), cap, args.mlts,
                           args.allow_unverified)
    name, sess = _pick_session(pf, args.session)
    report = explore(classifier(name), sess, args.max_depth)
    doc = {
        "session": name,
        "configs_visited": report.configs_visited,
        "depth_reached": report.depth_reached,
        "complete": report.complete,
        "stuck_non_final": len(report.stuck_non_final),
        "tau_cycles": len(report.tau_cycles),
        "preservation_breaks": len(report.preservation_breaks),
        "verdict": "sound at this depth" if report.sound_at_depth else "violations found",
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"session {name}: explored {doc['configs_visited']} configurations "
              f"to depth {doc['depth_reached']}"
              + ("" if report.complete else " (bounded)"))
        print(f"  stuck non-final: {doc['stuck_non_final']}, tau cycles: {doc['tau_cycles']}, "
              f"preservation breaks: {doc['preservation_breaks']}")
        print(f"  verdict: {doc['verdict']}")
    return EXIT_OK if report.sound_at_depth else EXIT_SEMANTIC


def cmd_bench(args) -> int:
    cap = _state_cap(args)
    directory = Path(args.dir)
    if not directory.is_dir():
        raise CliFailure(f"not a directory: {args.dir}")
    rows: list[tuple[str, str, str, bool]] = []

    for path in sorted(directory.glob("*.mlts.json")):
        started = time.perf_counter()
        try:
            violations = check_well_behaved(_parse_mlts_file(str(path)))
            detail = "well-behaved" if not violations else f"{violations.total} violations"
            passed = not violations
        except CliFailure as e:
            detail, passed = str(e), False
        except RecursionError:
            detail, passed = _too_deep(), False
        elapsed = time.perf_counter() - started
        rows.append((path.name, "wb", f"{detail} ({elapsed:.2f}s)", passed))

    for path in sorted(directory.glob("*.smpst")):
        started = time.perf_counter()
        try:
            text = _read(str(path))
            expect_match = _EXPECT_RE.search(text)
            expectation = expect_match.group(1) if expect_match else "well-typed"
            reports, pf, classifier = _check_file(str(path), text, cap, None, False)
            verdicts = {r["verdict"] for r in reports}
            passed = verdicts == {expectation}
            detail = f"{len(reports)} session(s) {'/'.join(sorted(verdicts))}, expected {expectation}"
            if passed and expectation == "well-typed":
                sound = all(explore(classifier(name), pf.session(name),
                                    args.max_depth).sound_at_depth
                            for name in pf.sessions)
                passed = sound
                detail += ", explore " + ("sound" if sound else "UNSOUND")
        except CliFailure as e:
            detail, passed = f"error: {e}", False
        except RecursionError:
            detail, passed = f"error: {_too_deep()}", False
        elapsed = time.perf_counter() - started
        rows.append((path.name, "check+explore", f"{detail} ({elapsed:.2f}s)", passed))

    if not rows:
        raise CliFailure(f"{args.dir}: no *.smpst or *.mlts.json files to bench")
    width = max(len(r[0]) for r in rows)
    all_pass = all(r[3] for r in rows)
    for name, kind, detail, passed in rows:
        print(f"{'PASS' if passed else 'FAIL'}  {name:<{width}}  {kind:<14} {detail}")
    print(f"{'all rows pass' if all_pass else 'SOME ROWS FAILED'} ({len(rows)} rows)")
    return EXIT_OK if all_pass else EXIT_SEMANTIC


@functools.cache
def _build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="synmpst",
        description="Type-check, verify and execute multiparty protocols against "
                    "global-type LTSs and explicit MLTSs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def state_cap(p):
        p.add_argument("--state-cap", type=_int_at_least(1), default=None,
                       help=f"LTS state cap (default {DEFAULT_STATE_CAP}, "
                            "env SYNMPST_STATE_CAP)")

    def output_format(p, choices=("text", "json")):
        p.add_argument("--format", choices=choices, default=choices[0])

    p = sub.add_parser("check", help="type-check every session in the given files")
    p.add_argument("files", nargs="+")
    p.add_argument("--mlts", help="check sessions against this MLTS JSON file")
    p.add_argument("--allow-unverified", action="store_true",
                   help="skip the well-behavedness gate for --mlts classifiers")
    state_cap(p)
    output_format(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lts", help="print the LTS of a file's global types")
    p.add_argument("file")
    p.add_argument("--global", dest="global_name", default=None)
    state_cap(p)
    output_format(p, ("text", "dot", "json"))
    p.set_defaults(func=cmd_lts)

    p = sub.add_parser("wb", help="check well-behavedness of an MLTS or of globals")
    p.add_argument("file", help=".smpst protocol file or .json MLTS")
    state_cap(p)
    output_format(p)
    p.set_defaults(func=cmd_wb)

    p = sub.add_parser("simulate", help="run one session under a seeded scheduler")
    p.add_argument("file")
    p.add_argument("--session", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-steps", type=_int_at_least(0), default=1000)
    output_format(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("explore", help="exhaustively execute a session against its classifier")
    p.add_argument("file")
    p.add_argument("--session", default=None)
    p.add_argument("--mlts", help="classifier MLTS JSON file")
    p.add_argument("--allow-unverified", action="store_true")
    p.add_argument("--max-depth", type=_int_at_least(1), default=200)
    state_cap(p)
    output_format(p)
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("bench", help="run check+wb+explore over a corpus directory")
    p.add_argument("dir")
    p.add_argument("--max-depth", type=_int_at_least(1), default=200)
    state_cap(p)
    p.set_defaults(func=cmd_bench)

    return parser


def _too_deep() -> str:
    return f"input nested too deeply: exceeded the recursion limit ({sys.getrecursionlimit()})"


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliFailure as e:
        print(f"synmpst: error: {e}", file=sys.stderr)
        return e.code
    except RecursionError:
        print(f"synmpst: error: {_too_deep()}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
