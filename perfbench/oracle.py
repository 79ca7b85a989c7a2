"""Verdict oracle: read each command's output and compare it with the known answer.

`observe` turns exit code and output into a record of verdicts and counts;
`judge` lists every way that record differs from the command's expectation.
An exception, or exit code 2 where 0 or 1 was expected, is always a failure.
"""
from __future__ import annotations

import json
import re
from typing import Optional

from harness import Outcome, expected_code

_CHECK_OK = re.compile(r"^.*: session (\S+): (\d+) roles well-typed \(.*\)$")
_CHECK_BAD = re.compile(r"^.*: session (\S+): ill-typed$")
_CHECK_ERR = re.compile(r"^  (\w+)(?: \(premise \d+\))?: ")
_WB = re.compile(r"^.*: well-behaved: (yes|no)$")
_WB_VIOLATION = re.compile(r"^  (\w+): ")
_EXPLORED = re.compile(
    r"^session (\S+): explored (\d+) configurations to depth (\d+)( \(bounded\))?$")
_EXPLORE_VERDICT = re.compile(r"^  verdict: (.*)$")


def observe(kind: str, outcome: Outcome) -> dict:
    """Verdicts and counts a user reads off the command's output."""
    record: dict = {"code": outcome.code}
    if outcome.error:
        record["error"] = outcome.error
        return record
    lines = outcome.stdout.splitlines()
    if kind == "check":
        sessions, kinds = [], []
        for line in lines:
            if _CHECK_OK.match(line):
                sessions.append("well-typed")
            elif _CHECK_BAD.match(line):
                sessions.append("ill-typed")
            elif m := _CHECK_ERR.match(line):
                kinds.append(m.group(1))
        record.update(sessions=sessions, kinds=sorted(set(kinds)))
    elif kind == "lts":
        try:
            doc = json.loads(outcome.stdout)
            record.update(states=len(doc["states"]), transitions=len(doc["transitions"]))
        except (ValueError, KeyError, TypeError):
            record["unparsed"] = True
    elif kind in ("wb", "wb_mlts"):
        subjects = [m.group(1) == "yes" for line in lines if (m := _WB.match(line))]
        violations = sum(1 for line in lines if _WB_VIOLATION.match(line))
        record.update(subjects=subjects, violations=violations)
    elif kind == "explore":
        for line in lines:
            if m := _EXPLORED.match(line):
                record.update(configs=int(m.group(2)), depth=int(m.group(3)),
                              complete=m.group(4) is None)
            elif m := _EXPLORE_VERDICT.match(line):
                record["verdict"] = m.group(1)
    return record


def judge(kind: str, expect: dict, record: dict) -> list[str]:
    """Every difference between an observed record and the known answer."""
    if "error" in record:
        return [f"raised {record['error']}"]
    want = expected_code(kind, expect)
    problems = []
    if record["code"] != want:
        problems.append(f"exit code {record['code']}, expected {want}")
    if kind == "check":
        verdict = expect["verdict"]
        if not record["sessions"] or any(v != verdict for v in record["sessions"]):
            problems.append(f"verdicts {record['sessions']}, expected all {verdict}")
        if expect["kinds"] is not None and record["kinds"] != sorted(expect["kinds"]):
            problems.append(f"error kinds {record['kinds']}, expected {expect['kinds']}")
    elif kind == "lts":
        if record.get("unparsed"):
            problems.append("output is not an MLTS JSON document")
        else:
            for key in ("states", "transitions"):
                if expect[key] is not None and record[key] != expect[key]:
                    problems.append(f"{record[key]} {key}, expected {expect[key]}")
            if record["states"] < 1:
                problems.append("no states")
    elif kind in ("wb", "wb_mlts"):
        subjects = record["subjects"]
        if not subjects or any(v != expect["well_behaved"] for v in subjects):
            problems.append(f"well-behaved {record['subjects']}, "
                            f"expected {expect['well_behaved']}")
    elif kind == "explore":
        sound = record.get("verdict") == "sound at this depth"
        if "verdict" not in record or sound != expect["sound"]:
            problems.append(f"verdict {record.get('verdict')!r}, expected sound={expect['sound']}")
        if record.get("complete") != expect["complete"]:
            problems.append(f"complete={record.get('complete')}, expected {expect['complete']}")
    return problems


def check(kind: str, expect: dict, outcome: Outcome) -> tuple[dict, Optional[str]]:
    """The observed record and a one-line failure reason, or None if it matches."""
    record = observe(kind, outcome)
    problems = judge(kind, expect, record)
    return record, ("; ".join(problems) if problems else None)
