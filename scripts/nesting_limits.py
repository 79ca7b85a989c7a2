"""Measure how deep a prefix chain each command accepts.

For each of two inputs, the plain chain

    global G = a -> b: M(Nat) . ... . end;

with its sending and receiving processes, and the same chain wrapped in
`mu X . ... X` and `rec X . ... X`, this bisects the number of steps at
which `lts`, `wb`, `check`, `explore` and `simulate` first exit 2, each
command run as `python -m synmpst.cli` in a fresh process, and prints that
size with the command's stderr line. A refusal is assumed to be monotone
in the size.

Usage, from the repository root:

    python scripts/nesting_limits.py
"""
from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("lts", "wb", "check", "explore", "simulate")
MAX_STEPS = 4096                # the largest chain tried


def plain(n: int) -> str:
    return ("global G = " + "a -> b: M(Nat) . " * n + "end;\n"
            "process A at a = " + "send b M(1) . " * n + "end;\n"
            "process B at b = " + "recv a { M(x: Nat) . " * n + "end" + " }" * n + ";\n"
            "session S of G = { a: A, b: B };\n")


def wrapped(n: int) -> str:
    return ("global G = mu X . " + "a -> b: M(Nat) . " * n + "X;\n"
            "process A at a = rec X . " + "send b M(1) . " * n + "X;\n"
            "process B at b = rec X . " + "recv a { M(x: Nat) . " * n + "X" + " }" * n + ";\n"
            "session S of G = { a: A, b: B };\n")


INPUTS = {"plain": plain, "wrapped": wrapped}


def run(command: str, text: str, directory: str) -> tuple[int, str]:
    """The exit code and last stderr line of one command on text."""
    path = os.path.join(directory, "chain.smpst")
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "synmpst.cli", command, path],
                          capture_output=True, text=True, env=env, cwd=directory)
    lines = done.stderr.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def first_refused(command: str, build, directory: str) -> tuple[int, str] | None:
    """The least number of steps at which command exits 2, with its stderr
    line, or None if it accepts MAX_STEPS."""
    accepted, refused, hi = 0, None, 16
    while refused is None:
        hi = min(hi, MAX_STEPS)
        code, line = run(command, build(hi), directory)
        if code == 2:
            refused = (hi, line)
        elif hi == MAX_STEPS:
            return None
        else:
            accepted, hi = hi, hi * 2
    while refused[0] - accepted > 1:
        mid = (accepted + refused[0]) // 2
        code, line = run(command, build(mid), directory)
        if code == 2:
            refused = (mid, line)
        else:
            accepted = mid
    return refused


def main() -> None:
    print(f"python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}")
    with tempfile.TemporaryDirectory() as directory:
        for name, build in INPUTS.items():
            for command in COMMANDS:
                found = first_refused(command, build, directory)
                if found is None:
                    print(f"{name:8} {command:9} accepted up to {MAX_STEPS}")
                else:
                    print(f"{name:8} {command:9} first refused at {found[0]}: {found[1]}")


if __name__ == "__main__":
    main()
