"""Seeded benchmark inputs, each paired with its known answer.

A workload is generated in two steps. `make_base` runs once per benchmark run,
in its own process, and does the little that needs the program: drawing
`random_global_type` seeds, exporting JSON MLTSs with `lts_to_json` and
listing the roles of corpus files. `make_round` then writes one round of input
files from that base using only text and JSON rewriting. Every round renames
every role with a tag of its own, and every command in a round gets its own
copy, so one process is never given the same input twice.

Known answers never come from running the checker under test. Each command
records where its answer comes from:

- ``construction``: the input was built so the answer holds (the W_k processes
  are projections of the W_k global type, a payload mutant sends a literal of
  a type the protocol never allows, deleting a transition breaks a diamond,
  state and transition counts of a product of independent loops);
- ``expect-directive``: the corpus file's ``// expect:`` line, absent meaning
  well-typed, as ``synmpst bench`` reads it;
- ``theorem``: global types are well-behaved, and well-typed sessions are
  safe and live (explore finds no stuck configuration, internal cycle or
  preservation break).
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

WORKLOADS = ("pipelines", "statespace", "random")
KINDS = ("check", "lts", "wb", "wb_mlts", "explore")

# The `random_global_type` draws whose well-behavedness the repository's own
# tests assert: tests/test_acceptance.py (criterion 05) and tests/test_mlts.py
# (the random smoke test). A workload runs all of them, in an order of its seed.
PINNED_DRAWS = (*range(1000, 1100), *range(7000, 7025))
# Draws below 10 000 that `wb` reports not well-behaved, against the theorem
# (see README.md). They stay out of the timed workload, which must hold no
# failing command, and are checked on their own by the benchmark's tests.
KNOWN_DEFECT_DRAWS = (621, 883, 1911, 2330, 3072, 3268, 3864, 4970, 5361,
                      6944, 7083, 8575, 8661, 9041, 9327)
P_PAIRS = 10
CORPUS_CHECKED_IN_PIPELINES = ("oauth2", "twobuyers", "mapreduce", "workers")

# Explore answers for the corpus, one per file, for the file's first session.
# Well-typed files follow from the theorem. The three negative fixtures were
# built to fail as their comments say; the explore answer follows from
# running their processes by hand:
#   confusion: Alice sends Foo, Bob forwards Confusion, the first candidate
#     for Carol answers Foo, which Alice accepts; every role ends.
#   ring_badaction: Alice opens with a send to Carol, who waits on Bob, who
#     waits on Alice; nothing can fire and no role has ended.
#   ring_badpayload: Bob receives `true` as a Nat and cannot evaluate
#     `x + 1`; he is stuck before his send.
# Every corpus process loops only over constant data, so each configuration
# space is finite and explore completes.
CORPUS = {
    "com2": {"kinds": None, "sound": True},
    "confusion": {"kinds": None, "sound": True},
    "diamond": {"kinds": None, "sound": True},
    "lasso": {"kinds": None, "sound": True},
    "mapreduce": {"kinds": None, "sound": True},
    "oauth2": {"kinds": None, "sound": True},
    "ring": {"kinds": None, "sound": True},
    "ring_badaction": {"kinds": ["UnexpectedSend"], "sound": False},
    "ring_badpayload": {"kinds": ["PayloadMismatch"], "sound": False},
    "twobuyers": {"kinds": None, "sound": True},
    "workers": {"kinds": None, "sound": True},
}
CORPUS_MLTS = ("diamond",)

_EXPECT_RE = re.compile(r"//\s*expect:\s*(well-typed|ill-typed)")
_CLASSIFIER_RE = re.compile(r"(//\s*classifier:\s*)(\S+)")
_TOKEN_RE = re.compile(r'(//[^\n]*)|("(?:[^"\\\n]|\\.)*")|([A-Za-z_][A-Za-z0-9_]*)')


@dataclass
class Command:
    """One CLI invocation with the answer it must give."""
    kind: str
    argv: list[str]
    expect: dict
    source: str
    why: str


# ---------------------------------------------------------------------------
# Text builders for the W_k and P_n families


def workers_component(i: int, tag: str) -> str:
    """The workers loop of the ROADMAP scaling probe over roles a_i, b_i, c_i."""
    a, b, c = f"a{i}{tag}", f"b{i}{tag}", f"c{i}{tag}"
    return (f"mu X . {a} -> {b} {{ Datum(Int) . {b} -> {c}: Datum(Int) . "
            f"{c} -> {a}: Result(Int) . X, Stop(Unit) . {b} -> {c}: Stop(Unit) . end }}")


def nest_par(parts: list[str]) -> str:
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = f"par {{ {part} || {term} }}"
    return term


def workers_global(k: int, tag: str) -> str:
    """W_k: the par of k disjoint workers loops (5^k states, k*5^k transitions)."""
    return nest_par([workers_component(i, tag) for i in range(k)])


def workers_processes(i: int, tag: str, looping: bool, value: int,
                      wrong: Optional[str] = None) -> dict[str, str]:
    """Processes of component i, written as in corpus/workers.smpst.

    b_i and c_i unroll the first iteration so that each loop binds at the
    state it returns to. a_i either stops at once or loops forever on a
    constant. `wrong` replaces the payload of a_i's first send by a literal
    of a type the protocol never offers there.
    """
    a, b, c = f"a{i}{tag}", f"b{i}{tag}", f"c{i}{tag}"
    if looping:
        first = wrong or f"+{value}"
        pa = (f"send {b} Datum({first}) . recv {c} {{ Result(x: Int) . rec X . "
              f"send {b} Datum(x) . recv {c} {{ Result(y: Int) . X }} }}")
    else:
        pa = f"send {b} Stop({wrong or 'unit'}) . end"
    pb = (f"recv {a} {{ Datum(x: Int) . send {c} Datum(x) . rec X . recv {a} {{ "
          f"Datum(x: Int) . send {c} Datum(x) . X, Stop(_: Unit) . send {c} Stop(unit) . end }}, "
          f"Stop(_: Unit) . send {c} Stop(unit) . end }}")
    pc = (f"recv {b} {{ Datum(x: Int) . send {a} Result(x) . rec X . recv {b} {{ "
          f"Datum(x: Int) . send {a} Result(x) . X, Stop(_: Unit) . end }}, "
          f"Stop(_: Unit) . end }}")
    return {a: pa, b: pb, c: pc}


def session_file(global_text: str, processes: dict[str, str]) -> str:
    lines = [f"global G = {global_text};"]
    bindings = []
    for role, body in processes.items():
        lines.append(f"process P_{role} at {role} = {body};")
        bindings.append(f"{role}: P_{role}")
    lines.append(f"session S of G = {{ {', '.join(bindings)} }};")
    return "\n".join(lines) + "\n"


def workers_file(k: int, tag: str, looping: bool, value: int,
                 wrong: Optional[tuple[int, str]] = None) -> str:
    processes: dict[str, str] = {}
    for i in range(k):
        bad = wrong[1] if wrong and wrong[0] == i else None
        processes.update(workers_processes(i, tag, looping, value, bad))
    return session_file(workers_global(k, tag), processes)


def pairs_global(n: int, tag: str) -> str:
    """P_n: n independent one-shot pairs p_i -> q_i (2^n states, n*2^(n-1) transitions)."""
    return nest_par([f"p{i}{tag} -> q{i}{tag}: M(Unit) . end" for i in range(n)])


def pairs_file(n: int, tag: str) -> str:
    processes: dict[str, str] = {}
    for i in range(n):
        p, q = f"p{i}{tag}", f"q{i}{tag}"
        processes[p] = f"send {q} M(unit) . end"
        processes[q] = f"recv {p} {{ M(_: Unit) . end }}"
    return session_file(pairs_global(n, tag), processes)


def global_file(global_text: str, name: str = "G") -> str:
    return f"global {name} = {global_text};\n"


# ---------------------------------------------------------------------------
# Renaming and mutation of existing inputs


def rename_tokens(text: str, mapping: dict[str, str]) -> str:
    """Rename identifier tokens; comments and string literals are left alone.

    Renaming every occurrence of a role name is an alpha-renaming even when a
    data variable shares the name, because both get the same fresh name.
    """
    def sub(m: re.Match) -> str:
        word = m.group(3)
        if word is None:
            return m.group(0)
        return mapping.get(word, word)
    return _TOKEN_RE.sub(sub, text)


def role_map(roles, tag: str) -> dict[str, str]:
    return {r: f"{r}{tag}" for r in roles}


def rename_mlts(doc: dict, mapping: dict[str, str], tag: str) -> dict:
    """An MLTS with roles renamed by `mapping` and `tag` appended to state names."""
    out = dict(doc, states=[f"{s}{tag}" for s in doc["states"]], initial=f"{doc['initial']}{tag}")
    out["transitions"] = [dict(t, sender=mapping.get(t["sender"], t["sender"]),
                               receiver=mapping.get(t["receiver"], t["receiver"]),
                               to=f"{t['to']}{tag}", **{"from": f"{t['from']}{tag}"})
                          for t in doc["transitions"]]
    if "terms" in doc:
        out["terms"] = {f"{s}{tag}": rename_tokens(term, mapping)
                        for s, term in doc["terms"].items()}
    return out


def delete_transition(doc: dict, rng: random.Random) -> dict:
    """A copy without one transition whose source is not the initial state.

    For P_n (and W_k) this always breaks the Diamond condition: the source s
    was entered by a transition b of another component from some state p,
    and the deleted action a, independent of b, is enabled at p as well, so
    the square p -a-> q -b-> t, p -b-> s needs s -a-> t to close.
    """
    candidates = [i for i, t in enumerate(doc["transitions"]) if t["from"] != doc["initial"]]
    victim = rng.choice(candidates)
    out = dict(doc)
    out["transitions"] = [t for i, t in enumerate(doc["transitions"]) if i != victim]
    return out


def mlts_text(doc: dict) -> str:
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Base: the only step that runs the program


def _export(text: str) -> dict:
    from synmpst.lts import build_lts, lts_to_json
    from synmpst.parser import parse_file
    pf = parse_file(text)
    return json.loads(lts_to_json(build_lts(pf.globals["G"])))


def _corpus_entry(corpus: Path, name: str) -> dict:
    from synmpst.parser import parse_file
    from synmpst.terms import roles_of
    path = corpus / f"{name}.smpst"
    text = path.read_text(encoding="utf-8")
    classifier = _CLASSIFIER_RE.search(text)
    pf = parse_file(text, str(path), allow_unresolved_globals=classifier is not None)
    if isinstance(pf, list):
        raise ValueError(f"{path} does not parse: {pf[0]}")
    roles: set[str] = set()
    for g in pf.globals.values():
        roles |= roles_of(g)
    for role, _ in pf.processes.values():
        roles.add(role)
    entry = {"name": name, "text": text, "roles": sorted(roles)}
    expect = _EXPECT_RE.search(text)
    entry["verdict"] = expect.group(1) if expect else "well-typed"
    if classifier is not None:
        classifier_path = corpus / classifier.group(2)
        entry["classifier"] = json.loads(classifier_path.read_text(encoding="utf-8"))
    return entry


def _corpus_mlts(corpus: Path, name: str) -> dict:
    doc = json.loads((corpus / f"{name}.mlts.json").read_text(encoding="utf-8"))
    roles = {t["sender"] for t in doc["transitions"]} | {t["receiver"] for t in doc["transitions"]}
    return {"name": name, "doc": doc, "roles": sorted(roles)}


def random_draws(seed: int) -> list[int]:
    """The `random_global_type` seeds of a workload seed: PINNED_DRAWS, shuffled."""
    draws = list(PINNED_DRAWS)
    random.Random(f"random:{seed}").shuffle(draws)
    return draws


def random_text(draw: int) -> str:
    from synmpst.generate import random_global_type
    from synmpst.terms import pretty_global
    return pretty_global(random_global_type(random.Random(draw)))


def make_base(workload: str, seed: int, corpus: Path) -> dict:
    """Everything a workload needs from the program, computed once per run."""
    base: dict = {"workload": workload, "seed": seed}
    if workload == "pipelines":
        base["w4_json"] = _export(global_file(workers_global(4, "")))
        base["corpus"] = [_corpus_entry(corpus, n) for n in CORPUS_CHECKED_IN_PIPELINES]
    elif workload == "statespace":
        base["w5_json"] = _export(global_file(workers_global(5, "")))
        base["p_json"] = _export(global_file(pairs_global(P_PAIRS, "")))
    elif workload == "random":
        base["random"] = []
        for draw in random_draws(seed):
            text = random_text(draw)
            base["random"].append({"draw": draw, "text": text, "json": _export(global_file(text))})
        base["corpus"] = [_corpus_entry(corpus, n) for n in sorted(CORPUS)]
        base["corpus_mlts"] = [_corpus_mlts(corpus, n) for n in CORPUS_MLTS]
    else:
        raise ValueError(f"unknown workload {workload}")
    return base


# ---------------------------------------------------------------------------
# Rounds: pure text, so the timing process never runs the program here


class _Round:
    def __init__(self, out: Path, round_no: int):
        self.out = out
        self.round_no = round_no
        self.copies = 0
        self.commands: list[Command] = []

    def tag(self) -> str:
        """A fresh role suffix: one per input copy in the whole run."""
        self.copies += 1
        return f"_r{self.round_no}x{self.copies}"

    def write(self, name: str, text: str) -> str:
        path = self.out / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def add(self, kind: str, argv: list[str], expect: dict, source: str, why: str) -> None:
        self.commands.append(Command(kind, argv, expect, source, why))

    def lts(self, name: str, text: str, states=None, transitions=None, why="") -> None:
        path = self.write(f"{name}.smpst", text)
        self.add("lts", ["lts", path, "--format", "json"],
                 {"states": states, "transitions": transitions},
                 "construction" if states is not None else "theorem",
                 why or "global types have a finite LTS that lts exports")

    def wb(self, name: str, text: str, what: str = "a global type") -> None:
        path = self.write(f"{name}.smpst", text)
        self.add("wb", ["wb", path], {"well_behaved": True}, "theorem",
                 f"{what} is well-behaved, as every global type")

    def wb_mlts(self, name: str, doc: dict, well_behaved: bool, source: str, why: str) -> None:
        path = self.write(f"{name}.mlts.json", mlts_text(doc))
        self.add("wb_mlts", ["wb", path], {"well_behaved": well_behaved}, source, why)

    def check(self, name: str, text: str, verdict: str, kinds, source: str, why: str) -> None:
        path = self.write(f"{name}.smpst", text)
        self.add("check", ["check", path], {"verdict": verdict, "kinds": kinds}, source, why)

    def explore(self, name: str, text: str, sound: bool, source: str, why: str) -> None:
        path = self.write(f"{name}.smpst", text)
        self.add("explore", ["explore", path], {"sound": sound, "complete": True}, source, why)

    def global_copy(self, text: str, names: list[str]) -> str:
        """A file declaring a renamed copy of a global type, under a renamed name.

        A draw without roles or recursion variables, such as `end`, keeps its
        term; only the declaration's name tells the copies apart.
        """
        tag = self.tag()
        return global_file(rename_tokens(text, role_map(names, tag)), f"G{tag}")

    def mlts_copy(self, doc: dict, names: list[str]) -> dict:
        tag = self.tag()
        return rename_mlts(doc, role_map(names, tag), tag)

    def corpus_copy(self, entry: dict, suffix: str) -> str:
        """A role-renamed copy of a corpus file, with its classifier if it has one."""
        tag = self.tag()
        mapping = role_map(entry["roles"], tag)
        text = rename_tokens(entry["text"], mapping)
        if "classifier" in entry:
            json_name = f"{entry['name']}{suffix}.mlts.json"
            self.write(json_name, mlts_text(rename_mlts(entry["classifier"], mapping, tag)))
            text = _CLASSIFIER_RE.sub(lambda m: m.group(1) + json_name, text)
        return text


def _workers_choices(seed: int) -> tuple[int, str]:
    """Seeded data for the W_k sessions: the looping constant and a wrong literal."""
    rng = random.Random(f"pipelines:{seed}")
    return rng.randrange(1, 1000), rng.choice(["true", "false", '"x"'])


def _pipelines(base: dict, r: _Round) -> None:
    value, wrong = _workers_choices(base["seed"])
    rng = random.Random(f"pipelines-mutant:{base['seed']}")
    for k in (1, 2, 3):
        projection = f"the W_{k} processes are projections of the W_{k} global type"
        r.check(f"w{k}_stop", workers_file(k, r.tag(), False, value),
                "well-typed", None, "construction", projection)
        r.check(f"w{k}_loop", workers_file(k, r.tag(), True, value),
                "well-typed", None, "construction", projection)
        r.check(f"w{k}_mutant", workers_file(k, r.tag(), False, value, (rng.randrange(k), wrong)),
                "ill-typed", ["PayloadMismatch"], "construction",
                f"one a_i sends Stop({wrong}) where W_{k} only offers Stop(Unit)")
    for entry in base["corpus"]:
        r.check(entry["name"], r.corpus_copy(entry, "_check"), entry["verdict"],
                CORPUS[entry["name"]]["kinds"], "expect-directive",
                "criterion-03 benchmark file of the paper")
    count = "W_4 is a product of 4 five-state loops"
    for copy in ("a", "b", "c"):
        r.lts(f"w4_lts_{copy}", global_file(workers_global(4, r.tag())), 625, 2500, count)
    r.wb("w4_wb", global_file(workers_global(4, r.tag())))
    r.wb_mlts("w4_json", r.mlts_copy(base["w4_json"], _workers_roles(4)),
              True, "theorem", "exported LTS of a global type")
    finite = "well-typed by construction, hence safe and live; constant data keeps it finite"
    r.explore("w2_loop_explore", workers_file(2, r.tag(), True, value), True, "theorem", finite)
    r.explore("w3_stop_explore", workers_file(3, r.tag(), False, value), True, "theorem", finite)


def _workers_roles(k: int) -> list[str]:
    return [f"{x}{i}" for i in range(k) for x in "abc"]


def _pairs_roles(n: int) -> list[str]:
    return [f"{x}{i}" for i in range(n) for x in "pq"]


def _statespace(base: dict, r: _Round) -> None:
    value, _ = _workers_choices(base["seed"])
    rng = random.Random(f"statespace:{base['seed']}")
    r.lts("w5_lts", global_file(workers_global(5, r.tag())), 3125, 15625,
          "W_5 is a product of 5 five-state loops")
    r.wb("w5_wb", global_file(workers_global(5, r.tag())))
    r.wb_mlts("w5_json", r.mlts_copy(base["w5_json"], _workers_roles(5)), True, "theorem",
              "exported LTS of a global type")

    n = P_PAIRS
    r.lts("p_lts", global_file(pairs_global(n, r.tag())), 2 ** n, n * 2 ** (n - 1),
          f"P_{n} is a product of {n} two-state pairs")
    r.wb("p_wb", global_file(pairs_global(n, r.tag())))
    r.wb_mlts("p_json", r.mlts_copy(base["p_json"], _pairs_roles(n)), True, "theorem",
              "exported LTS of a global type")
    pairs = r.mlts_copy(base["p_json"], _pairs_roles(n))
    r.wb_mlts("p_cut", delete_transition(pairs, rng), False, "construction",
              "one transition deleted from a product of independent pairs breaks a diamond")
    for copy in ("a", "b"):
        r.check(f"p_check_{copy}", pairs_file(n, r.tag()), "well-typed", None, "construction",
                f"the P_{n} processes are projections of the P_{n} global type")
    # P_n typing never skips; looping W_2 gives the skip premises a little work.
    r.check("w2_loop", workers_file(2, r.tag(), True, value), "well-typed", None,
            "construction", "the W_2 processes are projections of the W_2 global type")

    finite = "well-typed by construction, hence safe and live; constant data keeps it finite"
    r.explore("w3_loop_explore", workers_file(3, r.tag(), True, value), True, "theorem", finite)
    r.explore("w4_stop_explore", workers_file(4, r.tag(), False, value), True, "theorem", finite)


def _random(base: dict, r: _Round) -> None:
    for j, item in enumerate(base["random"]):
        names = _random_names(item["text"])
        r.lts(f"g{j}_lts", r.global_copy(item["text"], names))
        drawn = f"random_global_type draw {item['draw']} (pinned by the repository's tests)"
        r.wb(f"g{j}_wb", r.global_copy(item["text"], names), drawn)
        r.wb_mlts(f"g{j}_json", r.mlts_copy(item["json"], names), True,
                  "theorem", f"exported LTS of {drawn}")
    for entry in base["corpus"]:
        name = entry["name"]
        r.check(f"{name}_check", r.corpus_copy(entry, "_check"), entry["verdict"],
                CORPUS[name]["kinds"], "expect-directive", "corpus file")
        r.explore(f"{name}_explore", r.corpus_copy(entry, "_explore"), CORPUS[name]["sound"],
                  "theorem" if entry["verdict"] == "well-typed" else "construction",
                  "corpus file; see CORPUS in workloads.py")
    for entry in base["corpus_mlts"]:
        r.wb_mlts(entry["name"], r.mlts_copy(entry["doc"], entry["roles"]),
                  True, "construction", "corpus MLTS built to close every diamond")


def _random_names(text: str) -> list[str]:
    """Roles and recursion variables of a pretty-printed random global type.

    Roles are its lower-case words other than keywords; `random_global_type`
    names recursion variables X1, X2, ...
    """
    roles = set(re.findall(r"\b[a-z][A-Za-z0-9_]*\b", text)) - {"mu", "par", "end"}
    return sorted(roles | set(re.findall(r"\bX\d+\b", text)))


_ROUNDS = {"pipelines": _pipelines, "statespace": _statespace, "random": _random}


def make_round(base: dict, round_no: int, out: Path) -> list[Command]:
    """Write one round of input files into `out` and return its commands."""
    out.mkdir(parents=True, exist_ok=True)
    r = _Round(out, round_no)
    _ROUNDS[base["workload"]](base, r)
    return r.commands


def write_manifest(commands: list[Command], path: Path) -> None:
    path.write_text(json.dumps([asdict(c) for c in commands], indent=1), encoding="utf-8")


def read_manifest(path: Path) -> list[Command]:
    return [Command(**c) for c in json.loads(path.read_text(encoding="utf-8"))]


if __name__ == "__main__":
    import argparse
    parser = argparse.ArgumentParser(description="Write a workload's base inputs as JSON.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.write_text(json.dumps(make_base(args.workload, args.seed, args.corpus)),
                        encoding="utf-8")
