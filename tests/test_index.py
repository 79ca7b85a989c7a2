"""The reachability index on Mlts against naive graph walks, and its cost."""
import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import CORPUS, load_protocol, workers_text
from synmpst.generate import random_global_type
from synmpst.lts import build_lts, reach_strong_without, reach_without, step_with
from synmpst.mlts import Mlts
from synmpst.parser import parse_file, parse_mlts
from synmpst.terms import GlobalAction, PayloadType
from synmpst.typecheck import type_session

UNIT = PayloadType.UNIT


# ---------------------------------------------------------------------------
# Naive reference: every question answered by a fresh scan of m.transitions


def naive_step_with(m, s, roles):
    return frozenset((a, t) for src, a, t in m.transitions
                     if src == s and all(r in (a.sender, a.receiver) for r in roles))


def naive_step_without(m, s, roles):
    return frozenset((a, t) for src, a, t in m.transitions
                     if src == s and a.sender not in roles and a.receiver not in roles)


def naive_strong_step_without(m, s, roles):
    return frozenset() if naive_step_with(m, s, roles) else naive_step_without(m, s, roles)


def naive_closure(m, s, single_step):
    seen, queue = {s}, [s]
    while queue:
        state = queue.pop(0)
        for _, t in single_step(m, state):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return tuple(sorted(seen))


def naive_active(m, s, role):
    return any(naive_step_with(m, t, (role,))
               for t in naive_closure(m, s, lambda m, st: naive_step_with(m, st, ())))


# ---------------------------------------------------------------------------
# Classifiers


def forked_mlts():
    """Non-deterministic: a->b:Go leads to s1 and to s2."""
    go, fwd, back = (GlobalAction("a", "b", "Go", UNIT), GlobalAction("b", "c", "Fwd", UNIT),
                     GlobalAction("c", "a", "Back", UNIT))
    return Mlts(0, ("s0", "s1", "s2", "s3"),
                frozenset({(0, go, 1), (0, go, 2), (1, fwd, 3), (2, back, 0), (3, back, 3)}))


def classifiers():
    out = []
    for path in sorted(CORPUS.glob("*.smpst")):
        # diamond.smpst declares no global: its classifier is diamond.mlts.json.
        for name, g in load_protocol(path.name, allow_unresolved=True).globals.items():
            out.append((f"{path.stem}.{name}", build_lts(g).to_mlts()))
    out.append(("diamond.mlts.json",
                parse_mlts((CORPUS / "diamond.mlts.json").read_text(), "diamond.mlts.json")))
    out.append(("forked", forked_mlts()))
    for seed in range(1000, 1100):
        out.append((f"random{seed}",
                    build_lts(random_global_type(random.Random(seed), max_depth=6)).to_mlts()))
    return out


CLASSIFIERS = classifiers()


@pytest.mark.parametrize("name,m", CLASSIFIERS, ids=[name for name, _ in CLASSIFIERS])
def test_index_answers_as_a_naive_walk(name, m):
    roles = sorted(m.roles) + ["nobody"]
    role_sets = [()] + [(r,) for r in roles] + list(combinations(roles, 2))
    role_sets += [pair[::-1] for pair in combinations(roles, 2)]
    for s in m.states:
        for rs in role_sets:
            queries = [
                (step_with, naive_step_with(m, s, rs)),
                (reach_without, naive_closure(
                    m, s, lambda m, st: naive_step_without(m, st, rs))),
                (reach_strong_without, naive_closure(
                    m, s, lambda m, st: naive_strong_step_without(m, st, rs))),
            ]
            for query, expected in queries:
                first = query(m, s, rs)
                assert first == expected, (query.__name__, s, rs)
                assert type(first) is type(expected), (query.__name__, s, rs)
                assert query(m, s, rs) == first, (query.__name__, s, rs)
        for role in roles:
            assert m.involves(s, frozenset((role,))) == bool(naive_step_with(m, s, (role,))), \
                (s, role)
            assert (role in m.active_roles(s)) == naive_active(m, s, role), (s, role)
            assert m.active_roles(s) == m.active_roles(s)


# ---------------------------------------------------------------------------
# Cost: each closure is walked once per classifier


def test_typing_walks_each_closure_once(monkeypatch):
    pf = parse_file(workers_text(3, True, "+1"), "w3.smpst")
    m = build_lts(pf.globals["G"]).to_mlts()
    assert len(m.labels) == 125
    walks = Counter()
    walk = Mlts._walk

    def counted(self, s, banned, strong):
        walks[s, banned, strong] += 1
        return walk(self, s, banned, strong)

    monkeypatch.setattr(Mlts, "_walk", counted)
    result = type_session(m, pf.session("S"))
    assert isinstance(result, dict), result
    assert walks, "typing asked no reachability question"
    assert [key for key, n in walks.items() if n > 1] == []
