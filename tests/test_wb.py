"""check_well_behaved on the coded table against a naive reference, and its cap."""
import random
import sys

import pytest

from conftest import CORPUS, load_protocol, pairs_global, workers_global
from synmpst.generate import random_global_type
from synmpst.lts import build_lts, lts_to_json
from synmpst.mlts import (CONDITIONAL_COMMUTATIVITY, DETERMINISM, DIAMOND, _MESSAGES,
                          SENDER_DETERMINACY, _WITNESS_CAP, Mlts, WbViolation,
                          check_well_behaved, receiver_disjoint,
                          replay_violation)
from synmpst.parser import parse_file, parse_mlts
from synmpst.terms import GlobalAction, PayloadType

UNIT = PayloadType.UNIT

# `random_global_type` draws below 10 000 that the checker rejects, against
# the theorem that global types are well-behaved (ROADMAP item 1).
DEFECT_DRAWS = (621, 883, 1911, 2330, 3072, 3268, 3864, 4970, 5361,
                6944, 7083, 8575, 8661, 9041, 9327)


def act(s, r, label):
    return GlobalAction(s, r, label, UNIT)


# ---------------------------------------------------------------------------
# Naive reference: the checker as it was before the coded table, asking every
# question with GlobalAction values of its own rows, built from m.transitions


def naive_rows(m):
    rows = {s: [] for s in m.states}
    for src, a, dst in m.transitions:
        rows[src].append((a, dst))
    return {s: sorted(row, key=lambda at: (at[0].sort_key(), at[1])) for s, row in rows.items()}


def naive_check_well_behaved(m):
    rows = naive_rows(m)
    out = []
    counts = {SENDER_DETERMINACY: 0, DETERMINISM: 0, CONDITIONAL_COMMUTATIVITY: 0, DIAMOND: 0}

    def targets(s, a):
        return tuple(t for b, t in rows[s] if b == a)

    def emit(v):
        if counts[v.condition] < _WITNESS_CAP:
            out.append(v)
        counts[v.condition] += 1

    for s in m.states:
        outgoing = rows[s]

        for i, (a1, _) in enumerate(outgoing):
            for a2, _ in outgoing[i + 1:]:
                if a1 == a2:
                    continue
                same_pair = a1.sender == a2.sender and a1.receiver == a2.receiver
                if not (receiver_disjoint(a1, a2) or same_pair):
                    emit(WbViolation(
                        SENDER_DETERMINACY, (s,), (a1, a2),
                        f"state {s} offers {a1} and {a2}"))

        for a in dict.fromkeys(a for a, _ in outgoing):
            dsts = targets(s, a)
            if len(dsts) > 1:
                d1, d2 = dsts[:2]
                emit(WbViolation(
                    DETERMINISM, (s, d1, d2), (a,),
                    f"state {s} reaches both {d1} and {d2} via {a}"))

        pairs_at_s = {(b.sender, b.receiver) for b, _ in outgoing}
        for a1, s1 in outgoing:
            for a2, s_prime in rows[s1]:
                if a2.roles & a1.roles or (a2.sender, a2.receiver) not in pairs_at_s:
                    continue
                if not any(s_prime in targets(mid, a1) for mid in targets(s, a2)):
                    emit(WbViolation(
                        CONDITIONAL_COMMUTATIVITY, (s, s1, s_prime), (a1, a2),
                        f"{a1} then {a2} from state {s} cannot be reordered"))

        for i, (a1, s1) in enumerate(outgoing):
            for a2, s2 in outgoing[i + 1:]:
                if a1 == a2 or not receiver_disjoint(a1, a2):
                    continue
                if not any(t1 in targets(s2, a1) for t1 in targets(s1, a2)):
                    emit(WbViolation(
                        DIAMOND, (s, s1, s2), (a1, a2),
                        f"{a1} and {a2} from state {s} do not close a diamond"))

    return out


# ---------------------------------------------------------------------------
# Classifiers


def global_mlts(text):
    return build_lts(parse_file(f"global G = {text};").globals["G"]).to_mlts()


def cuts(m):
    """Every MLTS with exactly one transition of m deleted."""
    ordered = sorted(m.transitions, key=lambda t: (t[0], t[1].sort_key(), t[2]))
    return [Mlts(m.initial, m.labels, m.transitions - {t}) for t in ordered]


def nondeterministic_mlts():
    """a->b:Go reaches s1, s2 and s4, and only s1 closes the diamond with c->d:Up."""
    go, up = act("a", "b", "Go"), act("c", "d", "Up")
    return Mlts(0, ("s0", "s1", "s2", "s3", "s4"), frozenset({
        (0, go, 1), (0, go, 2), (0, go, 4), (0, up, 3), (3, go, 4), (1, up, 4),
        (2, act("b", "a", "Back"), 0),
    }))


def shared_receiver_mlts():
    """State 0 offers a->b twice, which is fine, and c->b, which is not."""
    return Mlts(0, ("s0", "s1", "s2"), frozenset({
        (0, act("a", "b", "L1"), 1), (0, act("a", "b", "L3"), 1), (0, act("c", "b", "L2"), 2),
    }))


def receiver_sends_mlts():
    """b receives in a->b:L and sends in b->c:M at state 0, and a receives in
    c->a:N and sends in a->b:L at state 3: the clashing role's pair comes
    after the other pair in one row and before it in the other."""
    return Mlts(0, tuple(f"s{i}" for i in range(5)), frozenset({
        (0, act("a", "b", "L"), 1), (0, act("b", "c", "M"), 2), (1, act("d", "e", "K"), 3),
        (3, act("c", "a", "N"), 4), (3, act("a", "b", "L"), 4),
    }))


def pair_level_mlts():
    """Every diamond closes, but after a->b:L state 1 offers c->d:M2, whose
    pair state 0 offers only as c->d:M1: condition 3's pair-level reading."""
    ell, m1, m2 = act("a", "b", "L"), act("c", "d", "M1"), act("c", "d", "M2")
    return Mlts(0, tuple(f"s{i}" for i in range(5)), frozenset({
        (0, ell, 1), (0, m1, 2), (1, m1, 3), (1, m2, 4), (2, ell, 3),
    }))


def nondeterministic_cc_mlts():
    """The diamond of a->b:Go and c->d:Up at state 0 closes at state 3, but
    Up also takes state 1 to state 4, which Go from state 2 does not reach."""
    go, up = act("a", "b", "Go"), act("c", "d", "Up")
    return Mlts(0, tuple(f"s{i}" for i in range(5)), frozenset({
        (0, go, 1), (0, up, 2), (1, up, 3), (1, up, 4), (2, go, 3),
    }))


def nondeterministic_source_mlts():
    """Go leaves state 0 for states 1 and 2, and only state 1's Up meets
    state 3's Go: the diamond through state 2 breaks, and Go then Up through
    it cannot be reordered."""
    go, up = act("a", "b", "Go"), act("c", "d", "Up")
    return Mlts(0, tuple(f"s{i}" for i in range(6)), frozenset({
        (0, go, 1), (0, go, 2), (0, up, 3), (1, up, 4), (2, up, 5), (3, go, 4),
    }))


def over_cap_mlts(condition, n=_WITNESS_CAP + 10):
    """n copies of one state shape that violates condition once, and only it."""
    ell, m1, m2 = act("a", "b", "L"), act("c", "d", "M1"), act("c", "d", "M2")
    shapes = {
        SENDER_DETERMINACY: [(0, ell, 1), (0, act("c", "b", "M"), 1)],
        DETERMINISM: [(0, ell, 1), (0, ell, 2)],
        CONDITIONAL_COMMUTATIVITY: [(0, ell, 1), (0, m1, 2), (1, m1, 3), (1, m2, 4), (2, ell, 3)],
        DIAMOND: [(0, ell, 1), (0, m1, 2)],
    }[condition]
    width = 1 + max(max(src, dst) for src, _, dst in shapes)
    return Mlts(0, tuple(f"s{i}" for i in range(n * width)), frozenset(
        (k * width + src, a, k * width + dst) for k in range(n) for src, a, dst in shapes))


def round_trip(m):
    """m exported by lts_to_json and loaded back by parse_mlts."""
    return parse_mlts(lts_to_json(m))


def classifiers():
    out = []
    for path in sorted(CORPUS.glob("*.smpst")):
        for name, g in load_protocol(path.name, allow_unresolved=True).globals.items():
            out.append((f"{path.stem}.{name}", build_lts(g).to_mlts()))
    out.append(("diamond.mlts.json",
                parse_mlts((CORPUS / "diamond.mlts.json").read_text(), "diamond.mlts.json")))
    out.append(("nondeterministic", nondeterministic_mlts()))
    out.append(("shared_receiver", shared_receiver_mlts()))
    out.append(("receiver_sends", receiver_sends_mlts()))
    out.append(("pair_level", pair_level_mlts()))
    out.append(("nondeterministic_cc", nondeterministic_cc_mlts()))
    out.append(("nondeterministic_source", nondeterministic_source_mlts()))
    out += [(f"over_cap_{condition}", over_cap_mlts(condition)) for condition in _MESSAGES]
    for draw in (*range(1000, 1100), *DEFECT_DRAWS):
        out.append((f"draw{draw}", build_lts(random_global_type(random.Random(draw))).to_mlts()))
    for name, m in (("P_4", global_mlts(pairs_global(4))), ("W_2", global_mlts(workers_global(2)))):
        out.append((name, m))
        out += [(f"{name}-cut{i}", cut) for i, cut in enumerate(cuts(m))]
    for name, m in ROUND_TRIPS.items():
        out.append((f"{name}-json", round_trip(m)))
    return out


def _round_trip_sources():
    out = {}
    for name, text in (("W_3", workers_global(3)), ("P_6", pairs_global(6))):
        m = global_mlts(text)
        out[name] = m
        out[f"{name}-cut"] = cuts(m)[len(m.transitions) // 2]
    return out


ROUND_TRIPS = _round_trip_sources()


CLASSIFIERS = classifiers()


@pytest.mark.parametrize("name,m", CLASSIFIERS, ids=[name for name, _ in CLASSIFIERS])
def test_checker_agrees_with_the_naive_reference(name, m):
    rows = naive_rows(m)
    assert [list(m.transitions_from(s)) for s in m.states] == [rows[s] for s in m.states]
    expected = naive_check_well_behaved(m)
    got = check_well_behaved(m)
    assert got == expected
    assert [v.message for v in got] == [v.message for v in expected]
    assert all(replay_violation(m, v) for v in got)


def test_the_differential_cases_include_violations():
    rejected = {name for name, m in CLASSIFIERS if check_well_behaved(m)}
    assert {"nondeterministic", "shared_receiver"} <= rejected
    assert {"P_4", "W_2"}.isdisjoint(rejected)
    # No transition of P_4 enters its initial state, so only cutting one of
    # the initial state's own four transitions leaves no broken diamond.
    p4 = dict(CLASSIFIERS)["P_4"]
    kept = [name for name, _ in CLASSIFIERS if name.startswith("P_4-cut") and name not in rejected]
    assert kept == [f"P_4-cut{i}" for i in range(len(p4.transitions_from(p4.initial)))] != []
    assert any(name.startswith("W_2-cut") for name in rejected)
    conditions = {v.condition for _, m in CLASSIFIERS for v in check_well_behaved(m)}
    assert conditions == {SENDER_DETERMINACY, DETERMINISM, CONDITIONAL_COMMUTATIVITY, DIAMOND}


def test_each_gated_path_is_reached():
    """Each case has violations that only a loop behind a gate of
    check_well_behaved finds; pinning their counts shows a gate that skips."""
    named = dict(CLASSIFIERS)
    expected = {
        "receiver_sends": {SENDER_DETERMINACY: 2},
        "pair_level": {CONDITIONAL_COMMUTATIVITY: 1},
        "nondeterministic_cc": {DETERMINISM: 1, CONDITIONAL_COMMUTATIVITY: 1},
        "nondeterministic_source": {DETERMINISM: 1, CONDITIONAL_COMMUTATIVITY: 1, DIAMOND: 1},
        **{f"over_cap_{c}": {c: _WITNESS_CAP + 10} for c in _MESSAGES},
    }
    for name, counts in expected.items():
        got = check_well_behaved(named[name]).counts
        assert {c: n for c, n in got.items() if n} == counts, name


def test_counts_cover_every_violation(monkeypatch):
    """The counts are those of the naive reference's list without the cap."""
    monkeypatch.setattr(sys.modules[__name__], "_WITNESS_CAP", 10 ** 9)
    for name, m in CLASSIFIERS:
        violations = check_well_behaved(m)
        every = naive_check_well_behaved(m)
        assert violations.counts == {c: sum(v.condition == c for v in every) for c in _MESSAGES}
        assert violations.total == len(every) >= len(violations), name
        assert violations.unlisted() == {c: n - 50 for c, n in violations.counts.items() if n > 50}


@pytest.mark.parametrize("name", ROUND_TRIPS)
def test_exported_json_loads_to_the_same_table(name):
    built = ROUND_TRIPS[name]
    loaded = round_trip(built)
    assert (loaded.initial, loaded.transitions) == (built.initial, built.transitions)
    views = ("actions", "ids", "rows", "bits", "role_mask", "receiver_bit", "pair_bit",
             "targets", "outgoing", "covers")
    for view in views:
        assert getattr(loaded._table, view) == getattr(built._table, view), view


def test_checker_reads_only_the_coded_table(monkeypatch):
    m = global_mlts(workers_global(2))
    m.targets(m.initial, act("a0", "b0", "Datum"))  # builds the table
    touched = []

    def record(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            touched.append(name)
            return original(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("__hash__", "__eq__", "__str__"):
        record(GlobalAction, name)
    for name in ("transitions_from", "targets", "involves"):
        record(Mlts, name)
    assert check_well_behaved(m) == []
    assert touched == []


# ---------------------------------------------------------------------------
# The witness cap


def test_witness_cap_lists_the_first_violations_in_state_order():
    """60 states that each offer a->b and c->b (one SenderDeterminacy
    violation each) and 3 that reach two states by one action."""
    n_sd, n_det = _WITNESS_CAP + 10, 3
    sink = n_sd + n_det
    transitions = set()
    for s in range(n_sd):
        transitions |= {(s, act("a", "b", "L1"), sink), (s, act("c", "b", "L2"), sink)}
    for s in range(n_sd, sink):
        transitions |= {(s, act("a", "b", "L1"), sink), (s, act("a", "b", "L1"), 0)}
    m = Mlts(0, tuple(f"s{i}" for i in range(sink + 1)), frozenset(transitions))

    violations = check_well_behaved(m)
    sd = [v for v in violations if v.condition == SENDER_DETERMINACY]
    det = [v for v in violations if v.condition == DETERMINISM]
    assert len(sd) == _WITNESS_CAP
    assert [v.states for v in sd] == [(s,) for s in range(_WITNESS_CAP)]
    assert [v.states for v in det] == [(s, 0, sink) for s in range(n_sd, sink)]
    assert len(violations) == _WITNESS_CAP + n_det
    assert violations == naive_check_well_behaved(m)
