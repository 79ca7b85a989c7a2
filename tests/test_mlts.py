import random

from hypothesis import given, settings, strategies as st

from conftest import CORPUS, load_protocol
from synmpst.generate import random_global_type
from synmpst.lts import build_lts
from synmpst.mlts import (CONDITIONAL_COMMUTATIVITY, DETERMINISM, DIAMOND,
                          SENDER_DETERMINACY, Mlts,
                          check_well_behaved, receiver_disjoint,
                          replay_violation)
from synmpst.terms import GEnd, GlobalAction, PayloadType, pretty_global

UNIT = PayloadType.UNIT


def act(s, r, label, ty=UNIT):
    return GlobalAction(s, r, label, ty)


def test_receiver_disjoint_examples():
    assert receiver_disjoint(act("a", "b", "Foo"), act("a", "c", "Bar"))
    assert not receiver_disjoint(act("a", "b", "L1"), act("c", "b", "L2"))
    assert not receiver_disjoint(act("a", "b", "L"), act("a", "b", "M"))


_actions = st.builds(
    act,
    st.sampled_from("abcd"), st.sampled_from("efgh"),
    st.sampled_from(("L", "M")), st.sampled_from(tuple(PayloadType)))


@settings(max_examples=500, derandomize=True)
@given(_actions, _actions)
def test_receiver_disjoint_is_symmetric(a1, a2):
    assert receiver_disjoint(a1, a2) == receiver_disjoint(a2, a1)


def test_ring_lts_well_behaved(ring_m):
    assert check_well_behaved(ring_m) == []


def test_diamond_mlts_well_behaved(diamond_m):
    assert check_well_behaved(diamond_m) == []
    assert diamond_m.initial == 0
    assert len(diamond_m.labels) == 4
    assert len(diamond_m.transitions) == 4


def test_end_lts_trivially_ok():
    assert check_well_behaved(build_lts(GEnd()).to_mlts()) == []


def test_workers_par_diamonds_close():
    pf = load_protocol("workers.smpst")
    m = build_lts(pf.globals["Workers"]).to_mlts()
    assert check_well_behaved(m) == []
    # the interleaving really does produce reorderable pairs
    assert any(receiver_disjoint(a1, a2)
               for s in m.states
               for a1, _ in m.transitions_from(s)
               for a2, _ in m.transitions_from(s)
               if a1 != a2)


def sender_determinacy_fixture() -> Mlts:
    return Mlts(0, ("S", "T1", "T2"), frozenset({
        (0, act("a", "b", "L1"), 1),
        (0, act("c", "b", "L2"), 2),
    }))


def broken_diamond_fixture() -> Mlts:
    return Mlts(0, ("S", "S1", "S2"), frozenset({
        (0, act("a", "b", "Foo"), 1),
        (0, act("c", "d", "Bar"), 2),
    }))


def nondeterminism_fixture() -> Mlts:
    return Mlts(0, ("S", "T1", "T2"), frozenset({
        (0, act("a", "b", "L"), 1),
        (0, act("a", "b", "L"), 2),
    }))


def commutativity_fixture() -> Mlts:
    # c->d:Hi is available at S, still available after the unrelated a->b:Go,
    # but the two cannot be reordered.
    return Mlts(0, ("S", "S1", "S2", "X"), frozenset({
        (0, act("a", "b", "Go"), 1),
        (0, act("c", "d", "Hi"), 3),
        (1, act("c", "d", "Hi"), 2),
    }))


def test_sender_determinacy_violation_exact():
    m = sender_determinacy_fixture()
    violations = check_well_behaved(m)
    assert [v.condition for v in violations] == [SENDER_DETERMINACY]
    assert replay_violation(m, violations[0])


def test_broken_diamond_violation_exact():
    m = broken_diamond_fixture()
    violations = check_well_behaved(m)
    assert [v.condition for v in violations] == [DIAMOND]
    assert replay_violation(m, violations[0])


def test_determinism_violation_detected():
    m = nondeterminism_fixture()
    conditions = {v.condition for v in check_well_behaved(m)}
    assert DETERMINISM in conditions
    for v in check_well_behaved(m):
        assert replay_violation(m, v)


def test_conditional_commutativity_violation_detected():
    m = commutativity_fixture()
    violations = check_well_behaved(m)
    assert any(v.condition == CONDITIONAL_COMMUTATIVITY for v in violations)
    for v in violations:
        assert replay_violation(m, v)


def test_replay_rejects_fabricated_witness(ring_m):
    from synmpst.mlts import WbViolation
    fake = WbViolation(SENDER_DETERMINACY, (0,),
                       (act("a", "b", "AppThenGet", PayloadType.NAT),
                        act("a", "b", "App", PayloadType.NAT)), "fabricated")
    assert not replay_violation(ring_m, fake)


def test_to_mlts_keeps_transitions_and_labels_terms(ring_lts):
    m = ring_lts.to_mlts()
    assert m.transitions == ring_lts.transitions
    assert m.initial == 0
    assert m.labels == tuple(pretty_global(t) for t in ring_lts.terms)


def test_targets_agree_with_transitions_from(diamond_m):
    ms = [diamond_m, nondeterminism_fixture()]
    for path in sorted(CORPUS.glob("*.smpst")):
        pf = load_protocol(path.name, allow_unresolved=True)
        ms += [build_lts(g).to_mlts() for g in pf.globals.values()]
    assert len(ms) > 10
    absent = act("nobody", "none", "Absent")
    for m in ms:
        for s in m.states:
            offered = {a for a, _ in m.transitions_from(s)}
            for a in m.actions | {absent}:
                expected = tuple(sorted(t for b, t in m.transitions_from(s) if b == a))
                assert m.targets(s, a) == expected
                assert (m.targets(s, a) == ()) == (a not in offered)
    assert nondeterminism_fixture().targets(0, act("a", "b", "L")) == (1, 2)


def test_corpus_globals_all_well_behaved():
    for name in ("ring", "lasso", "confusion", "com2", "oauth2",
                 "twobuyers", "mapreduce", "workers"):
        pf = load_protocol(f"{name}.smpst")
        for gname, g in pf.globals.items():
            assert check_well_behaved(build_lts(g).to_mlts()) == [], (name, gname)


def test_random_types_well_behaved_smoke():
    for i in range(25):
        g = random_global_type(random.Random(7000 + i))
        assert check_well_behaved(build_lts(g).to_mlts()) == []


def test_reachable_restriction_preserves_verdict(ring_m):
    # restricting a well-behaved MLTS to states reachable from any state
    # keeps it well-behaved
    for start in ring_m.states:
        seen = {start}
        frontier = [start]
        while frontier:
            s = frontier.pop()
            for _, t in ring_m.transitions_from(s):
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
        keep = sorted(seen)
        renumber = {old: new for new, old in enumerate(keep)}
        sub = Mlts(renumber[start],
                   tuple(ring_m.labels[s] for s in keep),
                   frozenset((renumber[a], act_, renumber[b])
                             for a, act_, b in ring_m.transitions
                             if a in seen and b in seen))
        assert check_well_behaved(sub) == []


def test_violations_serialise_to_json():
    m = sender_determinacy_fixture()
    doc = [v.to_json_obj() for v in check_well_behaved(m)]
    assert doc[0]["condition"] == SENDER_DETERMINACY
    assert doc[0]["states"] == [0]
    assert len(doc[0]["actions"]) == 2


def test_mlts_constructor_validation():
    import pytest as _pytest
    with _pytest.raises(ValueError):
        Mlts(1, ("only",), frozenset())
    with _pytest.raises(ValueError):
        Mlts(0, ("only",), frozenset({(0, act("a", "b", "L"), 7)}))
