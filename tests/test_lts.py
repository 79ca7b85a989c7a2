import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import load_protocol
from synmpst.lts import (CapExceededError, build_lts, enabled, active,
                         lts_to_dot, lts_to_json, reach_strong_without,
                         reach_without, step, step_with, step_without,
                         strong_step_without)
from synmpst.parser import parse_mlts
from synmpst.terms import (GBranch, GComm, GEnd, GlobalAction, GMu, GPar,
                           GVar, PayloadType, pretty_global)

NAT = PayloadType.NAT
UNIT = PayloadType.UNIT


def act(s, r, label, ty=UNIT):
    return GlobalAction(s, r, label, ty)


def comm(p, q, label, ty, cont):
    return GComm(p, q, (GBranch(label, ty, cont),))


def test_step_end_is_empty():
    assert step(GEnd()) == frozenset()


def test_step_ring_initial(ring_pf):
    ring = ring_pf.globals["Ring"]
    expected = {
        (act("a", "b", "AppThenGet", NAT), ring.branches[0].cont),
        (act("a", "b", "App", NAT), ring.branches[1].cont),
    }
    assert step(ring) == expected


def test_step_lasso_loop():
    # mu X . b->c:Foo(Unit) . b->d:Foo(Unit) . X steps only with b->c:Foo.
    loop = GMu("X", comm("b", "c", "Foo", UNIT, comm("b", "d", "Foo", UNIT, GVar("X"))))
    out = step(loop)
    assert out == {(act("b", "c", "Foo"), comm("b", "d", "Foo", UNIT, loop))}


def test_step_com2_out_of_order():
    pf = load_protocol("com2.smpst")
    g = pf.globals["Com2"]
    (first,) = step(g)
    assert first[0] == act("a", "b1", "Foo")
    after = {a for a, _ in step(first[1])}
    assert {act("a", "b2", "Foo"), act("b1", "c", "Bar")} <= after


def test_build_lts_ring_shape(ring_lts):
    assert len(ring_lts.terms) == 6
    assert len(ring_lts.transitions) == 6


def test_build_lts_end():
    lts = build_lts(GEnd())
    assert len(lts.terms) == 1
    assert len(lts.transitions) == 0


def test_build_lts_lasso(lasso_lts):
    assert len(lasso_lts.terms) == 3
    assert len(lasso_lts.transitions) == 3


def test_build_lts_cap():
    pf = load_protocol("workers.smpst")
    with pytest.raises(CapExceededError) as err:
        build_lts(pf.globals["Workers"], cap=5)
    assert err.value.cap == 5
    assert "5" in str(err.value)


def test_build_lts_closed_under_transitions(ring_lts):
    state_count = len(ring_lts.terms)
    for src, _, dst in ring_lts.transitions:
        assert 0 <= src < state_count and 0 <= dst < state_count


def test_step_is_pure(ring_pf):
    ring = ring_pf.globals["Ring"]
    assert step(ring) == step(ring)


# -- derived relations on the Ring LTS ----------------------------------------


def test_step_with_examples(ring_m, ring_states):
    g = ring_states
    assert step_with(ring_m, g["G3"], {"a"}) == {(act("c", "a", "Val", NAT), g["G4"])}
    assert step_with(ring_m, g["G2"], {"a"}) == frozenset()
    # empty requirement keeps every transition
    for s in ring_m.states:
        assert step_with(ring_m, s, ()) == frozenset(ring_m.transitions_from(s))


def test_step_without_examples(ring_m, ring_states):
    g = ring_states
    assert step_without(ring_m, g["G2"], {"a"}) == \
        {(act("b", "c", "AppThenGet", NAT), g["G3"])}
    both = step_without(ring_m, g["G1"], {"c"})
    assert {a for a, _ in both} == {act("a", "b", "AppThenGet", NAT), act("a", "b", "App", NAT)}
    assert step_without(ring_m, g["G4"], {"a"}) == frozenset()


def test_strong_step_without_examples(ring_m, ring_states):
    g = ring_states
    strong = strong_step_without(ring_m, g["G1"], {"c"})
    assert len(strong) == 2
    assert strong_step_without(ring_m, g["G3"], {"a"}) == frozenset()
    assert strong_step_without(ring_m, g["G4"], {"a"}) == frozenset()


def test_reach_without_examples(ring_m, ring_states):
    g = ring_states
    assert reach_without(ring_m, g["G1"], {"a"}) == (g["G1"],)
    assert set(reach_without(ring_m, g["G2"], {"a"})) == {g["G2"], g["G3"]}
    assert reach_without(ring_m, g["G4"], ()) == (g["G4"],)


def test_reach_strong_without(ring_m, ring_states):
    g = ring_states
    assert set(reach_strong_without(ring_m, g["G1"], {"c"})) == {g["G1"], g["G2"], g["G5"]}
    assert reach_strong_without(ring_m, g["G3"], {"a"}) == (g["G3"],)


def test_enabled_and_active(ring_m, ring_states):
    g = ring_states
    assert not enabled(ring_m, g["G1"], "c")
    assert active(ring_m, g["G1"], "c")
    assert not enabled(ring_m, g["G6"], "b")
    assert not active(ring_m, g["G6"], "b")
    assert not active(ring_m, g["G1"], "nobody")


def test_partition_for_single_role(ring_m):
    for s in ring_m.states:
        full = frozenset(ring_m.transitions_from(s))
        for role in ("a", "b", "c"):
            with_r = step_with(ring_m, s, {role})
            without_r = step_without(ring_m, s, {role})
            assert with_r | without_r == full
            assert not with_r & without_r


def test_strong_step_nonempty_implies_disabled(ring_m):
    for s in ring_m.states:
        for role in ("a", "b", "c"):
            if strong_step_without(ring_m, s, {role}):
                assert not step_with(ring_m, s, {role})


def test_corpus_fits_default_cap():
    for name in ("ring", "lasso", "confusion", "com2", "oauth2",
                 "twobuyers", "mapreduce", "workers"):
        pf = load_protocol(f"{name}.smpst")
        for g in pf.globals.values():
            build_lts(g)  # raises CapExceededError on failure


# -- oracle for recursion- and par-free types ---------------------------------


def naive_step(g):
    """Structural recursion oracle; only valid without mu and par."""
    if isinstance(g, GEnd):
        return frozenset()
    assert isinstance(g, GComm)
    out = set()
    for b in g.branches:
        out.add((GlobalAction(g.sender, g.receiver, b.label, b.payload), b.cont))
    shared = None
    per_branch = [naive_step(b.cont) for b in g.branches]
    for steps in per_branch:
        actions = {a for a, _ in steps}
        shared = actions if shared is None else shared & actions
    for action in shared or ():
        if action.roles & {g.sender, g.receiver}:
            continue
        targets = [sorted((t for a, t in steps if a == action), key=pretty_global)
                   for steps in per_branch]
        for combo in itertools.product(*targets):
            branches = tuple(GBranch(b.label, b.payload, c)
                             for b, c in zip(g.branches, combo))
            out.add((action, GComm(g.sender, g.receiver, branches)))
    return frozenset(out)


def finite_types():
    leaves = st.just(GEnd())

    def extend(children):
        def make(sender_receiver, labels, payloads, conts):
            sender, receiver = sender_receiver
            branches = tuple(GBranch(l, t, c) for l, t, c in zip(labels, payloads, conts))
            return GComm(sender, receiver, branches)
        pairs = st.sampled_from([(p, q) for p in "abcd" for q in "abcd" if p != q])
        return st.builds(
            make, pairs,
            st.permutations(("L", "M", "N")).map(lambda ls: ls[:2]),
            st.lists(st.sampled_from((NAT, UNIT)), min_size=2, max_size=2),
            st.lists(children, min_size=2, max_size=2))

    return st.recursive(leaves, extend, max_leaves=6)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(finite_types())
def test_step_agrees_with_structural_oracle(g):
    assert step(g) == naive_step(g)


def test_par_steps_interleave():
    g = GPar(comm("a", "b", "F", UNIT, GEnd()), comm("c", "d", "M", UNIT, GEnd()))
    lts = build_lts(g)
    assert len(lts.terms) == 4   # diamond of interleavings
    assert len(lts.transitions) == 4


# -- export -------------------------------------------------------------------


def test_dot_export_shape(ring_m):
    import re
    dot = lts_to_dot(ring_m)
    assert dot.startswith("digraph")
    edges = [line for line in dot.splitlines()
             if re.match(r"\s*s\d+ -> s\d+ \[", line)]
    assert len(edges) == 6


def test_json_export_round_trips_as_mlts(ring_lts, ring_m):
    doc = lts_to_json(ring_m)
    assert lts_to_json(ring_lts) == doc
    reparsed = parse_mlts(doc, "ring.json")
    assert not isinstance(reparsed, list)
    assert len(reparsed.labels) == len(ring_m.labels)
    assert len(reparsed.transitions) == len(ring_m.transitions)
