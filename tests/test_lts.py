import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, load_protocol, pairs_global, workers_global
from synmpst import generate
from synmpst.lts import (DEFAULT_STATE_CAP, CapExceededError, GlobalLts,
                         _Stepper, build_lts, lts_to_dot,
                         lts_to_json, par_operands,
                         reach_strong_without, reach_without, step, step_with)
from synmpst.mlts import Mlts
from synmpst.parser import parse_file, parse_mlts
from synmpst.terms import (GBranch, GComm, GEnd, GlobalAction, GMu, GPar,
                           GVar, PayloadType, pretty_global, term_nodes)

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
    assert not ring_m.involves(g["G1"], frozenset("c"))
    assert "c" in ring_m.active_roles(g["G1"])
    assert not ring_m.involves(g["G6"], frozenset("b"))
    assert "b" not in ring_m.active_roles(g["G6"])
    assert "nobody" not in ring_m.active_roles(g["G1"])


def test_partition_for_single_role(ring_m):
    for s in ring_m.states:
        full = frozenset(ring_m.transitions_from(s))
        for role in ("a", "b", "c"):
            with_r = step_with(ring_m, s, {role})
            without_r = {(a, t) for a, t in full if role not in a.roles}
            assert with_r | without_r == full
            assert not with_r & without_r


def test_strong_step_nonempty_implies_disabled(ring_m):
    for s in ring_m.states:
        for role in ("a", "b", "c"):
            if reach_strong_without(ring_m, s, {role}) != (s,):
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


# -- the product search against a breadth-first search over whole terms ------


def _reference_order(steps):
    """A state's successors as build_lts must order them: by action, then
    same-action targets by their rendered terms."""
    by_action = {}
    for action, target in steps:
        by_action.setdefault(action, []).append(target)
    return [(action, t)
            for action in sorted(by_action, key=GlobalAction.sort_key)
            for t in sorted(by_action[action], key=pretty_global)]


def _reference_build_lts(g, cap=DEFAULT_STATE_CAP, max_term_nodes=None):
    """build_lts as a breadth-first search over whole terms, with structural
    equality as state identity: what build_lts must reproduce."""
    stepper = _Stepper()
    terms = [g]
    index = {g: 0}
    transitions = set()
    frontier = [0]
    sid = 0
    try:
        while frontier:
            next_frontier = []
            for sid in frontier:
                for action, target in _reference_order(stepper.step(terms[sid])):
                    tid = index.get(target)
                    if tid is None:
                        if len(terms) >= cap:
                            raise CapExceededError(cap, len(frontier) + len(next_frontier))
                        if max_term_nodes and term_nodes(target, max_term_nodes) > max_term_nodes:
                            raise CapExceededError(
                                cap, len(terms),
                                f"a state term grew past {max_term_nodes} nodes after "
                                f"{len(terms)} states; the reordering closure is likely unbounded")
                        tid = len(terms)
                        terms.append(target)
                        index[target] = tid
                        next_frontier.append(tid)
                    transitions.add((sid, action, tid))
            frontier = next_frontier
    except RecursionError:
        if sid == 0:
            raise   # the input's own depth, refused by the caller
        raise CapExceededError(
            cap, len(terms),
            f"state terms grew beyond comparable depth after {len(terms)} states; "
            "the type's reordering closure is likely unbounded") from None
    return GlobalLts(tuple(terms), frozenset(transitions))


def parse_global(text):
    return parse_file(f"global G = {text};", "g.smpst").globals["G"]


def corpus_globals():
    for path in sorted(CORPUS.glob("*.smpst")):
        for name, g in load_protocol(path.name, allow_unresolved=True).globals.items():
            yield f"{path.stem}.{name}", g


LOOP = "mu X . a -> b { L(Nat) . b -> a: Back(Unit) . X, S(Unit) . end }"
ONE_SHOT = "c -> d { M(Int) . end, N(Bool) . d -> c: Ack(Unit) . end }"
OUT_OF_ORDER = "e -> f: F(Unit) . g -> h: G(Unit) . end"


def product_cases():
    """Terms whose LTS build_lts must build as the reference does."""
    cases = list(corpus_globals())
    cases += [(f"W_{k}", parse_global(workers_global(k))) for k in range(1, 5)]
    cases += [(f"P_{n}", parse_global(pairs_global(n))) for n in range(1, 9)]
    cases += [
        ("nested-par", parse_global(f"par {{ par {{ {LOOP} || {ONE_SHOT} }} || {OUT_OF_ORDER} }}")),
        ("par-under-prefix", parse_global(f"x -> y: Go(Unit) . par {{ {LOOP} || {ONE_SHOT} }}")),
        ("par-under-unused-mu", parse_global(f"mu Z . par {{ {ONE_SHOT} || {OUT_OF_ORDER} }}")),
    ]
    # Built directly, past well-formedness: operands that share an action,
    # one of them twice from the same state, and operands looping on one
    # shared action, whose moves reach the same product state.
    shared = comm("a", "b", "M", UNIT, GEnd())
    cases.append(("shared-action", GPar(
        GComm("a", "b", (GBranch("M", UNIT, GEnd()), GBranch("M", UNIT, shared))),
        GPar(comm("a", "b", "M", UNIT, comm("c", "d", "N", UNIT, GEnd())), shared))))
    cases.append(("shared-self-loop", GPar(
        GMu("X", comm("a", "b", "M", UNIT, GVar("X"))),
        GMu("Y", comm("a", "b", "M", UNIT, GVar("Y"))))))
    # A non-deterministic operand whose targets render as "X" and "X\t": in
    # the product "X " sorts after "X\t", against the operands' own order.
    forked = GComm("a", "b", (GBranch("M", UNIT, GVar("X")), GBranch("M", UNIT, GVar("X\t"))))
    other = comm("c", "d", "N", UNIT, GEnd())
    cases += [("nondeterministic-left", GPar(forked, other)),
              ("nondeterministic-right", GPar(other, forked)),
              ("nondeterministic-alone", forked)]
    return cases


PRODUCT_CASES = product_cases()


def _reference_operands_first(g, cap=DEFAULT_STATE_CAP, max_term_nodes=None):
    """The reference's LTS, refused as build_lts refuses it: the operands on a
    top-level par spine are each searched first, within the cap and the node
    limit, so an operand that exceeds them alone is refused as itself."""
    for op in par_operands(g) if isinstance(g, GPar) else ():
        _reference_build_lts(op, cap, max_term_nodes)
    return _reference_build_lts(g, cap, max_term_nodes)


def outcome(build, g, cap=DEFAULT_STATE_CAP, max_term_nodes=None):
    try:
        lts = build(g, cap, max_term_nodes)
    except CapExceededError as e:
        return ("refused", str(e), e.cap, e.frontier)
    m = lts.to_mlts()
    return (lts.terms, lts.transitions, m.labels, lts_to_json(m))


@functools.cache
def pinned_draws():
    """The random_global_type draws the benchmark's random workload reads, by seed."""
    return {d: generate.random_global_type(random.Random(d))
            for d in (*range(1000, 1100), *range(7000, 7025))}


PAR_DRAWS = [(f"draw{d}", g) for d, g in pinned_draws().items() if isinstance(g, GPar)]


@pytest.mark.parametrize("name,g", PRODUCT_CASES + PAR_DRAWS,
                         ids=[name for name, _ in PRODUCT_CASES + PAR_DRAWS])
def test_build_lts_agrees_with_the_reference(name, g):
    expected = outcome(_reference_build_lts, g)
    assert outcome(build_lts, g) == expected
    assert expected[0] != "refused"
    for cap in (1, 3, 7, 50):
        assert outcome(build_lts, g, cap) == outcome(_reference_operands_first, g, cap), cap
    # A node limit just below the largest term after the initial one, which
    # is never measured, refuses that state.
    largest = max((term_nodes(t, 10**9) for t in expected[0][1:]), default=1)
    for limit in (largest - 1, largest):
        assert (outcome(build_lts, g, max_term_nodes=limit)
                == outcome(_reference_operands_first, g, max_term_nodes=limit)), limit


def test_the_benchmark_draws_are_pinned():
    # sha256 of the draws' texts, one a line; random_global_type probes each
    # candidate with build_lts, so a change there can change the draws.
    texts = "\n".join(pretty_global(g) for g in pinned_draws().values())
    assert hashlib.sha256(texts.encode()).hexdigest() == \
        "76ac2eeb6e5eb031789c79d620524f23b9fb3adee0d7d4b52b72c8e38f58e1d4"
    assert len(PAR_DRAWS) == 15


def test_product_ties_follow_the_rendered_product_terms():
    (_, g), = [case for case in PRODUCT_CASES if case[0] == "nondeterministic-left"]
    lts = build_lts(g)
    first, second = [pretty_global(lts.terms[t]) for s, _, t in sorted(lts.transitions,
                                                                       key=lambda tr: tr[2])
                     if s == 0 and t != 0][:2]
    assert (first, second) == ("par { X\t || c -> d: N(Unit) . end }",
                               "par { X || c -> d: N(Unit) . end }")


def test_term_ties_follow_the_rendered_terms():
    # Alone, the fork's targets "X" and "X\t" are taken in their own order.
    (_, g), = [case for case in PRODUCT_CASES if case[0] == "nondeterministic-alone"]
    lts = build_lts(g)
    assert [pretty_global(t) for t in lts.terms] == [pretty_global(g), "X", "X\t"]
    assert len(lts.transitions) == 2


def test_probe_verdicts_agree_with_the_reference():
    """random_global_type keeps a candidate iff its probe is not refused.

    Where a refusal comes from the recursion-depth guard, its state count
    depends on the caller's stack depth, and the two searches step operands at
    different depths; only the verdict is compared then."""
    kinds = set()
    for seed in range(500):
        g = generate._candidate(random.Random(seed), 6, ("a", "b", "c", "d"), 3)
        probe = (generate.PROBE_CAP, generate._PROBE_TERM_NODES)
        got, expected = outcome(build_lts, g, *probe), outcome(_reference_build_lts, g, *probe)
        assert (got[0] == "refused") == (expected[0] == "refused"), seed
        if got[0] == "refused" and isinstance(g, GPar):
            expected = outcome(_reference_operands_first, g, *probe)
        if not any("comparable depth" in str(o[1]) for o in (got, expected)):
            assert got == expected, seed
        kinds.add((isinstance(g, GPar), got[0] == "refused"))
    # Kept and refused candidates occur, and top-level pars among the kept.
    assert kinds >= {(False, False), (False, True), (True, False)}


def test_build_lts_steps_each_operand_state_once(monkeypatch):
    stepped = []
    real = _Stepper.step

    def counted(self, g):
        stepped.append(g)
        return real(self, g)

    monkeypatch.setattr(_Stepper, "step", counted)
    w4 = parse_global(workers_global(4))
    assert len(build_lts(w4).terms) == 625
    assert len(stepped) == 20
    stepped.clear()
    _reference_build_lts(w4)
    assert len(stepped) == 625


def test_json_export_is_json_dumps_of_the_document():
    cases = [build_lts(g).to_mlts() for _, g in corpus_globals()]
    cases.append(build_lts(parse_global(workers_global(3))).to_mlts())
    cases.append(parse_mlts((CORPUS / "diamond.mlts.json").read_text(), "diamond.mlts.json"))
    cases.append(Mlts(0, ("end",), frozenset()))
    odd = GlobalAction('r"1', "r\\2", "Lä\"bel\\", PayloadType.STR)
    cases.append(Mlts(0, ('s "0" \\ λ', "naïve\n☃"),
                      frozenset({(0, odd, 1), (1, act("r\\2", 'r"1', "Back"), 0)})))
    for m in cases:
        doc = {
            "states": [f"s{s}" for s in m.states],
            "initial": f"s{m.initial}",
            "transitions": [
                {"from": f"s{src}", "to": f"s{dst}", "sender": a.sender, "receiver": a.receiver,
                 "label": a.label, "payload": a.payload.value}
                for src in m.states for a, dst in m.transitions_from(src)],
            "terms": {f"s{s}": m.labels[s] for s in m.states},
        }
        assert lts_to_json(m) == json.dumps(doc, indent=2)
    assert '"transitions": []' in lts_to_json(Mlts(0, ("end",), frozenset()))
