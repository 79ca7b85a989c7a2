import os

import pytest

from conftest import GOLDEN, load_protocol
from synmpst.lts import build_lts, reach_without
from synmpst.mlts import Mlts, check_well_behaved
from synmpst.terms import (Add, BoolLit, Eq, GlobalAction, IntLit, NatLit, PayloadType,
                           PEnd, PRec, PRecv, PSend, PVar, RecvBranch, Session,
                           StrLit, UnitLit, VarRef)
from synmpst.typecheck import (EXPR_ILL_TYPED, MISSING_RECV_BRANCH,
                               NOT_TERMINABLE, PAYLOAD_MISMATCH, ROLE_CLASH,
                               ROLE_UNIMPLEMENTED, RULE_END, RULE_IF, RULE_LET,
                               RULE_REC, RULE_RECV, RULE_SEND, RULE_SKIP,
                               RULE_VAR, SKIP_FAILED, UNBOUND_VAR,
                               UNEXPECTED_SEND, VAR_STATE_UNREACHABLE,
                               Checker, Derivation, TcError, render_derivation,
                               try_skip, type_expr, type_process, type_session)

NAT = PayloadType.NAT
UNIT = PayloadType.UNIT
BOOL = PayloadType.BOOL


def act(s, r, label, ty=UNIT):
    return GlobalAction(s, r, label, ty)


# -- expression typing ---------------------------------------------------------


def test_type_expr_examples():
    assert type_expr((("x", NAT),), Add(VarRef("x"), NatLit(1))) == NAT
    assert type_expr((), Eq(NatLit(2), NatLit(3))) == BOOL
    err = type_expr((), VarRef("y"))
    assert isinstance(err, TcError) and err.kind == UNBOUND_VAR


def test_type_expr_rejects_heterogeneous_equality():
    err = type_expr((), Eq(NatLit(2), BoolLit(True)))
    assert isinstance(err, TcError) and err.kind == EXPR_ILL_TYPED


def test_type_expr_arithmetic():
    assert type_expr((), Add(NatLit(1), NatLit(2))) == NAT
    from synmpst.terms import IntLit, Mul
    assert type_expr((), Mul(IntLit(-1), IntLit(3))) == PayloadType.INT
    err = type_expr((), Add(NatLit(1), IntLit(1)))
    assert isinstance(err, TcError) and err.kind == EXPR_ILL_TYPED
    err = type_expr((), Add(StrLit("x"), StrLit("y")))
    assert isinstance(err, TcError)


def test_type_expr_innermost_binding_wins():
    env = (("x", NAT), ("x", BOOL))
    assert type_expr(env, VarRef("x")) == BOOL


# -- the twelve worked judgements ----------------------------------------------


def _ring_judgements(pf, states):
    alice = pf.processes["RingAlice"][1]
    bob = pf.processes["RingBob"][1]
    carol = pf.processes["RingCarol"][1]
    recv_val = alice.cont
    send_atg = bob.branches[0].cont
    send_app = bob.branches[1].cont
    carol_push = carol.branches[0].cont
    carol_pull = carol.branches[1].cont
    g = states
    return [
        # (name, gamma, role, process, state, expected root rule, obligations)
        ("eq01", (("z", NAT),), "a", PEnd(), g["G4"], RULE_END, None),
        ("eq02", (), "a", recv_val, g["G3"], RULE_RECV, None),
        ("eq03", (), "a", recv_val, g["G2"], RULE_SKIP, (g["G3"],)),
        ("eq04", (), "a", alice, g["G1"], RULE_SEND, None),
        ("eq05", (("x", NAT),), "b", send_atg, g["G2"], RULE_SEND, None),
        ("eq06", (("x", NAT),), "b", send_app, g["G5"], RULE_SEND, None),
        ("eq07", (), "b", bob, g["G1"], RULE_RECV, None),
        ("eq08", (("y", NAT),), "c", carol_push, g["G3"], RULE_SEND, None),
        ("eq09", (("y", NAT),), "c", carol_pull, g["G6"], RULE_LET, None),
        ("eq10", (), "c", carol, g["G2"], RULE_RECV, None),
        ("eq11", (), "c", carol, g["G5"], RULE_RECV, None),
        ("eq12", (), "c", carol, g["G1"], RULE_SKIP, (g["G2"], g["G5"])),
    ]


def test_worked_judgements_roots_and_obligations(ring_pf, ring_m, ring_states):
    for name, gamma, role, proc, state, rule, obligations in \
            _ring_judgements(ring_pf, ring_states):
        out = type_process(ring_m, gamma, (), role, proc, state)
        assert isinstance(out, Derivation), (name, out)
        assert out.rule == rule, name
        if obligations is not None:
            assert out.obligations == tuple(sorted(obligations)), name


def test_worked_judgements_match_goldens(ring_pf, ring_m, ring_states):
    update = os.environ.get("SYNMPST_UPDATE_GOLDENS") == "1"
    for name, gamma, role, proc, state, _, _ in _ring_judgements(ring_pf, ring_states):
        out = type_process(ring_m, gamma, (), role, proc, state)
        rendered = render_derivation(out) + "\n"
        path = GOLDEN / f"{name}.txt"
        if update:
            path.write_text(rendered)
        assert rendered == path.read_text(), name


# -- skipping -------------------------------------------------------------------


def test_try_skip_single_obligation(ring_pf, ring_m, ring_states):
    recv_val = ring_pf.processes["RingAlice"][1].cont
    out = try_skip(ring_m, (), (), "a", recv_val, ring_states["G2"])
    assert out == (ring_states["G3"],)


def test_try_skip_two_obligations(ring_pf, ring_m, ring_states):
    carol = ring_pf.processes["RingCarol"][1]
    out = try_skip(ring_m, (), (), "c", carol, ring_states["G1"])
    assert out == tuple(sorted((ring_states["G2"], ring_states["G5"])))


def test_try_skip_premise_1_fails_when_enabled(ring_pf, ring_m, ring_states):
    recv_val = ring_pf.processes["RingAlice"][1].cont
    out = try_skip(ring_m, (), (), "a", recv_val, ring_states["G3"])
    assert isinstance(out, TcError)
    assert out.kind == SKIP_FAILED and out.premise == 1


def test_try_skip_premise_2_fails_for_foreign_role(ring_m, ring_states):
    ghost = PRecv("a", (RecvBranch("L", "x", UNIT, PEnd()),))
    out = try_skip(ring_m, (), (), "ghost", ghost, ring_states["G4"])
    assert isinstance(out, TcError)
    assert out.kind == SKIP_FAILED and out.premise == 2


def test_try_skip_premise_4_blocks_spontaneous_partners():
    # a->b:Go . c->d:Hi . end: the c/d communication becomes available
    # without either c or d doing anything first, so c may not just wait.
    m = Mlts(0, ("S0", "S1", "S2"), frozenset({
        (0, act("a", "b", "Go"), 1),
        (1, act("c", "d", "Hi"), 2),
    }))
    sender = PSend("d", "Hi", UnitLit(), PEnd())
    out = try_skip(m, (), (), "c", sender, 0)
    assert isinstance(out, TcError)
    assert out.kind == SKIP_FAILED and out.premise == 4
    # and the full check rejects it too (unsound otherwise)
    verdict = type_process(m, (), (), "c", sender, 0)
    assert isinstance(verdict, TcError)


def test_skip_requires_communication_head():
    m = Mlts(0, ("S0",), frozenset())
    with pytest.raises(ValueError):
        try_skip(m, (), (), "a", PEnd(), 0)


def test_structural_and_skip_mutually_exclusive(ring_m):
    # wherever a role participates in a transition, skipping premise 1 fails
    from synmpst.lts import step_with
    for s in ring_m.states:
        for role in ("a", "b", "c"):
            if step_with(ring_m, s, (role,)):
                probe = PSend("x", "Nope", UnitLit(), PEnd())
                out = try_skip(ring_m, (), (), role, probe, s)
                assert isinstance(out, TcError) and out.premise == 1


# -- whole sessions ---------------------------------------------------------------


def test_ring_session_well_typed(ring_pf, ring_m):
    out = type_session(ring_m, ring_pf.session("RingDemo"))
    assert isinstance(out, dict)
    assert set(out) == {"a", "b", "c"}


def test_ring_session_missing_role(ring_pf, ring_m):
    sess = Session((("a", ring_pf.processes["RingAlice"][1]),
                    ("b", ring_pf.processes["RingBob"][1])))
    out = type_session(ring_m, sess)
    assert isinstance(out, list)
    assert any(e.kind == ROLE_UNIMPLEMENTED and e.role == "c" for e in out)


def test_benchmark_sessions_well_typed():
    cases = [("oauth2.smpst", "OAuth", "OAuthDemo"),
             ("twobuyers.smpst", "TwoBuyers", "TwoBuyersDemo"),
             ("mapreduce.smpst", "MapReduce", "MapReduceDemo"),
             ("workers.smpst", "Workers", "WorkersDemo")]
    for fname, gname, sname in cases:
        pf = load_protocol(fname)
        m = build_lts(pf.globals[gname]).to_mlts()
        out = type_session(m, pf.session(sname))
        assert isinstance(out, dict), (fname, out)


def test_wrong_payload_is_payload_mismatch():
    pf = load_protocol("ring_badpayload.smpst")
    m = build_lts(pf.globals["Ring"]).to_mlts()
    out = type_session(m, pf.session("RingBadPayload"))
    assert isinstance(out, list)
    assert [e.kind for e in out] == [PAYLOAD_MISMATCH]


def test_wrong_action_is_unexpected_send():
    pf = load_protocol("ring_badaction.smpst")
    m = build_lts(pf.globals["Ring"]).to_mlts()
    out = type_session(m, pf.session("RingBadAction"))
    assert isinstance(out, list)
    assert [e.kind for e in out] == [UNEXPECTED_SEND]


def test_confusion_candidates_both_fail():
    pf = load_protocol("confusion.smpst")
    m = build_lts(pf.globals["Confusion"]).to_mlts()
    for sname in ("ConfusionFoo", "ConfusionBar"):
        out = type_session(m, pf.session(sname))
        assert isinstance(out, list), sname
        assert all(e.role == "c" for e in out)


def test_missing_recv_branch_kind(ring_pf, ring_m, ring_states):
    narrow = PRecv("a", (RecvBranch("AppThenGet", "x", NAT, PEnd()),))
    out = type_process(ring_m, (), (), "b", narrow, ring_states["G1"])
    assert isinstance(out, TcError) and out.kind == MISSING_RECV_BRANCH


def test_recv_annotation_must_match_payload(ring_pf, ring_m, ring_states):
    recv_bad = PRecv("c", (RecvBranch("Val", "z", BOOL, PEnd()),))
    out = type_process(ring_m, (), (), "a", recv_bad, ring_states["G3"])
    assert isinstance(out, TcError) and out.kind == PAYLOAD_MISMATCH


def test_recv_from_wrong_sender_is_role_clash(ring_pf, ring_m, ring_states):
    recv_wrong = PRecv("b", (RecvBranch("Val", "z", NAT, PEnd()),))
    out = type_process(ring_m, (), (), "a", recv_wrong, ring_states["G3"])
    assert isinstance(out, TcError) and out.kind == ROLE_CLASH


def test_extra_recv_branches_are_permitted(ring_pf, ring_m, ring_states):
    wide = PRecv("c", (RecvBranch("Val", "z", NAT, PEnd()),
                       RecvBranch("Bogus", "w", UNIT, PEnd())))
    out = type_process(ring_m, (), (), "a", wide, ring_states["G3"])
    assert isinstance(out, Derivation)


def test_end_not_terminable(ring_m, ring_states):
    out = type_process(ring_m, (), (), "a", PEnd(), ring_states["G2"])
    assert isinstance(out, TcError) and out.kind == NOT_TERMINABLE


def test_if_checks_both_arms(ring_pf, ring_m, ring_states):
    from synmpst.terms import PIf
    recv_val = ring_pf.processes["RingAlice"][1].cont
    good = PIf(Eq(NatLit(1), NatLit(1)), recv_val, recv_val)
    out = type_process(ring_m, (), (), "a", good, ring_states["G3"])
    assert isinstance(out, Derivation) and out.rule == RULE_IF
    bad = PIf(Eq(NatLit(1), NatLit(1)), recv_val, PSend("b", "Nope", UnitLit(), PEnd()))
    out = type_process(ring_m, (), (), "a", bad, ring_states["G3"])
    assert isinstance(out, TcError)
    nonbool = PIf(NatLit(1), recv_val, recv_val)
    out = type_process(ring_m, (), (), "a", nonbool, ring_states["G3"])
    assert isinstance(out, TcError) and out.kind == EXPR_ILL_TYPED


def test_lasso_relaxed_var_rule(lasso_pf, lasso_lts):
    m = lasso_lts.to_mlts()
    dave = lasso_pf.processes["LassoDave"][1]
    out = type_process(m, (), (), "d", dave, m.initial)
    assert isinstance(out, Derivation)
    rules = [n.rule for n in out.iter_nodes()]
    assert rules[0] == RULE_REC
    assert RULE_VAR in rules and RULE_SKIP in rules
    # the variable was bound at the initial state but closes elsewhere
    var_node = next(n for n in out.iter_nodes() if n.rule == RULE_VAR)
    assert var_node.state != m.initial
    assert var_node.state in reach_without(m, m.initial, ("d",))


def test_lasso_strict_var_toggle_fails(lasso_pf, lasso_lts):
    m = lasso_lts.to_mlts()
    dave = lasso_pf.processes["LassoDave"][1]
    out = type_process(m, (), (), "d", dave, m.initial, strict_var=True)
    assert isinstance(out, TcError)
    assert out.kind == VAR_STATE_UNREACHABLE


def test_lasso_session_well_typed(lasso_pf, lasso_lts):
    m = lasso_lts.to_mlts()
    out = type_session(m, lasso_pf.session("LassoDemo"))
    assert isinstance(out, dict)


def test_var_rule_checks_reachability_direction(lasso_pf, lasso_lts):
    # binding at a state that cannot reach the use site without the role fails
    m = lasso_lts.to_mlts()
    carol_loop = PRec("X", PRecv("b", (RecvBranch("Foo", "x", UNIT, PVar("X")),)))
    out = type_process(m, (), (), "c", carol_loop, m.initial)
    assert isinstance(out, TcError) and out.kind == VAR_STATE_UNREACHABLE


def test_diamond_processes_against_json_mlts(diamond_m):
    pf = load_protocol("diamond.smpst", allow_unresolved=True)
    out = type_session(diamond_m, pf.session("DiamondDemo"))
    assert isinstance(out, dict)
    assert set(out) == {"a", "b", "c"}


def test_com2_session_well_typed():
    pf = load_protocol("com2.smpst")
    m = build_lts(pf.globals["Com2"]).to_mlts()
    out = type_session(m, pf.session("Com2Demo"))
    assert isinstance(out, dict)


def test_checker_deterministic(ring_pf, ring_m):
    sess = ring_pf.session("RingDemo")
    first = type_session(ring_m, sess)
    for _ in range(5):
        again = type_session(ring_m, sess)
        assert again == first


def converging_diamonds(n):
    """e_i --p->q:A|B--> d_i | d'_i --r->p:M--> e_{i+1}, for i < n: 3n+1
    states, with e_i = 3i, d_i = 3i+1, d'_i = 3i+2 and e_n = 3n."""
    transitions = set()
    for i in range(n):
        e, d, d2, nxt = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        transitions |= {(e, act("p", "q", "A"), d), (e, act("p", "q", "B"), d2),
                        (d, act("r", "p", "M"), nxt), (d2, act("r", "p", "M"), nxt)}
    return Mlts(0, tuple(f"s{s}" for s in range(3 * n + 1)), frozenset(transitions))


class _Unmemoised(Checker):
    def _check(self, gamma, delta, role, p, s):
        return self._apply(gamma, delta, role, p, s)


@pytest.mark.parametrize("checker, n, applications", [
    (Checker, 16, 3 * 16 + 1),
    (_Unmemoised, 6, 2 ** (6 + 2) - 3),
])
def test_judgement_memo_shares_converging_branches(monkeypatch, checker, n, applications):
    # Both branches of each diamond reach e_{i+1} with the same process, so
    # the memo decides each (process, state) judgement once: one rule
    # application per state instead of one per path.
    m = converging_diamonds(n)
    assert check_well_behaved(m) == []
    sends = PEnd()
    for _ in range(n):
        sends = PSend("p", "M", UnitLit(), sends)
    calls = []
    apply = Checker._apply

    def counted(self, *args):
        calls.append(args)
        return apply(self, *args)

    monkeypatch.setattr(Checker, "_apply", counted)
    assert isinstance(checker(m).check_process("r", sends), Derivation)
    assert len(calls) == applications


def test_judgement_memo_keeps_failures(monkeypatch):
    # Both targets of a's send skip to the obligation s3, where the second
    # send fails: the memo re-raises that failure for the second target
    # instead of applying the judgement again.
    send_m, n, k = (act(s, r, label, PayloadType.INT)
                    for s, r, label in (("a", "b", "M"), ("c", "d", "N"), ("a", "e", "K")))
    m = Mlts(0, tuple(f"s{s}" for s in range(5)), frozenset({
        (0, send_m, 1), (0, send_m, 2), (1, n, 3), (2, n, 3), (3, k, 4)}))
    second = PSend("b", "L", IntLit(1), PEnd())
    calls = []
    apply = Checker._apply

    def counted(self, gamma, delta, role, p, s):
        calls.append((p, s))
        return apply(self, gamma, delta, role, p, s)

    monkeypatch.setattr(Checker, "_apply", counted)
    err = type_process(m, (), (), "a", PSend("b", "M", IntLit(1), second), 0)
    assert isinstance(err, TcError)
    assert (err.kind, err.state) == (UNEXPECTED_SEND, 3)
    assert calls.count((second, 3)) == 1


def test_forward_admissibility_on_ring(ring_pf, ring_m):
    # a judgement that holds at s keeps holding after transitions without
    # the role (true on recursion-free derivations)
    out = type_session(ring_m, ring_pf.session("RingDemo"))
    assert isinstance(out, dict)
    for role, derivation in out.items():
        for node in derivation.iter_nodes():
            for s2 in reach_without(ring_m, node.state, (role,)):
                again = type_process(ring_m, node.gamma, node.delta, role,
                                     node.term, s2)
                assert isinstance(again, Derivation), (role, node.rule, s2)


def test_forwarding_not_admissible_at_rec_binders(lasso_pf, lasso_lts):
    # Characterisation of a limitation of the typing rules: Dave's loop types
    # at the initial Lasso state, the state moves twice without d, and there
    # the same rec term is underivable because re-binding anchors the
    # loop-back variable at a state with no d-free path to the use site.
    m = lasso_lts.to_mlts()
    dave = lasso_pf.processes["LassoDave"][1]
    assert isinstance(type_process(m, (), (), "d", dave, m.initial), Derivation)
    (mid,) = [t for _, t in m.transitions_from(m.initial)]
    (loop_head,) = [t for a, t in m.transitions_from(mid) if "d" not in a.roles]
    assert loop_head in reach_without(m, m.initial, ("d",))
    out = type_process(m, (), (), "d", dave, loop_head)
    assert isinstance(out, TcError)
    assert out.kind == VAR_STATE_UNREACHABLE


def test_unbound_variables_reported(ring_m, ring_states):
    out = type_process(ring_m, (), (), "a", PVar("Z"), ring_states["G4"])
    assert isinstance(out, TcError) and out.kind == UNBOUND_VAR
    send_unbound = PSend("b", "AppThenGet", VarRef("nope"), PEnd())
    out = type_process(ring_m, (), (), "a", send_unbound, ring_states["G1"])
    assert isinstance(out, TcError) and out.kind == UNBOUND_VAR
    assert out.role == "a" and out.state == ring_states["G1"]
