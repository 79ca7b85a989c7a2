import json

import pytest

from conftest import load_protocol
from synmpst.lts import build_lts
from synmpst.mlts import Mlts
from synmpst.runtime import (CommAction, EvalError, TauAction, Trace,
                             check_trace, eval_expr, explore,
                             render_message_sequence, replay_trace, run,
                             session_step, trace_to_json_lines)
from synmpst.terms import (Add, BoolLit, Eq, GlobalAction, IntLit, Mul,
                           NatLit, PayloadType, PEnd, PIf, PLet, PRec, PRecv,
                           PSend, PVar, RecvBranch, Session, StrLit, UnitLit,
                           VarRef)

NAT = PayloadType.NAT
UNIT = PayloadType.UNIT


def act(s, r, label, ty=UNIT):
    return GlobalAction(s, r, label, ty)


def test_eval_examples():
    assert eval_expr(Add(NatLit(5), NatLit(1))) == NatLit(6)
    assert eval_expr(Mul(NatLit(6), NatLit(2))) == NatLit(12)
    assert eval_expr(Eq(NatLit(2), NatLit(3))) == BoolLit(False)
    assert eval_expr(Eq(StrLit("a"), StrLit("a"))) == BoolLit(True)


def test_eval_compares_across_types_as_unequal():
    assert eval_expr(Eq(BoolLit(True), NatLit(5))) == BoolLit(False)
    assert eval_expr(Eq(NatLit(5), IntLit(5))) == BoolLit(False)


def test_eval_errors():
    with pytest.raises(EvalError):
        eval_expr(VarRef("x"))
    with pytest.raises(EvalError):
        eval_expr(Add(BoolLit(True), NatLit(1)))


def test_ring_initial_has_single_rendezvous(ring_pf):
    sess = ring_pf.session("RingDemo")
    steps = session_step(sess)
    assert len(steps) == 1
    action, after = steps[0]
    assert action == CommAction(act("a", "b", "AppThenGet", NAT))
    # the payload value reached Bob
    bob = dict(after.entries)["b"]
    assert isinstance(bob, PSend) and bob.payload == Add(NatLit(5), NatLit(1))


def test_all_end_session_has_no_steps():
    sess = Session((("a", PEnd()), ("b", PEnd())))
    assert session_step(sess) == []


def test_send_without_matching_branch_blocks():
    sess = Session((
        ("a", PSend("b", "Foo", UnitLit(), PEnd())),
        ("b", PRecv("a", (RecvBranch("Bar", "x", UNIT, PEnd()),))),
    ))
    assert session_step(sess) == []


def test_tau_steps_are_role_local():
    sess = Session((
        ("a", PLet("x", NatLit(1), PEnd())),
        ("b", PIf(BoolLit(True), PEnd(), PEnd())),
        ("c", PRec("X", PSend("a", "L", NatLit(1), PVar("X")))),
    ))
    for action, after in session_step(sess):
        assert isinstance(action, TauAction)
        procs_after = dict(after.entries)
        for role, proc in sess.entries:
            if role != action.role:
                assert procs_after[role] == proc
            else:
                assert procs_after[role] != proc


def test_run_ring_matches_push_mode(ring_pf, ring_m):
    sess = ring_pf.session("RingDemo")
    for seed in (0, 1, 42):
        trace = run(sess, seed, 100)
        comms = [a.action for a in trace.actions if isinstance(a, CommAction)]
        assert comms == [act("a", "b", "AppThenGet", NAT),
                         act("b", "c", "AppThenGet", NAT),
                         act("c", "a", "Val", NAT)]
        assert all(isinstance(p, PEnd) for _, p in trace.terminal.entries)
        assert check_trace(ring_m, trace) is None


def test_run_zero_steps():
    sess = Session((("a", PEnd()),))
    trace = run(sess, 0, 100)
    assert trace.actions == ()
    assert trace.terminal == sess


def test_run_twobuyers_seed1_cancels():
    pf = load_protocol("twobuyers.smpst")
    trace = run(pf.session("TwoBuyersDemo"), 1, 100)
    comms = [a.action for a in trace.actions if isinstance(a, CommAction)]
    assert comms == [act("a", "s", "Query", PayloadType.STR),
                     act("s", "a", "Price", PayloadType.INT),
                     act("a", "b", "Cancel", UNIT),
                     act("a", "s", "No", UNIT)]
    assert all(isinstance(p, PEnd) for _, p in trace.terminal.entries)


def test_replay_reproduces_terminal(ring_pf):
    sess = ring_pf.session("RingDemo")
    trace = run(sess, 7, 100)
    assert replay_trace(sess, trace) == trace.terminal


def test_check_trace_rejects_wrong_branch(ring_pf, ring_m):
    sess = ring_pf.session("RingDemo")
    bogus = Trace((CommAction(act("a", "b", "App", NAT)),
                   CommAction(act("b", "c", "AppThenGet", NAT))), sess)
    assert check_trace(ring_m, bogus) == 1
    assert check_trace(ring_m, Trace((), sess)) is None


def test_check_trace_ignores_taus(ring_m):
    sess = Session((("a", PEnd()),))
    trace = Trace((TauAction("a"), CommAction(act("a", "b", "AppThenGet", NAT))), sess)
    assert check_trace(ring_m, trace) is None


def test_explore_ring_sound(ring_pf, ring_m):
    report = explore(ring_m, ring_pf.session("RingDemo"), 50)
    assert report.sound_at_depth
    assert report.complete
    assert report.configs_visited > 1


def test_explore_flags_stuck_sessions(ring_m):
    sess = Session((
        ("a", PSend("b", "Foo", UnitLit(), PEnd())),
        ("b", PRecv("a", (RecvBranch("Bar", "x", UNIT, PEnd()),))),
    ))
    report = explore(ring_m, sess, 10)
    assert report.stuck_non_final
    assert not report.sound_at_depth


def test_explore_flags_preservation_breaks(ring_pf, ring_m):
    # Bob silently upgrades App to AppThenGet: the communication itself
    # rendezvouses, but the classifier has no such transition.
    sess = Session((
        ("a", PSend("b", "App", NatLit(5),
                    PRecv("c", (RecvBranch("Val", "z", NAT, PEnd()),)))),
        ("b", PRecv("a", (RecvBranch("App", "x", NAT,
                    PSend("c", "AppThenGet", Add(VarRef("x"), NatLit(1)), PEnd())),))),
        ("c", PRecv("b", (RecvBranch("AppThenGet", "y", NAT,
                    PSend("a", "Val", Mul(VarRef("y"), NatLit(2)), PEnd())),))),
    ))
    report = explore(ring_m, sess, 20)
    assert report.preservation_breaks
    broken_session, action, state = report.preservation_breaks[0]
    assert action == CommAction(act("b", "c", "AppThenGet", NAT))


def _forked_mlts():
    """a->b:Go leads to s1 and to s2; s1 then offers b->c:Fwd, s2 only b->c:Alt."""
    go, fwd, alt = act("a", "b", "Go"), act("b", "c", "Fwd"), act("b", "c", "Alt")
    return Mlts(0, ("s0", "s1", "s2", "s3"),
                frozenset({(0, go, 1), (0, go, 2), (1, fwd, 3), (2, alt, 3)}))


def test_explore_follows_every_target_of_a_nondeterministic_classifier():
    m = _forked_mlts()
    assert m.targets(0, act("a", "b", "Go")) == (1, 2)
    sess = Session((
        ("a", PSend("b", "Go", UnitLit(), PEnd())),
        ("b", PRecv("a", (RecvBranch("Go", "x", UNIT, PSend("c", "Fwd", UnitLit(), PEnd())),))),
        ("c", PRecv("b", (RecvBranch("Fwd", "y", UNIT, PEnd()),))),
    ))
    report = explore(m, sess, 10)
    # Only the second target of Go breaks preservation.
    assert [(action, state) for _, action, state in report.preservation_breaks] == \
        [(CommAction(act("b", "c", "Fwd")), 2)]
    assert not report.sound_at_depth
    assert report.configs_visited == 4    # s0, both targets of Go, and s3


def test_check_trace_tracks_every_state_a_trace_can_be_in():
    m = _forked_mlts()
    sess = Session((("a", PEnd()),))

    def trace(*labels):
        return Trace(tuple(CommAction(act("a", "b", "Go") if label == "Go" else act("b", "c", label))
                           for label in labels), sess)

    assert check_trace(m, trace("Go", "Fwd")) is None
    assert check_trace(m, trace("Go", "Alt")) is None
    assert check_trace(m, trace("Go", "Nope")) == 1
    assert check_trace(m, trace("Fwd")) == 0


def test_explore_flags_tau_cycles(ring_m):
    spinner = Session((("a", PRec("X", PIf(BoolLit(True), PVar("X"), PEnd()))),))
    report = explore(ring_m, spinner, 30)
    assert report.tau_cycles
    assert not report.sound_at_depth


def test_explore_lasso_closes_finitely(lasso_pf, lasso_lts):
    report = explore(lasso_lts.to_mlts(), lasso_pf.session("LassoDemo"), 20)
    assert report.sound_at_depth
    assert report.complete   # revisited configurations are deduplicated


def test_explore_all_well_typed_corpus_sessions():
    cases = [("ring.smpst", "Ring", "RingDemo"),
             ("lasso.smpst", "Lasso", "LassoDemo"),
             ("com2.smpst", "Com2", "Com2Demo"),
             ("oauth2.smpst", "OAuth", "OAuthDemo"),
             ("twobuyers.smpst", "TwoBuyers", "TwoBuyersDemo"),
             ("mapreduce.smpst", "MapReduce", "MapReduceDemo"),
             ("workers.smpst", "Workers", "WorkersDemo")]
    for fname, gname, sname in cases:
        pf = load_protocol(fname)
        m = build_lts(pf.globals[gname]).to_mlts()
        report = explore(m, pf.session(sname), 200)
        assert report.sound_at_depth, (fname, report)


def test_trace_serialisation(ring_pf):
    trace = run(ring_pf.session("RingDemo"), 0, 100)
    lines = trace_to_json_lines(trace).splitlines()
    assert len(lines) == len(trace.actions)
    first = json.loads(lines[0])
    assert first == {"kind": "comm", "from": "a", "to": "b",
                     "label": "AppThenGet", "payload": "Nat"}
    text = render_message_sequence(trace)
    assert "a -> b: AppThenGet(Nat)" in text


def test_if_false_branch_and_let_flow():
    sess = Session((
        ("a", PLet("x", NatLit(3),
                   PIf(Eq(VarRef("x"), NatLit(4)),
                       PEnd(),
                       PSend("b", "V", Add(VarRef("x"), NatLit(1)), PEnd())))),
        ("b", PRecv("a", (RecvBranch("V", "y", NAT, PEnd()),))),
    ))
    trace = run(sess, 0, 10)
    kinds = [type(a).__name__ for a in trace.actions]
    assert kinds == ["TauAction", "TauAction", "CommAction"]
    assert trace.actions[-1].action == act("a", "b", "V", NAT)
    assert all(isinstance(p, PEnd) for _, p in trace.terminal.entries)
