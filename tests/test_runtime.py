import json
from collections import Counter

import pytest

from conftest import CORPUS, in_ids, load_protocol, workers_processes, workers_text
from synmpst import runtime
from synmpst.lts import build_lts
from synmpst.mlts import Mlts
from synmpst.parser import parse_file, parse_mlts
from synmpst.runtime import (EvalError, ExploreReport, TauAction,
                             Trace, check_trace, eval_expr, explore,
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
    assert action == act("a", "b", "AppThenGet", NAT)
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
        comms = [a for a in trace.actions if isinstance(a, GlobalAction)]
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
    comms = [a for a in trace.actions if isinstance(a, GlobalAction)]
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
    bogus = Trace((act("a", "b", "App", NAT),
                   act("b", "c", "AppThenGet", NAT)), sess)
    assert check_trace(ring_m, bogus) == 1
    assert check_trace(ring_m, Trace((), sess)) is None


def test_check_trace_ignores_taus(ring_m):
    sess = Session((("a", PEnd()),))
    trace = Trace((TauAction("a"), act("a", "b", "AppThenGet", NAT)), sess)
    assert check_trace(ring_m, trace) is None


def test_explore_ring_sound(ring_pf, ring_m):
    report = explore(ring_m, ring_pf.session("RingDemo"), 50)
    assert report.sound_at_depth
    assert report.complete
    assert report.configs_visited > 1


def stuck_session():
    """a sends Foo, b only takes Bar."""
    return Session((
        ("a", PSend("b", "Foo", UnitLit(), PEnd())),
        ("b", PRecv("a", (RecvBranch("Bar", "x", UNIT, PEnd()),))),
    ))


def test_explore_flags_stuck_sessions(ring_m):
    report = explore(ring_m, stuck_session(), 10)
    assert report.stuck_non_final
    assert not report.sound_at_depth


def upgrading_bob_session():
    """Bob silently upgrades App to AppThenGet: the communication itself
    rendezvouses, but the Ring classifier has no such transition."""
    return Session((
        ("a", PSend("b", "App", NatLit(5),
                    PRecv("c", (RecvBranch("Val", "z", NAT, PEnd()),)))),
        ("b", PRecv("a", (RecvBranch("App", "x", NAT,
                    PSend("c", "AppThenGet", Add(VarRef("x"), NatLit(1)), PEnd())),))),
        ("c", PRecv("b", (RecvBranch("AppThenGet", "y", NAT,
                    PSend("a", "Val", Mul(VarRef("y"), NatLit(2)), PEnd())),))),
    ))


def test_explore_flags_preservation_breaks(ring_m):
    report = explore(ring_m, upgrading_bob_session(), 20)
    assert report.preservation_breaks
    broken_session, action, state = report.preservation_breaks[0]
    assert action == act("b", "c", "AppThenGet", NAT)


def _forked_mlts():
    """a->b:Go leads to s1 and to s2; s1 then offers b->c:Fwd, s2 only b->c:Alt."""
    go, fwd, alt = act("a", "b", "Go"), act("b", "c", "Fwd"), act("b", "c", "Alt")
    return Mlts(0, ("s0", "s1", "s2", "s3"),
                frozenset({(0, go, 1), (0, go, 2), (1, fwd, 3), (2, alt, 3)}))


def _forked_session():
    """a->b:Go, then b->c:Fwd: allowed after one target of Go only."""
    return Session((
        ("a", PSend("b", "Go", UnitLit(), PEnd())),
        ("b", PRecv("a", (RecvBranch("Go", "x", UNIT, PSend("c", "Fwd", UnitLit(), PEnd())),))),
        ("c", PRecv("b", (RecvBranch("Fwd", "y", UNIT, PEnd()),))),
    ))


def test_explore_follows_every_target_of_a_nondeterministic_classifier():
    m = _forked_mlts()
    assert m.targets(0, act("a", "b", "Go")) == (1, 2)
    report = explore(m, _forked_session(), 10)
    # Only the second target of Go breaks preservation.
    assert [(action, state) for _, action, state in report.preservation_breaks] == \
        [(act("b", "c", "Fwd"), (2,))]
    assert not report.sound_at_depth
    assert report.configs_visited == 4    # s0, both targets of Go, and s3


def test_check_trace_tracks_every_state_a_trace_can_be_in():
    m = _forked_mlts()
    sess = Session((("a", PEnd()),))

    def trace(*labels):
        return Trace(tuple(act("a", "b", "Go") if label == "Go" else act("b", "c", label)
                           for label in labels), sess)

    assert check_trace(m, trace("Go", "Fwd")) is None
    assert check_trace(m, trace("Go", "Alt")) is None
    assert check_trace(m, trace("Go", "Nope")) == 1
    assert check_trace(m, trace("Fwd")) == 0


def spinner_session():
    """a unfolds and re-enters its loop forever without communicating."""
    return Session((("a", PRec("X", PIf(BoolLit(True), PVar("X"), PEnd()))),))


def test_explore_flags_tau_cycles(ring_m):
    report = explore(ring_m, spinner_session(), 30)
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
    assert kinds == ["TauAction", "TauAction", "GlobalAction"]
    assert trace.actions[-1] == act("a", "b", "V", NAT)
    assert all(isinstance(p, PEnd) for _, p in trace.terminal.entries)


# ---------------------------------------------------------------------------
# explore against a naive reference explorer, and what one call computes


def naive_explore(m, sess, max_depth):
    """The lockstep BFS of `explore` without its memo: every configuration is
    stepped afresh, and every successor is rebuilt and validated by Session."""
    cap = 20
    initial = (sess, m.initial)
    visited, frontier = {initial}, [initial]
    stuck, breaks, tau_edges = [], [], {}
    depth = 0
    while frontier and depth < max_depth:
        next_frontier = []
        for config in frontier:
            current, state = config
            steps = [(action, Session(after.entries)) for action, after in session_step(current)]
            if not steps:
                if any(not isinstance(p, PEnd) for _, p in current.entries) and len(stuck) < cap:
                    stuck.append(current)
                continue
            for action, after in steps:
                if isinstance(action, GlobalAction):
                    targets = m.targets(state, action)
                    if not targets:
                        if len(breaks) < cap:
                            breaks.append((current, action, state))
                        continue
                else:
                    targets = (state,)
                    tau_edges.setdefault(config, []).append((after, state))
                for t in targets:
                    if (after, t) not in visited:
                        visited.add((after, t))
                        next_frontier.append((after, t))
        frontier = next_frontier
        if frontier:
            depth += 1
    # The cycle search over the internal-step graph is shared, not re-derived.
    return ExploreReport(len(visited), depth, not frontier, tuple(stuck),
                         tuple(runtime._tau_cycles(tau_edges)), tuple(breaks))


def workers_case(k, looping, wrong=None):
    """W_k and its session; `wrong` replaces a_0's first payload."""
    replaced = {"a0": workers_processes(0, looping, wrong)["a0"]} if wrong else {}
    pf = parse_file(workers_text(k, looping, **replaced), f"w{k}.smpst")
    return build_lts(pf.globals["G"]).to_mlts(), pf.session("S")


def corpus_cases():
    for path in sorted(CORPUS.glob("*.smpst")):
        pf = load_protocol(path.name, allow_unresolved=True)
        for name, decl in pf.sessions.items():
            if decl.global_name in pf.globals:
                m = build_lts(pf.globals[decl.global_name]).to_mlts()
            else:
                doc = CORPUS / f"{path.stem}.mlts.json"
                m = parse_mlts(doc.read_text(), str(doc))
            yield pytest.param(m, pf.session(name), 200, id=name)


# a's loop re-enters the same send, which meets two different receives of b:
# a memo that forgot the receiving process would reuse the first meeting.
REUSED_SEND = """
global G = a -> b: M(Nat) . mu X . a -> b: M(Nat) . b -> c: Sum(Nat) . X;
process A at a = rec X . send b M(1) . X;
process B at b = recv a { M(x: Nat) . rec Y . recv a { M(z: Nat) . send c Sum(x + z) . Y } };
process C at c = rec Z . recv b { Sum(s: Nat) . Z };
session S of G = { a: A, b: B, c: C };
"""


# a's loop body holds a let, an if and a nested rec, so every unfolding of
# X substitutes through all three.
NESTED_LOOP = """
global G = mu X . a -> b { L(Nat) . X, M(Nat) . X };
process A at a = rec X . let n = 1 in if n == 1
    then send b L(n) . rec Y . send b M(n + 1) . if n == 2 then Y else X
    else send b M(n) . X;
process B at b = rec X . recv a { L(x: Nat) . X, M(x: Nat) . X };
session S of G = { a: A, b: B };
"""


def explore_cases():
    yield from corpus_cases()
    for k in (1, 2):
        for looping in (False, True):
            mode = "loop" if looping else "stop"
            yield pytest.param(*workers_case(k, looping), 200, id=f"w{k}_{mode}")
    yield pytest.param(*workers_case(2, True), 5, id="w2_loop_bounded")
    pf = parse_file(REUSED_SEND, "reused_send.smpst")
    yield pytest.param(build_lts(pf.globals["G"]).to_mlts(), pf.session("S"), 50, id="reused_send")
    pf = parse_file(NESTED_LOOP, "nested_loop.smpst")
    yield pytest.param(build_lts(pf.globals["G"]).to_mlts(), pf.session("S"), 200, id="nested_loop")
    yield pytest.param(*workers_case(2, True, '"x"'), 200, id="w2_loop_payload_mutant")
    yield pytest.param(*workers_case(2, False, "true"), 200, id="w2_stop_payload_mutant")
    ring = build_lts(load_protocol("ring.smpst").globals["Ring"]).to_mlts()
    yield pytest.param(ring, stuck_session(), 10, id="stuck")
    yield pytest.param(ring, upgrading_bob_session(), 20, id="preservation_break")
    yield pytest.param(ring, spinner_session(), 30, id="tau_cycle")
    yield pytest.param(_forked_mlts(), _forked_session(), 10, id="nondeterministic")


@pytest.mark.parametrize("m, sess, depth", explore_cases())
def test_explore_agrees_with_a_naive_explorer(m, sess, depth):
    # explore's states are 1-tuples for a single Mlts.
    assert in_ids(explore(m, sess, depth), lambda v: v[0]) == naive_explore(m, sess, depth)


def test_explore_computes_each_local_move_once(monkeypatch):
    m, sess = workers_case(3, True)
    calls = Counter()
    stepped = []

    def counted(name, fn, record=None):
        def wrapper(*args):
            calls[name] += 1
            if record is not None:
                record.append(args[0])
            return fn(*args)
        monkeypatch.setattr(runtime, name, wrapper)

    counted("substitute_process_rec", runtime.substitute_process_rec)
    counted("substitute_process_val", runtime.substitute_process_val)
    counted("session_step", runtime.session_step, stepped)
    report = explore(m, sess, 200)
    assert report.complete and report.sound_at_depth

    # One session_step per expanded configuration; all are expanded here.
    assert calls["session_step"] == report.configs_visited == 4096
    # One rec unfolding per distinct rec process, one value substitution per
    # distinct let process or rendezvous (sender role, send, receive).
    procs = {p for s in stepped for _, p in s.entries}
    rendezvous = set()
    for s in stepped:
        heads = dict(s.entries)
        for role, p in s.entries:
            partner = heads.get(p.to) if isinstance(p, PSend) else None
            if isinstance(partner, PRecv) and partner.from_ == role:
                rendezvous.add((role, p, partner))
    assert calls["substitute_process_rec"] == sum(isinstance(p, PRec) for p in procs) == 9
    assert calls["substitute_process_val"] == \
        sum(isinstance(p, PLet) for p in procs) + len(rendezvous) == 15


def test_a_loop_through_let_if_and_nested_rec_comes_back_to_itself():
    pf = parse_file(NESTED_LOOP, "nested_loop.smpst")
    sess = pf.session("S")
    # a unfolds X, lets, takes the if, sends L, unfolds Y, sends M and
    # leaves Y for X, which the first unfolding replaced by a's whole loop.
    trace = run(sess, 0, 10)
    assert [str(a) for a in trace.actions] == [
        "tau@b", "tau@a", "tau@a", "tau@a", "a->b:L(Nat)",
        "tau@b", "tau@a", "a->b:M(Nat)", "tau@b", "tau@a"]
    assert dict(trace.terminal.entries)["a"] == pf.processes["A"][1]
    report = explore(build_lts(pf.globals["G"]).to_mlts(), sess, 200)
    assert (report.configs_visited, report.depth_reached, report.complete,
            report.sound_at_depth) == (14, 9, True, True)


def test_session_step_memo_leaves_steps_unchanged():
    m, sess = workers_case(2, True)
    memo = {}
    frontier, seen = [sess], {sess}
    while frontier:
        current = frontier.pop()
        fresh = session_step(current)
        assert session_step(current, memo) == fresh
        assert session_step(current, memo) == fresh
        for _, after in fresh:
            assert after == Session(after.entries)
            if after not in seen:
                seen.add(after)
                frontier.append(after)
    assert memo
