"""Compositional typing, well-behavedness and exploration of a top-level par.

`check`, `wb` and `explore` check each operand on a global type's par spine
against its own LTS. The product LTS is the differential reference: on every
input below, typing both gives the same verdict and the same (kind, role,
premise) for each error, the product is well-behaved iff every operand is,
and exploring both visits the same configurations and finds the same
witnesses. Every session the compositional check accepts must also explore
clean on the product.
"""
import json
import random

import pytest

import synmpst.cli
import synmpst.runtime
from conftest import CORPUS, in_ids, load_protocol, pairs_text, session_text, workers_text
from synmpst.cli import main
from synmpst.generate import random_global_type
from synmpst.lts import build_lts, par_operands
from synmpst.mlts import Mlts, check_well_behaved, replay_violation
from synmpst.parser import parse_file, parse_mlts
from synmpst.runtime import explore
from synmpst.terms import (BoolLit, GEnd, GlobalAction, GMu, GPar, GVar, IntLit,
                           NatLit, PayloadType, PEnd, PRec, PRecv, PSend, PVar,
                           RecvBranch, Session, StrLit, UnitLit, VarRef,
                           is_message_guarded, pretty_global, roles_of)
from synmpst.typecheck import (EXPR_ILL_TYPED, MISSING_RECV_BRANCH, NOT_TERMINABLE,
                               PAYLOAD_MISMATCH, ROLE_CLASH, ROLE_UNIMPLEMENTED,
                               SKIP_FAILED, UNBOUND_VAR, UNEXPECTED_SEND,
                               VAR_STATE_UNREACHABLE, Checker, type_session)


def parsed(text):
    pf = parse_file(text)
    assert not isinstance(pf, list) and not pf.diagnostics, pf
    return pf.globals["G"], pf.session("S")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



# ---------------------------------------------------------------------------
# Sessions for random draws: processes by projection with plain merge

_LITERALS = {PayloadType.UNIT: UnitLit(), PayloadType.BOOL: BoolLit(True),
             PayloadType.NAT: NatLit(0), PayloadType.INT: IntLit(0),
             PayloadType.STR: StrLit("s")}


def project(g, role):
    """role's process in g: the first branch of each choice it makes, every
    branch of each choice it receives; None where it must tell apart branches
    of a choice it is not party to."""
    if isinstance(g, GEnd):
        return PEnd()
    if isinstance(g, GVar):
        return PVar(g.var)
    if isinstance(g, GMu):
        if role not in roles_of(g.body):
            return PEnd()
        body = project(g.body, role)
        return PRec(g.var, body) if body and is_message_guarded(body, g.var) else None
    if isinstance(g, GPar):
        return project(g.left if role in roles_of(g.left) else g.right, role)
    conts = [project(b.cont, role) for b in g.branches]
    if None in conts:
        return None
    if role == g.sender:
        first = g.branches[0]
        return PSend(g.receiver, first.label, _LITERALS[first.payload], conts[0])
    if role == g.receiver:
        return PRecv(g.sender, tuple(RecvBranch(b.label, "x", b.payload, cont)
                                     for b, cont in zip(g.branches, conts)))
    return conts[0] if all(cont == conts[0] for cont in conts) else None


# Pinned draws whose projections exist and are well-typed; each is paired with
# the next, drawn again over other roles, under one par.
PROJECTABLE_DRAWS = (1016, 1025, 1033, 1035, 1039, 1048, 1065, 1074, 1096, 7003)
# Draws that wb rejects (ROADMAP item 1), so the wb comparison sees failures.
DEFECT_DRAWS = (621, 883)


def draw(seed, roles=("a", "b", "c", "d")):
    return random_global_type(random.Random(seed), roles=roles)


def draw_pair(left, right):
    return GPar(draw(left), draw(right, roles=("e", "f", "g", "h")))


def projected_session(g):
    return Session(tuple((r, project(g, r) or PEnd()) for r in sorted(roles_of(g))))


# ---------------------------------------------------------------------------
# The gate's inputs: (name, classifier, session), the classifier a global type
# or an explicit Mlts


def replace(sess, role, proc):
    return Session(tuple((r, proc if r == role else p) for r, p in sess.entries))


def corpus_cases():
    out = []
    for path in sorted(CORPUS.glob("*.smpst")):
        pf = load_protocol(path.name, allow_unresolved=True)
        for name, decl in pf.sessions.items():
            if decl.global_name in pf.globals:
                classifier = pf.globals[decl.global_name]
            else:
                json_path = CORPUS / f"{path.stem}.mlts.json"
                classifier = parse_mlts(json_path.read_text(), str(json_path))
            out.append((f"{path.stem}.{name}", classifier, pf.session(name)))
    return out


# Each mutant replaces processes of component 1 of W_k; together they reach
# every error kind.
MUTANTS = {
    "payload": ({"a1": "send b1 Stop(true) . end"}, PAYLOAD_MISMATCH),
    "unexpected_send": ({"a1": "send b1 Foo(unit) . end"}, UNEXPECTED_SEND),
    "missing_branch": ({"c1": "recv b1 { Datum(x: Int) . send a1 Result(x) . rec X . "
                              "recv b1 { Datum(x: Int) . send a1 Result(x) . X, "
                              "Stop(_: Unit) . end } }"}, MISSING_RECV_BRANCH),
    "role_clash": ({"b1": "recv c1 { Datum(x: Int) . end }"}, ROLE_CLASH),
    "not_terminable": ({"a1": "end"}, NOT_TERMINABLE),
    "rec_first": ({"b1": "rec X . recv a1 { Datum(x: Int) . send c1 Datum(x) . X, "
                         "Stop(_: Unit) . send c1 Stop(unit) . end }"}, VAR_STATE_UNREACHABLE),
    "ill_typed_expr": ({"a1": "send b1 Datum(true + 1) . end"}, EXPR_ILL_TYPED),
    # After Stop, c1 never acts again, so its last send can never be enabled.
    "send_after_stop": ({"c1": "recv b1 { Datum(x: Int) . send a1 Result(x) . rec X . "
                               "recv b1 { Datum(x: Int) . send a1 Result(x) . X, "
                               "Stop(_: Unit) . send a1 Result(+1) . end }, "
                               "Stop(_: Unit) . send a1 Result(+1) . end }"}, SKIP_FAILED),
}

# r and s meet behind their backs once p has chosen A: premise 4 fails.
BEHIND_BACKS = """\
global G = par { p -> q { A(Unit) . r -> s: B(Unit) . end, C(Unit) . s -> r: D(Unit) . end }
              || e -> f: M(Nat) . end };
process P at p = send q A(unit) . end;
process Q at q = recv p { A(_: Unit) . end, C(_: Unit) . end };
process R at r = send s B(unit) . end;
process T at s = recv r { B(_: Unit) . end };
process E at e = send f M(1) . end;
process F at f = recv e { M(n: Nat) . end };
session S of G = { p: P, q: Q, r: R, s: T, e: E, f: F };
"""


def mutant_cases():
    out = []
    for k in (2, 3):
        for looping in (False, True):
            shape = f"W_{k}-{'loop' if looping else 'stop'}"
            for name, (replaced, kind) in MUTANTS.items():
                g, sess = parsed(workers_text(k, looping, **replaced))
                out.append((f"{shape}-{name}", g, sess, kind))
            g, sess = parsed(workers_text(k, looping))
            # Unbound data and recursion variables, which the parser rules out.
            out.append((f"{shape}-unbound-data", g,
                        replace(sess, "a1", PSend("b1", "Stop", VarRef("y"), PEnd())), UNBOUND_VAR))
            out.append((f"{shape}-unbound-rec", g, replace(sess, "a1", PVar("Y")), UNBOUND_VAR))
            out.append((f"{shape}-unimplemented", g,
                        Session(tuple(e for e in sess.entries if e[0] != "b1")), ROLE_UNIMPLEMENTED))
    g, sess = parsed(BEHIND_BACKS)
    out.append(("behind-backs", g, sess, SKIP_FAILED))
    return out


def random_cases():
    out = []
    for i, left in enumerate(PROJECTABLE_DRAWS):
        right = PROJECTABLE_DRAWS[(i + 1) % len(PROJECTABLE_DRAWS)]
        g = draw_pair(left, right)
        sess = projected_session(g)
        out.append((f"draws{left}+{right}", g, sess))
        out.append((f"draws{left}+{right}-ends",
                    g, Session(tuple((r, PEnd()) for r, _ in sess.entries))))
    return out


def stranger_cases():
    """Processes for a role that no operand mentions."""
    g, sess = parsed(workers_text(2, False))
    return [(f"stranger-{name}", g, Session(sess.entries + (("z", proc),)))
            for name, proc in (("end", PEnd()),
                               ("send", PSend("a0", "Datum", IntLit(1), PEnd())))]


MUTANT_CASES = mutant_cases()
GATE_CASES = [
    *corpus_cases(),
    *((f"W_{k}-stop", *parsed(workers_text(k, False))) for k in (1, 2, 3, 4)),
    *((f"W_{k}-loop", *parsed(workers_text(k, True))) for k in (1, 2, 3)),
    *((f"P_{n}", *parsed(pairs_text(n))) for n in range(1, 9)),
    *((name, g, sess) for name, g, sess, _ in MUTANT_CASES),
    *random_cases(),
    *stranger_cases(),
]


def components(g):
    return [build_lts(op).to_mlts() for op in par_operands(g)]


def classifiers(classifier):
    """The product Mlts and the component Mlts's of a classifier."""
    if isinstance(classifier, Mlts):
        return classifier, [classifier]
    return build_lts(classifier).to_mlts(), components(classifier)


def product_states(classifier):
    """The map from a vector of component states to its product state id."""
    if isinstance(classifier, Mlts):
        return lambda v: v[0]
    operand_terms = [build_lts(op).terms for op in par_operands(classifier)]
    index = {term: i for i, term in enumerate(build_lts(classifier).terms)}

    def spine(g, parts):
        """g's par spine with each operand replaced by the next of parts."""
        if isinstance(g, GPar):
            return GPar(spine(g.left, parts), spine(g.right, parts))
        return next(parts)

    return lambda v: index[spine(classifier, (terms[s] for terms, s in zip(operand_terms, v)))]


def signature(outcome):
    if isinstance(outcome, dict):
        return "well-typed", sorted(outcome)
    return "ill-typed", [(e.kind, e.role, e.premise) for e in outcome]


@pytest.mark.parametrize("name, classifier, sess", GATE_CASES, ids=[c[0] for c in GATE_CASES])
def test_components_type_as_the_product(name, classifier, sess):
    product, parts = classifiers(classifier)
    compositional = type_session(parts, sess)
    assert signature(compositional) == signature(type_session(product, sess))
    assert (check_well_behaved(product) == []) == all(check_well_behaved(c) == [] for c in parts)
    # Well-typed implies safe and live: the accepted session explores clean
    # on the product.
    if isinstance(compositional, dict):
        assert explore(product, sess, 200).sound_at_depth


# Bounds below, at and above the depth of W_k and P_n sessions, so that the
# counted report is cut off mid-level and ends exactly at the bound.
EXPLORE_DEPTHS = (1, 2, 5, 13, 200)


@pytest.mark.parametrize("name, classifier, sess", GATE_CASES, ids=[c[0] for c in GATE_CASES])
def test_components_explore_as_the_product(name, classifier, sess):
    product, parts = classifiers(classifier)
    for depth in EXPLORE_DEPTHS:
        expected = in_ids(explore(product, sess, depth), lambda v: v[0])
        assert in_ids(explore(parts, sess, depth), product_states(classifier)) == expected, depth


# Sessions whose role groups do not give the product's report, so explore
# searches the product: each one's text and its verdicts at FALLBACK_DEPTHS.
FALLBACK_DEPTHS = (1, 2, 200)
FALLBACK_CASES = {
    # The a/b group is stuck, but p and q never let the product quiesce.
    "masked-stuck": (session_text("par { a -> b: M(Nat) . end || mu X . p -> q: T(Unit) . X }", {
        "a": "end", "b": "recv a { M(n: Nat) . end }",
        "p": "rec X . send q T(unit) . X", "q": "rec X . recv p { T(_: Unit) . X }"}),
        [True, True, True]),
    # The a/b group is stuck at once; the product only after p -> q, which
    # is beyond depth 1.
    "stuck-beyond-the-bound": (session_text("par { a -> b: M(Nat) . end || p -> q: T(Unit) . end }", {
        "a": "end", "b": "recv a { M(n: Nat) . end }",
        "p": "send q T(unit) . end", "q": "recv p { T(_: Unit) . end }"}),
        [True, False, False]),
    # x sends to y of the other operand, which its component cannot follow.
    # Searched alone, each group loops for ever and never quiesces, so only
    # the partner check keeps it from passing as sound.
    "cross-operand-partner": (session_text(
        "par { mu X . a -> b { M(Unit) . X, S(Unit) . a -> x: Z(Unit) . end } "
        "|| mu Y . p -> q { T(Unit) . Y, S(Unit) . p -> y: Z(Unit) . end } }", {
            "a": "rec X . send b M(unit) . X",
            "b": "rec X . recv a { M(_: Unit) . X, S(_: Unit) . end }",
            "x": "send y W(unit) . end",
            "p": "rec Y . send q T(unit) . Y",
            "q": "rec Y . recv p { T(_: Unit) . Y, S(_: Unit) . end }",
            "y": "recv x { W(_: Unit) . end }"}),
        [False, False, False]),
}


@pytest.mark.parametrize("case", FALLBACK_CASES)
def test_explore_falls_back_to_the_product(case):
    text, verdicts = FALLBACK_CASES[case]
    g, sess = parsed(text)
    product, parts = classifiers(g)
    for depth, sound in zip(FALLBACK_DEPTHS, verdicts):
        expected = in_ids(explore(product, sess, depth), lambda v: v[0])
        assert in_ids(explore(parts, sess, depth), product_states(g)) == expected, depth
        assert expected.sound_at_depth == sound, depth


def test_looping_w4_types_per_operand():
    # Typing looping W_4 against its 625-state product takes seconds, and
    # exploring it longer, so the gate above stops at W_3 for loops.
    g, sess = parsed(workers_text(4, True))
    assert signature(type_session(components(g), sess)) == ("well-typed", sorted(sess.roles))


def test_mutants_reach_every_error_kind():
    found = set()
    for name, g, sess, kind in MUTANT_CASES:
        errors = type_session(components(g), sess)
        assert isinstance(errors, list), name
        assert kind in {e.kind for e in errors}, (name, errors)
        found |= {(e.kind, e.premise) for e in errors}
    assert {kind for kind, _ in found} == {
        PAYLOAD_MISMATCH, UNEXPECTED_SEND, MISSING_RECV_BRANCH, ROLE_CLASH, NOT_TERMINABLE,
        VAR_STATE_UNREACHABLE, EXPR_ILL_TYPED, SKIP_FAILED, UNBOUND_VAR, ROLE_UNIMPLEMENTED}
    assert {(SKIP_FAILED, 2), (SKIP_FAILED, 4)} <= found


def test_random_pairs_include_well_typed_sessions():
    verdicts = [signature(type_session(components(g), sess))[0]
                for name, g, sess in random_cases() if not name.endswith("-ends")]
    assert verdicts == ["well-typed"] * len(PROJECTABLE_DRAWS)


@pytest.mark.parametrize("defect", DEFECT_DRAWS)
def test_wb_rejects_the_product_iff_an_operand_is_rejected(tmp_path, capsys, defect):
    g = draw_pair(PROJECTABLE_DRAWS[0], defect)
    product, parts = classifiers(g)
    assert check_well_behaved(product)
    assert [bool(check_well_behaved(c)) for c in parts] == [False, True]
    # `wb` lists each operand's violations in spine order, each naming its
    # operand, whose LTS its states are of.
    path = tmp_path / "pair.smpst"
    path.write_text(f"global G = {pretty_global(g)};\n")
    violations = [(i, v) for i, c in enumerate(parts) for v in check_well_behaved(c)]
    lines = [f"{path}:G: well-behaved: no"] + [f"  {v} (operand {i})" for i, v in violations]
    assert run_cli(capsys, "wb", str(path)) == (1, "\n".join(lines) + "\n", "")
    code, out, err = run_cli(capsys, "wb", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out) == [{"subject": f"{path}:G", "well_behaved": False, "violations": [
        {**v.to_json_obj(), "operand": i} for i, v in violations]}]
    for i, v in violations:
        assert replay_violation(parts[i], v)


def test_explore_breaks_on_a_sender_no_component_has():
    g, sess = parsed(workers_text(2, False))
    strangers = Session(sess.entries + (
        ("y", PSend("z", "M", UnitLit(), PEnd())),
        ("z", PRecv("y", (RecvBranch("M", "v", PayloadType.UNIT, PEnd()),)))))
    report = explore(components(g), strangers, 200)
    assert report.preservation_breaks
    assert {action for _, action, _ in report.preservation_breaks} == \
        {GlobalAction("y", "z", "M", PayloadType.UNIT)}


def test_type_session_rejects_components_that_share_a_role():
    go = GlobalAction("a", "b", "Go", PayloadType.UNIT)
    back = GlobalAction("b", "c", "Back", PayloadType.UNIT)
    left = Mlts(0, ("s0", "s1"), frozenset({(0, go, 1)}))
    right = Mlts(0, ("t0", "t1"), frozenset({(0, back, 1)}))
    sess = Session((("a", PEnd()),))
    with pytest.raises(ValueError, match="role b occurs in two components"):
        type_session([left, right], sess)
    with pytest.raises(ValueError):
        type_session([], sess)


# ---------------------------------------------------------------------------
# Scaling: per-operand work, and the state cap per operand


@pytest.mark.parametrize("looping, per_operand", [(False, 25), (True, 31)])
def test_rule_applications_grow_linearly_in_k(monkeypatch, looping, per_operand):
    calls = []
    apply = Checker._apply

    def counted(self, *args):
        calls.append(args)
        return apply(self, *args)

    monkeypatch.setattr(Checker, "_apply", counted)
    for k in range(1, 9):
        calls.clear()
        g, sess = parsed(workers_text(k, looping))
        assert isinstance(type_session(components(g), sess), dict)
        assert len(calls) == per_operand * k


W8_ROLES = ", ".join(f"{x}{i}" for x in "abc" for i in range(8))


@pytest.mark.parametrize("command, verdict", [
    ("check", f": session S: 24 roles well-typed ({W8_ROLES})\n"),
    ("wb", ":G: well-behaved: yes\n"),
])
def test_check_and_wb_of_w8_fit_the_default_cap(tmp_path, capsys, command, verdict):
    path = tmp_path / "w8.smpst"
    path.write_text(workers_text(8, True))
    assert run_cli(capsys, command, str(path)) == (0, f"{path}{verdict}", "")


def test_lts_of_w6_exceeds_the_cap(tmp_path, capsys):
    path = tmp_path / "w6.smpst"
    path.write_text(workers_text(6, False))
    code, out, err = run_cli(capsys, "lts", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"synmpst: error: {path}: global G: state cap 10000 exceeded with ")


def test_every_command_refuses_an_operand_over_the_cap_alike(tmp_path, capsys):
    # W_2's operands have five states each: the cap refuses the first
    # operand before any product is built.
    path = tmp_path / "w2.smpst"
    path.write_text(workers_text(2, False))
    line = (f"synmpst: error: {path}: global G: state cap 3 exceeded with 2 states "
            "still on the frontier\n")
    for command in ("lts", "check", "wb", "explore"):
        assert run_cli(capsys, command, str(path), "--state-cap", "3") == (2, "", line), command


def test_explore_of_w6_runs_per_operand(tmp_path, capsys):
    # Stop-first, each a_i stops at once: 3^6 configurations, where the
    # product has 5^6 states. Looping, each operand has 16 configurations,
    # and their 16^6 interleavings are counted, not visited.
    for looping, configs, depth in ((False, 729, 12), (True, 16777216, 54)):
        path = tmp_path / "w6.smpst"
        path.write_text(workers_text(6, looping))
        code, out, err = run_cli(capsys, "explore", str(path))
        assert (code, err) == (0, "")
        assert out.startswith(f"session S: explored {configs} configurations to depth {depth}\n")


@pytest.fixture
def step_calls(monkeypatch):
    """The sessions that runtime.session_step is called on, in order."""
    calls = []
    step = synmpst.runtime.session_step

    def counted(sess, memo=None):
        calls.append(sess)
        return step(sess, memo)

    monkeypatch.setattr(synmpst.runtime, "session_step", counted)
    return calls


def test_explore_of_looping_w4_steps_each_operand_alone(step_calls):
    g, sess = parsed(workers_text(4, True))
    product, parts = classifiers(g)
    for classifier, stepped in ((parts, 4 * 16), (product, 16 ** 4)):
        step_calls.clear()
        assert explore(classifier, sess, 200).configs_visited == 16 ** 4
        assert len(step_calls) == stepped


@pytest.mark.parametrize("k, stepped", [(3, 257), (4, 4097)])
def test_explore_stops_at_the_first_violating_group(step_calls, k, stepped):
    # With a0 = end, operand 0's group is stuck at once: one step, then the
    # product search of 16^(k-1) configurations; no other group is searched.
    g, sess = parsed(workers_text(k, True, a0="end"))
    report = explore(classifiers(g)[1], sess, 200)
    assert len(step_calls) == stepped
    assert (report.configs_visited, report.sound_at_depth) == (16 ** (k - 1), True)


@pytest.mark.parametrize("command, built", [
    ("check", ["operand", "operand"]),
    ("wb", ["operand", "operand"]),
    ("explore", ["operand", "operand"]),
    ("bench", ["operand", "operand"]),
    ("lts", ["par"]),
], ids=["check", "wb", "explore", "bench", "lts"])
def test_only_lts_builds_the_product(tmp_path, capsys, monkeypatch, command, built):
    path = tmp_path / "w2.smpst"
    path.write_text(workers_text(2, False))
    terms = []

    def recording(g, *args):
        terms.append("par" if isinstance(g, GPar) else "operand")
        return build_lts(g, *args)

    monkeypatch.setattr(synmpst.cli, "build_lts", recording)
    assert run_cli(capsys, command, str(tmp_path if command == "bench" else path))[0] == 0
    assert terms == built
