import random
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CORPUS, pairs_global, workers_global
from synmpst import terms
from synmpst.generate import random_global_type
from synmpst.parser import parse_file
from synmpst.terms import (Add, BoolLit, Eq, GBranch, GComm, GEnd, GlobalAction, GMu,
                           GPar, GVar, IntLit, NatLit, PayloadType, PEnd, PIf, PRec,
                           PRecv, PSend, PVar, PLet, RecvBranch, Session, SourceSpan,
                           StrLit, UnitLit, VarRef, Mul, WfViolation,
                           check_wellformed_global, check_wellformed_process,
                           free_expr_vars, free_global_vars,
                           free_process_rec_vars, is_message_guarded,
                           iter_subprocesses, obj,
                           pretty_process, roles_of, term_nodes,
                           substitute_global, substitute_process_rec,
                           substitute_process_val)

NAT = PayloadType.NAT
UNIT = PayloadType.UNIT


def comm(p, q, label, ty, cont):
    return GComm(p, q, (GBranch(label, ty, cont),))


def test_substitute_global_variable_hit():
    assert substitute_global(GVar("X"), "X", GEnd()) == GEnd()


def test_substitute_global_no_occurrence():
    anything = comm("a", "b", "L", NAT, GEnd())
    assert substitute_global(GEnd(), "X", anything) == GEnd()


def test_substitute_global_unfolding_shape():
    # a->b:L(Nat).X  with X := mu X . a->b:L(Nat).X
    mu = GMu("X", comm("a", "b", "L", NAT, GVar("X")))
    unfolded = substitute_global(mu.body, "X", mu)
    assert unfolded == comm("a", "b", "L", NAT, mu)


def test_substitute_global_shadowed_binder_stops():
    g = GMu("X", comm("a", "b", "L", NAT, GVar("X")))
    assert substitute_global(g, "X", GEnd()) == g


def test_substitute_global_capture_avoided():
    # (mu Y . a->b:L(Nat).X)[X := Y] must not capture the free Y.
    g = GMu("Y", comm("a", "b", "L", NAT, GVar("X")))
    out = substitute_global(g, "X", GVar("Y"))
    assert isinstance(out, GMu)
    assert out.var != "Y"
    assert free_global_vars(out) == {"Y"}


def test_substitute_process_rec_examples():
    assert substitute_process_rec(PVar("X"), "X", PEnd()) == PEnd()
    q = PRecv("a", (RecvBranch("Foo", "x", UNIT, PEnd()),))
    p = PSend("b", "Foo", NatLit(5), PVar("X"))
    assert substitute_process_rec(p, "X", q) == PSend("b", "Foo", NatLit(5), q)


def test_substitute_process_rec_dave_unfolding():
    # rec X . recv b { Foo(x: Unit) . X } unfolds to
    # recv b { Foo(x: Unit) . rec X . recv b { Foo(x: Unit) . X } }
    dave = PRec("X", PRecv("b", (RecvBranch("Foo", "x", UNIT, PVar("X")),)))
    unfolded = substitute_process_rec(dave.body, "X", dave)
    assert unfolded == PRecv("b", (RecvBranch("Foo", "x", UNIT, dave),))


# rec Y . recv b { R(m: Nat) . X, S(m: Nat) . Y }
INNER = PRec("Y", PRecv("b", (RecvBranch("R", "m", NAT, PVar("X")),
                              RecvBranch("S", "m", NAT, PVar("Y")))))
# let n = 1 in if n == 1 then send b L(n) . <INNER> else X
LOOP_BODY = PLet("n", NatLit(1), PIf(Eq(VarRef("n"), NatLit(1)),
                                     PSend("b", "L", VarRef("n"), INNER), PVar("X")))


def test_substitute_process_rec_avoids_capture_through_let_if_and_rec():
    # X := Y must rename the inner binder Y, not capture the free Y.
    renamed = PRec("Y_1", PRecv("b", (RecvBranch("R", "m", NAT, PVar("Y")),
                                      RecvBranch("S", "m", NAT, PVar("Y_1")))))
    out = substitute_process_rec(LOOP_BODY, "X", PVar("Y"))
    assert out == PLet("n", NatLit(1), PIf(Eq(VarRef("n"), NatLit(1)),
                                           PSend("b", "L", VarRef("n"), renamed), PVar("Y")))
    assert free_process_rec_vars(out) == {"Y"}
    # Unfolding the closed loop renames nothing.
    loop = PRec("X", LOOP_BODY)
    inner = PRec("Y", PRecv("b", (RecvBranch("R", "m", NAT, loop),
                                  RecvBranch("S", "m", NAT, PVar("Y")))))
    assert substitute_process_rec(LOOP_BODY, "X", loop) == PLet(
        "n", NatLit(1), PIf(Eq(VarRef("n"), NatLit(1)), PSend("b", "L", VarRef("n"), inner), loop))


def test_process_walkers_descend_through_let_if_and_rec():
    assert free_process_rec_vars(LOOP_BODY) == {"X"}
    assert free_process_rec_vars(INNER.body) == {"X", "Y"}
    assert free_process_rec_vars(PRec("X", LOOP_BODY)) == frozenset()
    assert [type(p).__name__ for p in iter_subprocesses(PRec("X", LOOP_BODY))] == [
        "PRec", "PLet", "PIf", "PSend", "PRec", "PRecv", "PVar", "PVar", "PVar"]
    # X occurs bare in the else branch; Y only under the receive.
    assert not is_message_guarded(LOOP_BODY, "X")
    assert is_message_guarded(LOOP_BODY, "Y")
    guarded = PLet("n", NatLit(1), PIf(VarRef("n"), PSend("b", "L", VarRef("n"), PVar("X")),
                                       PRec("X", PVar("X"))))
    assert is_message_guarded(guarded, "X")


@pytest.mark.parametrize("call", [
    lambda: substitute_global(NatLit(1), "X", GEnd()),
    lambda: substitute_process_rec(PSend("b", "L", NatLit(1), NatLit(2)), "X", PEnd()),
    lambda: is_message_guarded(PIf(VarRef("c"), PEnd(), NatLit(2)), "X"),
], ids=["substitute_global", "substitute_process_rec", "is_message_guarded"])
def test_walkers_reject_a_non_term(call):
    with pytest.raises(TypeError):
        call()


def test_substitute_process_val_in_payload():
    p = PSend("c", "Val", Mul(VarRef("y"), NatLit(2)), PEnd())
    out = substitute_process_val(p, "y", NatLit(6))
    assert out == PSend("c", "Val", Mul(NatLit(6), NatLit(2)), PEnd())


def test_substitute_process_val_no_occurrence():
    assert substitute_process_val(PEnd(), "x", NatLit(5)) == PEnd()


def test_substitute_process_val_respects_let_scope():
    q = PSend("c", "Val", VarRef("y"), PEnd())
    p = PLet("z", Mul(VarRef("y"), NatLit(2)), q)
    out = substitute_process_val(p, "y", NatLit(6))
    assert out == PLet("z", Mul(NatLit(6), NatLit(2)),
                       PSend("c", "Val", NatLit(6), PEnd()))
    # substituting the binder itself touches only the right-hand side
    shadow = PLet("y", Mul(VarRef("y"), NatLit(2)), q)
    out = substitute_process_val(shadow, "y", NatLit(6))
    assert out == PLet("y", Mul(NatLit(6), NatLit(2)), q)


def free_data_vars(p):
    """The data variables occurring free in a process: the reference that
    value substitution is checked against."""
    if isinstance(p, PSend):
        return free_expr_vars(p.payload) | free_data_vars(p.cont)
    if isinstance(p, PRecv):
        out = frozenset()
        for b in p.branches:
            out |= free_data_vars(b.cont) - {b.binder}
        return out
    if isinstance(p, PLet):
        return free_expr_vars(p.rhs) | (free_data_vars(p.cont) - {p.binder})
    if isinstance(p, PIf):
        return free_expr_vars(p.cond) | free_data_vars(p.then) | free_data_vars(p.orelse)
    if isinstance(p, PRec):
        return free_data_vars(p.body)
    return frozenset()


# Independent capture-avoidance oracle: after substituting a closed value,
# the free variables are exactly those predicted from the sides.
def _enumerate_small_processes():
    exprs = [VarRef("y"), NatLit(1)]
    for e in exprs:
        for binder in ("y", "z"):
            for inner in (PSend("b", "L", VarRef("y"), PEnd()), PEnd()):
                yield PLet(binder, e, inner)
                yield PRecv("a", (RecvBranch("L", binder, NAT, inner),))
        yield PSend("b", "L", e, PEnd())


def test_value_substitution_against_free_variable_oracle():
    for p in _enumerate_small_processes():
        before = free_data_vars(p)
        out = substitute_process_val(p, "y", NatLit(6))
        expected = before - {"y"}
        assert free_data_vars(out) == expected, pretty_process(p)


def test_obj_examples():
    send = PSend("q", "L", NatLit(1), PEnd())
    recv = PRecv("p", (RecvBranch("L", "x", NAT, PEnd()),))
    assert obj(send) == "q"
    assert obj(recv) == "p"
    assert obj(PEnd()) is None
    assert obj(PRec("X", send)) is None
    assert obj(PVar("X")) is None
    assert obj(PLet("x", NatLit(1), send)) is None


def test_wellformed_global_rejects_unguarded():
    out = check_wellformed_global(GMu("X", GVar("X")))
    assert any(v.code == "unguarded" for v in out)


def test_wellformed_global_rejects_par_overlap():
    g = GPar(comm("a", "b", "L", UNIT, GEnd()), comm("b", "c", "L", UNIT, GEnd()))
    out = check_wellformed_global(g)
    assert any(v.code == "par-overlap" and "b" in v.message for v in out)


def test_wellformed_global_rejects_duplicates_unbound_and_self():
    dup = GComm("a", "b", (GBranch("L", NAT, GEnd()), GBranch("L", UNIT, GEnd())))
    assert any(v.code == "duplicate-label" for v in check_wellformed_global(dup))
    assert any(v.code == "unbound-var" for v in check_wellformed_global(GVar("X")))
    assert any(v.code == "self-communication"
               for v in check_wellformed_global(comm("a", "a", "L", NAT, GEnd())))


def test_wellformed_global_rejects_recursion_crossing_par():
    g = GMu("X", comm("a", "b", "L", UNIT,
                      GPar(comm("a", "b", "M", UNIT, GVar("X")),
                           comm("c", "d", "M", UNIT, GEnd()))))
    assert any(v.code == "rec-crosses-par" for v in check_wellformed_global(g))


def test_wellformed_global_accepts_corpus(ring_pf):
    assert check_wellformed_global(ring_pf.globals["Ring"]) == []


def reference_check_wellformed_global(g):
    """check_wellformed_global as it was before it gathered each par operand's
    roles while checking it: a par asks roles_of for both operands."""
    out = []

    def walk(t, bound, unguarded):
        if isinstance(t, GEnd):
            return
        if isinstance(t, GVar):
            if t.var not in bound:
                out.append(WfViolation("unbound-var", f"recursion variable {t.var} is unbound", t.span))
            elif t.var in unguarded:
                out.append(WfViolation("unguarded", f"recursion variable {t.var} occurs unguarded", t.span))
            return
        if isinstance(t, GMu):
            if t.var in bound:
                out.append(WfViolation("shadowed-binder", f"mu binder {t.var} shadows an outer binder", t.span))
            walk(t.body, bound | {t.var}, unguarded | {t.var})
            return
        if isinstance(t, GComm):
            if not t.branches:
                out.append(WfViolation("empty-choice", "communication with no branches", t.span))
            if t.sender == t.receiver:
                out.append(WfViolation("self-communication",
                                       f"role {t.sender} sends to itself", t.span))
            seen = set()
            for b in t.branches:
                if b.label in seen:
                    out.append(WfViolation("duplicate-label",
                                           f"branch label {b.label} repeated in one choice", t.span))
                seen.add(b.label)
                walk(b.cont, bound, frozenset())
            return
        if isinstance(t, GPar):
            overlap = roles_of(t.left) & roles_of(t.right)
            if overlap:
                out.append(WfViolation("par-overlap",
                                       "par operands share roles: " + ", ".join(sorted(overlap)), t.span))
            crossing = bound and (free_global_vars(t.left) | free_global_vars(t.right)) & bound
            if crossing:
                out.append(WfViolation("rec-crosses-par",
                                       "recursion variable bound outside par occurs inside: "
                                       + ", ".join(sorted(crossing)), t.span))
            walk(t.left, bound, unguarded)
            walk(t.right, bound, unguarded)
            return
        raise TypeError(f"not a global type: {t!r}")

    walk(g, frozenset(), frozenset())
    return out


def _parsed_global(text):
    return parse_file(f"global G = {text};").globals["G"]


# Ill-formed globals, each with several violations at several depths, so
# that the order in which they are reported is compared too.
_MUTANT_TEXTS = [
    # overlap, with an unbound variable in each operand
    "par { a -> b: L(Nat) . Y || par { b -> c: L(Nat) . Z || c -> d: L(Nat) . end } }",
    # crossing, unguarded inside the par, and a nested par that overlaps
    "mu X . a -> b: L(Nat) . par { mu Y . par { Y || b -> c: M(Nat) . X } || c -> d: M(Nat) . end }",
    # unbound and unguarded variables, a shadowed binder
    "mu X . mu X . par { X || a -> b: L(Nat) . W }",
    # a duplicate label under a par, and a par under a prefix that overlaps
    "par { a -> b { L(Nat) . end, L(Unit) . end } || c -> d: L(Nat) . "
    "par { c -> e: M(Nat) . end || e -> c: N(Nat) . end } }",
    # a par under a prefix and under a choice, with crossing and overlap
    "mu X . a -> b { L(Nat) . par { a -> c: M(Nat) . X || b -> c: M(Nat) . end }, "
    "M(Nat) . par { d -> e: K(Nat) . end || f -> g: K(Nat) . X } }",
]


def _wellformedness_inputs():
    for path in sorted(CORPUS.glob("*.smpst")):
        yield from parse_file(path.read_text(), str(path), allow_unresolved_globals=True).globals.values()
    for k in range(1, 6):
        yield _parsed_global(workers_global(k))
    for n in range(1, 41):
        yield _parsed_global(pairs_global(n))
    for seed in range(500):
        yield random_global_type(random.Random(seed), max_depth=4)
    for text in _MUTANT_TEXTS:
        yield _parsed_global(text)
    yield GComm("a", "a", ())


def test_wellformedness_of_globals_matches_the_reference_in_order():
    compared = 0
    for g in _wellformedness_inputs():
        expected = [(v.code, v.message, v.span) for v in reference_check_wellformed_global(g)]
        assert [(v.code, v.message, v.span) for v in check_wellformed_global(g)] == expected
        compared += bool(expected)
    assert compared == len(_MUTANT_TEXTS) + 1


@pytest.mark.parametrize("text", [pairs_global(10), pairs_global(40), workers_global(5),
                                  f"mu X . z -> y: K(Unit) . {pairs_global(10)}",
                                  f"mu X . z -> y: K(Unit) . {pairs_global(40)}"],
                         ids=["P_10", "P_40", "W_5", "mu-P_10", "mu-P_40"])
def test_wellformedness_views_each_subterm_at_most_once(text, monkeypatch):
    g = _parsed_global(text)
    views = []
    subterms = terms._subterms
    monkeypatch.setattr(terms, "_subterms", lambda t: views.append(t) or subterms(t))
    assert check_wellformed_global(g) == []
    assert len(views) <= term_nodes(g, 10_000)


def test_wellformed_process_examples():
    assert any(v.code == "not-message-guarded"
               for v in check_wellformed_process(PRec("X", PVar("X"))))
    dave = PRec("X", PRecv("b", (RecvBranch("Foo", "x", UNIT, PVar("X")),)))
    assert check_wellformed_process(dave) == []
    unbound = PSend("b", "L", VarRef("y"), PEnd())
    assert any(v.code == "unbound-var" and "y" in v.message
               for v in check_wellformed_process(unbound))


def test_wellformed_process_shadowed_rec_binder():
    p = PRec("X", PSend("b", "L", NatLit(1), PRec("X", PSend("b", "L", NatLit(1), PVar("X")))))
    assert any(v.code == "shadowed-binder" for v in check_wellformed_process(p))


def test_message_guardedness_via_let_and_if():
    body = PLet("x", NatLit(1), PVar("X"))
    assert not is_message_guarded(body, "X")
    body = PSend("b", "L", NatLit(1), PVar("X"))
    assert is_message_guarded(body, "X")


def test_roles_of():
    assert roles_of(GEnd()) == frozenset()


def test_roles_of_ring(ring_pf):
    assert roles_of(ring_pf.globals["Ring"]) == {"a", "b", "c"}


def test_roles_of_workers():
    from conftest import load_protocol
    pf = load_protocol("workers.smpst")
    assert roles_of(pf.globals["Workers"]) == {"s", "wa1", "wb1", "wc1", "wa2", "wb2", "wc2"}


def test_session_rejects_duplicate_roles():
    with pytest.raises(ValueError):
        Session((("a", PEnd()), ("a", PEnd())))
    with pytest.raises(ValueError):
        Session(())


def test_session_equality_absorbs_ordering():
    s1 = Session((("a", PEnd()), ("b", PEnd())))
    s2 = Session((("b", PEnd()), ("a", PEnd())))
    assert s1 == s2
    assert hash(s1) == hash(s2)


# -- property tests ----------------------------------------------------------

_ROLES = ("a", "b", "c", "d")
_LABELS = ("L", "M", "N")


def global_types(draw_vars=True):
    """Possibly-open global types of bounded depth."""
    leaves = st.sampled_from([GEnd(), GVar("X"), GVar("Y")] if draw_vars else [GEnd()])

    def extend(children):
        def make_comm(sender, receiver, labels, payloads, conts):
            branches = tuple(GBranch(l, t, c) for l, t, c in zip(labels, payloads, conts))
            return GComm(sender, receiver, branches)
        comms = st.builds(
            make_comm,
            st.sampled_from(_ROLES),
            st.sampled_from(_ROLES),
            st.permutations(_LABELS).map(lambda ls: ls[:2]),
            st.lists(st.sampled_from(tuple(PayloadType)), min_size=2, max_size=2),
            st.lists(children, min_size=2, max_size=2))
        mus = st.builds(GMu, st.sampled_from(("X", "Y")), children)
        return st.one_of(comms, mus)

    return st.recursive(leaves, extend, max_leaves=8)


@settings(max_examples=200, derandomize=True)
@given(global_types(), global_types(draw_vars=False))
def test_substitution_leaves_no_free_occurrence(g, closed):
    assert not free_global_vars(closed)
    out = substitute_global(g, "X", closed)
    assert "X" not in free_global_vars(out)


@settings(max_examples=200, derandomize=True)
@given(global_types(draw_vars=False))
def test_substitution_is_identity_without_occurrence(g):
    replacement = comm("a", "b", "L", NAT, GEnd())
    assert substitute_global(g, "Z", replacement) == g


def test_literal_and_action_invariants():
    import pytest as _pytest
    from synmpst.terms import GlobalAction, NatLit, PayloadType
    with _pytest.raises(ValueError):
        NatLit(-1)
    with _pytest.raises(ValueError):
        GlobalAction("a", "a", "L", PayloadType.UNIT)


# -- hashing -----------------------------------------------------------------

def _chains(n):
    """Every node of an n-step global type chain and of an n-step send chain,
    built bottom-up and not yet hashed, each chain's root first."""
    g, p = GEnd(), PEnd()
    nodes = [g, p]
    for _ in range(n):
        g = comm("a", "b", "L", NAT, g)
        p = PSend("b", "L", NatLit(1), p)
        nodes += [g, p]
    return nodes[::-1]


def test_hashing_a_deep_term_never_recurses():
    # The roots are hashed first, so a hash that recursed into fields it had
    # not yet hashed would exceed the recursion limit there.
    assert sys.getrecursionlimit() < 5000
    chains, again = _chains(5000), _chains(5000)
    assert [hash(t) for t in chains] == [hash(t) for t in again]


_SPAN = SourceSpan("f.smpst", 1, 1, 1, 2)
_ONE_OF_EACH = [
    GlobalAction("a", "b", "L", NAT), GBranch("L", NAT, GEnd()), comm("a", "b", "L", NAT, GEnd()),
    GMu("X", GVar("X")), GVar("X"), GEnd(), GPar(GEnd(), GEnd()),
    UnitLit(), BoolLit(True), NatLit(1), IntLit(-1), StrLit("s"), VarRef("x"),
    Add(NatLit(1), VarRef("x")), Mul(NatLit(1), NatLit(2)), Eq(UnitLit(), UnitLit()),
    RecvBranch("L", "x", NAT, PEnd()), PSend("b", "L", NatLit(1), PEnd()),
    PRecv("b", (RecvBranch("L", "x", NAT, PVar("X")),)), PLet("x", NatLit(1), PEnd()),
    PIf(BoolLit(True), PEnd(), PVar("X")), PRec("X", PVar("X")), PVar("X"), PEnd(),
    Session((("b", PEnd()), ("a", PVar("X")))),
]


def test_every_term_class_is_covered():
    declared = {cls for cls in vars(terms).values()
                if isinstance(cls, type) and cls.__hash__ is terms._stored_hash}
    assert len(declared) == 26     # 23 declarations and BinaryExpr's three operators
    assert {type(t) for t in _ONE_OF_EACH} == declared - {terms.BinaryExpr}


@pytest.mark.parametrize("t", _ONE_OF_EACH, ids=lambda t: type(t).__name__)
def test_every_way_of_building_a_term_stores_the_same_hash(t):
    built = replace(t)
    assert built is not t and built == t and hash(built) == hash(t)
    if "span" in {f.name for f in fields(t)}:
        placed = replace(t, span=_SPAN)
        assert placed == t and hash(placed) == hash(t)


def test_session_with_processes_stores_the_hash_of_the_session_it_equals():
    sess = Session((("c", PEnd()), ("a", PEnd()), ("b", PVar("X"))))
    sent = PSend("a", "L", NatLit(1), PEnd())
    after = sess.with_processes({"b": sent})
    built = Session((("b", sent), ("c", PEnd()), ("a", PEnd())))
    assert after == built and hash(after) == hash(built)
    assert {built: "found"}[after] == "found"


def _rebuilt(t):
    """A copy of t built afresh through _rebuild, node by node."""
    return terms._rebuild(t, tuple(_rebuilt(s) for s in terms._subterms(t)))


def test_a_term_rebuilt_node_by_node_hashes_like_the_original():
    from test_parser import random_process
    rng = random.Random(0)
    cases = [random_global_type(random.Random(d)) for d in range(200)]
    cases += [random_process(rng, 4) for _ in range(400)]
    for t in cases:
        copy = _rebuilt(t)
        assert copy == t and hash(copy) == hash(t)
