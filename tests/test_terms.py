import pytest
from hypothesis import given, settings, strategies as st

from synmpst.terms import (Eq, GBranch, GComm, GEnd, GMu, GPar, GVar, NatLit,
                           PayloadType, PEnd, PIf, PRec, PRecv, PSend, PVar, PLet,
                           RecvBranch, Session, VarRef, Mul,
                           check_wellformed_global, check_wellformed_process,
                           free_data_vars, free_global_vars,
                           free_process_rec_vars, is_message_guarded,
                           iter_subprocesses, obj,
                           pretty_process, roles_of,
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
