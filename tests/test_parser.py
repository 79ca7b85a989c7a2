import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import CORPUS, TOKEN_FRAGMENTS
from synmpst.generate import random_global_type
from synmpst.lts import lts_to_json
from synmpst.mlts import Mlts
from synmpst.parser import (ParseAbort, ProtocolFile, parse_file, parse_mlts,
                            pretty_file, tokenize)
from synmpst.terms import (Add, BoolLit, Eq, GBranch, GComm, GEnd, IntLit, Mul, NatLit,
                           PayloadType, PEnd, PIf, PLet, PRec, PRecv, PSend, PVar,
                           RecvBranch, StrLit, UnitLit, VarRef, iter_subprocesses,
                           pretty_expr, pretty_process)

INT = PayloadType.INT


def test_trivial_global():
    pf = parse_file("global G = end;")
    assert isinstance(pf, ProtocolFile)
    assert pf.globals["G"] == GEnd()


def test_ring_file_has_two_top_level_branches(ring_pf):
    ring = ring_pf.globals["Ring"]
    assert isinstance(ring, GComm)
    assert [b.label for b in ring.branches] == ["AppThenGet", "App"]


def test_multicast_expansion():
    pf = parse_file("global G = m -> [w1, w2]: Datum(Int) . end;")
    assert isinstance(pf, ProtocolFile)
    expected = GComm("m", "w1", (GBranch("Datum", INT,
                     GComm("m", "w2", (GBranch("Datum", INT, GEnd()),))),))
    assert pf.globals["G"] == expected


def test_multicast_rejects_multiple_branches():
    out = parse_file("global G = m -> [w1, w2] { A(Int) . end, B(Int) . end };")
    assert isinstance(out, list)
    assert "one branch" in out[0].message


def test_syntax_error_carries_position():
    out = parse_file("global G = a -> ;", "file.smpst")
    assert isinstance(out, list)
    d = out[0]
    assert d.span.file == "file.smpst"
    assert d.span.start_line == 1
    assert 1 <= d.span.start_col <= len("global G = a -> ;") + 1


def test_error_at_end_of_file_after_a_comment():
    out = parse_file("global G = a -> b: Foo(Nat) . // c", "f.smpst")
    assert isinstance(out, list)
    assert str(out[0]) == "f.smpst:1:35: error: expected a global type, found 'end of file'"


def test_syntax_error_shows_a_string_literal_in_source_form():
    def message(text):
        out = parse_file(text, "f.smpst")
        assert isinstance(out, list)
        return str(out[0])

    assert message('global G = "ab";') == \
        "f.smpst:1:12: error: expected a global type, found '\"ab\"'"
    assert message('global G = "";') == \
        "f.smpst:1:12: error: expected a global type, found '\"\"'"
    assert message('global G = "a\\"b";') == \
        "f.smpst:1:12: error: expected a global type, found '\"a\\\\\"b\"'"
    # A role of the same spelling still reads without quotes.
    assert message("global G = ab") == "f.smpst:1:14: error: expected '->', found 'end of file'"


def test_diagnostics_within_file_bounds():
    text = "global G = end;\nprocess P at a = send b L(1) .\n"
    out = parse_file(text, "f.smpst")
    assert isinstance(out, list)
    for d in out:
        assert 1 <= d.span.start_line <= text.count("\n") + 1


def test_duplicate_declaration_rejected():
    out = parse_file("global G = end; global G = end;")
    assert isinstance(out, list)
    assert "duplicate" in out[0].message


def test_unknown_references_rejected():
    out = parse_file("process P at a = end; session S of G = { a: P };")
    assert isinstance(out, list)
    assert any("unknown global" in d.message for d in out)
    out = parse_file("global G = end; session S of G = { a: Q };")
    assert isinstance(out, list)
    assert any("unknown process" in d.message for d in out)


def test_unresolved_global_allowed_when_requested():
    text = "process P at a = end; session S of G = { a: P };"
    out = parse_file(text, allow_unresolved_globals=True)
    assert isinstance(out, ProtocolFile)


def test_role_mismatch_in_session_rejected():
    out = parse_file("global G = end; process P at a = end; session S of G = { b: P };")
    assert isinstance(out, list)
    assert any("declared" in d.message for d in out)


def test_wellformedness_diagnostics_attached():
    pf = parse_file("global G = mu X . X;")
    assert isinstance(pf, ProtocolFile)
    assert pf.diagnostics
    assert "unguarded" in pf.diagnostics[0].message


def test_int_and_nat_literals():
    pf = parse_file("process P at a = send b L(+20) . send b M(20) . end;",
                    allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile)
    p = pf.processes["P"][1]
    from synmpst.terms import IntLit, NatLit
    assert p.payload == IntLit(20)
    assert p.cont.payload == NatLit(20)


def test_signs_after_expressions_are_operators():
    pf = parse_file("process P at a = send b L(x + 1) . end;",
                    allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile)
    from synmpst.terms import Add, NatLit, VarRef
    assert pf.processes["P"][1].payload == Add(VarRef("x"), NatLit(1))


def test_expression_precedence():
    pf = parse_file('process P at a = send b L(x + 2 * y == z) . end;',
                    allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile)
    from synmpst.terms import Add, Eq, Mul, NatLit, VarRef
    expected = Eq(Add(VarRef("x"), Mul(NatLit(2), VarRef("y"))), VarRef("z"))
    assert pf.processes["P"][1].payload == expected


def test_parenthesised_expressions():
    pf = parse_file('process P at a = send b L((x + 2) * y) . end;',
                    allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile)
    from synmpst.terms import Add, Mul, NatLit, VarRef
    assert pf.processes["P"][1].payload == Mul(Add(VarRef("x"), NatLit(2)), VarRef("y"))


def test_printing_brackets_a_right_operand_of_the_same_level():
    one, two, three, four = NatLit(1), NatLit(2), NatLit(3), NatLit(4)
    assert pretty_expr(Add(one, Add(two, three))) == "1 + (2 + 3)"
    assert pretty_expr(Mul(two, Mul(three, four))) == "2 * (3 * 4)"
    assert pretty_expr(Eq(Eq(one, two), three)) == "(1 == 2) == 3"
    assert pretty_expr(Add(one, Mul(two, three))) == "1 + 2 * 3"


_STRINGS = ("", "plain", 'say "hi"', "back\\slash", '\\"', '"\\')


def random_expr(rng, depth):
    """An expression of every constructor: literals (negative Ints and strings
    holding \\ and " among them), variables, and all three operators nested
    on either side."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((
            lambda: UnitLit(), lambda: BoolLit(rng.random() < 0.5),
            lambda: NatLit(rng.randrange(100)), lambda: IntLit(rng.randrange(-100, 100)),
            lambda: StrLit(rng.choice(_STRINGS)), lambda: VarRef(rng.choice("xyz"))))()
    op = rng.choice((Add, Mul, Eq))
    return op(random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def random_process(rng, depth):
    """A process of every constructor, with random expressions in it."""
    if depth == 0:
        return rng.choice((PEnd(), PVar("X")))
    kind = rng.randrange(6)
    if kind == 0:
        return PSend("b", rng.choice("LM"), random_expr(rng, 3), random_process(rng, depth - 1))
    if kind == 1:
        return PRecv("b", tuple(RecvBranch(label, rng.choice("xyz"), rng.choice(tuple(PayloadType)),
                                           random_process(rng, depth - 1))
                                for label in rng.sample("LMN", rng.randint(1, 2))))
    if kind == 2:
        return PLet(rng.choice("xyz"), random_expr(rng, 3), random_process(rng, depth - 1))
    if kind == 3:
        return PIf(random_expr(rng, 3), random_process(rng, depth - 1), random_process(rng, depth - 1))
    if kind == 4:
        return PRec("X", random_process(rng, depth - 1))
    return PEnd()


def _expressions(p):
    """Every expression in process p, sub-expressions included."""
    stack = [getattr(q, f) for q in iter_subprocesses(p) for f in ("payload", "rhs", "cond")
             if hasattr(q, f)]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, (Add, Mul, Eq)):
            stack += (e.left, e.right)


def round_trip_inputs(processes, draws, seed=0):
    """A ProtocolFile of generated processes and random_global_type draws."""
    rng = random.Random(seed)
    procs = {f"P{i}": ("a", random_process(rng, 4)) for i in range(processes)}
    globals_ = {f"G{i}": random_global_type(random.Random(i)) for i in range(draws)}
    order = tuple([("global", n) for n in globals_] + [("process", n) for n in procs])
    return ProtocolFile("<generated>", globals_, procs, {}, order)


def test_pretty_file_round_trips_generated_processes_and_random_globals():
    pf = round_trip_inputs(processes=400, draws=100)
    exprs = [e for _, p in pf.processes.values() for e in _expressions(p)]
    # Every constructor occurs, and each operator has an operand of its own
    # kind on each side.
    assert {type(e) for e in exprs} == {UnitLit, BoolLit, NatLit, IntLit, StrLit, VarRef,
                                        Add, Mul, Eq}
    for op in (Add, Mul, Eq):
        assert any(type(e) is op and type(e.left) is op for e in exprs)
        assert any(type(e) is op and type(e.right) is op for e in exprs)
    assert any(isinstance(e, IntLit) and e.value < 0 for e in exprs)
    assert {'say "hi"', "back\\slash"} <= {e.value for e in exprs if isinstance(e, StrLit)}
    again = parse_file(pretty_file(pf), "printed", allow_unresolved_globals=True)
    assert isinstance(again, ProtocolFile), again[:1]
    assert again.order == pf.order
    for name, g in pf.globals.items():
        assert again.globals[name] == g, name
    for name, (role, p) in pf.processes.items():
        assert again.processes[name] == (role, p), pretty_process(p)


def _token_stream(text, path):
    return [(t.kind, t.text) for t in tokenize(text, path)]


def test_round_trip_all_corpus_files():
    for path in sorted(CORPUS.glob("*.smpst")):
        original = path.read_text()
        pf = parse_file(original, str(path), allow_unresolved_globals=True)
        assert isinstance(pf, ProtocolFile), (path, pf)
        printed = pretty_file(pf)
        assert _token_stream(printed, "printed") == _token_stream(original, "orig"), path
        again = parse_file(printed, "printed", allow_unresolved_globals=True)
        assert isinstance(again, ProtocolFile)
        assert again.globals == pf.globals
        assert again.processes == pf.processes


def test_if_and_false_round_trip_and_are_checked():
    text = ("process P at a = rec X . recv b { N(n: Nat) . if n == 0 "
            "then send b Done(false) . end else send b More(true) . X };")
    pf = parse_file(text, allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile) and not pf.diagnostics
    printed = pretty_file(pf)
    assert _token_stream(printed, "p") == _token_stream(text, "o")
    again = parse_file(printed, "printed", allow_unresolved_globals=True)
    assert isinstance(again, ProtocolFile) and again.processes == pf.processes
    bad = parse_file("process P at a = rec X . if m then end else X;", "bad.smpst",
                     allow_unresolved_globals=True)
    assert [str(d) for d in bad.diagnostics] == [
        "bad.smpst:1:29: error: process P: unbound-var: data variable m is unbound",
        "bad.smpst:1:45: error: process P: not-message-guarded: "
        "recursion variable X occurs under no send/receive"]


def test_string_escapes_round_trip():
    text = r'process P at a = send b L("he \"quoted\" \\ here") . end;'
    pf = parse_file(text, allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile)
    assert pf.processes["P"][1].payload.value == 'he "quoted" \\ here'
    printed = pretty_file(pf)
    assert _token_stream(printed, "p") == _token_stream(text, "o")


def test_a_string_literal_refuses_a_newline():
    # The syntax has no escape for a newline: printed, it would be an
    # unterminated literal.
    with pytest.raises(ValueError, match="newline"):
        StrLit("a\nb")
    assert isinstance(parse_file('process P at a = send b L("a\nb") . end;',
                                 allow_unresolved_globals=True), list)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.text(max_size=12))
@example('\r\t"\\ λ')
def test_every_string_literal_prints_to_text_that_parses_back(value):
    if "\n" in value:
        with pytest.raises(ValueError):
            StrLit(value)
        return
    text = f"process P at a = send b L({pretty_expr(StrLit(value))}) . end;"
    pf = parse_file(text, allow_unresolved_globals=True)
    assert isinstance(pf, ProtocolFile), pf
    assert pf.processes["P"][1].payload == StrLit(value)


@settings(max_examples=500, derandomize=True)
@given(st.lists(st.sampled_from(TOKEN_FRAGMENTS), max_size=14).map("".join))
@example("global G = end; // trailing comment")
@example('send b L("x\\"y") + 1 . x+2 // c\n\tPrice(+20)')
def test_token_positions_point_into_the_source(text):
    """Each token's (line, col) is where it starts in the source (a string at
    its opening quote), EOF is just past the last character, and a lexical
    error points at the character it names."""
    lines = text.split("\n")
    try:
        tokens = tokenize(text, "f")
    except ParseAbort as abort:
        d = abort.diagnostic
        at = lines[d.span.start_line - 1][d.span.start_col - 1]
        assert d.message in (f"unexpected character {at!r}",
                             {'"': "unterminated string literal",
                              "\\": "unsupported escape in string literal"}.get(at))
        return
    for tok in tokens[:-1]:
        source = lines[tok.line - 1][tok.col - 1:]
        assert source.startswith('"' if tok.kind == "STRING" else tok.text), (tok, text)
    eof = tokens[-1]
    assert (eof.kind, eof.line, eof.col) == ("EOF", len(lines), len(lines[-1]) + 1)


# -- MLTS JSON -----------------------------------------------------------------


def test_parse_mlts_diamond(diamond_m):
    assert isinstance(diamond_m, Mlts)
    assert diamond_m.labels[diamond_m.initial] == "S1"
    assert len(diamond_m.transitions) == 4


def test_parse_mlts_keeps_one_object_per_action(ring_lts):
    exported, built = parse_mlts(lts_to_json(ring_lts)), ring_lts.to_mlts()
    assert (exported.initial, exported.transitions) == (built.initial, built.transitions)
    doc = ('{"states": ["s", "t"], "initial": "s", "transitions": ['
           '{"from": "s", "to": "t", "sender": "a", "receiver": "b", "label": "L", "payload": "Unit"},'
           '{"from": "t", "to": "s", "sender": "a", "receiver": "b", "label": "L", "payload": "Unit"}]}')
    first, second = (a for _, a, _ in parse_mlts(doc).transitions)
    assert first is second and first.roles is first.roles == frozenset("ab")


def test_parse_mlts_minimal():
    m = parse_mlts('{"states": ["only"], "initial": "only", "transitions": []}')
    assert isinstance(m, Mlts)
    assert len(m.labels) == 1 and not m.transitions


def test_parse_mlts_rejects_self_communication():
    doc = ('{"states": ["s", "t"], "initial": "s", "transitions": ['
           '{"from": "s", "to": "t", "sender": "a", "receiver": "a",'
           ' "label": "L", "payload": "Unit"}]}')
    out = parse_mlts(doc)
    assert isinstance(out, list)
    assert "sender and receiver" in out[0].message


def test_parse_mlts_rejects_dangling_and_bad_payload():
    doc = ('{"states": ["s"], "initial": "s", "transitions": ['
           '{"from": "s", "to": "gone", "sender": "a", "receiver": "b",'
           ' "label": "L", "payload": "Float"}]}')
    out = parse_mlts(doc)
    assert isinstance(out, list)
    assert "gone" in out[0].message and "Float" in out[0].message


def test_parse_mlts_rejects_bad_json_and_schema():
    out = parse_mlts("{not json", "m.json")
    assert isinstance(out, list) and out[0].span.file == "m.json"
    out = parse_mlts('{"states": [], "initial": "x"}')
    assert isinstance(out, list)
    out = parse_mlts('{"states": ["a", "a"], "initial": "a"}')
    assert isinstance(out, list)
    for initial in ('"b"', '["a"]', '{}'):
        out = parse_mlts(f'{{"states": ["a"], "initial": {initial}}}')
        assert isinstance(out, list) and '"initial" must name a declared state' in out[0].message


# Every parse_mlts diagnostic about a transition, pinned byte for byte. The
# document declares states s and t; V is a valid transition, and a case lists
# the transitions it appends to the document and the diagnostics it expects,
# or None when it loads.
V = {"from": "s", "to": "t", "sender": "a", "receiver": "b", "label": "L", "payload": "Unit"}
FIELDS = ("from", "to", "sender", "receiver", "label", "payload")


def _without(key):
    return {k: v for k, v in V.items() if k != key}


MLTS_DIAGNOSTIC_CASES = [
    ("not-an-object", [1, "t", None, [V], True],
     [f"transition {k} must be an object" for k in range(5)]),
    *((f"{key}-missing", [_without(key)], [f"transition 0 lacks string field(s): {key}"])
      for key in FIELDS),
    *((f"{key}-{kind}", [dict(V, **{key: value})],
       [f"transition 0 lacks string field(s): {key}"])
      for key in FIELDS for kind, value in (("null", None), ("number", 3), ("list", ["s"]))),
    ("several-fields", [{"to": 1, "label": None, "sender": "a", "receiver": "b"}],
     ["transition 0 lacks string field(s): from, to, label, payload"]),
    ("unknown-from", [dict(V, **{"from": "x"})], ["transition 0: unknown source state 'x'"]),
    ("unknown-to", [dict(V, to="x")], ["transition 0: unknown target state 'x'"]),
    ("self-communication", [dict(V, receiver="a")],
     ["transition 0: sender and receiver are both 'a'"]),
    ("unknown-payload", [dict(V, payload="Float")], ["transition 0: unknown payload type 'Float'"]),
    ("several-problems", [dict(V, to="y", receiver="a", payload="Float", **{"from": "x"})],
     ["transition 0: unknown source state 'x'; unknown target state 'y'; "
      "sender and receiver are both 'a'; unknown payload type 'Float'"]),
    ("after-the-same-action", [V, _without("from"), dict(V, to=0), dict(V, to=["t"]),
                               dict(V, label={"L": 1}), [V]],
     ["transition 1 lacks string field(s): from", "transition 2 lacks string field(s): to",
      "transition 3 lacks string field(s): to", "transition 4 lacks string field(s): label",
      "transition 5 must be an object"]),
    ("known-action-undeclared-endpoint", [V, dict(V, to="gone"), dict(V, **{"from": "t", "to": "s"}),
                                          dict(V, **{"from": "u"})],
     ["transition 1: unknown target state 'gone'", "transition 3: unknown source state 'u'"]),
    ("each-reported-with-its-index", [V, dict(V, payload="Nat"), 7, dict(V, sender="b"),
                                      _without("label"), dict(V, to="t", receiver="c")],
     ["transition 2 must be an object", "transition 3: sender and receiver are both 'b'",
      "transition 4 lacks string field(s): label"]),
    ("duplicates", [V, V, dict(V), dict(V, to="s"), dict(V, to="s")], None),
]


@pytest.mark.parametrize("transitions,expected", [case[1:] for case in MLTS_DIAGNOSTIC_CASES],
                         ids=[case[0] for case in MLTS_DIAGNOSTIC_CASES])
def test_parse_mlts_diagnostics_are_pinned(transitions, expected):
    doc = {"states": ["s", "t"], "initial": "s", "transitions": transitions}
    out = parse_mlts(json.dumps(doc), "m.json")
    if expected is None:
        assert isinstance(out, Mlts)
        assert len(out.transitions) == len({json.dumps(t, sort_keys=True) for t in transitions})
    else:
        assert [str(d) for d in out] == [f"m.json:1:1: error: {msg}" for msg in expected]


def test_parse_mlts_reads_only_its_three_members():
    """A missing "transitions" means none; other members, "terms" included, are ignored."""
    for doc in ('{"states": ["s"], "initial": "s"}',
                '{"states": ["s"], "initial": "s", "transitions": [], "terms": 3, "x": null}'):
        m = parse_mlts(doc)
        assert isinstance(m, Mlts) and (m.initial, m.labels, m.transitions) == (0, ("s",), frozenset())


def test_parse_mlts_whole_file_span_ends_after_the_last_character():
    body = '{"states": [],\n "initial": "x"}'
    for text, end in ((body, (2, 16)), (body + "\n", (3, 1))):
        (d,) = parse_mlts(text, "m.json")
        span = d.span
        assert (span.start_line, span.start_col, span.end_line, span.end_col) == (1, 1, *end), text


def test_keywords_are_reserved():
    out = parse_file("global end = end;")
    assert isinstance(out, list)
    out = parse_file("process P at send = end;", allow_unresolved_globals=True)
    assert isinstance(out, list)
