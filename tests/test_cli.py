import contextlib
import importlib.util
import io
import json
import pathlib
import random
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

import synmpst.cli
import synmpst.runtime
from conftest import CORPUS, TOKEN_FRAGMENTS
from synmpst.cli import main
from synmpst.generate import _candidate
from synmpst.terms import pretty_global

RING = str(CORPUS / "ring.smpst")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_well_typed(capsys):
    code, out, _ = run_cli(capsys, "check", RING)
    assert code == 0
    assert "3 roles well-typed" in out


def test_check_ill_typed_exit_code(capsys):
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "ring_badpayload.smpst"))
    assert code == 1
    assert "PayloadMismatch" in out


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "nonexistent.smpst")
    assert code == 2
    assert "nonexistent" in err


def test_check_multiple_files(capsys):
    code, out, _ = run_cli(capsys, "check", RING, str(CORPUS / "oauth2.smpst"))
    assert code == 0
    assert out.count("well-typed") == 2


def test_check_json_output_is_stable(capsys):
    code1, out1, _ = run_cli(capsys, "check", RING, "--format", "json")
    code2, out2, _ = run_cli(capsys, "check", RING, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc[0]["sessions"][0]["verdict"] == "well-typed"


def test_check_against_external_mlts(capsys):
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "diamond.smpst"),
                           "--mlts", str(CORPUS / "diamond.mlts.json"))
    assert code == 0
    assert "3 roles well-typed" in out


def test_check_unverified_mlts_requires_flag(capsys, tmp_path):
    bad = tmp_path / "bad.mlts.json"
    bad.write_text(json.dumps({
        "states": ["s", "t1", "t2"],
        "initial": "s",
        "transitions": [
            {"from": "s", "to": "t1", "sender": "a", "receiver": "b",
             "label": "L", "payload": "Unit"},
            {"from": "s", "to": "t2", "sender": "c", "receiver": "b",
             "label": "M", "payload": "Unit"},
        ]}))
    proto = tmp_path / "p.smpst"
    proto.write_text("process P at z = end;\nsession S of Ext = { z: P };\n")
    code, _, err = run_cli(capsys, "check", str(proto), "--mlts", str(bad))
    assert code == 1
    assert "well-behaved" in err
    code, out, _ = run_cli(capsys, "check", str(proto), "--mlts", str(bad),
                           "--allow-unverified")
    assert code == 1  # roles a, b, c are active but unimplemented
    assert "RoleUnimplemented" in out


def test_lts_dot_output(capsys):
    import re
    code, out, _ = run_cli(capsys, "lts", RING, "--format", "dot")
    assert code == 0
    edges = [line for line in out.splitlines()
             if re.match(r"\s*s\d+ -> s\d+ \[", line)]
    assert len(edges) == 6


def test_lts_json_output(capsys):
    code, out, _ = run_cli(capsys, "lts", RING, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["states"]) == 6
    assert len(doc["transitions"]) == 6


def test_lts_json_ends_each_document_with_a_newline(capsys, tmp_path):
    from synmpst.lts import build_lts, lts_to_json
    from synmpst.parser import parse_file
    text = ("global G = a -> b: M(Unit) . end;\n"
            "global H = par { c -> d: N(Nat) . end || e -> f: O(Int) . end };\n")
    path = tmp_path / "two.smpst"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "lts", str(path), "--format", "json")
    assert code == 0
    decoder = json.JSONDecoder()
    first, end = decoder.raw_decode(out)
    assert out[end] == "\n"
    second, end = decoder.raw_decode(out, end + 1)
    assert out[end:] == "\n"
    assert (len(first["states"]), len(second["states"])) == (2, 4)
    pf = parse_file(text, str(path))
    exports = [lts_to_json(build_lts(pf.globals[name]).to_mlts()) for name in ("G", "H")]
    assert out == exports[0] + "\n" + exports[1] + "\n"
    code, out, _ = run_cli(capsys, "lts", str(path), "--global", "H", "--format", "json")
    assert code == 0
    assert out == exports[1] + "\n"


def test_lts_unknown_global(capsys):
    code, _, err = run_cli(capsys, "lts", RING, "--global", "Nope")
    assert code == 2
    assert "Nope" in err


def test_wb_mlts_file(capsys):
    code, out, _ = run_cli(capsys, "wb", str(CORPUS / "diamond.mlts.json"))
    assert code == 0
    assert "well-behaved: yes" in out


def test_wb_detects_violations(capsys, tmp_path):
    bad = tmp_path / "bad.mlts.json"
    bad.write_text(json.dumps({
        "states": ["s", "t1", "t2"],
        "initial": "s",
        "transitions": [
            {"from": "s", "to": "t1", "sender": "a", "receiver": "b",
             "label": "L", "payload": "Unit"},
            {"from": "s", "to": "t2", "sender": "c", "receiver": "b",
             "label": "M", "payload": "Unit"},
        ]}))
    code, out, _ = run_cli(capsys, "wb", str(bad))
    assert code == 1
    assert "well-behaved: no" in out
    assert "SenderDeterminacy" in out


def over_cap_mlts(tmp_path, n=120):
    """n states in a ring that each offer a->b:L and c->b:M: n
    SenderDeterminacy violations and no other."""
    transitions = []
    for i in range(n):
        for sender, label in (("a", "L"), ("c", "M")):
            transitions.append({"from": f"s{i}", "to": f"s{(i + 1) % n}", "sender": sender,
                                "receiver": "b", "label": label, "payload": "Unit"})
    path = tmp_path / "many.mlts.json"
    path.write_text(json.dumps({"states": [f"s{i}" for i in range(n)], "initial": "s0",
                                "transitions": transitions}))
    return path


def test_capped_violations_are_counted_in_full(capsys, tmp_path):
    path = over_cap_mlts(tmp_path)
    code, out, _ = run_cli(capsys, "wb", str(path))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == f"{path}: well-behaved: no"
    assert lines[1:51] == [f"  SenderDeterminacy: state {i} offers a->b:L(Unit) and c->b:M(Unit)"
                           for i in range(50)]
    assert lines[51:] == ["  (70 more SenderDeterminacy violations not listed)"]

    # The JSON document lists the same 50 witnesses and nothing more.
    code, out, _ = run_cli(capsys, "wb", str(path), "--format", "json")
    (doc,) = json.loads(out)
    assert code == 1 and set(doc) == {"subject", "well_behaved", "violations"}
    assert len(doc["violations"]) == 50

    proto = tmp_path / "p.smpst"
    proto.write_text(f"// classifier: {path.name}\n"
                     "process P at z = end;\nsession S of Ext = { z: P };\n")
    code, out, err = run_cli(capsys, "check", str(proto))
    assert (code, out) == (1, "")
    assert err == (f"synmpst: error: {path} is not well-behaved (120 violation(s)); "
                   "pass --allow-unverified to check anyway\n")
    proto.unlink()
    code, out, _ = run_cli(capsys, "bench", str(tmp_path))
    assert code == 1
    assert "  wb             120 violations (" in out.splitlines()[0]


def test_wb_under_the_cap_lists_every_violation(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "wb", str(over_cap_mlts(tmp_path, 50)))
    assert code == 1
    assert len(out.splitlines()) == 51 and "not listed" not in out


def test_wb_rejects_non_string_initial(capsys, tmp_path):
    bad = tmp_path / "bad.mlts.json"
    bad.write_text(json.dumps({"states": ["s"], "initial": ["s"], "transitions": []}))
    code, out, err = run_cli(capsys, "wb", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("synmpst: error: ") and '"initial" must name a declared state' in err


def test_wb_protocol_file(capsys):
    code, out, _ = run_cli(capsys, "wb", RING)
    assert code == 0
    assert "well-behaved: yes" in out


def test_simulate_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "simulate", RING, "--seed", "3")
    code2, out2, _ = run_cli(capsys, "simulate", RING, "--seed", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "a -> b: AppThenGet(Nat)" in out1


def test_simulate_json_lines(capsys):
    code, out, _ = run_cli(capsys, "simulate", RING, "--format", "json")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert lines[0]["kind"] == "comm"


def test_explore_sound(capsys):
    code, out, _ = run_cli(capsys, "explore", RING)
    assert code == 0
    assert "sound at this depth" in out


def test_explore_diamond_via_directive(capsys):
    code, out, _ = run_cli(capsys, "explore", str(CORPUS / "diamond.smpst"))
    assert code == 0
    assert "sound" in out


def test_explore_unsound_session(capsys, tmp_path):
    proto = tmp_path / "stuck.smpst"
    proto.write_text(
        "global G = a -> b: Foo(Unit) . end;\n"
        "process A at a = send b Foo(unit) . end;\n"
        "process B at b = recv a { Bar(x: Unit) . end } ;\n"
        "session S of G = { a: A, b: B };\n")
    code, out, _ = run_cli(capsys, "explore", str(proto))
    assert code == 1
    assert "violations found" in out


def test_explore_json_output(capsys):
    assert run_cli(capsys, "explore", RING, "--format", "json") == (0, """{
  "session": "RingDemo",
  "configs_visited": 4,
  "depth_reached": 3,
  "complete": true,
  "stuck_non_final": 0,
  "tau_cycles": 0,
  "preservation_breaks": 0,
  "verdict": "sound at this depth"
}
""", "")


# mapreduce's seed-0 run, with the internal steps of m, w1 and w2.
MAPREDUCE_RUN = {
    "text": """session MapReduceDemo, seed 0: 10 actions
  [m] tau
m -> w1: Datum(Int)
m -> w2: Datum(Int)
w1 -> r: Result(Int)
  [w1] tau
w2 -> r: Result(Int)
  [w2] tau
r -> m: Stop(Unit)
m -> w1: Stop(Unit)
m -> w2: Stop(Unit)
""",
    "json": """{"kind": "tau", "role": "m"}
{"kind": "comm", "from": "m", "to": "w1", "label": "Datum", "payload": "Int"}
{"kind": "comm", "from": "m", "to": "w2", "label": "Datum", "payload": "Int"}
{"kind": "comm", "from": "w1", "to": "r", "label": "Result", "payload": "Int"}
{"kind": "tau", "role": "w1"}
{"kind": "comm", "from": "w2", "to": "r", "label": "Result", "payload": "Int"}
{"kind": "tau", "role": "w2"}
{"kind": "comm", "from": "r", "to": "m", "label": "Stop", "payload": "Unit"}
{"kind": "comm", "from": "m", "to": "w1", "label": "Stop", "payload": "Unit"}
{"kind": "comm", "from": "m", "to": "w2", "label": "Stop", "payload": "Unit"}
""",
}


@pytest.mark.parametrize("fmt", MAPREDUCE_RUN)
def test_simulate_shows_internal_steps(capsys, fmt):
    assert run_cli(capsys, "simulate", str(CORPUS / "mapreduce.smpst"), "--format", fmt) \
        == (0, MAPREDUCE_RUN[fmt], "")


SELF_COMMUNICATION = "global G = a -> a: M(Int) . end;\n"


@pytest.mark.parametrize("command, options, text, message", [
    ("explore", ["--session", "Nope"], None, "{path}: unknown session Nope"),
    ("lts", [], "process P at a = end;\n", "{path}: no global types declared"),
    ("wb", [], "process P at a = end;\n", "{path}: no global types declared"),
    ("lts", [], SELF_COMMUNICATION,
     "{path}:1:12: error: global G: self-communication: role a sends to itself"),
    ("check", [], SELF_COMMUNICATION,
     "{path}:1:12: error: global G: self-communication: role a sends to itself"),
], ids=["explore-unknown-session", "lts-no-globals", "wb-no-globals",
        "lts-ill-formed", "check-ill-formed"])
def test_input_errors_name_the_file(capsys, tmp_path, command, options, text, message):
    path = RING
    if text is not None:
        path = str(tmp_path / "p.smpst")
        pathlib.Path(path).write_text(text)
    assert run_cli(capsys, command, path, *options) \
        == (2, "", f"synmpst: error: {message.format(path=path)}\n")


def test_state_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SYNMPST_STATE_CAP", "2")
    code, _, err = run_cli(capsys, "check", RING)
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("SYNMPST_STATE_CAP", "not-a-number")
    code, _, err = run_cli(capsys, "check", RING)
    assert code == 2


@pytest.mark.parametrize("command", ["check", "lts", "wb"])
def test_state_cap_error_names_file_and_global(capsys, command):
    code, out, err = run_cli(capsys, command, RING, "--state-cap", "2")
    assert code == 2
    assert out == ""
    assert err.startswith(f"synmpst: error: {RING}: global Ring: state cap 2 exceeded")


@pytest.mark.parametrize("argv", [
    ["simulate", RING, "--state-cap", "5"],
    ["bench", str(CORPUS), "--format", "json"],
])
def test_options_a_command_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_state_cap_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("SYNMPST_STATE_CAP", "2")
    code, _, _ = run_cli(capsys, "check", RING, "--state-cap", "1000")
    assert code == 0


def test_lts_json_feeds_back_into_wb(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "lts", RING, "--format", "json")
    assert code == 0
    exported = tmp_path / "ring.mlts.json"
    exported.write_text(out)
    code, out, _ = run_cli(capsys, "wb", str(exported))
    assert code == 0
    assert "well-behaved: yes" in out


def test_check_json_reports_errors(capsys):
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "ring_badaction.smpst"),
                           "--format", "json")
    assert code == 1
    doc = json.loads(out)
    errors = doc[0]["sessions"][0]["errors"]
    assert errors[0]["kind"] == "UnexpectedSend"
    assert errors[0]["role"] == "a"
    assert errors[0]["span"]


def test_bench_corpus_all_rows_pass(capsys):
    code, out, _ = run_cli(capsys, "bench", str(CORPUS))
    assert code == 0
    assert "all rows pass" in out
    assert "FAIL" not in out


def test_bench_requires_directory(capsys):
    code, _, err = run_cli(capsys, "bench", RING)
    assert code == 2


SESSIONLESS = "global G = a -> b: Ping(Unit) . end;\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_file_without_sessions_is_an_error(capsys, tmp_path, fmt):
    path = tmp_path / "nosessions.smpst"
    path.write_text(SESSIONLESS)
    code, out, err = run_cli(capsys, "check", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert err == f"synmpst: error: {path}: no sessions declared\n"


def test_bench_row_without_sessions_fails(capsys, tmp_path):
    shutil.copy(RING, tmp_path)
    (tmp_path / "nosessions.smpst").write_text(SESSIONLESS + "// expect: well-typed\n")
    code, out, _ = run_cli(capsys, "bench", str(tmp_path))
    assert code == 1
    assert "FAIL  nosessions.smpst" in out
    assert "no sessions declared" in out
    assert "PASS  ring.smpst" in out
    assert "SOME ROWS FAILED (2 rows)" in out


def test_bench_reports_unreadable_and_too_deep_files_as_rows(capsys, tmp_path):
    shutil.copy(RING, tmp_path)
    (tmp_path / "latin1.smpst").write_bytes("global G = end; // caf\xe9\n".encode("latin-1"))
    (tmp_path / "chain.smpst").write_text(
        "global G = " + "a -> b: Foo(Nat) . " * 400 + "end;\n"
        "process A at a = end;\nprocess B at b = end;\nsession S of G = { a: A, b: B };\n")
    (tmp_path / "deep.mlts.json").write_text("[" * 5000 + "]" * 5000)
    code, out, err = run_cli(capsys, "bench", str(tmp_path))
    assert code == 1
    assert err == ""
    rows = out.splitlines()[:-1]
    assert [row.split()[:2] for row in rows] == [
        ["FAIL", "deep.mlts.json"], ["FAIL", "chain.smpst"], ["FAIL", "latin1.smpst"],
        ["PASS", "ring.smpst"]]
    too_deep = "input nested too deeply: exceeded the recursion limit ("
    assert too_deep in rows[0] and f"error: {too_deep}" in rows[1]
    assert "error: cannot read " in rows[2] and "not UTF-8 text (byte 22)" in rows[2]
    assert out.splitlines()[-1] == "SOME ROWS FAILED (4 rows)"


def test_bench_without_inputs_is_a_usage_error(capsys, tmp_path):
    (tmp_path / "notes.txt").write_text("no protocols here\n")
    code, out, err = run_cli(capsys, "bench", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("synmpst: error: ") and str(tmp_path) in err


@pytest.mark.parametrize("argv, flag", [
    (["explore", RING, "--max-depth", "0"], "--max-depth"),
    (["explore", RING, "--max-depth", "-1"], "--max-depth"),
    (["bench", str(CORPUS), "--max-depth", "-1"], "--max-depth"),
    (["check", RING, "--state-cap", "0"], "--state-cap"),
    (["lts", RING, "--state-cap", "-5"], "--state-cap"),
    (["simulate", RING, "--max-steps", "-1"], "--max-steps"),
])
def test_out_of_range_integers_rejected(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err


def test_non_integer_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explore", RING, "--max-depth", "deep"])
    assert exc.value.code == 2
    assert "argument --max-depth: invalid int value: 'deep'" in capsys.readouterr().err


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    assert synmpst.cli._build_arg_parser() is synmpst.cli._build_arg_parser()
    plain = run_cli(capsys, "simulate", RING)
    seeded = run_cli(capsys, "simulate", RING, "--seed", "3", "--format", "json")
    assert run_cli(capsys, "simulate", RING) == plain
    assert run_cli(capsys, "simulate", RING, "--seed", "3", "--format", "json") == seeded
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", RING, "--max-steps", "-1"])
        assert exc.value.code == 2
        assert "argument --max-steps: must be at least 0" in capsys.readouterr().err
        assert run_cli(capsys, "simulate", RING) == plain


def test_state_cap_env_below_one_rejected(capsys, monkeypatch):
    monkeypatch.setenv("SYNMPST_STATE_CAP", "0")
    code, out, err = run_cli(capsys, "check", RING)
    assert code == 2
    assert out == ""
    assert "SYNMPST_STATE_CAP must be at least 1" in err


def test_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    latin = tmp_path / "latin1.smpst"
    latin.write_bytes("// caf\u00e9\nglobal G = end;\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "check", str(latin))
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err and "Traceback" not in err
    code, _, err = run_cli(capsys, "check", RING, "--mlts", str(latin))
    assert code == 2
    assert "not UTF-8" in err


@pytest.mark.parametrize("command, good, bad", [
    ("check", "3 roles well-typed", "ill-typed"),
    ("explore", "sound at this depth", "violations found"),
])
def test_classifier_resolution_rule(capsys, tmp_path, command, good, bad):
    diamond = str(CORPUS / "diamond.mlts.json")
    # --mlts overrides the declared global Ring.
    code, out, _ = run_cli(capsys, command, RING, "--mlts", diamond)
    assert code == 1
    assert bad in out
    # A directive serves only sessions whose global is undeclared.
    directed = tmp_path / "ring.smpst"
    directed.write_text(f"// classifier: {diamond}\n" + (CORPUS / "ring.smpst").read_text())
    code, out, _ = run_cli(capsys, command, str(directed))
    assert code == 0
    assert good in out


def test_explore_unverified_mlts_requires_flag(capsys, tmp_path):
    bad = tmp_path / "bad.mlts.json"
    bad.write_text(json.dumps({
        "states": ["s", "t1", "t2"],
        "initial": "s",
        "transitions": [
            {"from": "s", "to": "t1", "sender": "a", "receiver": "b",
             "label": "L", "payload": "Unit"},
            {"from": "s", "to": "t2", "sender": "c", "receiver": "b",
             "label": "M", "payload": "Unit"},
        ]}))
    proto = tmp_path / "p.smpst"
    proto.write_text("process P at z = end;\nsession S of Ext = { z: P };\n")
    code, out, err = run_cli(capsys, "explore", str(proto), "--mlts", str(bad))
    assert code == 1
    assert out == ""
    assert "not well-behaved" in err
    code, out, _ = run_cli(capsys, "explore", str(proto), "--mlts", str(bad),
                           "--allow-unverified")
    assert code == 0
    assert "sound at this depth" in out


@pytest.mark.parametrize("numeral, message", [
    ("\u00b2", "unexpected character '\u00b2'"),
    ("7" * 5000, "numeral too long (5000 characters)"),
], ids=["superscript-digit", "5000-digits"])
def test_malformed_numeral_is_a_syntax_error(capsys, tmp_path, numeral, message):
    proto = tmp_path / "n.smpst"
    proto.write_text(f"process P at a = send b Foo({numeral}) . end;\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(proto))
    assert code == 2
    assert out == ""
    assert err == f"synmpst: error: {proto}:1:29: error: {message}\n"


DEEP_CHAIN = "global G = " + "a -> b: Foo(Nat) . " * 3000 + "end;\n"


@pytest.mark.parametrize("command", ["check", "wb", "lts"])
def test_depth_failure_is_a_usage_error(capsys, tmp_path, command):
    chain = tmp_path / "chain.smpst"
    chain.write_text(DEEP_CHAIN)
    code, out, err = run_cli(capsys, command, str(chain))
    assert code == 2
    assert out == ""
    assert err.startswith("synmpst: error: ") and "recursion limit" in err


def _load_by_path(*parts):
    """A module of the repository outside the package, loaded by path."""
    path = pathlib.Path(__file__).resolve().parent.parent.joinpath(*parts)
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The prefix chains whose nesting limits the script measures.
NESTING = _load_by_path("scripts", "nesting_limits.py")


@pytest.mark.parametrize("command", ["lts", "wb", "check", "explore"])
def test_a_deep_but_finite_input_is_refused_as_nested_too_deeply(capsys, tmp_path, command):
    # Stepping a 150-step wrapped chain exceeds the recursion limit at its
    # initial state: the input's own depth, not a closure that grew.
    chain = tmp_path / "chain.smpst"
    chain.write_text(NESTING.wrapped(150))
    code, out, err = run_cli(capsys, command, str(chain))
    assert code == 2
    assert out == ""
    assert "input nested too deeply" in err and "comparable depth" not in err


def test_an_unbounded_closure_is_still_refused_as_unbounded(capsys, tmp_path):
    proto = tmp_path / "unbounded.smpst"
    g = _candidate(random.Random(52), 6, ("a", "b", "c", "d"), 3)
    proto.write_text(f"global G = {pretty_global(g)};\n")
    code, out, err = run_cli(capsys, "lts", str(proto))
    assert code == 2
    assert out == ""
    assert "likely unbounded" in err and "nested too deeply" not in err


@pytest.mark.parametrize("command", ["lts", "wb", "check", "explore"])
def test_a_250_step_chain_is_accepted(capsys, tmp_path, command):
    chain = tmp_path / "chain.smpst"
    chain.write_text(NESTING.plain(250))
    code, _, err = run_cli(capsys, command, str(chain))
    assert (code, err) == (0, "")


def test_classifiers_resolved_once_per_file(capsys, monkeypatch, tmp_path):
    calls = {"build_lts": 0, "check_well_behaved": 0}

    def counted(name):
        real = getattr(synmpst.cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(synmpst.cli, name, wrapper)

    counted("build_lts")
    counted("check_well_behaved")
    # Two sessions of the one global Confusion.
    code, out, _ = run_cli(capsys, "check", str(CORPUS / "confusion.smpst"))
    assert code == 1
    assert out.count("ill-typed") == 2
    assert calls == {"build_lts": 1, "check_well_behaved": 0}
    # Two sessions of the one external MLTS: it is gated once.
    twice = tmp_path / "twice.smpst"
    twice.write_text((CORPUS / "diamond.smpst").read_text() +
                     "session Again of Diamond = { a: DiamAlice, b: DiamBob, c: DiamCarol };\n")
    code, out, _ = run_cli(capsys, "check", str(twice),
                           "--mlts", str(CORPUS / "diamond.mlts.json"))
    assert code == 0
    assert out.count("3 roles well-typed") == 2
    assert calls == {"build_lts": 1, "check_well_behaved": 1}


def _perfbench_tracer():
    """perfbench/tracer.py, loaded by path."""
    return _load_by_path("perfbench", "tracer.py")


def test_perfbench_tracer_targets_resolve():
    """Every function perfbench/tracer.py times or counts is still found at
    the module and name it gives; nothing is wrapped."""
    tracer_module = _perfbench_tracer()
    missing = []
    for module, attribute, *_ in tracer_module.SPANS + tracer_module.CALL_COUNTS:
        try:
            owner, name = tracer_module._resolve(module, attribute)
            getattr(owner, name)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attribute}")
    assert not missing, f"tracer targets that no longer resolve: {', '.join(missing)}"


def test_perfbench_tracer_finds_every_name_it_traces():
    """perfbench/tracer.py wraps functions at the module and name their
    callers resolve; renaming or deleting one must fail here."""
    tracer = _perfbench_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert synmpst.cli.explore is not synmpst.runtime.explore
    finally:
        tracer.uninstall()
    assert synmpst.cli.explore is synmpst.runtime.explore


_CORPUS_TEXTS = [path.read_text() for path in sorted(CORPUS.glob("*.smpst"))]
_FUZZ_INSERTS = TOKEN_FRAGMENTS + ["7" * 5000, DEEP_CHAIN]


@st.composite
def _mutated_protocols(draw):
    text = draw(st.sampled_from(_CORPUS_TEXTS))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 30)))
        text = text[:start] + draw(st.sampled_from(_FUZZ_INSERTS)) + text[stop:]
    return text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    shutil.copy(CORPUS / "diamond.mlts.json", directory)
    return directory


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_mutated_protocols())
@example("process P at a = send b Foo(\u00b2) . end;")
@example("process P at a = send b Foo(" + "7" * 5000 + ") . end;")
@example(DEEP_CHAIN)
def test_cli_fuzz_holds_the_exit_code_contract(fuzz_dir, text):
    """Every input ends in exit 0, 1 or 2, never a traceback, and exit 2
    comes with an error message."""
    proto = fuzz_dir / "fuzz.smpst"
    proto.write_text(text, encoding="utf-8")
    for command in (["check"], ["wb"], ["lts"], ["explore", "--max-depth", "30"]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(command + [str(proto), "--state-cap", "300"])
        assert code in (0, 1, 2), (command, code)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("synmpst: error: "), (command, err.getvalue())
