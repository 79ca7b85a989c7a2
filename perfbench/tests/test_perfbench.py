"""Tests of the benchmark itself: inputs, known answers, oracle, tracing.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import oracle
import run
import tracer as tracing
import workloads
from synmpst.cli import main as cli_main
from synmpst.generate import random_global_type
from synmpst.parser import ProtocolFile, parse_file, parse_mlts, pretty_file

ROOT = Path(__file__).resolve().parents[2]
CORPUS = ROOT / "corpus"
SEED = 3


@pytest.fixture(scope="module")
def bases():
    return {w: workloads.make_base(w, SEED, CORPUS) for w in workloads.WORKLOADS}


def _files(folder: Path) -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(folder.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_per_seed(bases, workload, tmp_path):
    again = workloads.make_base(workload, SEED, CORPUS)
    assert again == bases[workload]
    first = workloads.make_round(bases[workload], 1, tmp_path / "a")
    second = workloads.make_round(again, 1, tmp_path / "b")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert [(c.kind, c.expect) for c in first] == [(c.kind, c.expect) for c in second]
    other = workloads.make_base(workload, SEED + 1, CORPUS)
    workloads.make_round(other, 1, tmp_path / "c")
    assert _files(tmp_path / "c") != _files(tmp_path / "a")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_never_repeat_an_input(bases, workload, tmp_path):
    texts = []
    for n in (1, 2):
        workloads.make_round(bases[workload], n, tmp_path / str(n))
        texts += _files(tmp_path / str(n)).values()
    assert len(texts) == len(set(texts))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_texts_parse_and_round_trip(bases, workload, tmp_path):
    workloads.make_round(bases[workload], 1, tmp_path)
    for path in sorted(tmp_path.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.name.endswith(".json"):
            assert not isinstance(parse_mlts(text, str(path)), list), path.name
            continue
        external = "// classifier:" in text
        pf = parse_file(text, str(path), allow_unresolved_globals=external)
        assert isinstance(pf, ProtocolFile) and not pf.diagnostics, path.name
        again = parse_file(pretty_file(pf), allow_unresolved_globals=external)
        assert again.globals == pf.globals, path.name
        assert again.processes == pf.processes, path.name


def test_random_types_round_trip_exactly(bases):
    items = bases["random"]["random"]
    assert [item["draw"] for item in items] == workloads.random_draws(SEED)
    assert sorted(workloads.random_draws(SEED)) == sorted(workloads.PINNED_DRAWS)
    for item in items:
        drawn = random_global_type(random.Random(item["draw"]))
        assert parse_file(workloads.global_file(item["text"])).globals["G"] == drawn


def test_every_command_records_where_its_answer_comes_from(bases, tmp_path):
    for workload, base in bases.items():
        for c in workloads.make_round(base, 1, tmp_path / workload):
            assert c.kind in workloads.KINDS
            assert c.source in ("construction", "expect-directive", "theorem")
            assert c.why


def _records(commands, main, after=None):
    r = run.Run(main)
    *_, records = r.round(commands, after=after)
    return r, records


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_known_answers_hold_at_the_seed(bases, workload, tmp_path):
    commands = workloads.make_round(bases[workload], 1, tmp_path)
    result, _ = _records(commands, cli_main)
    assert result.attempted == len(commands)
    assert result.failed == 0, result.samples


def test_known_defect_draws_are_well_behaved(tmp_path):
    """Red while the program disagrees with the theorem that global types are
    well-behaved on these draws (draw 3072 is one witness); see README.md."""
    rejected = []
    for draw in workloads.KNOWN_DEFECT_DRAWS:
        path = tmp_path / f"g{draw}.smpst"
        path.write_text(workloads.global_file(workloads.random_text(draw)), encoding="utf-8")
        if harness.run_command(cli_main, ["wb", str(path)]).code != 0:
            rejected.append(draw)
    assert rejected == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_runs_agree(bases, workload, tmp_path):
    commands = workloads.make_round(bases[workload], 1, tmp_path / "plain")
    plain, plain_records = _records(commands, cli_main)

    t = tracing.Tracer()
    t.install()
    try:
        since = t.mark()
        commands = workloads.make_round(bases[workload], 1, tmp_path / "traced")
        traced, traced_records = _records(commands, t.command(cli_main), after=t.settle)
    finally:
        t.uninstall()
    assert t.missing == []
    assert traced_records == plain_records
    assert traced.failed == plain.failed

    layers = t.round_metrics(since)
    explored = sum(r.get("configs", 0) for r in plain_records)
    assert layers["runtime.configs_visited"] == explored
    exported = sum(r.get("states", 0) for r in plain_records)
    assert layers["lts.states"] >= exported
    assert set(layers) == set(tracing.METRICS) | {"runtime.configs_per_s"}
    assert [name for name, value in layers.items() if not value > 0] == []


def test_oracle_counts_exceptions_and_usage_errors_as_failures():
    expect = {"verdict": "well-typed", "kinds": None}
    assert oracle.judge("check", expect, {"code": 2, "sessions": [], "kinds": []})
    assert oracle.judge("check", expect, {"code": None, "error": "RecursionError: deep"})
    crashed = harness.run_command(lambda argv: 1 // 0, [])
    assert oracle.check("explore", {"sound": True, "complete": True}, crashed)[1]
    usage = harness.run_command(cli_main, ["check"])
    assert usage.code == 2
    assert oracle.check("check", expect, usage)[1]


def test_oracle_rejects_a_wrong_verdict(tmp_path):
    path = tmp_path / "bad.smpst"
    path.write_text((CORPUS / "ring_badpayload.smpst").read_text(encoding="utf-8"))
    outcome = harness.run_command(cli_main, ["check", str(path)])
    assert oracle.check("check", {"verdict": "ill-typed", "kinds": ["PayloadMismatch"]},
                        outcome)[1] is None
    assert oracle.check("check", {"verdict": "ill-typed", "kinds": ["UnexpectedSend"]},
                        outcome)[1]
    assert oracle.check("check", {"verdict": "well-typed", "kinds": None}, outcome)[1]


def test_delete_transition_removes_one_transition_off_the_initial_state(bases):
    doc = bases["statespace"]["p_json"]
    cut = workloads.delete_transition(doc, random.Random(0))
    removed = [t for t in doc["transitions"] if t not in cut["transitions"]]
    assert len(removed) == 1 and len(cut["transitions"]) == len(doc["transitions"]) - 1
    assert removed[0]["from"] != doc["initial"]


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == tracing.units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer, *workloads.WORKLOADS]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "random",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
