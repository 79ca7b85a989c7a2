import pathlib

import pytest

from synmpst.lts import build_lts
from synmpst.parser import ProtocolFile, parse_file, parse_mlts
from synmpst.runtime import ExploreReport

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

# Pieces of protocol text for fuzzing: every token class, signs, escapes,
# comments, CR, tab, non-ASCII letters and digits, and characters outside
# the syntax, such as the superscript digit '²', which is not a decimal digit.
TOKEN_FRAGMENTS = [
    "global", "process", "session", "at", "mu", "end", "par", "send", "recv",
    "rec", "true", "unit", "Int", "Nat", "Foo", "X", "a", "b", "x_1", "_y",
    "0", "42", "+", "-", "+3", "-12", "->", "==", "||", "|", "(", ")", "{", "}",
    "[", "]", ".", ",", ":", ";", "=", "*", "/", "// c", '"', '"ab"', "\\",
    '\\"', "\\\\", " ", "\t", "\r", "\n", "é", "λ", "٣", "²", "½", "$",
]


def nest_par(parts):
    """The right-nested par of the given global type texts."""
    term = parts[-1]
    for part in reversed(parts[:-1]):
        term = f"par {{ {part} || {term} }}"
    return term


def workers_global(k):
    """W_k: the par of k disjoint five-state workers loops (5^k product states)."""
    return nest_par([f"mu X . a{i} -> b{i} {{ Datum(Int) . b{i} -> c{i}: Datum(Int) . "
                     f"c{i} -> a{i}: Result(Int) . X, Stop(Unit) . b{i} -> c{i}: Stop(Unit) . end }}"
                     for i in range(k)])


def pairs_global(n):
    """P_n: the par of n one-shot pairs."""
    return nest_par([f"p{i} -> q{i}: M(Unit) . end" for i in range(n)])


def workers_processes(i, looping, payload=None):
    """The processes of W_k's worker i, written as in corpus/workers.smpst:
    b_i and c_i unroll one iteration; a_i stops at once or loops on a
    constant. `payload` replaces a_i's first payload."""
    a, b, c = f"a{i}", f"b{i}", f"c{i}"
    if looping:
        pa = (f"send {b} Datum({payload or '+7'}) . recv {c} {{ Result(x: Int) . rec X . "
              f"send {b} Datum(x) . recv {c} {{ Result(y: Int) . X }} }}")
    else:
        pa = f"send {b} Stop({payload or 'unit'}) . end"
    pb = (f"recv {a} {{ Datum(x: Int) . send {c} Datum(x) . rec X . recv {a} {{ "
          f"Datum(x: Int) . send {c} Datum(x) . X, Stop(_: Unit) . send {c} Stop(unit) . end }}, "
          f"Stop(_: Unit) . send {c} Stop(unit) . end }}")
    pc = (f"recv {b} {{ Datum(x: Int) . send {a} Result(x) . rec X . recv {b} {{ "
          f"Datum(x: Int) . send {a} Result(x) . X, Stop(_: Unit) . end }}, "
          f"Stop(_: Unit) . end }}")
    return {a: pa, b: pb, c: pc}


def session_text(global_text, processes):
    """A file declaring global G, a process P_r for each role r, and session S."""
    lines = [f"global G = {global_text};"]
    lines += [f"process P_{role} at {role} = {body};" for role, body in processes.items()]
    lines.append(f"session S of G = {{ {', '.join(f'{r}: P_{r}' for r in processes)} }};")
    return "\n".join(lines) + "\n"


def workers_text(k, looping, payload=None, **replaced):
    """W_k and a session of its processes; `payload` replaces every a_i's
    first payload, and `replaced` maps roles to process texts of their own."""
    processes = {}
    for i in range(k):
        processes.update(workers_processes(i, looping, payload))
    processes.update(replaced)
    return session_text(workers_global(k), processes)


def pairs_text(n):
    """P_n and a session of its processes."""
    processes = {}
    for i in range(n):
        processes[f"p{i}"] = f"send q{i} M(unit) . end"
        processes[f"q{i}"] = f"recv p{i} {{ M(_: Unit) . end }}"
    return session_text(pairs_global(n), processes)


def in_ids(report, state_id):
    """An ExploreReport with each state vector v in a witness replaced by state_id(v)."""
    return ExploreReport(
        report.configs_visited, report.depth_reached, report.complete, report.stuck_non_final,
        tuple(tuple((sess, state_id(v)) for sess, v in cycle) for cycle in report.tau_cycles),
        tuple((sess, action, state_id(v)) for sess, action, v in report.preservation_breaks))


def load_protocol(name: str, *, allow_unresolved: bool = False) -> ProtocolFile:
    path = CORPUS / name
    result = parse_file(path.read_text(), str(path),
                        allow_unresolved_globals=allow_unresolved)
    assert isinstance(result, ProtocolFile), result
    assert not result.diagnostics, result.diagnostics
    return result


@pytest.fixture(scope="session")
def ring_pf():
    return load_protocol("ring.smpst")


@pytest.fixture(scope="session")
def ring_lts(ring_pf):
    return build_lts(ring_pf.globals["Ring"])


@pytest.fixture(scope="session")
def ring_m(ring_lts):
    return ring_lts.to_mlts()


@pytest.fixture(scope="session")
def ring_states(ring_pf, ring_lts):
    """Traditional names G1..G6 for the Ring states."""
    ring = ring_pf.globals["Ring"]
    g2 = ring.branches[0].cont          # after a->b:AppThenGet
    g5 = ring.branches[1].cont          # after a->b:App
    g3 = g2.branches[0].cont            # c->a:Val . end
    g6 = g5.branches[0].cont            # a->c:Get . c->a:Val . end
    g4 = g3.branches[0].cont            # end
    names = {"G1": ring, "G2": g2, "G3": g3, "G4": g4, "G5": g5, "G6": g6}
    return {name: ring_lts.terms.index(term) for name, term in names.items()}


@pytest.fixture(scope="session")
def lasso_pf():
    return load_protocol("lasso.smpst")


@pytest.fixture(scope="session")
def lasso_lts(lasso_pf):
    return build_lts(lasso_pf.globals["Lasso"])


@pytest.fixture(scope="session")
def diamond_m():
    path = CORPUS / "diamond.mlts.json"
    m = parse_mlts(path.read_text(), str(path))
    assert not isinstance(m, list), m
    return m
