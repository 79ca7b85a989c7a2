"""Operational semantics of global types and the derived transition relations.

A well-formed, closed, guarded global type reaches finitely many distinct
terms under the transition rules; build_lts materialises that state space by
one breadth-first search, _search, which also decides how states are
numbered. For a top-level par a state is a vector of the operands' state
ids, standing for the term put together from their terms, so the par's LTS
is the one its whole terms would give.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Hashable, Iterable, Optional, Sequence, TypeVar, Union

from .mlts import Mlts
from .terms import (GBranch, GComm, GEnd, GlobalAction, GlobalType, GMu, GPar,
                    GVar, pretty_global, substitute_global, term_nodes)

DEFAULT_STATE_CAP = 10_000


class CapExceededError(Exception):
    """State-space construction hit the configured cap."""

    def __init__(self, cap: int, frontier: int, reason: Optional[str] = None):
        message = reason or (f"state cap {cap} exceeded with {frontier} states "
                             "still on the frontier")
        super().__init__(message)
        self.cap = cap
        self.frontier = frontier


class _Stepper:
    """Least-fixpoint evaluator for the single-step transition relation.

    Probing out-of-order derivations descends through recursive unfoldings and
    can revisit a term already being evaluated. A revisit yields the current
    approximation (initially empty) and the whole evaluation is re-run until
    stable, which computes exactly the least fixpoint.
    """

    def __init__(self) -> None:
        self._exact: dict[GlobalType, frozenset] = {}
        self._approx: dict[GlobalType, frozenset] = {}
        self._stack: set[GlobalType] = set()
        self._cut = False
        self._dirty = False

    def step(self, g: GlobalType) -> frozenset[tuple[GlobalAction, GlobalType]]:
        if g in self._exact:
            return self._exact[g]
        while True:
            self._cut = False
            self._dirty = False
            self._stack.clear()
            result = self._eval(g)
            if not self._cut or not self._dirty:
                # Either no cycle was met (purely structural, hence exact) or
                # the approximations are stable, i.e. the least fixpoint.
                self._exact.update(self._approx)
                self._approx.clear()
                self._exact[g] = result
                return result

    def _eval(self, g: GlobalType) -> frozenset:
        if g in self._exact:
            return self._exact[g]
        if g in self._stack:
            self._cut = True
            return self._approx.get(g, frozenset())
        self._stack.add(g)
        try:
            result = self._compute(g)
        finally:
            self._stack.discard(g)
        if self._approx.get(g) != result:
            self._dirty = True
        self._approx[g] = result
        return result

    def _compute(self, g: GlobalType) -> frozenset:
        if isinstance(g, (GEnd, GVar)):
            return frozenset()
        if isinstance(g, GMu):
            return self._eval(substitute_global(g.body, g.var, g))
        if isinstance(g, GPar):
            out = {(a, GPar(g2, g.right)) for a, g2 in self._eval(g.left)}
            out |= {(a, GPar(g.left, g2)) for a, g2 in self._eval(g.right)}
            return frozenset(out)
        if isinstance(g, GComm):
            out = {(GlobalAction(g.sender, g.receiver, b.label, b.payload), b.cont)
                   for b in g.branches}
            # Out-of-order rule: an action independent of this prefix that
            # every branch can take may fire first.
            prefix_roles = {g.sender, g.receiver}
            per_branch = [self._eval(b.cont) for b in g.branches]
            candidates = None
            for steps in per_branch:
                actions = {a for a, _ in steps}
                candidates = actions if candidates is None else candidates & actions
            for action in candidates or ():
                if action.roles & prefix_roles:
                    continue
                target_sets = [[t for a, t in steps if a == action] for steps in per_branch]
                for combo in itertools.product(*target_sets):
                    branches = tuple(
                        GBranch(b.label, b.payload, cont)
                        for b, cont in zip(g.branches, combo))
                    out.add((action, GComm(g.sender, g.receiver, branches)))
            return frozenset(out)
        raise TypeError(f"not a global type: {g!r}")


def step(g: GlobalType) -> frozenset[tuple[GlobalAction, GlobalType]]:
    """All single-step transitions of a well-formed global type."""
    return _Stepper().step(g)


@dataclass(frozen=True)
class GlobalLts:
    """Reachable terms of a global type and the transitions between them;
    state 0 is the initial term."""
    terms: tuple[GlobalType, ...]
    transitions: frozenset[tuple[int, GlobalAction, int]]

    def to_mlts(self) -> Mlts:
        """The classifier, each state labelled with its pretty-printed term.

        States share most of their subterms, so each distinct subterm is
        rendered once."""
        memo: dict[GlobalType, str] = {}
        return Mlts(0, tuple(pretty_global(t, memo) for t in self.terms), self.transitions)


_S = TypeVar("_S", bound=Hashable)
# A move of a search state: its action's sort key, the action and the target.
_Move = tuple[tuple[str, ...], GlobalAction, _S]


def _search(start: _S, moves: Callable[[_S], list[_Move]], term: Callable[[_S], GlobalType],
            cap: int, admit: Callable[[int, GlobalType], None]) -> GlobalLts:
    """Breadth-first search from start, where term gives the global type a
    state stands for.

    States are numbered as first met, taking a state's moves by action, then
    same-action moves by their targets' rendered terms; targets are rendered
    only at a state where two moves tie. A new state is refused once cap
    states are numbered, and admit may refuse its term by raising before it
    is numbered. A RecursionError while start is expanded is the input's own
    depth and propagates; one at a state the search reached means its terms
    grew, and is refused as a likely unbounded closure."""
    states, terms = [start], [term(start)]
    index = {start: 0}
    transitions: set[tuple[int, GlobalAction, int]] = set()
    rendered: dict[GlobalType, str] = {}

    def render(move: _Move) -> tuple[tuple[str, ...], str]:
        return move[0], pretty_global(term(move[2]), rendered)

    # States are explored in id order, so a BFS level is a range of ids.
    level_start, level_end, sid = 0, 1, 0
    try:
        while sid < len(states):
            if sid == level_end:
                level_start, level_end = level_end, len(states)
            out = moves(states[sid])
            if len({key for key, _, _ in out}) < len(out):
                out.sort(key=render)
            else:
                out.sort()  # distinct keys: the moves compare by key alone
            for _, action, target in out:
                tid = index.get(target)
                if tid is None:
                    tid = len(states)
                    if tid >= cap:
                        raise CapExceededError(cap, tid - level_start)
                    t = term(target)
                    admit(tid, t)
                    index[target] = tid
                    states.append(target)
                    terms.append(t)
                transitions.add((sid, action, tid))
            sid += 1
    except RecursionError:
        if sid == 0:
            raise
        raise CapExceededError(
            cap, len(states),
            f"state terms grew beyond comparable depth after {len(states)} states; "
            "the type's reordering closure is likely unbounded") from None
    return GlobalLts(tuple(terms), frozenset(transitions))


def par_operands(g: GlobalType) -> tuple[GlobalType, ...]:
    """The operands on g's par spine, left to right; (g,) if its top is no par.

    A par under a prefix or a mu is part of its operand."""
    out, pending = [], [g]
    while pending:
        term = pending.pop()
        if isinstance(term, GPar):
            pending += (term.right, term.left)
        else:
            out.append(term)
    return tuple(out)


def _spine_terms(g: GlobalType, parts: Sequence[GlobalLts]
                 ) -> Callable[[tuple[int, ...]], GlobalType]:
    """The term of a vector of state ids of the operands on g's par spine,
    put together from their LTSs' terms. Equal sub-products are one object,
    so terms hash and render from shared parts; the zero vector's term is g."""
    def split(node: GlobalType, lo: int):
        # A spine node is an operand's position, or (lo, hi, left, right,
        # sub-products keyed by the slice [lo:hi] of a vector).
        if not isinstance(node, GPar):
            return lo, lo + 1
        left, mid = split(node.left, lo)
        right, hi = split(node.right, mid)
        return (lo, hi, left, right, {(0,) * (hi - lo): node}), hi

    def term(v: tuple[int, ...], node) -> GlobalType:
        if isinstance(node, int):
            return parts[node].terms[v[node]]
        lo, hi, left, right, built = node
        t = built.get(v[lo:hi])
        if t is None:
            t = built[v[lo:hi]] = GPar(term(v, left), term(v, right))
        return t

    spine = split(g, 0)[0]
    return lambda v: term(v, spine)


def build_lts(g: GlobalType, cap: int = DEFAULT_STATE_CAP,
              max_term_nodes: Optional[int] = None) -> GlobalLts:
    """Breadth-first closure of step from g, structural equality being state
    identity, numbered and ordered by _search.

    A term whose top is a par is searched over vectors of state ids of the
    operands on its par spine, each operand's LTS built first, within the cap,
    by the search over its terms. The step rule of par interleaves its
    operands' moves, so each move of a vector changes one component; the
    states and transitions are those of the search over g's whole terms, but
    each operand state is stepped once. A par under a prefix or a mu is part
    of its operand.

    max_term_nodes bounds the size of individual state terms; out-of-order
    reordering can make a recursive type's closure unbounded, in which case
    state terms grow without limit on the way to the cap.
    """
    def admit(tid: int, term: GlobalType) -> None:
        if max_term_nodes and term_nodes(term, max_term_nodes) > max_term_nodes:
            raise CapExceededError(
                cap, tid,
                f"a state term grew past {max_term_nodes} nodes after "
                f"{tid} states; the reordering closure is likely unbounded")

    operands = par_operands(g)
    if len(operands) > 1:
        parts = [build_lts(op, cap, max_term_nodes) for op in operands]
        rows = [[[] for _ in p.terms] for p in parts]
        for row, p in zip(rows, parts):
            for s, a, t in p.transitions:
                row[s].append((a.sort_key(), a, t))

        def moves(v: tuple[int, ...]) -> list[_Move]:
            out = []
            for k, i in enumerate(v):
                head, tail = v[:k], v[k + 1:]
                out += [(key, a, head + (t,) + tail) for key, a, t in rows[k][i]]
            return out
        start, term = (0,) * len(parts), _spine_terms(g, parts)
    else:
        stepper = _Stepper()

        def moves(t: GlobalType) -> list[_Move]:
            return [(a.sort_key(), a, t2) for a, t2 in stepper.step(t)]
        start, term = g, lambda t: t
    return _search(start, moves, term, cap, admit)


# ---------------------------------------------------------------------------
# Derived transition relations over an Mlts


def step_with(m: Mlts, s: int, roles: Iterable[str]) -> frozenset[tuple[GlobalAction, int]]:
    """Transitions of s in which every given role participates."""
    required = frozenset(roles)
    if not m.involves(s, required):
        return frozenset()
    return frozenset((a, t) for a, t in m.transitions_from(s) if required <= a.roles)


def reach_without(m: Mlts, s: int, roles: Iterable[str]) -> tuple[int, ...]:
    """States reachable through zero or more transitions without the roles."""
    return m.reach(s, frozenset(roles))


def reach_strong_without(m: Mlts, s: int, roles: Iterable[str]) -> tuple[int, ...]:
    """States reachable through zero or more transitions without the roles,
    leaving no state at which a transition involves them all."""
    return m.reach(s, frozenset(roles), strong=True)


# ---------------------------------------------------------------------------
# Export


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def lts_to_dot(m: Mlts) -> str:
    """Graphviz rendering; states carry their labels."""
    lines = ["digraph mlts {", "  rankdir=LR;", "  node [shape=box];"]
    for s in m.states:
        shape = ', style="bold"' if s == m.initial else ""
        lines.append(f"  s{s} [label={_quote(m.labels[s])}{shape}];")
    for src in m.states:
        for action, dst in m.transitions_from(src):
            lines.append(f"  s{src} -> s{dst} [label={_quote(str(action))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_block(items: list[str], brackets: str) -> str:
    """A top-level member's array or object whose items are already indented,
    laid out as json.dumps(..., indent=2) lays it out."""
    if not items:
        return brackets
    return brackets[0] + "\n" + ",\n".join(items) + "\n  " + brackets[1]


def lts_to_json(lts: Union[Mlts, GlobalLts]) -> str:
    """JSON in the MLTS input schema, with the state labels in an extra field.

    The text is exactly json.dumps(doc, indent=2) of that document, written
    directly: with an indent, json.dumps runs its pure-Python encoder."""
    m = lts if isinstance(lts, Mlts) else lts.to_mlts()
    quote = encode_basestring_ascii
    # The part of a transition object after its "to" member, once per action.
    tails: dict[GlobalAction, str] = {}
    transitions = []
    for src in m.states:
        for a, dst in m.transitions_from(src):
            tail = tails.get(a)
            if tail is None:
                tail = tails[a] = (
                    f',\n      "sender": {quote(a.sender)},\n      "receiver": {quote(a.receiver)}'
                    f',\n      "label": {quote(a.label)},\n      "payload": {quote(a.payload.value)}'
                    "\n    }")
            transitions.append(f'    {{\n      "from": "s{src}",\n      "to": "s{dst}"{tail}')
    states = [f'    "s{s}"' for s in m.states]
    terms = [f'    "s{s}": {quote(label)}' for s, label in enumerate(m.labels)]
    return (f'{{\n  "states": {_json_block(states, "[]")},\n  "initial": "s{m.initial}",\n'
            f'  "transitions": {_json_block(transitions, "[]")},\n'
            f'  "terms": {_json_block(terms, "{}")}\n}}')
