"""Operational semantics of global types and the derived transition relations.

A well-formed, closed, guarded global type reaches finitely many distinct
terms under the transition rules; build_lts materialises that state space.
Under a top-level par a state is a vector of operand states, one per operand
of the par spine, each operand's states being its structurally distinct
terms; any other type is a single operand.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Union

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


def _canonical(terms) -> list[GlobalType]:
    """Deterministic order for same-action targets; resolving by rendered term
    is acceptable because non-deterministic classifiers are rare."""
    out = list(terms)
    if len(out) > 1:
        out.sort(key=pretty_global)
    return out


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
                target_sets = [_canonical(t for a, t in steps if a == action)
                               for steps in per_branch]
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


def _ordered_steps(steps) -> list[tuple[GlobalAction, GlobalType]]:
    by_action: dict[GlobalAction, list[GlobalType]] = {}
    for action, target in steps:
        by_action.setdefault(action, []).append(target)
    out: list[tuple[GlobalAction, GlobalType]] = []
    for action in sorted(by_action, key=GlobalAction.sort_key):
        out.extend((action, t) for t in _canonical(by_action[action]))
    return out


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


# A state's row: its successors as (action sort key, action, target id), in
# _ordered_steps order.
_Row = list[tuple[tuple[str, str, str, str], GlobalAction, int]]
# Called before a new state is numbered, with the id it would get and its
# term; raises to refuse it.
_Admit = Callable[[int, GlobalType], None]


class _Operand:
    """The terms reachable from one global type, numbered as first met, with
    the rows of the states explored so far."""

    def __init__(self, g: GlobalType, stepper: _Stepper) -> None:
        self.terms: list[GlobalType] = [g]
        self._index: dict[GlobalType, int] = {g: 0}
        self._rows: list[Optional[_Row]] = [None]
        self._stepper = stepper

    def row(self, i: int, admit: Optional[_Admit] = None) -> _Row:
        """State i's row; the first call steps its term and numbers its new
        targets in row order, each after admit accepts it."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = []
            terms, index = self.terms, self._index
            for action, target in _ordered_steps(self._stepper.step(terms[i])):
                j = index.get(target)
                if j is None:
                    j = len(terms)
                    if admit:
                        admit(j, target)
                    index[target] = j
                    terms.append(target)
                    self._rows.append(None)
                row.append((action.sort_key(), action, j))
        return row


class _Product:
    """The reachable states of a top-level par: vectors of operand state ids,
    numbered as first met, each with its term.

    The step rule of par interleaves its operands' moves, so a state's
    successors are its operands' moves, each changing one component. A
    state's term is built over the par spine of the initial term from shared
    sub-products, so state 0's term is that term itself."""

    def __init__(self, g: GPar, stepper: _Stepper) -> None:
        self._ops = [_Operand(op, stepper) for op in par_operands(g)]
        self._spine, _ = self._split(g, 0)
        initial = (0,) * len(self._ops)
        self._vectors = [initial]
        self._index = {initial: 0}
        self.terms: list[GlobalType] = [g]
        self._rendered: dict[GlobalType, str] = {}

    def _split(self, g: GlobalType, lo: int):
        """g's par spine, its operands numbered from lo, and the number after
        its last: a spine node is an operand's position, or (lo, hi, left,
        right, sub-products keyed by the slice [lo:hi] of a vector)."""
        if not isinstance(g, GPar):
            return lo, lo + 1
        left, mid = self._split(g.left, lo)
        right, hi = self._split(g.right, mid)
        return (lo, hi, left, right, {(0,) * (hi - lo): g}), hi

    def _term(self, v: tuple[int, ...], node=None) -> GlobalType:
        node = self._spine if node is None else node
        if isinstance(node, int):
            return self._ops[node].terms[v[node]]
        lo, hi, left, right, built = node
        term = built.get(v[lo:hi])
        if term is None:
            term = built[v[lo:hi]] = GPar(self._term(v, left), self._term(v, right))
        return term

    def row(self, i: int, admit: _Admit) -> _Row:
        """State i's row, its new targets numbered in row order, each after
        admit accepts it."""
        v = self._vectors[i]
        moves = []
        for k, op in enumerate(self._ops):
            op_row = op.row(v[k])
            if op_row:
                head, tail = v[:k], v[k + 1:]
                moves += [(key, action, head + (j,) + tail) for key, action, j in op_row]
        if len(set(map(_sort_key, moves))) < len(moves):
            # Same-action targets go in the order of their rendered terms, as
            # _canonical puts them.
            moves.sort(key=lambda move: (move[0], pretty_global(self._term(move[2]), self._rendered)))
        else:
            moves.sort(key=_sort_key)
        row = []
        vectors, index = self._vectors, self._index
        for key, action, w in moves:
            j = index.get(w)
            if j is None:
                j, term = len(vectors), self._term(w)
                admit(j, term)
                index[w] = j
                vectors.append(w)
                self.terms.append(term)
            row.append((key, action, j))
        return row


_sort_key = operator.itemgetter(0)


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


def build_lts(g: GlobalType, cap: int = DEFAULT_STATE_CAP,
              max_term_nodes: Optional[int] = None) -> GlobalLts:
    """Breadth-first closure of step from g.

    A term whose top is a par is the product of the operands on its par
    spine: each operand is explored on its own, as far as the product needs
    it, and a state is identified by the vector of its operands' state ids.
    Any other term is a product of one operand, whose states are its
    structurally distinct terms; a par under a prefix or a mu is part of
    those terms. Either way states are numbered, and successors ordered, as a
    breadth-first search over whole terms: by action, then same-action
    targets by their rendered terms.

    max_term_nodes bounds the size of individual state terms; out-of-order
    reordering can make a recursive type's closure unbounded, in which case
    state terms grow without limit on the way to the cap.
    """
    stepper = _Stepper()
    space = _Product(g, stepper) if isinstance(g, GPar) else _Operand(g, stepper)
    transitions: set[tuple[int, GlobalAction, int]] = set()
    # States are explored in id order, so a BFS level is a range of ids.
    level_start, level_end, sid = 0, 1, 0

    def admit(tid: int, term: GlobalType) -> None:
        if tid >= cap:
            raise CapExceededError(cap, tid - level_start)
        if max_term_nodes and term_nodes(term, max_term_nodes) > max_term_nodes:
            raise CapExceededError(
                cap, tid,
                f"a state term grew past {max_term_nodes} nodes after "
                f"{tid} states; the reordering closure is likely unbounded")

    try:
        while sid < len(space.terms):
            if sid == level_end:
                level_start, level_end = level_end, len(space.terms)
            for _, action, tid in space.row(sid, admit):
                transitions.add((sid, action, tid))
            sid += 1
    except RecursionError:
        raise CapExceededError(
            cap, len(space.terms),
            f"state terms grew beyond comparable depth after {len(space.terms)} states; "
            "the type's reordering closure is likely unbounded") from None
    return GlobalLts(tuple(space.terms), frozenset(transitions))


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
