"""Operational semantics of global types and the derived transition relations.

A well-formed, closed, guarded global type reaches finitely many distinct
terms under the transition rules; build_lts materialises that state space with
structural equality as state identity.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional, Union

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


def build_lts(g: GlobalType, cap: int = DEFAULT_STATE_CAP,
              max_term_nodes: Optional[int] = None) -> GlobalLts:
    """Breadth-first closure of step from g, deduplicating structurally equal terms.

    max_term_nodes bounds the size of individual state terms; out-of-order
    reordering can make a recursive type's closure unbounded, in which case
    state terms grow without limit on the way to the cap.
    """
    stepper = _Stepper()
    terms: list[GlobalType] = [g]
    index: dict[GlobalType, int] = {g: 0}
    transitions: set[tuple[int, GlobalAction, int]] = set()
    frontier = [0]
    try:
        while frontier:
            next_frontier: list[int] = []
            for sid in frontier:
                for action, target in _ordered_steps(stepper.step(terms[sid])):
                    tid = index.get(target)
                    if tid is None:
                        if len(terms) >= cap:
                            raise CapExceededError(cap, len(frontier) + len(next_frontier))
                        if max_term_nodes and term_nodes(target, max_term_nodes) > max_term_nodes:
                            raise CapExceededError(
                                cap, len(terms),
                                f"a state term grew past {max_term_nodes} nodes after "
                                f"{len(terms)} states; the reordering closure is likely unbounded")
                        tid = len(terms)
                        terms.append(target)
                        index[target] = tid
                        next_frontier.append(tid)
                    transitions.add((sid, action, tid))
            frontier = next_frontier
    except RecursionError:
        raise CapExceededError(
            cap, len(terms),
            f"state terms grew beyond comparable depth after {len(terms)} states; "
            "the type's reordering closure is likely unbounded") from None
    return GlobalLts(tuple(terms), frozenset(transitions))


# ---------------------------------------------------------------------------
# Derived transition relations over an Mlts


def step_with(m: Mlts, s: int, roles: Iterable[str]) -> frozenset[tuple[GlobalAction, int]]:
    """Transitions of s in which every given role participates."""
    required = frozenset(roles)
    if not m.involves(s, required):
        return frozenset()
    return frozenset((a, t) for a, t in m.transitions_from(s) if required <= a.roles)


def step_without(m: Mlts, s: int, roles: Iterable[str]) -> frozenset[tuple[GlobalAction, int]]:
    """Transitions of s in which none of the given roles participate."""
    banned = frozenset(roles)
    return frozenset((a, t) for a, t in m.transitions_from(s)
                     if a.sender not in banned and a.receiver not in banned)


def strong_step_without(m: Mlts, s: int, roles: Iterable[str]) -> frozenset[tuple[GlobalAction, int]]:
    """step_without, but only when no transition of s involves every given role."""
    banned = frozenset(roles)
    if m.involves(s, banned):
        return frozenset()
    return step_without(m, s, banned)


def reach_without(m: Mlts, s: int, roles: Iterable[str]) -> tuple[int, ...]:
    """States reachable through zero or more transitions without the roles."""
    return m.reach(s, frozenset(roles))


def reach_strong_without(m: Mlts, s: int, roles: Iterable[str]) -> tuple[int, ...]:
    """Reflexive-transitive closure of the strong role-avoiding step."""
    return m.reach(s, frozenset(roles), strong=True)


def enabled(m: Mlts, s: int, role: str) -> bool:
    """role participates in some transition of s."""
    return m.involves(s, frozenset((role,)))


def active(m: Mlts, s: int, role: str) -> bool:
    """Some state reachable from s (via any transitions) enables role."""
    return role in m.active_roles(s)


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


def lts_to_json(lts: Union[Mlts, GlobalLts]) -> str:
    """JSON in the MLTS input schema, with the state labels in an extra field."""
    m = lts if isinstance(lts, Mlts) else lts.to_mlts()
    doc = {
        "states": [f"s{s}" for s in m.states],
        "initial": f"s{m.initial}",
        "transitions": [
            {"from": f"s{src}", "to": f"s{dst}", "sender": a.sender,
             "receiver": a.receiver, "label": a.label, "payload": a.payload.value}
            for src in m.states for a, dst in m.transitions_from(src)
        ],
        "terms": {f"s{s}": m.labels[s] for s in m.states},
    }
    return json.dumps(doc, indent=2)
