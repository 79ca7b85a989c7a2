"""Executable semantics of sessions: evaluation, stepping, simulation,
exhaustive exploration, and the safety/liveness oracles."""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Union

from .mlts import Classifier, Mlts, components
from .terms import (BINARY_OPS, BoolLit, Expr, GlobalAction,
                    PEnd, PIf, PLet, PRec, PRecv, PSend, Process, Role, Session,
                    VarRef, is_value, iter_subprocesses, obj, pretty_expr,
                    substitute_process_rec, substitute_process_val)


class EvalError(Exception):
    """Expression evaluation got stuck; on a well-typed run this is a bug."""


def eval_expr(e: Expr) -> Expr:
    """Big-step evaluation of a closed expression to a value."""
    if is_value(e):
        return e
    if isinstance(e, VarRef):
        raise EvalError(f"free variable {e.name}")
    op = BINARY_OPS.get(type(e))
    if op is None:
        raise EvalError(f"cannot evaluate {e!r}")
    v1, v2 = eval_expr(e.left), eval_expr(e.right)
    result = op.apply(v1, v2)
    if result is None:
        raise EvalError(f"arithmetic on non-numbers: {pretty_expr(v1)}, {pretty_expr(v2)}")
    return result


@dataclass(frozen=True)
class TauAction:
    """An internal step (let, if, or recursion unfolding) of one role."""
    role: Role

    def __str__(self) -> str:
        return f"tau@{self.role}"


# A synchronous communication is labelled by the global action it matches.
RuntimeAction = Union[GlobalAction, TauAction]


def _step_order(step: tuple[RuntimeAction, Session]):
    """Communications first, by action; then internal steps, by role."""
    action = step[0]
    if isinstance(action, TauAction):
        return (1, action.role)
    return (0,) + action.sort_key()


@dataclass(frozen=True)
class Trace:
    """A replayable run: actions applied in order from some initial session."""
    actions: tuple[RuntimeAction, ...]
    terminal: Session


def session_step(sess: Session, memo: Optional[dict] = None
                 ) -> list[tuple[RuntimeAction, Session]]:
    """All enabled steps of a session, in a fixed deterministic order.

    A communication fires only when sender and receiver are both at matching
    heads (synchronous rendezvous); its payload type is the receive branch's
    annotation. A step whose expression premise gets stuck is simply not
    enabled.

    `memo`, when given, is a dict owned by the caller that keeps every local
    move computed so far, so that stepping many sessions which share
    processes unfolds, substitutes and evaluates each distinct one once.
    Without one, a fresh dict serves this call alone.
    """
    if memo is None:
        memo = {}
    procs = dict(sess.entries)
    steps: list[tuple[RuntimeAction, Session]] = []
    for role, proc in sess.entries:
        if isinstance(proc, PSend):
            partner = procs.get(proc.to)
            if not isinstance(partner, PRecv) or partner.from_ != role:
                continue
            move = _cached(memo, (role, proc, partner), _rendezvous, role, proc, partner)
            if move is not None:
                action, sent, received = move
                steps.append((action, sess.with_processes({role: sent, proc.to: received})))
        elif isinstance(proc, (PLet, PIf, PRec)):
            after = _cached(memo, proc, _tau_successor, proc)
            if after is not None:
                steps.append((TauAction(role), sess.with_processes({role: after})))
    steps.sort(key=_step_order)
    return steps


def _cached(memo: dict, key, compute, *args):
    """compute(*args), looked up in and kept in memo under key."""
    try:
        return memo[key]
    except KeyError:
        result = memo[key] = compute(*args)
        return result


def _tau_successor(proc: Union[PLet, PIf, PRec]) -> Optional[Process]:
    """The process after proc's internal step, or None if it is not enabled."""
    if isinstance(proc, PRec):
        return substitute_process_rec(proc.body, proc.var, proc)
    try:
        v = eval_expr(proc.rhs if isinstance(proc, PLet) else proc.cond)
    except EvalError:
        return None
    if isinstance(proc, PLet):
        return substitute_process_val(proc.cont, proc.binder, v)
    if isinstance(v, BoolLit):
        return proc.then if v.value else proc.orelse
    return None


def _rendezvous(role: Role, send: PSend, recv: PRecv):
    """(action, sender after, receiver after) of a send meeting its receive,
    or None if no branch takes the label or the payload does not evaluate."""
    branch = next((b for b in recv.branches if b.label == send.label), None)
    if branch is None:
        return None
    try:
        v = eval_expr(send.payload)
    except EvalError:
        return None
    action = GlobalAction(role, send.to, send.label, branch.annot)
    return action, send.cont, substitute_process_val(branch.cont, branch.binder, v)


def run(sess: Session, seed: int, max_steps: int) -> Trace:
    """Seeded uniform-random scheduler; stops at quiescence or max_steps."""
    rng = random.Random(seed)
    memo: dict = {}
    actions: list[RuntimeAction] = []
    current = sess
    for _ in range(max_steps):
        steps = session_step(current, memo)
        if not steps:
            break
        action, current = steps[rng.randrange(len(steps))]
        actions.append(action)
    return Trace(tuple(actions), current)


def replay_trace(sess: Session, trace: Trace) -> Session:
    """Apply the trace's actions from sess; raises if an action is not enabled."""
    memo: dict = {}
    current = sess
    for i, action in enumerate(trace.actions):
        matching = [after for a, after in session_step(current, memo) if a == action]
        if not matching:
            raise ValueError(f"trace action {i} ({action}) is not enabled")
        current = matching[0]
    return current


def check_trace(m: Mlts, trace: Trace) -> Optional[int]:
    """Index of the first communication the classifier disallows, or None.

    Communications must follow transitions from the initial state;
    internal actions leave the state unchanged. On a non-deterministic
    classifier the trace may be in any of several states; an action is
    disallowed when none of them offers it.
    """
    states = {m.initial}
    for i, action in enumerate(trace.actions):
        if isinstance(action, TauAction):
            continue
        states = {t for s in states for t in m.targets(s, action)}
        if not states:
            return i
    return None


# A configuration of exploration: a session and the state of each component
# of its classifier, a 1-tuple for a single Mlts.
Config = tuple[Session, tuple[int, ...]]


@dataclass(frozen=True)
class ExploreReport:
    """Verdict of a bounded lockstep exploration of configurations; the
    state in each witness is a vector of component states, as in a Config."""
    configs_visited: int
    depth_reached: int
    complete: bool
    stuck_non_final: tuple[Session, ...]
    tau_cycles: tuple[tuple[Config, ...], ...]
    preservation_breaks: tuple[tuple[Session, RuntimeAction, tuple[int, ...]], ...]

    @property
    def sound_at_depth(self) -> bool:
        return not (self.stuck_non_final or self.tau_cycles or self.preservation_breaks)


_WITNESS_CAP = 20


def explore(classifier: Classifier, sess: Session, max_depth: int) -> ExploreReport:
    """Breadth-first search over configurations, in lockstep with the
    classifier: one Mlts, or role-disjoint components standing for their product.

    A communication follows every target of a matching transition of its
    sender's component, the others staying put; with none, or no component
    for the sender, it is a preservation break. A quiescent configuration
    with a non-terminated process is stuck; a cycle of internal steps alone
    is a divergence witness. A product transition moves only its sender's
    component, so the components give the product's configurations and
    witnesses one for one, each product state as its vector.

    When the session splits into at least two role groups (_role_groups),
    each group is searched alone against its own component, and if every
    group is sound at this depth the product's report is counted rather
    than searched. Why that report is the product search's:

    - A step of the product moves exactly one group: an internal step
      moves one role, a communication moves two roles of one component
      and that component's state, and no process can ever name a partner
      outside its group. So the reachable product configurations are the
      tuples of reachable group configurations, and a product distance is
      the sum of the group distances.
    - Hence the configurations within max_depth are the tuples whose
      distances sum to at most max_depth, the convolution of the groups'
      per-level counts; the deepest level is the sum of the groups'
      deepest, capped at max_depth; and the search is complete iff that
      sum is below max_depth, since a configuration at max_depth is
      visited but never expanded.
    - An expanded product configuration, one below max_depth, has every
      group configuration below max_depth, so expanded in its group's
      search. A product stuck configuration is quiescent in every group
      and has a non-terminated process in some group, which is stuck
      there; a preservation break is one of the moving group; a cycle of
      internal steps projects to a closed internal walk of some group,
      which holds a cycle. So sound groups make a sound product, whose
      witness lists are empty.

    The converse fails: a stuck group may be masked by another group that
    never quiesces, or lie beyond the bound in the product. So the groups
    are searched in order until one violates, and then the session is
    searched as a product, as is one that does not split.
    """
    parts, owner = components(classifier)
    groups = _role_groups(parts, owner, sess)
    if groups:
        searched = []
        for i, group in groups:
            searched.append(_search(*components(parts[i]), group, max_depth))
            if not searched[-1][0].sound_at_depth:
                break
        else:
            return _product_of(searched, max_depth)
    return _search(parts, owner, sess, max_depth)[0]


def _role_groups(parts: tuple[Mlts, ...], owner: dict[str, int], sess: Session
                 ) -> Optional[list[tuple[int, Session]]]:
    """Each component's index and the sub-session of the roles it owns, for
    at least two non-empty groups; None unless every role has a component
    and every partner that its process names, anywhere in it, is owned by
    that component too. Substitution adds no role, so this holds all along
    every run."""
    if len(parts) < 2:
        return None
    groups: dict[int, list[tuple[Role, Process]]] = {}
    for role, proc in sess.entries:
        i = owner.get(role)
        partners = {obj(p) for p in iter_subprocesses(proc)} - {None}
        if i is None or any(owner.get(partner) != i for partner in partners):
            return None
        groups.setdefault(i, []).append((role, proc))
    if len(groups) < 2:
        return None
    return [(i, Session(tuple(entries))) for i, entries in sorted(groups.items())]


def _product_of(searched: list[tuple[ExploreReport, list[int]]], max_depth: int
                ) -> ExploreReport:
    """The report of the product of sound groups, from each group's report
    and count of configurations first reached at each level."""
    counts = [1]
    for _, levels in searched:
        merged = [0] * min(max_depth + 1, len(counts) + len(levels) - 1)
        for d, n in enumerate(counts):
            for e, m in enumerate(levels[:len(merged) - d]):
                merged[d + e] += n * m
        counts = merged
    total = sum(report.depth_reached for report, _ in searched)
    return ExploreReport(
        configs_visited=sum(counts),
        depth_reached=min(max_depth, total),
        complete=total < max_depth,
        stuck_non_final=(),
        tau_cycles=(),
        preservation_breaks=(),
    )


def _search(parts: tuple[Mlts, ...], owner: dict[str, int], sess: Session, max_depth: int
            ) -> tuple[ExploreReport, list[int]]:
    """explore's search of every configuration, and the number of
    configurations first reached at each level, from 1 at level 0."""
    memo: dict = {}
    initial = (sess, tuple(m.initial for m in parts))
    visited = {initial}
    frontier = [initial]
    levels = [1]
    stuck: list[Session] = []
    breaks: list[tuple[Session, RuntimeAction, tuple[int, ...]]] = []
    tau_edges: dict[Config, list[Config]] = {}
    depth = 0

    while frontier and depth < max_depth:
        next_frontier: list[Config] = []
        for config in frontier:
            current, state = config
            steps = session_step(current, memo)
            if not steps:
                if any(not isinstance(p, PEnd) for _, p in current.entries):
                    if len(stuck) < _WITNESS_CAP:
                        stuck.append(current)
                continue
            for action, after in steps:
                if isinstance(action, TauAction):
                    targets = (state,)
                    tau_edges.setdefault(config, []).append((after, state))
                else:
                    i = owner.get(action.sender)
                    targets = () if i is None else [
                        state[:i] + (t,) + state[i + 1:]
                        for t in parts[i].targets(state[i], action)]
                    if not targets:
                        if len(breaks) < _WITNESS_CAP:
                            breaks.append((current, action, state))
                        continue
                for t in targets:
                    succ = (after, t)
                    if succ not in visited:
                        visited.add(succ)
                        next_frontier.append(succ)
        frontier = next_frontier
        if frontier:
            depth += 1
            levels.append(len(frontier))

    report = ExploreReport(
        configs_visited=len(visited),
        depth_reached=depth,
        complete=not frontier,
        stuck_non_final=tuple(stuck),
        tau_cycles=tuple(_tau_cycles(tau_edges)),
        preservation_breaks=tuple(breaks),
    )
    return report, levels


def _tau_cycles(edges: dict) -> list[tuple]:
    """Cycles in the internal-step subgraph of the explored configurations."""
    cycles: list[tuple] = []
    done: set = set()
    for root in edges:
        if root in done:
            continue
        path: list = []
        on_path: set = set()

        def visit(node) -> None:
            if len(cycles) >= _WITNESS_CAP:
                return
            path.append(node)
            on_path.add(node)
            for succ in edges.get(node, ()):
                if succ in on_path:
                    cycles.append(tuple(path[path.index(succ):]))
                elif succ not in done:
                    visit(succ)
            on_path.discard(node)
            done.add(path.pop())

        visit(root)
    return cycles


# ---------------------------------------------------------------------------
# Serialisation


def trace_to_json_lines(trace: Trace) -> str:
    lines = []
    for action in trace.actions:
        if isinstance(action, TauAction):
            lines.append(json.dumps({"kind": "tau", "role": action.role}))
        else:
            lines.append(json.dumps({"kind": "comm", "from": action.sender, "to": action.receiver,
                                     "label": action.label, "payload": action.payload.value}))
    return "\n".join(lines) + ("\n" if lines else "")


def render_message_sequence(trace: Trace) -> str:
    """Plain-text message sequence: one line per action, taus indented."""
    lines = []
    for action in trace.actions:
        if isinstance(action, TauAction):
            lines.append(f"  [{action.role}] tau")
        else:
            lines.append(f"{action.sender} -> {action.receiver}: {action.label}({action.payload})")
    return "\n".join(lines) + ("\n" if lines else "")
